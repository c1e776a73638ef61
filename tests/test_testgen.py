"""Tests for the equivalence-partitioning test generator (paper §6.1)."""

import pytest

from helpers import generate_suite
from repro.gen import default_plan
from repro.script.ast import Script, ScriptStep
from repro.testgen import (SITUATIONS, missing_combinations,
                           situation_by_key, summarize)
from repro.testgen.generator import (gen_fd_tests, gen_handle_tests,
                                     gen_one_path_tests, gen_open_tests,
                                     gen_permission_tests,
                                     gen_two_path_tests)
from repro.testgen.properties import (PathProps, Resolution,
                                      impossible_combination)


class TestProperties:
    def test_every_possible_combination_is_covered(self):
        # The analogue of the paper's mechanical OCaml verification:
        # every logically-possible property combination has at least one
        # situation in the catalogue.
        missing = missing_combinations(s.props for s in SITUATIONS)
        assert missing == [], f"{len(missing)} uncovered combinations"

    def test_empty_path_constraints_certified(self):
        props = PathProps(ends_slash=True, leading_slashes=0, empty=True,
                          resolution=Resolution.ERROR, dir_empty=None,
                          symlink_component=False)
        assert impossible_combination(props) is not None

    def test_dir_empty_requires_dir_resolution(self):
        props = PathProps(ends_slash=False, leading_slashes=0,
                          empty=False, resolution=Resolution.FILE,
                          dir_empty=True, symlink_component=False)
        assert impossible_combination(props) is not None

    def test_plain_file_path_is_possible(self):
        props = PathProps(ends_slash=False, leading_slashes=0,
                          empty=False, resolution=Resolution.FILE,
                          dir_empty=None, symlink_component=False)
        assert impossible_combination(props) is None

    def test_situation_keys_unique(self):
        keys = [s.key for s in SITUATIONS]
        assert len(keys) == len(set(keys))

    def test_situation_lookup(self):
        assert situation_by_key("d_f").path == "d/f"


class TestGenerators:
    def test_one_path_tests_cover_all_situations(self):
        scripts = gen_one_path_tests()
        stat_tests = [s for s in scripts
                      if s.name.startswith("stat___")]
        assert len(stat_tests) == len(SITUATIONS)

    def test_two_path_tests_quadratic(self):
        scripts = gen_two_path_tests("rename")
        from repro.testgen.situations import CORE_KEYS
        assert len(scripts) >= len(CORE_KEYS) ** 2

    def test_two_path_includes_cross_classes(self):
        names = {s.name for s in gen_two_path_tests("rename")}
        assert "rename___cross_equal_file" in names
        assert "rename___cross_hardlinks_same_file" in names
        assert "rename___cross_prefix_src" in names

    def test_two_path_rejects_unknown_function(self):
        with pytest.raises(AssertionError):
            gen_two_path_tests("stat")

    def test_open_tests_multiply_flags(self):
        scripts = gen_open_tests()
        assert len(scripts) > 400  # situations x access x extras
        assert len({s.name for s in scripts}) == len(scripts)

    def test_fd_tests_exist(self):
        assert len(gen_fd_tests()) >= 30

    def test_handle_tests_exist(self):
        assert len(gen_handle_tests()) >= 12

    def test_permission_tests_multi_process(self):
        scripts = gen_permission_tests()
        assert len(scripts) >= 60
        multi = [s for s in scripts
                 if any(isinstance(item, ScriptStep) and item.pid == 2
                        for item in s.items)]
        assert multi, "permission tests must involve process 2"

    def test_all_scripts_have_unique_names(self):
        names = [s.name for s in default_plan().scripts()]
        assert len(names) == len(set(names))

    def test_all_scripts_parse_back(self):
        # Every generated script survives a print/parse round trip
        # (sanity for the on-disk format).
        import itertools

        from repro.script import parse_script, print_script
        for script in itertools.islice(default_plan().scripts(), 200):
            assert parse_script(print_script(script)) == script


class TestSuite:
    def test_suite_size(self):
        assert default_plan().estimate() >= 2500  # default population

    def test_summary_counts(self):
        suite = list(default_plan().scripts())
        summary = summarize(suite)
        assert summary.total == len(suite)
        assert "TOTAL" not in summary.counts  # no sentinel in counts
        assert sum(summary.counts.values()) == summary.total
        # open has the largest generated population (paper §6.1);
        # rename and link are quadratic and come next.
        assert summary.counts["open"] > summary.counts["rmdir"]
        assert summary.counts["rename"] > summary.counts["rmdir"]

    def test_scale_multiplies(self):
        base = default_plan()
        scaled = default_plan(scale=2)
        assert scaled.estimate() == 2 * base.estimate()
        names = [s.name for s in scaled.scripts()]
        assert len(names) == 2 * base.estimate()
        assert len(names) == len(set(names))

    def test_generate_suite_shim_matches_default_plan(self):
        # The reference is the classic eager suite (helpers.py).
        assert list(default_plan(scale=2).scripts()) == \
            generate_suite(scale=2)
