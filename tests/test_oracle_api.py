"""Tests for the unified oracle API.

Covers: the vectored multi-platform oracle's bit-for-bit parity with
independent ``TraceChecker`` passes (the acceptance criterion), prefix
memoization, the oracle registry,
``Session(check_on=...)`` with RunArtifact v3/v4 (exact round trips
plus loading checked-in v1/v2/v3 fixtures), portability and merge
folds, and the CLI surface (``repro check --platforms``, ``repro oracles``).
"""

import dataclasses
import json
import pathlib

import pytest

from repro.api import (RunArtifact, SerialBackend, Session,
                       ShardedBackend)
from repro.checker.checker import TraceChecker
from repro.cli import main
from repro.core.platform import SPECS, real_platforms, spec_by_name
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.harness import merge_verdicts, portability_report
from repro.oracle import (ModelOracle, VectoredOracle, create_oracle,
                          get_oracle, oracle_name_for, oracle_names)
from repro.script import parse_script, parse_trace
from repro.testgen.generator import gen_handwritten_tests

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SMALL_SUITE = [parse_script(text) for text in (
    '@type script\n# Test mkdir_ok\nmkdir "a" 0o755\nstat "a"\n',
    '@type script\n# Test unlink_dir\nmkdir "a" 0o755\nunlink "a"\n',
    '@type script\n# Test fig4\nmkdir "emptydir" 0o777\n'
    'mkdir "nonemptydir" 0o777\n'
    'open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
    'rename "emptydir" "nonemptydir"\n',
)]

#: Allowed on Linux (and the POSIX envelope), rejected by OS X/FreeBSD.
LINUX_ONLY_TRACE = """\
@type trace
# Test linux_only
1: mkdir "a" 0o755
RV_none
2: unlink "a"
EISDIR
"""

#: Rejected by every variant: mkdir on a fresh fs cannot fail EPERM.
NOWHERE_TRACE = """\
@type trace
# Test nowhere
1: mkdir "a" 0o755
EPERM
"""


def _handwritten_traces(config_name):
    quirks = config_by_name(config_name)
    return [execute_script(quirks, script)
            for script in gen_handwritten_tests()]


def _profiles_match(profile, checked):
    return (profile.deviations == checked.deviations
            and profile.max_state_set == checked.max_state_set
            and profile.labels_checked == checked.labels_checked
            and profile.pruned == checked.pruned)


class TestVectoredParity:
    # The suite-level vectored-vs-uninterned parity sweeps moved to the
    # cross-engine harness (tests/test_engine_parity.py over
    # helpers_parity.ENGINES); this class keeps only the oracle-API
    # specific behaviours around them.

    def test_model_oracle_is_tracechecker_shim_parity(self):
        """``TraceChecker`` and a model oracle run the same loop: the
        same verdicts on the handwritten suite, and a verdict's
        ``primary_checked`` is the checker's ``CheckedTrace``."""
        oracle = ModelOracle("linux")
        checker = TraceChecker(spec_by_name("linux"))
        for trace in _handwritten_traces("linux_sshfs_tmpfs"):
            profile = oracle.check(trace).primary
            checked = checker.check(trace)
            assert _profiles_match(profile, checked), trace.name
            assert oracle.check(trace).primary_checked == checked

    def test_cache_does_not_change_verdicts(self):
        traces = _handwritten_traces("linux_btrfs")
        cached = VectoredOracle(tuple(SPECS))
        uncached = VectoredOracle(tuple(SPECS), cache=False)
        first = [cached.check(t).profiles for t in traces]
        assert [uncached.check(t).profiles for t in traces] == first
        hits_before = cached.cache.stats()["hits"]
        assert [cached.check(t).profiles for t in traces] == first
        assert cached.cache.stats()["hits"] > hits_before

    def test_subset_and_order(self):
        oracle = VectoredOracle(("osx", "linux"))
        assert oracle.name == "vectored:osx+linux"
        verdict = oracle.check(parse_trace(LINUX_ONLY_TRACE))
        assert verdict.primary.platform == "osx"
        assert verdict.accepted_on == ("linux",)
        assert verdict.rejected_on == ("osx",)
        assert not verdict.accepted
        with pytest.raises(KeyError):
            verdict.profile_for("freebsd")

    def test_duplicate_platforms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            VectoredOracle(("linux", "linux"))
        with pytest.raises(ValueError):
            VectoredOracle(())


class TestPrefixCache:
    def test_shared_prefixes_hit(self):
        quirks = config_by_name("linux_ext4")
        shared = [parse_script(
            '@type script\n# Test shared_%d\nmkdir "setup" 0o755\n'
            'mkdir "setup/sub" 0o755\nopen "setup/f" '
            '[O_CREAT;O_WRONLY] 0o644\n%s\n' % (i, op))
            for i, op in enumerate(('stat "setup"', 'rmdir "setup/sub"',
                                    'unlink "setup/f"'))]
        oracle = ModelOracle("linux")
        for script in shared:
            oracle.check(execute_script(quirks, script))
        stats = oracle.cache.stats()
        assert stats["hits"] > 0  # later scripts reuse the setup prefix

    def test_shared_cache_partitioned_by_oracle_config(self):
        # Every oracle owns its stored path, so oracles of different
        # platforms never trade snapshots: linux's accepting states
        # would make the osx oracle accept a linux-only trace.
        linux = ModelOracle("linux")
        osx = ModelOracle("osx")
        trace = parse_trace(LINUX_ONLY_TRACE)
        assert linux.check(trace).accepted
        assert not osx.check(trace).accepted
        assert osx.cache.hits == 0            # nothing of linux's path
        assert not osx.check(trace).accepted  # from its own path
        assert osx.cache.hits > 0

    def test_snapshots_keyed_by_process_population(self):
        # Same visible labels, different implicit process: the trie
        # path includes the implicit creates, so no snapshot is shared.
        t1 = parse_trace('@type trace\n# Test p1\n1: mkdir "a" 0o755\n'
                         'RV_none\n')
        t2 = parse_trace('@type trace\n# Test p2\n'
                         '@process create p2 uid=0 gid=0\n'
                         '1: p2: mkdir "a" 0o755\np2: RV_none\n')
        oracle = ModelOracle("linux")
        assert oracle.check(t1).accepted
        assert oracle.check(t2).accepted
        assert oracle.check(t1).accepted  # hit, not cross-talk


class TestRegistry:
    def test_builtin_names(self):
        assert oracle_names() == [*SPECS, "all"]

    def test_get_memoizes_create_does_not(self):
        assert get_oracle("linux") is get_oracle("linux")
        assert create_oracle("linux") is not create_oracle("linux")
        assert get_oracle("linux", cache=False) is not \
            get_oracle("linux")

    def test_vectored_names_parse(self):
        oracle = get_oracle("vectored:freebsd+posix")
        assert oracle.platforms == ("freebsd", "posix")

    def test_unknown_oracle_raises(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            create_oracle("quantum")
        with pytest.raises(ValueError):
            create_oracle("vectored:linux+atari")

    def test_oracle_name_for(self):
        assert oracle_name_for(["linux"]) == "linux"
        assert oracle_name_for(list(SPECS)) == "all"
        assert oracle_name_for(["linux", "osx"]) == \
            "vectored:linux+osx"
        with pytest.raises(ValueError):
            oracle_name_for([])


def _strip_volatile(artifact):
    return dataclasses.replace(artifact, backend="-", exec_seconds=0.0,
                               check_seconds=0.0, engine_stats=())


class TestSessionCheckOn:
    def test_artifact_v3_exact_round_trip(self):
        with Session("linux_sshfs_tmpfs", model="posix",
                     check_on=list(SPECS), suite=SMALL_SUITE) as s:
            artifact = s.run()
        assert artifact.check_on == tuple(SPECS)
        assert len(artifact.profiles) == artifact.total
        assert all(len(row) == len(SPECS) for row in artifact.profiles)
        assert artifact.failing  # deviations must survive the trip
        assert RunArtifact.from_json(artifact.to_json()) == artifact

    def test_fixture_v1_loads(self):
        artifact = RunArtifact.load(FIXTURES / "artifact_v1.json")
        assert artifact.total == 2
        assert artifact.config == "linux_sshfs_tmpfs"
        assert artifact.plan == "" and artifact.seeds == ()
        assert artifact.check_on == () and artifact.profiles == ()
        assert "fig4" in {f.trace_name for f in artifact.failing}

    def test_fixture_v2_loads(self):
        artifact = RunArtifact.load(FIXTURES / "artifact_v2.json")
        assert artifact.total == 2
        assert artifact.plan == "explicit[2]"
        assert artifact.check_on == () and artifact.profiles == ()
        # v2 round-trips through the current writer (profiles absent).
        assert RunArtifact.from_json(artifact.to_json()).checked == \
            artifact.checked

    def test_fixture_v3_loads(self):
        artifact = RunArtifact.load(FIXTURES / "artifact_v3.json")
        assert artifact.total == 2
        assert artifact.check_on == tuple(SPECS)
        assert all(len(row) == len(SPECS) for row in artifact.profiles)
        assert artifact.engine_stats == ()  # pre-v4: no engine stats
        assert artifact.failing
        # v3 round-trips through the v4 writer unchanged.
        reloaded = RunArtifact.from_json(artifact.to_json())
        assert reloaded.profiles == artifact.profiles
        assert reloaded.checked == artifact.checked


class TestRunArtifactV5:
    def test_engine_stats_round_trip(self):
        """RunArtifact v6: the sharded backend's shard count, verdict
        memo hits and persistent-pool counters survive an exact JSON
        round trip."""
        with ShardedBackend(2) as backend, \
                Session("linux_sshfs_tmpfs", model="posix",
                        check_on=list(SPECS), suite=SMALL_SUITE * 3,
                        backend=backend) as s:
            artifact = s.run()
        # Each repeat of the suite lands on the shard that already
        # memoized its text.
        assert dict(artifact.engine_stats) == {
            "shards": 2, "warmup_traces": 0, "pool_cold_starts": 1,
            "verdict_hits": 2 * len(SMALL_SUITE)}
        assert artifact.failing  # deviations must survive the trip too
        assert RunArtifact.from_json(artifact.to_json()) == artifact
        payload = json.loads(artifact.to_json())
        assert payload["format"] == 6
        assert payload["engine_stats"]["shards"] == 2

    def test_fixture_v4_loads(self):
        artifact = RunArtifact.load(FIXTURES / "artifact_v4.json")
        assert artifact.total == 6
        assert artifact.check_on == tuple(SPECS)
        stats = dict(artifact.engine_stats)
        assert stats["shards"] == 2 and stats["arena_rows"] > 0
        assert "pool_cold_starts" not in stats  # pre-v5 writer
        # v4 round-trips through the v5 writer unchanged.
        reloaded = RunArtifact.from_json(artifact.to_json())
        assert reloaded.engine_stats == artifact.engine_stats
        assert reloaded.checked == artifact.checked

    def test_fixture_v5_loads(self):
        artifact = RunArtifact.load(FIXTURES / "artifact_v5.json")
        assert artifact.total == 6
        stats = dict(artifact.engine_stats)
        assert stats["pool_cold_starts"] == 1
        assert "compiled_hits" not in stats  # pre-v6 writer
        # v5 round-trips through the v6 writer unchanged.
        reloaded = RunArtifact.from_json(artifact.to_json())
        assert reloaded.engine_stats == artifact.engine_stats
        assert reloaded.checked == artifact.checked

    def test_v6_compiled_engine_counters_load(self):
        """v6 artifacts written while the compiled engine existed carry
        its hit/miss counters in ``engine_stats``; they still load and
        round-trip unchanged."""
        payload = json.loads(
            (FIXTURES / "artifact_v5.json").read_text())
        payload["format"] = 6
        payload["engine_stats"].update(compiled_hits=3,
                                       compiled_misses=5)
        artifact = RunArtifact.from_json(json.dumps(payload))
        stats = dict(artifact.engine_stats)
        assert (stats["compiled_hits"], stats["compiled_misses"]) == (3, 5)
        assert json.loads(artifact.to_json()) == payload
        assert RunArtifact.from_json(artifact.to_json()) == artifact

    def test_backends_without_run_stats_record_nothing(self):
        with Session("linux_ext4", suite=SMALL_SUITE) as s:
            artifact = s.run()
        assert artifact.engine_stats == ()
        assert RunArtifact.from_json(artifact.to_json()) == artifact

    def test_conformance_counts_and_failing_on(self):
        with Session("linux_ext4", check_on=["linux", "osx"],
                     suite=SMALL_SUITE) as s:
            artifact = s.run()
        counts = artifact.conformance_counts()
        assert counts["linux"] == 3
        # unlink of a directory: EISDIR is Linux-only behaviour.
        assert counts["osx"] == 2
        assert {f.trace_name
                for f in artifact.failing_on("osx")} == {"unlink_dir"}
        assert artifact.failing_on("linux") == ()
        with pytest.raises(KeyError):
            artifact.failing_on("freebsd")
        assert "conformance by platform" in artifact.render_summary()

    def test_single_platform_check_on_degenerates(self):
        with Session("linux_ext4", check_on=["linux"],
                     suite=SMALL_SUITE[:1]) as s:
            artifact = s.run()
        assert artifact.check_on == ()
        assert artifact.profiles == ()

    def test_serial_and_pool_profiles_identical(self):
        with Session("linux_sshfs_tmpfs", check_on=list(SPECS),
                     suite=SMALL_SUITE) as s:
            serial = s.run()
        with Session("linux_sshfs_tmpfs", check_on=list(SPECS),
                     suite=SMALL_SUITE,
                     backend=ShardedBackend(2)) as s:
            pooled = s.run()
        assert _strip_volatile(serial) == _strip_volatile(pooled)
        assert serial.profiles == pooled.profiles

    def test_invalid_check_on_platform_rejected(self):
        with pytest.raises(ValueError):
            Session("linux_ext4", check_on=["atari"],
                    suite=SMALL_SUITE)

    def test_empty_suite_still_reports_all_platforms(self):
        with Session("linux_ext4", check_on=list(SPECS),
                     suite=[]) as s:
            artifact = s.run()
        assert artifact.check_on == ("linux",) + tuple(
            p for p in SPECS if p != "linux")
        assert set(artifact.conformance_counts()) == set(SPECS)
        assert artifact.failing_on("posix") == ()

    def test_check_on_rejects_backend_ignoring_the_oracle(self):
        class PrimaryOnly(SerialBackend):
            """Checks every script on the primary model alone."""

            def run_iter(self, quirks, model, scripts, *,
                         collect_coverage=False):
                return super().run_iter(
                    quirks, "linux", scripts,
                    collect_coverage=collect_coverage)

        with pytest.raises(ValueError, match="oracle-aware"):
            Session("linux_ext4", check_on=["linux", "osx"],
                    suite=SMALL_SUITE, backend=PrimaryOnly()).run()


class TestPortabilityAndMerge:
    def test_real_platforms_helper(self):
        assert real_platforms() == ("linux", "osx", "freebsd")
        assert "posix" not in real_platforms()

    def test_portability_report_from_verdict(self):
        verdict = get_oracle("all").check(parse_trace(LINUX_ONLY_TRACE))
        report = portability_report(verdict)
        assert not report.portable
        assert "linux" in report.accepted_on
        assert "posix" in report.accepted_on
        assert any("EPERM" in m for m in report.rejected_on["osx"])

    def test_merge_verdicts_platform_axis(self):
        oracle = get_oracle("all")
        records = merge_verdicts([
            oracle.check(parse_trace(LINUX_ONLY_TRACE)),
            oracle.check(parse_trace(NOWHERE_TRACE)),
        ])
        by_trace = {}
        for record in records:
            by_trace.setdefault(record.trace_name, []).append(record)
        linux_only = by_trace["linux_only"]
        assert all(set(r.configs) <= {"osx", "freebsd"}
                   for r in linux_only)
        assert not any(r.spans_real_platforms for r in linux_only)
        nowhere = by_trace["nowhere"]
        assert any(r.spans_real_platforms for r in nowhere)


class TestCliOracle:
    @pytest.fixture
    def linux_only_trace(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(LINUX_ONLY_TRACE)
        return str(path)

    def test_check_platforms_all(self, linux_only_trace, capsys):
        assert main(["check", linux_only_trace,
                     "--platforms", "all"]) == 1
        out = capsys.readouterr().out
        assert "linux" in out and "osx" in out and "REJECTED" in out

    def test_check_platforms_single(self, linux_only_trace, capsys):
        assert main(["check", linux_only_trace,
                     "--platforms", "linux"]) == 0

    def test_check_platforms_real(self, linux_only_trace, capsys):
        assert main(["check", linux_only_trace,
                     "--platforms", "real"]) == 1
        out = capsys.readouterr().out
        assert "posix" not in out

    def test_check_platforms_typo_errors(self, linux_only_trace):
        with pytest.raises(ValueError):
            main(["check", linux_only_trace, "--platforms", "atari"])

    def test_oracles_listing(self, capsys):
        assert main(["oracles"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [*oracle_names(), "vectored:A+B[+...]"]

    def test_run_check_on_writes_v3_artifact(self, tmp_path, capsys):
        blob = tmp_path / "artifact.json"
        assert main(["run", "--config", "linux_ext4", "--limit", "8",
                     "--check-on", "all",
                     "--artifact", str(blob)]) == 0
        loaded = RunArtifact.load(blob)
        # The config's platform stays primary; --check-on adds the rest.
        assert loaded.check_on[0] == "linux"
        assert set(loaded.check_on) == set(SPECS)
        assert len(loaded.profiles) == 8
        assert "conformance by platform" in capsys.readouterr().out
