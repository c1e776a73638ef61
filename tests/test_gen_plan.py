"""Tests for the composable TestPlan API: strategies, registry,
combinators, streaming generation and provenance."""

import dataclasses
import itertools

import pytest

from helpers import generate_suite
from repro.api import RunArtifact, Session, ShardedBackend, survey
from repro.cli import main
from repro.core.coverage import REGISTRY as COVERAGE
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.gen import (EMPTY, REGISTRY, DEFAULT_STRATEGY_NAMES,
                       FunctionStrategy, RandomizedStrategy,
                       StrategyPlan, StrategyRegistry, build_plan,
                       default_plan, explicit, get_strategy, union)
from repro.harness.differential import differential_run
from repro.oracle import get_oracle
from repro.script import parse_script, print_script
from repro.service.pool import CHUNK, WINDOW

SMALL_SUITE = [parse_script(text) for text in (
    '@type script\n# Test mkdir_ok\nmkdir "a" 0o755\nstat "a"\n',
    '@type script\n# Test rmdir_missing\nrmdir "missing"\n',
    '@type script\n# Test fig4\nmkdir "emptydir" 0o777\n'
    'mkdir "nonemptydir" 0o777\n'
    'open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
    'rename "emptydir" "nonemptydir"\n',
)]


def _strip_volatile(artifact: RunArtifact) -> RunArtifact:
    return dataclasses.replace(artifact, backend="-",
                               exec_seconds=0.0, check_seconds=0.0,
                               engine_stats=())


class TestRegistry:
    def test_every_classic_generator_is_registered(self):
        for name in DEFAULT_STRATEGY_NAMES:
            assert name in REGISTRY
        assert "randomized" in REGISTRY

    def test_estimates_are_exact_for_builtin_strategies(self):
        for strategy in REGISTRY:
            assert strategy.estimate() == \
                sum(1 for _ in strategy.scripts())

    def test_matching_globs_and_typo_error(self):
        names = [s.name for s in REGISTRY.matching(["two_path:*"])]
        assert names == ["two_path:rename", "two_path:link",
                         "two_path:symlink"]
        with pytest.raises(KeyError, match="no registered strategy"):
            REGISTRY.matching(["tow_path:*"])

    def test_get_unknown_strategy_names_alternatives(self):
        with pytest.raises(KeyError, match="one_path"):
            get_strategy("nope")

    def test_register_refuses_silent_clobber(self):
        registry = StrategyRegistry()
        strategy = FunctionStrategy("x", lambda: [], estimate=0)
        registry.register(strategy)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(strategy)
        registry.register(strategy, replace=True)  # explicit is fine

    def test_default_plan_matches_deprecated_generate_suite(self):
        # The reference is the classic eager suite (helpers.py).
        assert list(default_plan().scripts()) == generate_suite()


class TestCombinators:
    def test_filter_by_name_globs(self):
        plan = default_plan().filter(include=["rename*"],
                                     exclude=["rename___cross_*"])
        names = [s.name for s in plan.scripts()]
        assert names
        assert all(n.startswith("rename") for n in names)
        assert not any(n.startswith("rename___cross_") for n in names)
        assert plan.estimate() == len(names)

    def test_filter_by_tag_prunes_before_generation(self):
        plan = default_plan().filter(tags=["two-path"])
        strategies = {s.name for s in plan.strategies()}
        assert strategies == {"two_path:rename", "two_path:link",
                              "two_path:symlink"}

    def test_tag_filter_matching_nothing_is_empty(self):
        plan = default_plan().filter(tags=["no-such-tag"])
        assert plan.estimate() == 0
        assert list(plan.scripts()) == []
        assert plan is EMPTY

    def test_tag_filter_on_explicit_plan_rejected(self):
        with pytest.raises(ValueError, match="not strategy-backed"):
            explicit(SMALL_SUITE).filter(tags=["generated"])

    def test_sample_is_seeded_and_order_stable(self):
        plan = default_plan().sample(50, seed=7)
        first = [s.name for s in plan.scripts()]
        second = [s.name for s in plan.scripts()]
        assert first == second and len(first) == 50
        other = [s.name for s in
                 default_plan().sample(50, seed=8).scripts()]
        assert first != other
        # Generation order is preserved within the sample.
        full = [s.name for s in default_plan().scripts()]
        positions = [full.index(n) for n in first]
        assert positions == sorted(positions)

    def test_sample_larger_than_population_keeps_everything(self):
        plan = explicit(SMALL_SUITE).sample(10, seed=0)
        assert [s.name for s in plan.scripts()] == \
            [s.name for s in SMALL_SUITE]

    def test_shuffle_is_seeded_permutation(self):
        base = [s.name for s in default_plan().take(30).scripts()]
        shuffled = [s.name for s in
                    default_plan().take(30).shuffle(seed=3).scripts()]
        assert shuffled != base
        assert sorted(shuffled) == sorted(base)
        again = [s.name for s in
                 default_plan().take(30).shuffle(seed=3).scripts()]
        assert shuffled == again

    def test_scale_renames_copies(self):
        plan = explicit(SMALL_SUITE).scale(3)
        names = [s.name for s in plan.scripts()]
        assert len(names) == 9
        assert names[3] == "mkdir_ok__r1" and names[6] == "mkdir_ok__r2"
        assert plan.estimate() == 9
        assert explicit(SMALL_SUITE).scale(1) is not None  # no-op ok

    def test_union_operator_concatenates(self):
        plan = explicit(SMALL_SUITE[:1]) | explicit(SMALL_SUITE[1:])
        assert [s.name for s in plan.scripts()] == \
            [s.name for s in SMALL_SUITE]

    def test_take_limits(self):
        assert sum(1 for _ in default_plan().take(5).scripts()) == 5

    def test_describe_and_seeds_provenance(self):
        plan = build_plan(include=["rename*"], sample=10, seed=7)
        assert plan.describe() == \
            "default.filter(include=rename*).sample(10,seed=7)"
        assert plan.seeds() == (7,)
        randomized = union(RandomizedStrategy(count=5, seed=42))
        assert "seed=42" in randomized.describe()
        assert randomized.seeds() == (42,)

    def test_plans_are_lazy(self):
        calls = []

        def noisy():
            calls.append(1)
            return list(SMALL_SUITE)

        plan = union(FunctionStrategy("noisy", noisy,
                                      estimate=3)).sample(2, seed=0)
        assert not calls  # building the plan generated nothing
        assert plan.estimate() == 2  # estimate uses the declared count
        assert not calls
        list(plan.scripts())
        assert calls == [1]


class TestSuiteInvariants:
    def test_names_unique_across_all_strategies_at_scale_2(self):
        plan = union(*REGISTRY, label="everything").scale(2)
        names = [s.name for s in plan.scripts()]
        assert len(names) == len(set(names))

    def test_print_parse_round_trip_on_sample_from_every_strategy(self):
        for strategy in REGISTRY:
            for script in itertools.islice(strategy.scripts(), 25):
                assert parse_script(print_script(script)) == script, \
                    (strategy.name, script.name)


class TestStreamingGeneration:
    def test_checking_begins_before_generation_completes(self):
        produced = []

        class Probe:
            name = "probe"
            tags = frozenset({"probe"})

            def estimate(self):
                return len(SMALL_SUITE)

            def scripts(self):
                for script in SMALL_SUITE:
                    produced.append(script.name)
                    yield script

        produced_at_first_check = None
        with Session("linux_ext4", plan=StrategyPlan(Probe())) as s:
            for _checked in s.iter_checked():
                if produced_at_first_check is None:
                    produced_at_first_check = len(produced)
            artifact = s.run()  # cached; generation ran exactly once
        assert produced_at_first_check < len(SMALL_SUITE)
        assert len(produced) == len(SMALL_SUITE)
        assert artifact.total == len(SMALL_SUITE)

    def test_exact_consumption_of_lazy_stream_caches_artifact(self):
        from itertools import islice

        from repro.checker.checker import TraceChecker

        session = Session("linux_ext4", plan=default_plan().take(5))
        consumed = list(islice(session.iter_checked(), 5))
        assert session._artifact is not None  # no re-run on .run()
        assert len(consumed) == 5
        real = TraceChecker.check
        try:
            TraceChecker.check = None  # any re-check would blow up
            assert session.run().total == 5
        finally:
            TraceChecker.check = real
        session.close()

    def test_survey_materializes_a_plan_exactly_once(self):
        generations = []

        class Probe:
            name = "probe"
            tags = frozenset()

            def estimate(self):
                return len(SMALL_SUITE)

            def scripts(self):
                generations.append(1)
                return iter(SMALL_SUITE)

        artifacts = survey(["linux_ext4", "linux_sshfs_tmpfs"],
                           plan=StrategyPlan(Probe()))
        assert len(generations) == 1  # not once per configuration
        assert all(a.total == len(SMALL_SUITE) for a in artifacts)
        assert all(a.plan == "probe" for a in artifacts)

    def test_cheap_estimate_never_generates(self):
        plan = default_plan().filter(include=["rename*"])
        assert plan.cheap_estimate() is None  # counting would generate
        assert plan.sample(100, seed=7).cheap_estimate() == 100
        assert default_plan().take(30).cheap_estimate() == 30
        # Builtin strategies declare their counts, so the default plan
        # has a cheap total; an undeclared custom strategy does not.
        assert default_plan().cheap_estimate() == \
            default_plan().estimate()

        def boom():
            raise AssertionError("cheap_estimate generated")

        lazy = union(FunctionStrategy("lazy", boom))
        assert lazy.cheap_estimate() is None

    def test_plan_run_never_materializes_the_suite(self):
        with Session("linux_ext4",
                     plan=default_plan().take(20)) as session:
            artifact = session.run()
        assert artifact.total == 20
        assert session._suite is None  # nothing pinned the suite

    def test_process_pool_feed_is_bounded(self):
        # Longer than the sharded window (WINDOW * CHUNK items per
        # shard), so only the window, not the timing, can stop the
        # feeder from draining the stream before the first result.
        total = 2001
        produced = []

        class Probe:
            name = "probe"
            tags = frozenset()

            def estimate(self):
                return total

            def scripts(self):
                for script in SMALL_SUITE * (total // len(SMALL_SUITE)):
                    produced.append(script.name)
                    yield script

        produced_at_first_check = None
        assert total > WINDOW * CHUNK
        with Session("linux_ext4", plan=StrategyPlan(Probe()),
                     backend=ShardedBackend(1)) as s:
            for _checked in s.iter_checked():
                if produced_at_first_check is None:
                    produced_at_first_check = len(produced)
        # The bounded window means the feeder cannot have drained the
        # whole generator before the first result came back: it holds
        # the window, the pull blocked on it, and one more per result
        # the session took (it reads one record ahead).
        assert produced_at_first_check <= WINDOW * CHUNK + 3
        assert len(produced) == total

    def test_streamed_pool_artifact_matches_serial(self):
        plan = build_plan(include=["fdseq*"], sample=12, seed=1)
        with Session("linux_ext4", plan=plan) as s:
            serial = s.run()
        with Session("linux_ext4", plan=plan,
                     backend=ShardedBackend(2)) as s:
            pooled = s.run()
        assert _strip_volatile(serial) == _strip_volatile(pooled)

    def test_streamed_coverage_matches_two_phase(self):
        plan = explicit(SMALL_SUITE)
        with Session("linux_ext4", plan=plan,
                     collect_coverage=True) as s:
            streamed = s.run()
        # The same suite executed, then checked on an uncached oracle.
        quirks = config_by_name("linux_ext4")
        traces = [execute_script(quirks, script) for script in SMALL_SUITE]
        oracle = get_oracle("linux", cache=False)
        COVERAGE.reset_hits()
        verdicts = [oracle.check(trace) for trace in traces]
        assert set(streamed.covered_clauses) == COVERAGE.hit_names()
        assert streamed.checked == tuple(v.primary_checked
                                         for v in verdicts)


class TestReproducibleRuns:
    def test_sampled_cli_run_reproduces_identical_artifact(self,
                                                           tmp_path):
        blob_a = tmp_path / "a.json"
        blob_b = tmp_path / "b.json"
        argv = ["run", "--config", "linux_ext4", "--include", "rename*",
                "--sample", "100", "--seed", "7"]
        assert main(argv + ["--artifact", str(blob_a)]) == 0
        assert main(argv + ["--artifact", str(blob_b),
                            "--shards", "2"]) == 0
        first = RunArtifact.load(blob_a)
        second = RunArtifact.load(blob_b)
        assert _strip_volatile(first) == _strip_volatile(second)
        assert first.total == 100
        assert first.seeds == (7,)
        assert "sample(100,seed=7)" in first.plan

    def test_randomized_runs_reachable_and_reproducible(self, tmp_path):
        blob = tmp_path / "r.json"
        argv = ["run", "--config", "linux_ext4", "--plan", "randomized",
                "--sample", "25", "--seed", "3",
                "--artifact", str(blob)]
        assert main(argv) == 0
        artifact = RunArtifact.load(blob)
        assert artifact.total == 25
        assert 3 in artifact.seeds  # the randomized seed is recorded
        assert artifact.plan.startswith("randomized[")
        assert all(c.trace.name.startswith("random___")
                   for c in artifact.checked)
        # A re-run from the same flags reproduces the same scripts.
        blob2 = tmp_path / "r2.json"
        assert main(argv[:-1] + [str(blob2)]) == 0
        assert _strip_volatile(RunArtifact.load(blob2)) == \
            _strip_volatile(artifact)
        # A different seed generates different content.
        other = build_plan(names=["randomized"], sample=25, seed=4)
        assert [s.name for s in other.scripts()] != \
            [c.trace.name for c in artifact.checked]

    def test_cli_plans_lists_strategies_with_estimates(self, capsys):
        assert main(["plans"]) == 0
        out = capsys.readouterr().out
        for name in ("one_path", "two_path:rename", "randomized"):
            assert name in out
        assert "TOTAL" in out


class TestPlanThroughApi:
    def test_session_rejects_plan_and_suite_together(self):
        with pytest.raises(ValueError, match="not both"):
            Session("linux_ext4", plan=explicit(SMALL_SUITE),
                    suite=SMALL_SUITE)

    def test_survey_accepts_plan(self):
        artifacts = survey(["linux_ext4", "linux_sshfs_tmpfs"],
                           plan=explicit(SMALL_SUITE))
        assert [a.config for a in artifacts] == \
            ["linux_ext4", "linux_sshfs_tmpfs"]
        assert all(a.total == 3 for a in artifacts)
        assert all(a.plan == "explicit[3]" for a in artifacts)

    def test_differential_run_accepts_plan(self):
        plan = build_plan(include=["rename*"], sample=30, seed=2)
        from_plan = differential_run("linux_ext4", "linux_sshfs_tmpfs",
                                     plan)
        from_suite = differential_run("linux_ext4",
                                      "linux_sshfs_tmpfs",
                                      list(plan.scripts()))
        assert from_plan.total == 30
        assert from_plan.differences == from_suite.differences

    def test_artifact_json_records_plan_and_seeds(self):
        plan = explicit(SMALL_SUITE).sample(2, seed=9)
        with Session("linux_ext4", plan=plan) as s:
            artifact = s.run()
        restored = RunArtifact.from_json(artifact.to_json())
        assert restored == artifact
        assert restored.plan == "explicit[3].sample(2,seed=9)"
        assert restored.seeds == (9,)

    def test_v1_artifact_json_still_loads(self):
        with Session("linux_ext4", suite=SMALL_SUITE) as s:
            artifact = s.run()
        import json

        payload = json.loads(artifact.to_json())
        payload["format"] = 1
        del payload["plan"], payload["seeds"]
        loaded = RunArtifact.from_json(json.dumps(payload))
        assert loaded.plan == "" and loaded.seeds == ()
        assert loaded.checked == artifact.checked
