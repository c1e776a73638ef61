"""Cross-engine parity: every engine, one harness.

The scattered per-PR parity tests (interned vs uninterned in
``test_engine_intern``, vectored vs independent checkers in
``test_oracle_api``) are replaced by this single parametrized harness
over the :data:`helpers_parity.ENGINES` registry — {uninterned,
interned, vectored, sharded, service} today, one ``register_engine``
call for whatever comes next.  Coverage is the handwritten suite on a
clean and a quirky configuration (deviations, recovery, pruning
included) plus a seeded randomized property sweep, and an end-to-end
:class:`~repro.harness.backends.ShardedBackend` pass against the
serial artifact.  The execution axis holds prefix-resumed execution
(:class:`~repro.executor.ScriptExecutor`) to fresh
:func:`~repro.executor.execute_script` runs on every configuration, and
the envelope axis holds the quirk-free executor's traces inside the
model.
"""

import dataclasses
import itertools
import sys
import threading

import pytest

from helpers_parity import (ENGINES, PARITY_CONFIGS, RESUMPTION_CASES,
                            baseline_rows, envelope_scripts,
                            execution_orders, execution_scripts,
                            handwritten_traces, resumption_scripts,
                            trace_orders)
from repro.api import SerialBackend, Session, ShardedBackend
from repro.core.platform import SPECS
from repro.executor import ScriptExecutor, execute_script
from repro.fsimpl import ALL_CONFIGS, KernelFS, Quirks, config_by_name
from repro.oracle import ModelOracle
from repro.osapi.os_state import OsState
from repro.osapi.process import Process
from repro.script import parse_script
from repro.testgen.randomized import random_suite
from repro.util.fdict import fdict

ALL_PLATFORMS = tuple(SPECS)


def test_registry_covers_every_engine():
    """The acceptance criterion: all five engines register here, and
    new engines get parity coverage by registering too."""
    assert {"uninterned", "interned", "vectored",
            "sharded", "service"} <= set(ENGINES)


def test_profile_order_follows_oracle_platforms():
    """Verdict profiles come back in the oracle's platform order —
    every backend reads ``profiles[0]`` as the primary verdict, so
    ordering is load-bearing, not cosmetic."""
    from repro.oracle import VectoredOracle

    trace = handwritten_traces("linux_ext4")[0]
    for platforms in (ALL_PLATFORMS, ("osx", "linux")):
        verdict = VectoredOracle(platforms).check(trace)
        assert tuple(p.platform for p in verdict.profiles) == \
            tuple(platforms)


@pytest.mark.parametrize("config", PARITY_CONFIGS)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_handwritten_suite_parity(engine, config):
    """Bit-for-bit identical rows on the handwritten suite, every
    platform, clean and quirky configurations, in every trace order of
    :func:`helpers_parity.trace_orders`, one warm engine across the
    orders."""
    traces = handwritten_traces(config)
    check = ENGINES[engine](ALL_PLATFORMS)
    want = baseline_rows(config, ALL_PLATFORMS)
    for order_name, order in trace_orders(traces).items():
        got = check([traces[i] for i in order])
        for i, got_rows in zip(order, got):
            name = traces[i].name
            assert set(got_rows) == set(ALL_PLATFORMS), \
                (engine, order_name, name)
            for platform in ALL_PLATFORMS:
                assert got_rows[platform] == want[i][platform], \
                    (engine, config, order_name, name, platform)


def _warm_streams(traces):
    """The adversarial streams for a warm oracle's stored path."""
    return {
        "all-repeat": [t for trace in traces for t in (trace, trace)],
        "alternating": [traces[i]
                        for i in trace_orders(traces)["alternating"]],
        "all-novel": list(traces),
    }


@pytest.mark.parametrize("stream", ["all-repeat", "alternating",
                                    "all-novel"])
def test_warm_oracle_streams(stream):
    """One warm oracle over an all-repeat, an alternating and an
    all-novel stream: every verdict equals an uncached oracle's, a
    repeat restores the whole path, and the path never grows past the
    longest trace's labels plus its implicit creates."""
    from repro.checker.checker import implicit_creates
    from repro.oracle import VectoredOracle

    if stream == "all-novel":
        quirks = config_by_name("linux_sshfs_tmpfs")
        traces = [execute_script(quirks, script)
                  for script in random_suite(12, base_seed=2026,
                                             length=25)]
    else:
        traces = list(handwritten_traces("linux_sshfs_tmpfs"))
    uncached = VectoredOracle(ALL_PLATFORMS, cache=False)
    want = {trace.name: uncached.check(trace).profiles
            for trace in traces}
    oracle = VectoredOracle(ALL_PLATFORMS)
    cache = oracle.cache
    longest = max(len(trace.events) + len(implicit_creates(trace))
                  for trace in traces)
    previous = None
    for trace in _warm_streams(traces)[stream]:
        hits, misses = cache.hits, cache.misses
        profiles = oracle.check(trace).profiles
        assert profiles == want[trace.name], (stream, trace.name)
        if trace is previous and all(p.accepted and not p.pruned
                                     for p in profiles):
            # A clean trace checked twice in a row: the second check
            # restores every label from the path and evaluates none.
            assert cache.hits - hits == \
                len(trace.events) + len(implicit_creates(trace))
            assert cache.misses == misses
        assert len(cache.path) <= longest, (stream, trace.name)
        previous = trace


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_randomized_property_sweep(engine):
    """Seeded random scripts: any future engine registered in the
    harness inherits this property sweep unchanged."""
    for config in ("linux_ext4", "osx_hfsplus"):
        quirks = config_by_name(config)
        traces = [execute_script(quirks, script)
                  for script in random_suite(10, base_seed=2026,
                                             length=25)]
        got = ENGINES[engine](ALL_PLATFORMS)(traces)
        want = ENGINES["uninterned"](ALL_PLATFORMS)(traces)
        for trace, got_rows, want_rows in zip(traces, got, want):
            assert got_rows == want_rows, (engine, config, trace.name)


# -- the execution axis -------------------------------------------------------

@pytest.mark.parametrize("config", [cfg.name for cfg in ALL_CONFIGS])
def test_resumed_execution_parity(config):
    """One warm executor over the whole stream, as given and grouped
    by shared prefix: every trace == a fresh execution."""
    quirks = config_by_name(config)
    scripts = execution_scripts()
    fresh = [execute_script(quirks, script) for script in scripts]
    executor = ScriptExecutor()
    for order in execution_orders(scripts):
        for i in order:
            assert executor.execute(quirks, scripts[i]) == fresh[i], \
                (config, scripts[i].name)


@pytest.mark.parametrize("platform", ALL_PLATFORMS)
def test_reference_traces_lie_inside_the_envelope(platform):
    """The envelope axis: every trace the quirk-free executor produces
    on ``reference-<platform>`` is accepted by that platform's model.
    Prefix resumption is sound because the executor is the
    determinized model; this holds it to the model it determinizes."""
    quirks = Quirks(name=f"reference-{platform}", platform=platform)
    executor = ScriptExecutor()
    oracle = ModelOracle(platform)
    for script in envelope_scripts():
        verdict = oracle.check(executor.execute(quirks, script))
        assert verdict.accepted, \
            (platform, script.name, verdict.primary.deviations[:1])


def test_kernel_fields_are_the_snapshot():
    """A resumed kernel is restored from ``state``, ``leaked_bytes``
    and ``_dead``; ``quirks`` and ``spec`` are fixed per executor key.
    A new attribute must join the snapshot, or it would leak from one
    resumed script into the next."""
    for quirks in ALL_CONFIGS:
        assert set(vars(KernelFS(quirks))) == {
            "quirks", "spec", "state", "leaked_bytes", "_dead"}


def test_state_builders_carry_every_field():
    """``OsState.with_proc``/``with_fs`` and ``Process.with_run`` call
    their class's constructor field by field.  Each must carry every
    field it does not change: a field added to the class and missed
    here would reset to its default in every successor state.  A
    built state must not inherit the cached hash."""
    state_values = {f.name: object() for f in dataclasses.fields(OsState)}
    state_values["procs"] = fdict({1: "before"})
    state = OsState(**state_values)
    hash(state)
    fs = object()
    for built, changed in (
            (state.with_fs(fs), {"fs": fs}),
            (state.with_proc(1, "after"),
             {"procs": fdict({1: "after"})})):
        assert "_cached_hash" not in vars(built)
        for field in dataclasses.fields(OsState):
            want = changed.get(field.name, state_values[field.name])
            assert getattr(built, field.name) == want, field.name

    proc_values = {f.name: object() for f in dataclasses.fields(Process)}
    run = object()
    built = Process(**proc_values).with_run(run)
    for field in dataclasses.fields(Process):
        want = run if field.name == "run" else proc_values[field.name]
        assert getattr(built, field.name) is want, field.name


@pytest.mark.parametrize("case", sorted(RESUMPTION_CASES))
def test_resumption_cases_exercise_their_field(case):
    """Each case's mutation really fires on its configuration and its
    second tail observes it: Z changes when the quirk is switched off,
    and differs from Y, which skips the mutation."""
    quirk, config, *_ = RESUMPTION_CASES[case]
    quirks = config_by_name(config)
    default = {field.name: field.default
               for field in dataclasses.fields(quirks)}[quirk]
    healthy = dataclasses.replace(quirks, **{quirk: default})
    _x, y, z = resumption_scripts(case)[:3]
    assert execute_script(quirks, z) != execute_script(healthy, z)
    assert execute_script(quirks, y) != execute_script(quirks, z)


def test_all_repeat_stream():
    """The same script five times in a row: every repeat resumes from
    the whole script and still equals a fresh run."""
    for case, (_quirk, config, *_rest) in RESUMPTION_CASES.items():
        quirks = config_by_name(config)
        executor = ScriptExecutor()
        for script in resumption_scripts(case)[:3]:
            want = execute_script(quirks, script)
            for _ in range(5):
                assert executor.execute(quirks, script) == want, \
                    (case, script.name)


def test_alternating_configs_and_credentials():
    """Two configurations and two default uid/gid pairs, interleaved
    per script: each key resumes its own path."""
    keys = [(config_by_name(config), uid, gid)
            for config in ("osx_hfsplus", "linux_posixovl_vfat")
            for uid, gid in ((0, 0), (1000, 1000))]
    executor = ScriptExecutor()
    for n, script in enumerate(execution_scripts()):
        for quirks, uid, gid in keys[n % 4:] + keys[:n % 4]:
            assert executor.execute(quirks, script, uid, gid) == \
                execute_script(quirks, script, uid, gid), \
                (quirks.name, uid, gid, script.name)


def test_raising_step_leaves_executor_usable():
    """A step that raises (creating a pid that exists) raises as a
    fresh run does, and the executor keeps producing fresh-equal
    traces, including for a script sharing the prefix before it."""
    quirks = config_by_name("linux_ext4")
    head = '@type script\n# Test %s\nmkdir "d" 0o755\nstat "d"\n'
    raising = parse_script(head % "raises"
                           + "@process create p1 uid=0 gid=0\n"
                           + 'rmdir "d"\n')
    sibling = parse_script(head % "sibling" + 'rmdir "d"\n')
    with pytest.raises(ValueError, match="cannot create process 1"):
        execute_script(quirks, raising)
    executor = ScriptExecutor()
    for script in (sibling, raising, sibling, raising, raising,
                   *execution_scripts()[:8], sibling):
        if script is raising:
            with pytest.raises(ValueError, match="cannot create process"):
                executor.execute(quirks, script)
        else:
            assert executor.execute(quirks, script) == \
                execute_script(quirks, script), script.name


def _strip_volatile(artifact):
    return dataclasses.replace(artifact, backend="-", exec_seconds=0.0,
                               check_seconds=0.0, engine_stats=())


class TestShardedBackendEndToEnd:
    """The sharded pool itself (parent execution + shard processes)
    against the serial backend, through the public Session surface."""

    SUITE_CONFIGS = ("linux_ext4", "linux_sshfs_tmpfs")

    @pytest.mark.parametrize("config", SUITE_CONFIGS)
    def test_artifact_parity_with_serial(self, config):
        from repro.testgen.generator import gen_handwritten_tests

        suite = gen_handwritten_tests()[:24]
        with Session(config, suite=suite,
                     backend=SerialBackend()) as session:
            serial = session.run()
        with Session(config, suite=suite,
                     backend=ShardedBackend(2)) as session:
            sharded = session.run()
        assert _strip_volatile(serial) == _strip_volatile(sharded)
        stats = dict(sharded.engine_stats)
        assert stats["shards"] == 2
        assert stats["warmup_traces"] == 0  # nothing checked in-parent
        assert stats["pool_cold_starts"] == 1

    def test_check_on_parity_with_serial(self):
        from repro.testgen.generator import gen_handwritten_tests

        suite = gen_handwritten_tests()[:12]
        kwargs = dict(check_on=list(SPECS), suite=suite)
        with Session("linux_sshfs_tmpfs", backend=SerialBackend(),
                     **kwargs) as session:
            serial = session.run()
        with Session("linux_sshfs_tmpfs",
                     backend=ShardedBackend(2),
                     **kwargs) as session:
            sharded = session.run()
        assert serial.profiles == sharded.profiles
        assert serial.conformance_counts() == \
            sharded.conformance_counts()

    def test_dead_shard_raises_instead_of_hanging(self, monkeypatch):
        """A shard killed without posting its 'fatal' message (OOM
        kill, segfault) must surface as an error, not a parent that
        blocks forever on the result queue."""
        import os

        from repro.service import pool as pool_mod
        from repro.testgen.generator import gen_handwritten_tests

        def dying_worker(*_args):
            os._exit(3)

        monkeypatch.setattr(pool_mod, "_pool_worker", dying_worker)
        backend = ShardedBackend(2)
        scripts = gen_handwritten_tests()[:4]
        try:
            with pytest.raises(RuntimeError, match="died"):
                list(backend.run_iter(config_by_name("linux_ext4"),
                                      "linux", scripts))
        finally:
            backend.close()

    def test_stream_error_propagates_not_truncates(self):
        """A lazy plan stream that raises mid-generation must fail the
        run — ending cleanly with partial results would make a broken
        campaign read as a short passing one."""
        from repro.testgen.generator import gen_handwritten_tests

        scripts = gen_handwritten_tests()[:6]

        def broken_stream():
            yield from scripts
            raise ValueError("generation failed")

        backend = ShardedBackend(2)
        quirks = config_by_name("linux_ext4")
        try:
            with pytest.raises(ValueError, match="generation failed"):
                list(backend.run_iter(quirks, "linux",
                                      broken_stream()))
        finally:
            backend.close()

    def test_make_backend_wires_sharded_flags(self):
        from repro.harness.backends import make_backend

        for kwargs in (dict(backend="sharded", shards=2),
                       dict(shards=2)):
            backend = make_backend(**kwargs)
            try:
                assert backend.name == "sharded[2]"
            finally:
                backend.close()

    @pytest.mark.parametrize("kwargs, named", [
        (dict(shards=2, backend="serial"), "shards=2"),
        (dict(backend="process"), "family 'process'"),
        (dict(backend="shard"), "family 'shard'"),
        (dict(shards=0), "at least 1, got 0"),
        (dict(shards=-3, backend="sharded"), "at least 1, got -3"),
    ], ids=["serial-shards", "process-family", "unknown-family",
            "zero-shards", "negative-shards"])
    def test_make_backend_rejects_what_it_would_ignore(self, kwargs,
                                                      named):
        from repro.harness.backends import make_backend

        with pytest.raises(ValueError, match=named):
            make_backend(**kwargs).close()

    def test_coverage_parity_with_serial(self):
        suite = handwritten_traces  # noqa: F841 - keep import-free
        from repro.script import parse_script

        small = [parse_script(
            '@type script\n# Test c%d\nmkdir "d%d" 0o755\n'
            'rmdir "d%d"\n' % (i, i, i)) for i in range(6)]
        with Session("linux_ext4", suite=small,
                     collect_coverage=True) as session:
            serial = session.run()
        with Session("linux_ext4", suite=small,
                     backend=ShardedBackend(2),
                     collect_coverage=True) as session:
            sharded = session.run()
        assert serial.covered_clauses == sharded.covered_clauses

    def test_raising_script_leaves_backend_usable(self):
        """A step that raises (creating a pid that exists) fails the
        call with the original exception, and the backend's pool is
        not poisoned: the same backend then runs a clean suite."""
        from repro.testgen.generator import gen_handwritten_tests

        quirks = config_by_name("linux_ext4")
        head = '@type script\n# Test %s\nmkdir "d" 0o755\n'
        good = parse_script(head % "good" + 'rmdir "d"\n')
        raising = parse_script(head % "raises"
                               + "@process create p1 uid=0 gid=0\n")
        suite = gen_handwritten_tests()[:12]
        backend = ShardedBackend(2)
        try:
            with pytest.raises(ValueError, match="cannot create process"):
                list(backend.run_iter(quirks, "linux",
                                      [good, raising, good]))
            got = [record.outcome.profiles
                   for record in backend.run_iter(quirks, "linux", suite)]
        finally:
            backend.close()
        assert got == [record.outcome.profiles for record in
                       SerialBackend().run_iter(quirks, "linux", suite)]

    def test_empty_stream_never_starts_the_pool(self):
        """A suite with nothing to run spawns no shard process."""
        quirks = config_by_name("linux_ext4")
        with ShardedBackend(2) as backend:
            assert list(backend.run_iter(quirks, "linux", [])) == []
            assert not backend._pool.alive
            assert backend.run_stats()["pool_cold_starts"] == 0

    def test_feeder_and_consumer_under_forced_switching(self):
        """Executed traces are held on the pool's feeder thread and
        taken on the consuming thread.  With a thread switch forced
        every 10 µs and more shards than cores, every record still
        equals the serial backend's, in order; so does each run started
        right after an abandoned one, whose feeder may still be
        executing (each call has its own executor)."""
        from repro.gen import default_plan

        def rows(records):
            return [(r.target_function, r.outcome.checked.trace,
                     r.outcome.profiles) for r in records]

        quirks = config_by_name("linux_ext4")
        scripts = list(default_plan().take(150).scripts())
        want = rows(SerialBackend().run_iter(quirks, "all", scripts))
        backend = ShardedBackend(4)
        got, errors = {}, []

        def stress():
            try:
                got["full"] = rows(backend.run_iter(quirks, "all",
                                                    scripts))
                for n in (3, 6, 12, 24):
                    abandoned = backend.run_iter(quirks, "all", scripts)
                    got["abandoned", n] = rows(
                        itertools.islice(abandoned, n))
                    abandoned.close()
                    got["next", n] = rows(backend.run_iter(
                        quirks, "all", scripts))
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread = threading.Thread(target=stress, daemon=True)
            thread.start()
            thread.join(timeout=300)
            assert not thread.is_alive(), "sharded run_iter hung"
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        if errors:
            raise errors[0]
        assert got["full"] == want
        for n in (3, 6, 12, 24):
            assert got["abandoned", n] == want[:n]
            assert got["next", n] == want, n
