"""The cross-engine parity harness.

Every checking engine in the repo must produce *bit-for-bit* the same
per-platform results — deviations, ``max_state_set`` peaks,
``labels_checked``, pruning flags — as the original uninterned
frozenset-of-dataclass loop.  This module is the single place that
contract lives: each engine registers a factory in :data:`ENGINES`, and
``tests/test_engine_parity.py`` parametrizes every parity test
(handwritten suite on clean and quirky configurations, plus a seeded
randomized property sweep) over the registry.  A future engine gets
full parity coverage by adding **one** :func:`register_engine` call.

An engine factory takes a platform tuple and returns a checker
function: ``check(traces) -> [ {platform: row} per trace ]`` where a
row is the comparable ``(deviations, max_state_set, labels_checked,
pruned)`` tuple.  Factories may keep warm state across the traces of
one call — cross-trace memo reuse is deliberately under test.

The trace order is an axis too (:func:`trace_orders`): a caching
oracle resumes each check from the path the previous one stored, so
the same traces are checked as given, grouped by shared prefix and
alternating between two halves of the suite.

Execution is the second axis: a warm
:class:`~repro.executor.ScriptExecutor` resumes each script from the
state its predecessor reached at their shared prefix, and every trace
it produces must be ``==`` to a fresh
:func:`~repro.executor.execute_script` of the same script.
:func:`execution_scripts` and :func:`execution_orders` are the streams
that axis runs on every configuration.

The envelope axis joins the two: the quirk-free executor is the
determinized model (paper section 8), so every trace it produces on
``Quirks(name="reference-<p>", platform=p)`` must be accepted by the
``p`` model.  :func:`envelope_scripts` is its tier-1 stream;
``benchmarks/smoke_envelope.py`` runs the full plan.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, List, Sequence, Tuple

from repro.checker.checker import TraceChecker
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.gen import RandomizedStrategy, default_plan
from repro.oracle import VectoredOracle
from repro.script import Script, parse_script
from repro.testgen.generator import gen_handwritten_tests
from repro.testgen.scenarios import (gen_crash_recovery_tests,
                                     gen_fault_tests,
                                     gen_interleaving_tests)

#: The comparable slice of a CheckedTrace / ConformanceProfile.
Row = Tuple[tuple, int, int, bool]

#: One clean and two quirky configurations: the quirky ones produce
#: deviations, recovery and pruning (freebsd_ufs adds the clobbering
#: rename semantics), so parity covers the unhappy paths too.
PARITY_CONFIGS = ("linux_ext4", "linux_sshfs_tmpfs", "freebsd_ufs")


def checked_row(checked) -> Row:
    return (checked.deviations, checked.max_state_set,
            checked.labels_checked, checked.pruned)


def profile_row(profile) -> Row:
    return (profile.deviations, profile.max_state_set,
            profile.labels_checked, profile.pruned)


CheckFn = Callable[[Sequence], List[Dict[str, Row]]]
EngineFactory = Callable[[Tuple[str, ...]], CheckFn]

ENGINES: Dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory) -> None:
    """Register an engine for parity coverage (one entry per engine)."""
    if name in ENGINES:
        raise ValueError(f"engine {name!r} already registered")
    ENGINES[name] = factory


def _make_uninterned(platforms: Tuple[str, ...]) -> CheckFn:
    """The canonical baseline: the original frozenset state-set loop."""
    from repro.core.platform import spec_by_name
    checkers = {p: TraceChecker(spec_by_name(p), intern=False)
                for p in platforms}
    def check(traces):
        return [{p: checked_row(checkers[p].check(trace))
                 for p in platforms} for trace in traces]
    return check


def _make_interned(platforms: Tuple[str, ...]) -> CheckFn:
    """Hash-consed ids + warm per-platform transition memos."""
    from repro.core.platform import spec_by_name
    checkers = {p: TraceChecker(spec_by_name(p)) for p in platforms}
    def check(traces):
        return [{p: checked_row(checkers[p].check(trace))
                 for p in platforms} for trace in traces]
    return check


def _make_vectored(platforms: Tuple[str, ...]) -> CheckFn:
    """One masked exploration for all platforms, with prefix cache."""
    oracle = VectoredOracle(platforms)
    def check(traces):
        return [{profile.platform: profile_row(profile)
                 for profile in oracle.check(trace).profiles}
                for trace in traces]
    return check


def _make_sharded(platforms: Tuple[str, ...]) -> CheckFn:
    """The path the sharded backend and ``repro serve`` run: printed
    traces travel through a real two-shard
    :class:`~repro.service.ShardPool`, each shard parses and checks them
    on its own warm oracle, and the profiles come back re-sequenced in
    input order.
    """
    from repro.oracle import oracle_name_for
    from repro.script.printer import print_trace
    from repro.service import ShardPool

    def check(traces):
        with ShardPool(2) as pool:
            futures = pool.submit(
                [(trace.name, print_trace(trace)) for trace in traces],
                model=oracle_name_for(platforms), partition="parity")
            return [{profile.platform: profile_row(profile)
                     for profile in future.result(timeout=120)[0]}
                    for future in futures]
    return check


def _make_service(platforms: Tuple[str, ...]) -> CheckFn:
    """The full served path: traces travel as text through the asyncio
    line-JSON server and come back as ``ConformanceProfile.to_dict``
    rows — so this engine proves the wire format itself is lossless,
    on top of the checking parity every engine proves.

    Parent-only mode (``shards=0``): the serialization boundary is what
    is under test here, the pool engine has its own registry entry.
    """
    import threading

    from repro.oracle import ConformanceProfile, oracle_name_for
    from repro.script.printer import print_trace
    from repro.service import (CheckingService, ServiceClient,
                               run_server)

    def check(traces):
        service = CheckingService(oracle_name_for(platforms), shards=0)
        bound = threading.Event()
        address = {}

        def ready(server):
            address["addr"] = server.address()
            bound.set()

        thread = threading.Thread(
            target=run_server, args=(service,), kwargs={"ready": ready},
            daemon=True)
        thread.start()
        try:
            assert bound.wait(timeout=30), "server never bound"
            with ServiceClient(address["addr"]) as client:
                verdicts, _done = client.check_batch(
                    [print_trace(t) for t in traces])
                rows = [
                    {row["platform"]: profile_row(
                        ConformanceProfile.from_dict(row))
                     for row in verdict["profiles"]}
                    for verdict in verdicts]
                client.shutdown()
            thread.join(timeout=30)
            return rows
        finally:
            service.shutdown()
    return check


register_engine("uninterned", _make_uninterned)
register_engine("interned", _make_interned)
register_engine("vectored", _make_vectored)
register_engine("sharded", _make_sharded)
register_engine("service", _make_service)


@functools.lru_cache(maxsize=None)
def handwritten_traces(config: str) -> tuple:
    """The handwritten suite executed on ``config`` (cached: every
    engine x config parametrization shares one execution pass)."""
    quirks = config_by_name(config)
    return tuple(execute_script(quirks, script)
                 for script in gen_handwritten_tests())


@functools.lru_cache(maxsize=None)
def baseline_rows(config: str, platforms: Tuple[str, ...]) -> tuple:
    """Uninterned rows for the handwritten suite (shared baseline)."""
    return tuple(_make_uninterned(platforms)(handwritten_traces(config)))


def trace_orders(traces: Sequence) -> Dict[str, List[int]]:
    """Index orders to check ``traces`` in, so that a caching oracle's
    stored path is cut back at every depth: as given, grouped by shared
    label prefix (the longest resumptions), and alternating between the
    two halves (the path is replaced by every other trace)."""
    grouped = sorted(range(len(traces)),
                     key=lambda i: repr(traces[i].labels()))
    half = (len(traces) + 1) // 2
    alternating = [i for pair in itertools.zip_longest(
        range(half), range(half, len(traces))) for i in pair
        if i is not None]
    return {"given": list(range(len(traces))), "grouped": grouped,
            "alternating": alternating}


# -- the execution axis -------------------------------------------------------

#: Per mutable ``KernelFS`` field: the quirk that mutates it, the
#: configuration where it fires, a setup, the mutating steps and two
#: tails.  From these come X = setup+mutation+tail1, Y = setup+tail2
#: and Z = setup+mutation+tail2, run as X Y Z X Z Y: Y must not see the
#: mutation X left behind, and Z resumed after X must see it restored.
RESUMPTION_CASES = {
    "dead_signal": ("pwrite_negative_signal", "osx_hfsplus", [
        "@process create p2 uid=0 gid=0",
        'p2: open "s" [O_CREAT;O_RDWR] 0o644', 'p2: write 3 "ab"',
    ], ['p2: pwrite 3 "z" -1'], [
        'p2: stat "s"', 'stat "s"',
    ], [
        "p2: pread 3 2 0", "p2: close 3", 'stat "s"',
    ]),
    "dead_spin": ("spin_on_create_in_disconnected_cwd", "osx_openzfs", [
        'mkdir "gone" 0o755', "@process create p2 uid=0 gid=0",
        'p2: chdir "gone"', 'rmdir "/gone"',
    ], ['p2: open "x" [O_CREAT;O_WRONLY] 0o644'], [
        'p2: stat "."', 'stat "/"',
    ], [
        'p2: stat ".."', 'p2: chdir "/"', 'p2: mkdir "back" 0o755',
    ]),
    "leaked_bytes": ("rename_link_count_leak", "linux_posixovl_vfat", [
        'open "a" [O_CREAT;O_WRONLY] 0o644', 'truncate "a" 20000',
        'open "b" [O_CREAT;O_WRONLY] 0o644', 'truncate "b" 20000',
    ], ['rename "a" "b"'], [
        'stat "b"',
    ], [
        # 30000 more bytes fit beside 20000 live ones, but not beside
        # 20000 live plus the 20000 the rename leaked: ENOSPC.
        'unlink "a"', 'open "c" [O_CREAT;O_WRONLY] 0o644',
        'truncate "c" 30000', 'stat "c"',
    ]),
    "state_transform": ("o_append_no_seek", "linux_openzfs_trusty", [
        'open "f" [O_CREAT;O_RDWR;O_APPEND] 0o644', 'write 3 "abc"',
    ], ["lseek 3 0 SEEK_SET", 'write 3 "X"'], [
        "close 3", 'stat "f"',
    ], [
        'write 3 "YZ"', "pread 3 8 0", "close 3",
    ]),
    "state_clobber": ("excl_dir_symlink_clobber", "freebsd_ufs", [
        'mkdir "d" 0o755', 'symlink "d" "l"',
    ], ['open "l" [O_CREAT;O_EXCL;O_DIRECTORY] 0o644'], [
        'lstat "l"',
    ], [
        'lstat "l"', 'rmdir "d"', 'lstat "l"',
    ]),
}


def _script(name: str, lines: Sequence[str]) -> Script:
    return parse_script("\n".join(["@type script", f"# Test {name}",
                                   *lines]) + "\n")


def resumption_scripts(case: str) -> tuple:
    """The X Y Z X Z Y stream of one :data:`RESUMPTION_CASES` entry."""
    _quirk, _config, setup, mutation, tail1, tail2 = RESUMPTION_CASES[case]
    x = _script(f"resume___{case}_x", setup + mutation + tail1)
    y = _script(f"resume___{case}_y", setup + tail2)
    z = _script(f"resume___{case}_z", setup + mutation + tail2)
    return (x, y, z, x, z, y)


@functools.lru_cache(maxsize=None)
def execution_scripts() -> tuple:
    """The execution axis's stream: the handwritten suite, the fault,
    crash-recovery and interleaving scenarios, a seeded randomized
    sample and every resumption case, in that order."""
    return (tuple(gen_handwritten_tests()) + tuple(gen_fault_tests())
            + tuple(gen_crash_recovery_tests())
            + tuple(gen_interleaving_tests())
            + tuple(RandomizedStrategy(count=10, seed=2026, length=25,
                                       multi_process=True).scripts())
            + tuple(script for case in RESUMPTION_CASES
                    for script in resumption_scripts(case)))


@functools.lru_cache(maxsize=None)
def envelope_scripts() -> tuple:
    """The envelope axis's tier-1 stream: :func:`execution_scripts`
    plus every 20th default-plan script."""
    return execution_scripts() + tuple(
        itertools.islice(default_plan().scripts(), 0, None, 20))


def execution_orders(scripts: Sequence) -> List[List[int]]:
    """Index orders to stream ``scripts`` in: as given, and grouped so
    that scripts sharing a prefix run back to back (the longest
    resumptions)."""
    grouped = sorted(range(len(scripts)),
                     key=lambda i: repr(scripts[i].items))
    return [list(range(len(scripts))), grouped]
