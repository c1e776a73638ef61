"""Direct tests for the stored path of :class:`repro.oracle.PrefixCache`.

A caching oracle keeps one stored path: ``(label, snapshot, peaks)``
entries for the clean prefix of the last trace that extended it,
implicit creates first.  Covered here: resuming from the deepest shared
entry, the storing rules (only clean entries, no cut-back by a check
that adds nothing), the ``(id, mask)`` int-pair snapshots, one oracle
per partition, and two threads checking on one oracle.
"""

import sys
import threading

from helpers_parity import handwritten_traces
from repro.checker.checker import implicit_creates
from repro.core import commands as C
from repro.core.labels import OsCall, OsCreate, OsReturn
from repro.core.values import Ok, RvNone
from repro.oracle import ModelOracle, PrefixCache, VectoredOracle
from repro.script import parse_trace
from repro.script.ast import Trace, TraceEvent

TRACE = parse_trace("@type trace\n# Test t\n"
                    '1: mkdir "a" 0o755\nRV_none\n'
                    '2: stat "a"\n'
                    'RV_stat({kind=S_IFDIR; size=0; nlink=2; uid=0; '
                    'gid=0; mode=0o755})\n')

#: Shares TRACE's implicit create and its first call and return.
SIBLING = parse_trace("@type trace\n# Test t2\n"
                      '1: mkdir "a" 0o755\nRV_none\n'
                      '2: rmdir "a"\nRV_none\n')

#: Shares SIBLING's first four labels, then returns an error linux
#: never gives for removing an empty directory.
DEVIANT = parse_trace("@type trace\n# Test t3\n"
                      '1: mkdir "a" 0o755\nRV_none\n'
                      '2: rmdir "a"\nEEXIST\n'
                      '3: rmdir "a"\nRV_none\n')


#: Two processes with calls in flight: after p1's return, p2's call may
#: or may not have taken effect, so the set holds several states and an
#: oracle with ``max_states=1`` prunes there.
CONCURRENT = Trace(name="concurrent", events=tuple(
    TraceEvent(line_no, label) for line_no, label in enumerate([
        OsCreate(2, 0, 0), OsCall(1, C.Mkdir("a", 0o755)),
        OsCall(2, C.Mkdir("b", 0o755)), OsReturn(1, Ok(RvNone())),
        OsReturn(2, Ok(RvNone())), OsCall(1, C.Rmdir("a")),
        OsReturn(1, Ok(RvNone()))], 1)))


def _labels(trace):
    """Every label a check walks: implicit creates, then the events."""
    return (implicit_creates(trace)
            + [event.label for event in trace.events])


def _path_labels(oracle):
    return [entry[0] for entry in oracle.cache.path]


class TestStoredPath:
    def test_stats_are_hits_and_misses(self):
        assert PrefixCache().stats() == {"hits": 0, "misses": 0}
        oracle = ModelOracle("linux")
        oracle.check(TRACE)
        assert oracle.cache.stats() == {"hits": 0,
                                        "misses": len(_labels(TRACE))}

    def test_uncached_oracle_has_no_path(self):
        assert ModelOracle("linux", cache=False).cache is None

    def test_resumes_from_the_deepest_shared_entry(self):
        oracle = VectoredOracle(("linux", "osx"))
        uncached = VectoredOracle(("linux", "osx"), cache=False)
        oracle.check(TRACE)
        assert _path_labels(oracle) == _labels(TRACE)
        hits = oracle.cache.hits
        verdict = oracle.check(SIBLING)
        # The implicit create, the mkdir and its return are restored.
        assert oracle.cache.hits - hits == 3
        assert verdict.profiles == uncached.check(SIBLING).profiles
        # The path is now the sibling's: three shared entries, then its
        # own rmdir and return.
        assert _path_labels(oracle) == _labels(SIBLING)

    def test_repeat_restores_the_whole_path(self):
        oracle = ModelOracle("linux")
        first = oracle.check(TRACE)
        path, misses = oracle.cache.path, oracle.cache.misses
        again = oracle.check(TRACE)
        assert oracle.cache.hits == len(_labels(TRACE))
        assert oracle.cache.misses == misses
        assert oracle.cache.path is path
        assert again.profiles == first.profiles

    def test_shorter_sibling_keeps_the_longer_path(self):
        prefix = parse_trace("@type trace\n# Test p\n"
                             '1: mkdir "a" 0o755\nRV_none\n')
        oracle = ModelOracle("linux")
        oracle.check(TRACE)
        path = oracle.cache.path
        oracle.check(prefix)
        assert oracle.cache.path is path

    def test_deviating_trace_stores_only_its_clean_prefix(self):
        oracle = ModelOracle("linux")
        verdict = oracle.check(DEVIANT)
        assert not verdict.accepted
        # create, mkdir, RV_none and the rmdir call are clean; the
        # EEXIST return deviates and nothing from it on is stored.
        assert _path_labels(oracle) == _labels(DEVIANT)[:4]
        assert oracle.cache.misses == 5

    def test_deviation_right_after_the_shared_prefix_keeps_the_path(self):
        oracle = ModelOracle("linux")
        uncached = ModelOracle("linux", cache=False)
        oracle.check(SIBLING)
        path = oracle.cache.path
        # DEVIANT shares four labels with SIBLING and deviates on its
        # fifth: it adds no clean entry, so the path is left as it was.
        verdict = oracle.check(DEVIANT)
        assert oracle.cache.hits == 4
        assert oracle.cache.path is path
        assert verdict.profiles == uncached.check(DEVIANT).profiles

    def test_pruned_trace_stores_only_its_unpruned_prefix(self):
        oracle = ModelOracle("linux", max_states=1)
        uncached = ModelOracle("linux", max_states=1, cache=False)
        verdict = oracle.check(CONCURRENT)
        assert verdict.primary.pruned
        # Pruned at p1's return: the creates and both calls are kept.
        assert _path_labels(oracle) == _labels(CONCURRENT)[:4]
        path = oracle.cache.path
        again = oracle.check(CONCURRENT)
        assert oracle.cache.path is path
        assert again.profiles == verdict.profiles == \
            uncached.check(CONCURRENT).profiles

    def test_process_population_is_part_of_the_path(self):
        # The same visible prefix as TRACE, but a later call by p2 makes
        # p2 an implicit create up front: only p1's create is shared,
        # and TRACE's states (which lack p2) are never restored.
        two = parse_trace("@type trace\n# Test two\n"
                          '1: mkdir "a" 0o755\nRV_none\n'
                          '2: p2: stat "a"\n'
                          'p2: RV_stat({kind=S_IFDIR; size=0; nlink=2; '
                          'uid=0; gid=0; mode=0o755})\n')
        oracle = ModelOracle("linux")
        oracle.check(TRACE)
        verdict = oracle.check(two)
        assert oracle.cache.hits == 1
        assert verdict.accepted
        assert verdict.profiles == \
            ModelOracle("linux", cache=False).check(two).profiles


class TestPartitions:
    def test_oracle_configs_never_trade_snapshots(self):
        # Each oracle owns its path and its intern table, so oracles of
        # different configurations cannot restore each other's states.
        linux = ModelOracle("linux")
        osx = ModelOracle("osx")
        linux.check(TRACE)
        osx.check(TRACE)
        assert osx.cache is not linux.cache
        assert osx.cache.hits == 0
        assert linux._memos[0].table is not osx._memos[0].table


class TestInternedSnapshots:
    def test_snapshots_store_id_mask_int_pairs(self):
        oracle = VectoredOracle(("linux", "osx"))
        oracle.check(TRACE)
        path = oracle.cache.path
        assert isinstance(path, tuple) and path
        for label, items, peaks in path:
            assert isinstance(items, tuple)
            assert all(type(sid) is int and type(mask) is int
                       for sid, mask in items)
            assert list(items) == sorted(items)
            assert all(0 < mask < 4 for _sid, mask in items)
            assert isinstance(peaks, tuple) and len(peaks) == 2

    def test_round_trip_equals_uncached_on_shared_prefix(self):
        # Two traces sharing a prefix: the cached continuation after a
        # restored snapshot must equal a from-scratch check.
        cached = ModelOracle("linux")
        uncached = ModelOracle("linux", cache=False)
        cached.check(TRACE)
        assert (cached.check(SIBLING).profiles
                == uncached.check(SIBLING).profiles)
        assert cached.cache.hits > 0


class TestThreads:
    def test_two_threads_check_interleaved_families(self):
        """Two threads check two interleaved halves of the suite on one
        cold oracle, twice over, with a thread switch forced every
        10 µs; five fresh oracles in turn.  Every verdict equals an
        uncached oracle's, and the path is afterwards a well-formed
        prefix of one checked trace.  (The threads share the oracle's
        intern table, which must mint each new id under its lock.)"""
        traces = handwritten_traces("linux_sshfs_tmpfs")
        platforms = ("posix", "linux", "osx", "freebsd")
        want = {trace.name: VectoredOracle(platforms, cache=False)
                .check(trace).profiles for trace in traces}
        halves = (traces[0::2], traces[1::2])
        errors = []

        def stream(oracle, half):
            try:
                for _ in range(2):
                    for trace in half:
                        got = oracle.check(trace).profiles
                        assert got == want[trace.name], trace.name
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                oracle = VectoredOracle(platforms)
                threads = [threading.Thread(target=stream,
                                            args=(oracle, half))
                           for half in halves]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not any(thread.is_alive() for thread in threads)
                if errors:
                    raise errors[0]
                path = oracle.cache.path
                assert isinstance(path, tuple) and path
                assert all(isinstance(entry, tuple) and len(entry) == 3
                           for entry in path)
                labels = _path_labels(oracle)
                assert any(_labels(trace)[:len(labels)] == labels
                           for trace in traces)
        finally:
            sys.setswitchinterval(interval)
