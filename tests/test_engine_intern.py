"""Tests for the interned exploration engine (``repro.engine``).

The engine's contract is *bit-for-bit* parity: hash-consing states and
memoizing transitions must never change a verdict, a deviation, a
``max_state_set`` peak or a pruning flag.  The suite-level parity
sweeps (handwritten suite on clean/quirky configurations, randomized
property sweep, every engine) live in the cross-engine harness —
``tests/test_engine_parity.py`` over ``helpers_parity.ENGINES`` — so
this module keeps only the unit equivalences against the raw ``osapi``
transition functions and the engine-specific memo/cache behaviour.
"""

import dataclasses
import sys
import threading

from helpers_parity import handwritten_traces
from repro.api import SerialBackend
from repro.checker.checker import TraceChecker
from repro.core.labels import OsCall, OsCreate, OsReturn, OsTau
from repro.core.platform import PlatformSpec, spec_by_name
from repro.core import commands as C
from repro.core.values import Ok, RvNone
from repro.engine import (InternTable, RecordingSpec, TransitionMemo,
                          recover_states)
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.osapi.os_state import SpecialOsState, initial_os_state
from repro.osapi.transition import os_trans, tau_closure
from repro.oracle import ModelOracle, VectoredOracle
from repro.script import parse_trace
from repro.testgen.generator import gen_handwritten_tests

LINUX = spec_by_name("linux")


def _seed_states():
    """An initial state plus one with a pending call, interned."""
    table = InternTable()
    memo = TransitionMemo(LINUX, table)
    (sid,) = memo.apply_one(table.intern(initial_os_state()),
                            OsCreate(1, 0, 0))
    ids = frozenset(memo.apply_one(sid, OsCall(1, C.Mkdir("a", 0o755))))
    return table, memo, ids


def _closed(memo, ids):
    """The union of the per-state closures of ``ids``."""
    return frozenset().union(*(memo.closure_one(sid) for sid in ids))


class TestInternTable:
    def test_ids_are_dense_and_stable(self):
        table = InternTable()
        s0 = initial_os_state()
        special = SpecialOsState("undefined", "x")
        assert table.intern(s0) == 0
        assert table.intern(special) == 1
        assert table.intern(s0) == 0          # hash-consed, not re-minted
        assert len(table) == 2

    def test_equal_states_share_an_id(self):
        table = InternTable()
        a = table.intern(initial_os_state())
        b = table.intern(initial_os_state())  # distinct object, equal value
        assert a == b

    def test_states_round_trip(self):
        table, _, ids = _seed_states()
        for sid in ids:
            assert table.intern(table.state_of(sid)) == sid
        assert len(table.states_of(ids)) == len(ids)

    def test_concurrent_minting_gives_distinct_ids(self):
        """Two threads minting ids for new states at once: every state
        keeps its own id.  Hashing yields the GIL here (as a Python
        ``__hash__`` may at any bytecode), so without the table's lock
        both threads would read the same next id."""
        import time

        class YieldingKey:
            def __init__(self, n):
                self.n = n

            def __hash__(self):
                time.sleep(0)
                return hash(self.n)

            def __eq__(self, other):
                return isinstance(other, YieldingKey) and other.n == self.n

        table = InternTable()
        keys = [YieldingKey(n) for n in range(300)]
        got = {}

        def mint(name, order):
            got[name] = {key.n: table.intern(key) for key in order}

        threads = [threading.Thread(target=mint, args=(name, order))
                   for name, order in (("up", keys),
                                       ("down", keys[::-1]))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert got["up"] == got["down"]
        assert sorted(got["up"].values()) == list(range(len(keys)))
        assert all(table.state_of(sid).n == n
                   for n, sid in got["up"].items())


class TestTransitionMemo:
    def test_apply_matches_os_trans(self):
        table, memo, ids = _seed_states()
        label = OsCreate(2, 0, 0)
        for sid in ids:
            got = {table.state_of(succ)
                   for succ in memo.apply_one(sid, label)}
            assert got == set(os_trans(LINUX, table.state_of(sid), label))

    def test_apply_one_is_memoized(self):
        table, memo, ids = _seed_states()
        sid = next(iter(ids))
        label = OsCreate(2, 0, 0)
        first = memo.apply_one(sid, label)
        assert memo.apply_one(sid, label) is first
        assert memo.stats()["transitions"] >= 1

    def test_closure_matches_tau_closure(self):
        table, memo, ids = _seed_states()
        for sid in ids:
            got = {table.state_of(succ) for succ in memo.closure_one(sid)}
            assert got == set(tau_closure(
                LINUX, frozenset({table.state_of(sid)})))
            # The state is retained (a pending call need not fire).
            assert sid in memo.closure_one(sid)
        # Per-state closures compose into the set's closure.
        got = {table.state_of(sid) for sid in _closed(memo, ids)}
        assert got == set(tau_closure(LINUX,
                                      frozenset(table.states_of(ids))))

    def test_closure_is_memoized_per_state(self):
        table, memo, ids = _seed_states()
        first = {sid: memo.closure_one(sid) for sid in ids}
        derived = memo.stats()["transitions"]
        for sid in ids:                      # fully cached second time
            assert memo.closure_one(sid) is first[sid]
        assert memo.stats()["transitions"] == derived

    def test_recover_matches_checker_recover(self):
        table, memo, ids = _seed_states()
        closed = _closed(memo, ids)
        got = memo.recover(closed, 1)
        # The checker's uninterned loop recovers through the same body.
        want = recover_states(frozenset(table.states_of(closed)), 1)
        assert {table.state_of(sid) for sid in got} == set(want)

    def test_recover_none_when_pid_absent(self):
        table, memo, ids = _seed_states()
        assert memo.recover(_closed(memo, ids), 99) is None

    def test_prune_keeps_by_repr(self):
        table, memo, ids = _seed_states()
        closed = _closed(memo, ids)
        kept = memo.prune(closed, 1)
        want = sorted(table.states_of(closed), key=repr)[:1]
        assert table.states_of(kept) == want


class TestWarmMemoReuse:
    def test_warm_memo_is_reused_across_traces(self):
        quirks = config_by_name("linux_ext4")
        traces = [execute_script(quirks, script)
                  for script in gen_handwritten_tests()[:6]]
        checker = TraceChecker(LINUX)
        for trace in traces:
            checker.check(trace)
        (memo,) = checker._memos
        derived = memo.stats()["transitions"]
        results = [checker.check(trace) for trace in traces]
        # Re-checking the same traces derives nothing new...
        assert memo.stats()["transitions"] == derived
        # ...and still yields the uninterned results.
        baseline = TraceChecker(LINUX, intern=False)
        assert results == [baseline.check(trace) for trace in traces]

class TestEngineWithPrefixCache:
    def test_uncached_oracle_rebuilds_tables_per_check(self):
        oracle = ModelOracle("linux", cache=False)
        trace = parse_trace("@type trace\n# Test t\n"
                            '1: mkdir "a" 0o755\nRV_none\n')
        oracle.check(trace)
        first = oracle._memos[0].table
        oracle.check(trace)
        assert oracle._memos[0].table is not first  # coverage-safe freshness


class TestTauSharing:
    """A multi-platform oracle evaluates a tau step once for every
    platform whose spec equals the values that evaluation read."""

    PLATFORMS = ("posix", "linux", "osx", "freebsd")

    def test_sharing_saves_exec_calls(self, monkeypatch):
        from repro.osapi import transition
        traces = handwritten_traces("linux_sshfs_tmpfs")
        calls = [0]
        real = transition.exec_call

        def counting(*args):
            calls[0] += 1
            return real(*args)
        monkeypatch.setattr(transition, "exec_call", counting)
        oracle = VectoredOracle(self.PLATFORMS)
        for trace in traces:
            oracle.check(trace)
        shared_calls = calls[0]
        calls[0] = 0
        for platform in self.PLATFORMS:
            single = ModelOracle(platform)
            for trace in traces:
                single.check(trace)
        assert 0 < shared_calls < calls[0]
        reused = [memo.stats()["tau_shared"] for memo in oracle._memos]
        assert reused[0] == 0 and sum(reused) > 0

    def test_disagreeing_reads_are_never_shared(self):
        """``unlink`` of a directory reads ``unlink_dir_errors``:
        {EPERM, EISDIR} on posix, {EISDIR} on linux, {EPERM} on osx and
        freebsd.  The first three evaluate the step each, and file one
        entry each; freebsd takes osx's."""
        trace = parse_trace("@type trace\n# Test unlink_dir\n"
                            '1: mkdir "d" 0o755\nRV_none\n'
                            '1: unlink "d"\nEISDIR\n')
        oracle = VectoredOracle(self.PLATFORMS, cache=False)
        verdict = oracle.check(trace)
        for profile in verdict.profiles:
            checked = TraceChecker(spec_by_name(profile.platform)).check(
                trace)
            assert (profile.deviations, profile.max_state_set,
                    profile.labels_checked, profile.pruned) == \
                (checked.deviations, checked.max_state_set,
                 checked.labels_checked, checked.pruned)
        assert [bool(p.deviations) for p in verdict.profiles] == \
            [False, False, True, True]
        entries = [dict(reads) for step in oracle._memos[0]._shared.values()
                   for reads, _succs in step
                   if "unlink_dir_errors" in dict(reads)]
        assert sorted(sorted(e.name for e in reads["unlink_dir_errors"])
                      for reads in entries) == \
            [["EISDIR"], ["EISDIR", "EPERM"], ["EPERM"]]

    def test_single_platform_checking_records_nothing(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("recorded a single-platform step")
        monkeypatch.setattr(RecordingSpec, "of", staticmethod(refuse))
        for trace in handwritten_traces("linux_ext4")[:6]:
            ModelOracle("osx").check(trace)
            TraceChecker(spec_by_name("osx")).check(trace)

    def test_each_evaluation_keeps_its_own_log(self):
        """Threads evaluating tau steps at once, on views of one spec,
        each log only what their own step read."""
        def step(state, label):
            (succ,) = os_trans(LINUX, state, label)
            return succ
        state = step(initial_os_state(), OsCreate(1, 0, 0))
        state = step(step(state, OsCall(1, C.Mkdir("d", 0o755))), OsTau())
        state = step(state, OsReturn(1, Ok(RvNone())))
        pending = {"unlink_dir_errors": step(state, OsCall(1, C.Unlink("d"))),
                   "rmdir_root_errors": step(state, OsCall(1, C.Rmdir("/")))}
        errors = []

        def evaluate(field):
            for _ in range(300):
                view = RecordingSpec.of(LINUX)
                os_trans(view, pending[field], OsTau())
                if set(view.reads) & set(pending) != {field}:
                    errors.append((field, dict(view.reads)))

        threads = [threading.Thread(target=evaluate, args=(field,))
                   for field in list(pending) * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_replace_on_a_view_records_every_other_field(self):
        """The OS X readlink quirk rebuilds its spec: the rebuild reads
        ``name`` and every other field, so the step is never shared."""
        view = RecordingSpec.of(spec_by_name("osx"))
        rebuilt = dataclasses.replace(
            view, trailing_slash_follows_final_symlink=False)
        assert type(rebuilt) is PlatformSpec
        assert rebuilt == dataclasses.replace(
            spec_by_name("osx"), trailing_slash_follows_final_symlink=False)
        assert set(view.reads) == {
            f.name for f in dataclasses.fields(PlatformSpec)} - {
            "trailing_slash_follows_final_symlink"}

    def test_coverage_keeps_per_trace_clause_sets(self):
        """Each trace covers the same clauses on ``all`` as the union
        of four single-platform coverage runs: a reused step's clauses
        were fired by the evaluation it reuses."""
        traces = handwritten_traces("linux_sshfs_tmpfs")
        backend = SerialBackend()
        combined = [outcome.covered for outcome in backend.check_iter(
            "all", traces, collect_coverage=True)]
        union = [set() for _ in traces]
        for platform in self.PLATFORMS:
            for covered, outcome in zip(union, backend.check_iter(
                    platform, traces, collect_coverage=True)):
                covered |= outcome.covered
        assert combined == union
