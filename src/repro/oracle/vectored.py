"""Vectored state-set checking: all platforms in one exploration.

The paper's headline analyses — the section 7.3 survey, the merge view
and the section 9 portability analysis — all ask the same question of
several model variants.  Checked naively that costs one full state-set
pass per :class:`~repro.core.platform.PlatformSpec`, although the four
specs agree on the vast majority of transitions.

:class:`VectoredOracle` runs **one** exploration carrying a
platform-membership bitmask on every tracked state: a state's bit *i*
is set iff the state is reachable under platform *i*.  Everything the
transition function does identically across specs is then done once —
CALL / RETURN / CREATE / DESTROY label application never consults the
spec (only the internal tau transition does), and states common to
several platforms are stored, hashed and matched once instead of once
per platform.  Tau transitions are evaluated per spec bit, which keeps
each platform's reachable set *exactly* what an independent
``TraceChecker`` pass would compute; per-platform deviations, recovery,
pruning and ``max_state_set`` bookkeeping replicate the checker's logic
bit-for-bit (test-enforced parity).

A :class:`~repro.oracle.cache.PrefixCache` memoizes clean label
prefixes, so suites whose scripts share generated setup scaffolding
(most of ``testgen``'s families) skip re-exploring common prefixes.

The exploration itself runs on the :mod:`repro.engine` interned
engine: states are hash-consed to integer ids (hashed once, compared
as ints), the mask table is id-keyed, snapshots store ``(id, mask)``
pairs, and per-spec :class:`~repro.engine.TransitionMemo` tables cache
``os_trans`` and tau-closure results across every trace a caching
oracle ever checks — which is also why the coverage path (oracles
built with ``cache=False``) gets fresh tables per check: memo hits do
not re-fire specification-clause ``cover()`` calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.checker.checker import (Deviation, TraceChecker,
                                   implicit_creates)
from repro.core.labels import OsLabel, OsReturn, OsSignal, OsSpin
from repro.core.platform import PlatformSpec, spec_by_name
from repro.core.values import render_return
from repro.engine import InternTable, TransitionMemo
from repro.oracle.cache import PrefixCache
from repro.oracle.verdict import ConformanceProfile, Verdict
from repro.osapi.os_state import initial_os_state
from repro.osapi.transition import allowed_returns
from repro.script.ast import Trace

#: State id -> platform-membership bitmask (bit i = reachable on
#: ``platforms[i]``).  Ids are minted by the oracle's
#: :class:`~repro.engine.InternTable`, so mask tables hash/compare
#: ints instead of whole state dataclasses.
MaskedStates = Dict[int, int]


class VectoredOracle:
    """One state-set pass over any number of platform variants.

    Parameters mirror :class:`repro.checker.checker.TraceChecker`
    (groups, max_states, default credentials) and apply to every
    platform.  ``cache`` is ``True`` for a private
    :class:`PrefixCache`, ``False``/``None`` to disable memoization, or
    an explicit instance to share one cache across oracles.
    """

    def __init__(self, platforms: Sequence[Union[str, PlatformSpec]], *,
                 groups: dict | None = None,
                 max_states: int = TraceChecker.DEFAULT_MAX_STATES,
                 default_uid: int = 0, default_gid: int = 0,
                 cache: Union[PrefixCache, bool, None] = True) -> None:
        if not platforms:
            raise ValueError("an oracle needs at least one platform")
        self.specs: Tuple[PlatformSpec, ...] = tuple(
            p if isinstance(p, PlatformSpec) else spec_by_name(p)
            for p in platforms)
        self.platforms: Tuple[str, ...] = tuple(
            spec.name for spec in self.specs)
        if len(set(self.platforms)) != len(self.platforms):
            raise ValueError(
                f"duplicate platforms: {', '.join(self.platforms)}")
        self.groups = groups or {}
        self.max_states = max_states
        self.default_uid = default_uid
        self.default_gid = default_gid
        if cache is True:
            self._cache: Optional[PrefixCache] = PrefixCache()
        elif cache:
            self._cache = cache
        else:
            self._cache = None
        # Snapshots are only valid for an identical checking
        # configuration: a shared cache partitions its trie by this key
        # so e.g. a linux and an osx oracle never trade snapshots.
        self._cache_key = (
            self.platforms, self.max_states, self.default_uid,
            self.default_gid,
            tuple(sorted((gid, tuple(sorted(members)))
                         for gid, members in self.groups.items())))
        self._table: Optional[InternTable] = None
        self._memos: Tuple[TransitionMemo, ...] = ()

    @property
    def name(self) -> str:
        if len(self.platforms) == 1:
            return self.platforms[0]
        return "vectored:" + "+".join(self.platforms)

    @property
    def cache(self) -> Optional[PrefixCache]:
        return self._cache

    @property
    def cache_key(self):
        """The cache-partition key this oracle's snapshots live under
        (everything a snapshot depends on besides the label path)."""
        return self._cache_key

    # -- vectored transition plumbing -----------------------------------------

    def _bind_engine(self) -> Tuple[InternTable,
                                    Tuple[TransitionMemo, ...]]:
        """The intern table + per-spec memos for one ``check`` call.

        With a prefix cache, the table is the cache partition's own
        (:meth:`PrefixCache.table`) — snapshots store ids, so every
        oracle sharing the partition must share the table minting them
        — and the memos persist across checks (and across a pool
        worker's life), which is the cross-trace transition reuse this
        engine exists for.  Re-checked each call so a ``cache.clear()``
        swaps in fresh tables instead of serving stale ids.

        Without a cache (the coverage-collection path) everything is
        rebuilt per call: a memo kept warm across traces would skip
        re-executing transition bodies and under-report per-trace
        specification-clause coverage.
        """
        if self._cache is not None:
            table = self._cache.table(self._cache_key)
            if table is not self._table:
                self._table = table
                self._memos = tuple(TransitionMemo(spec, table)
                                    for spec in self.specs)
        else:
            self._table = table = InternTable()
            self._memos = tuple(TransitionMemo(spec, table)
                                for spec in self.specs)
        return self._table, self._memos

    def _apply_shared(self, memo: TransitionMemo, states: MaskedStates,
                      label: OsLabel) -> MaskedStates:
        """Apply a non-tau label once, carrying masks through.

        ``os_trans`` consults the spec only on the internal tau
        transition; CALL / RETURN / CREATE / DESTROY application is
        platform-independent, so one evaluation per *state* (memoized
        under the primary spec's memo) serves every platform in its
        mask.
        """
        out: MaskedStates = {}
        for sid, mask in states.items():
            for succ in memo.apply_one(sid, label):
                out[succ] = out.get(succ, 0) | mask
        return out

    def _closure(self, memos: Tuple[TransitionMemo, ...],
                 states: MaskedStates) -> MaskedStates:
        """Per-platform tau closure over the shared id-mask table.

        Tau outcomes depend on the spec, so each platform bit unions
        its own memoized per-state closures: a platform's reachable
        set is exactly what its own ``tau_closure`` would compute, but
        states shared by several platforms are interned and
        deduplicated once, and closures repeat-derived by earlier
        traces are free.
        """
        acc: MaskedStates = {}
        for sid, mask in states.items():
            remaining = mask
            i = 0
            while remaining:
                if remaining & 1:
                    bit = 1 << i
                    for succ in memos[i].closure_one(sid):
                        acc[succ] = acc.get(succ, 0) | bit
                remaining >>= 1
                i += 1
        return acc

    def _members(self, states: MaskedStates, i: int) -> List[int]:
        bit = 1 << i
        return [sid for sid, mask in states.items() if mask & bit]

    def _member_counts(self, states: MaskedStates) -> List[int]:
        """Per-platform member counts in one pass over the mask table
        (the hot loop folds these into the peaks after every label)."""
        counts = [0] * len(self.specs)
        for mask in states.values():
            i = 0
            while mask:
                if mask & 1:
                    counts[i] += 1
                mask >>= 1
                i += 1
        return counts

    def _prune_platform(self, memo: TransitionMemo, states: MaskedStates,
                        i: int) -> Tuple[MaskedStates, bool]:
        """Platform-local pruning via the engine's deterministic
        keep-by-repr rule (one definition with ``TraceChecker``)."""
        members = self._members(states, i)
        if len(members) <= self.max_states:
            return states, False
        keep = memo.prune(frozenset(members), self.max_states)
        bit = 1 << i
        out: MaskedStates = {}
        for sid, mask in states.items():
            if mask & bit and sid not in keep:
                mask &= ~bit
            if mask:
                out[sid] = mask
        return out, True

    # -- the check loop -------------------------------------------------------

    def check(self, trace: Trace) -> Verdict:
        n = len(self.specs)
        full = (1 << n) - 1
        table, memos = self._bind_engine()
        memo0 = memos[0]
        states: MaskedStates = {
            table.intern(initial_os_state(self.groups)): full}
        devs: List[List[Deviation]] = [[] for _ in range(n)]
        maxs: List[int] = [1] * n
        pruned: List[bool] = [False] * n
        labels = 0

        cache = self._cache
        node = (cache.root(self._cache_key) if cache is not None
                else None)

        def snapshot() -> Tuple[tuple, tuple]:
            # Taken under the partition's table: rows are materialised
            # and id-sorted *now*, so a snapshot published to the cache
            # can never be a live view of (or depend on the dict order
            # of) a mask table a later step keeps updating.
            return (tuple(sorted(states.items())), tuple(maxs))

        def track_peaks() -> None:
            """Per-step peak tracking: every platform's set size is
            folded into its max after every label application (the
            checker's rule), not only at return-time closures."""
            for i, count in enumerate(self._member_counts(states)):
                if count > maxs[i]:
                    maxs[i] = count

        def walk(label: OsLabel) -> bool:
            """Advance the trie; True if a snapshot was restored."""
            nonlocal node, states, maxs
            hit = cache.lookup(node, label)
            if hit is not None:
                items, cached_maxs = hit.snapshot
                states = dict(items)
                maxs = list(cached_maxs)
                node = hit
                return True
            return False

        def store(label: OsLabel) -> None:
            nonlocal node
            if any(devs_i for devs_i in devs) or any(pruned):
                node = None
                return
            node = cache.extend(node, label, snapshot())

        # Implicit creates are part of the memoized path: traces that
        # share visible labels but differ in process population must
        # not share snapshots.
        for create in implicit_creates(trace, self.default_uid,
                                       self.default_gid):
            if node is not None and walk(create):
                continue
            states = self._apply_shared(memo0, states, create)
            track_peaks()
            if node is not None:
                store(create)

        for event in trace.events:
            label = event.label
            labels += 1
            if node is not None and walk(label):
                continue

            if isinstance(label, (OsSignal, OsSpin)):
                # The model never allows a call to kill or hang a
                # process: a deviation on every platform.
                kind = ("signal" if isinstance(label, OsSignal)
                        else "spin")
                deviation = Deviation(
                    line_no=event.line_no, kind=kind,
                    observed=label.render(), allowed=(),
                    message=f"process-level misbehaviour: "
                            f"{label.render()}")
                for i in range(n):
                    devs[i].append(deviation)
                node = None
                continue

            if isinstance(label, OsReturn):
                closed = self._closure(memos, states)
                for i, count in enumerate(self._member_counts(closed)):
                    if count > maxs[i]:
                        maxs[i] = count
                nxt = self._apply_shared(memo0, closed, label)
                alive = 0
                for mask in nxt.values():
                    alive |= mask
                stuck = full & ~alive
                if stuck:
                    for i in range(n):
                        if not (stuck >> i) & 1:
                            continue
                        closed_i = frozenset(self._members(closed, i))
                        allowed = allowed_returns(
                            table.states_of(closed_i), label.pid)
                        allowed_strs = tuple(sorted(
                            render_return(r) for r in allowed))
                        devs[i].append(Deviation(
                            line_no=event.line_no,
                            kind="return-mismatch",
                            observed=render_return(label.ret),
                            allowed=allowed_strs,
                            message=f"unexpected results: "
                                    f"{render_return(label.ret)}"))
                        recovered = memo0.recover(closed_i, label.pid) \
                            or closed_i
                        bit = 1 << i
                        for sid in recovered:
                            nxt[sid] = nxt.get(sid, 0) | bit
                states = nxt
                track_peaks()
                for i in range(n):
                    states, did = self._prune_platform(memo0, states, i)
                    pruned[i] = pruned[i] or did
                if node is not None:
                    store(label)
                continue

            # CALL / CREATE / DESTROY.
            nxt = self._apply_shared(memo0, states, label)
            alive = 0
            for mask in nxt.values():
                alive |= mask
            stuck = full & ~alive
            if stuck:
                deviation = Deviation(
                    line_no=event.line_no, kind="structural",
                    observed=label.render(), allowed=(),
                    message=f"label not allowed here: {label.render()}")
                for i in range(n):
                    if (stuck >> i) & 1:
                        devs[i].append(deviation)
                # Stuck platforms keep their previous states, exactly
                # as the checker leaves `states` unchanged.
                for sid, mask in states.items():
                    held = mask & stuck
                    if held:
                        nxt[sid] = nxt.get(sid, 0) | held
            states = nxt
            track_peaks()
            if node is not None:
                store(label)

        return Verdict(trace=trace, profiles=tuple(
            ConformanceProfile(platform=self.platforms[i],
                               deviations=tuple(devs[i]),
                               max_state_set=maxs[i],
                               labels_checked=labels,
                               pruned=pruned[i])
            for i in range(n)))


class ModelOracle(VectoredOracle):
    """One platform variant of the model as an oracle.

    The single-platform degenerate case of the vectored engine: its
    verdict's one profile is identical to a
    :class:`~repro.checker.checker.TraceChecker` pass (parity is
    test-enforced), plus prefix memoization.
    """

    def __init__(self, platform: Union[str, PlatformSpec], *,
                 groups: dict | None = None,
                 max_states: int = TraceChecker.DEFAULT_MAX_STATES,
                 default_uid: int = 0, default_gid: int = 0,
                 cache: Union[PrefixCache, bool, None] = True) -> None:
        super().__init__((platform,), groups=groups,
                         max_states=max_states,
                         default_uid=default_uid,
                         default_gid=default_gid, cache=cache)

    @property
    def platform(self) -> str:
        return self.platforms[0]
