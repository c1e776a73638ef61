"""State-set trace checking.

The core loop (paper section 5): maintain a finite set ``S_i`` of model
states; for each label apply ``os_trans`` to every element and union the
results.  A non-empty final set means the trace is accepted.  Internal
tau transitions (a pending call taking effect) are explored by taking the
tau closure before matching each return — this is what copes with both
result nondeterminism and concurrent in-flight calls without any
backtracking search (the six-orders-of-magnitude point of section 3).

:func:`explore` is that loop over :mod:`repro.engine`'s interned ids,
for any number of platforms at once: each state id carries a bitmask of
the platforms that reach it.  :class:`TraceChecker` runs it with one
platform, :class:`~repro.oracle.vectored.VectoredOracle` with several
and a stored path to resume from.  ``TraceChecker(intern=False)`` keeps
the original frozenset-of-states loop as the reference every engine's
results are held to.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.labels import (OsCall, OsCreate, OsLabel, OsReturn,
                               OsSignal, OsSpin)
from repro.core.platform import PlatformSpec
from repro.core.values import render_return
from repro.engine import InternTable, TransitionMemo, recover_states
from repro.osapi.os_state import OsStateOrSpecial, initial_os_state
from repro.osapi.transition import allowed_returns, os_trans, tau_closure
from repro.script.ast import Trace


@dataclasses.dataclass(frozen=True)
class Deviation:
    """One non-conformant step of a checked trace."""

    line_no: int
    kind: str  # "return-mismatch" | "signal" | "spin" | "structural"
    observed: str
    allowed: Tuple[str, ...]
    message: str


#: Label classes that use their pid's process: a trace that uses a pid
#: this way before creating it gets an implicit create (a DESTROY does
#: not).
_USES_PID = frozenset({OsCall, OsReturn, OsSignal, OsSpin})


def implicit_creates(trace: Trace, default_uid: int = 0,
                     default_gid: int = 0) -> List[OsCreate]:
    """CREATE labels for pids the trace uses but never creates.

    The paper's checking flag for "whether the initial process runs
    with root privileges or not": processes a trace uses without an
    explicit ``@process create`` line are created up front with the
    given default credentials.  Shared by :func:`explore` and the
    uninterned loop so the rule cannot desynchronize.
    """
    created: set = set()
    implicit: List[OsCreate] = []
    for event in trace.events:
        label = event.label
        cls = label.__class__
        if cls is OsCreate:
            created.add(label.pid)
        elif cls in _USES_PID and label.pid not in created:
            created.add(label.pid)
            implicit.append(OsCreate(label.pid, default_uid, default_gid))
    return implicit


#: State id -> platform-membership bitmask (bit i = reachable under
#: ``memos[i]``'s spec).  Ids are minted by the memos' one
#: :class:`~repro.engine.InternTable`, so mask tables hash and compare
#: ints instead of whole state dataclasses.
MaskedStates = Dict[int, int]


def explore(memos: Sequence[TransitionMemo], trace: Trace, *,
            groups: dict, max_states: int, default_uid: int,
            default_gid: int, cache=None
            ) -> Tuple[List[List[Deviation]], List[int], List[bool]]:
    """Check ``trace`` under every memo's spec in one masked pass.

    The memos hold one spec each, over one intern table.  Each tracked
    state id carries a bitmask of the platforms (memo indices) that
    reach it, so a label is applied once per state for all of them.
    Each platform's set, deviations, recovery, pruning and peaks are
    exactly those of :meth:`TraceChecker._check_uninterned` under its
    spec.  ``cache``, a :class:`~repro.oracle.cache.PrefixCache` or
    None, resumes the check from its stored path and takes the check's
    clean entries.  Returns each platform's deviations, peak set size
    and pruned flag, in ``memos`` order.
    """
    n = len(memos)
    full = (1 << n) - 1
    memo0 = memos[0]
    table = memo0.table
    creates = implicit_creates(trace, default_uid, default_gid)
    events = trace.events
    devs: List[List[Deviation]] = [[] for _ in range(n)]
    pruned: List[bool] = [False] * n

    # Resume from the deepest entry of the stored path that this
    # trace shares.  Implicit creates come first: traces that share
    # visible labels but differ in process population must not share
    # snapshots.
    path: tuple = ()
    shared = 0
    if cache is not None:
        path, shared = cache.resume(
            creates + [event.label for event in events])
    if shared:
        _label, items, peaks = path[shared - 1]
        states: MaskedStates = dict(items)
        maxs = list(peaks)
    else:
        states = {table.intern(initial_os_state(groups)): full}
        maxs = [1] * n
    # New path entries, taken while every platform is still
    # deviation-free and unpruned.
    clean = cache is not None
    new: list = []

    def track_peaks() -> int:
        """Per-step peak tracking: every platform's set size is folded
        into its max after every label application, not only at
        return-time closures.  Returns the largest set size."""
        counts = _member_counts(states, n)
        for i, count in enumerate(counts):
            if count > maxs[i]:
                maxs[i] = count
        return max(counts)

    def entry(label: OsLabel) -> tuple:
        return (label, tuple(sorted(states.items())), tuple(maxs))

    for create in creates[shared:]:
        states = _apply_shared(memo0, states, create)
        track_peaks()
        if clean:
            new.append(entry(create))

    for event in events[max(0, shared - len(creates)):]:
        label = event.label

        if isinstance(label, (OsSignal, OsSpin)):
            # The model never allows a call to kill or hang a process:
            # a deviation on every platform.
            kind = "signal" if isinstance(label, OsSignal) else "spin"
            deviation = Deviation(
                line_no=event.line_no, kind=kind,
                observed=label.render(), allowed=(),
                message=f"process-level misbehaviour: "
                        f"{label.render()}")
            for i in range(n):
                devs[i].append(deviation)
            clean = False
            continue

        if isinstance(label, OsReturn):
            closed = _closure(memos, states)
            for i, count in enumerate(_member_counts(closed, n)):
                if count > maxs[i]:
                    maxs[i] = count
            nxt = _apply_shared(memo0, closed, label)
            alive = 0
            for mask in nxt.values():
                alive |= mask
            stuck = full & ~alive
            if stuck:
                clean = False
                for i in range(n):
                    if not (stuck >> i) & 1:
                        continue
                    closed_i = frozenset(_members(closed, i))
                    allowed = allowed_returns(table.states_of(closed_i),
                                              label.pid)
                    allowed_strs = tuple(sorted(
                        render_return(r) for r in allowed))
                    devs[i].append(Deviation(
                        line_no=event.line_no, kind="return-mismatch",
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
            if track_peaks() > max_states:
                # A conformant trace collapses the set at every return;
                # past the bound (only plausible after a deviation)
                # prune and flag.
                for i in range(n):
                    states, did = _prune_platform(memo0, states, i,
                                                  max_states)
                    if did:
                        pruned[i] = True
                        clean = False
            if clean:
                new.append(entry(label))
            continue

        # CALL / CREATE / DESTROY.
        nxt = _apply_shared(memo0, states, label)
        alive = 0
        for mask in nxt.values():
            alive |= mask
        stuck = full & ~alive
        if stuck:
            clean = False
            deviation = Deviation(
                line_no=event.line_no, kind="structural",
                observed=label.render(), allowed=(),
                message=f"label not allowed here: {label.render()}")
            for i in range(n):
                if (stuck >> i) & 1:
                    devs[i].append(deviation)
            # Stuck platforms keep their previous states, as the
            # uninterned loop leaves its set unchanged.
            for sid, mask in states.items():
                held = mask & stuck
                if held:
                    nxt[sid] = nxt.get(sid, 0) | held
        states = nxt
        track_peaks()
        if clean:
            new.append(entry(label))

    if cache is not None:
        cache.publish(path, shared, new, clean)
    return devs, maxs, pruned


def _apply_shared(memo: TransitionMemo, states: MaskedStates,
                  label: OsLabel) -> MaskedStates:
    """Apply a non-tau label once per state, carrying masks through.

    ``os_trans`` consults the spec only on the internal tau transition,
    so CALL / RETURN / CREATE / DESTROY application under the first
    memo serves every platform in a state's mask.
    """
    out: MaskedStates = {}
    for sid, mask in states.items():
        for succ in memo.apply_one(sid, label):
            out[succ] = out.get(succ, 0) | mask
    return out


def _closure(memos: Sequence[TransitionMemo],
             states: MaskedStates) -> MaskedStates:
    """Per-platform tau closure over the shared id-mask table.

    Tau outcomes depend on the spec, so each platform bit unions its
    own memo's per-state closures: a platform's set is exactly what its
    own ``tau_closure`` would compute, while states shared by several
    platforms are interned and deduplicated once.
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


def _members(states: MaskedStates, i: int) -> List[int]:
    bit = 1 << i
    return [sid for sid, mask in states.items() if mask & bit]


def _member_counts(states: MaskedStates, n: int) -> List[int]:
    """Per-platform member counts in one pass over the mask table."""
    full = (1 << n) - 1
    for mask in states.values():
        if mask != full:
            break
    else:
        # Every state on every platform: the common case, and always
        # so with one platform.
        return [len(states)] * n
    counts = [0] * n
    for mask in states.values():
        i = 0
        while mask:
            if mask & 1:
                counts[i] += 1
            mask >>= 1
            i += 1
    return counts


def _prune_platform(memo: TransitionMemo, states: MaskedStates, i: int,
                    limit: int) -> Tuple[MaskedStates, bool]:
    """Keep at most ``limit`` of platform ``i``'s states, by the
    engine's deterministic keep-by-repr rule (:func:`_prune`'s)."""
    members = _members(states, i)
    if len(members) <= limit:
        return states, False
    keep = memo.prune(frozenset(members), limit)
    bit = 1 << i
    out: MaskedStates = {}
    for sid, mask in states.items():
        if mask & bit and sid not in keep:
            mask &= ~bit
        if mask:
            out[sid] = mask
    return out, True


@dataclasses.dataclass(frozen=True)
class CheckedTrace:
    """The result of checking one trace against the model."""

    trace: Trace
    deviations: Tuple[Deviation, ...]
    #: Peak size of the state set, tracked at *every* step — each label
    #: application and each tau closure — not only at returns, so peaks
    #: reached between RETURN labels (e.g. sets carried through CALL /
    #: CREATE labels after a deviation recovery) are reported too.
    max_state_set: int
    labels_checked: int
    #: True if the state set ever exceeded the checker's bound and was
    #: pruned (possible only after a deviation; see TraceChecker).
    pruned: bool = False

    @property
    def accepted(self) -> bool:
        return not self.deviations


class TraceChecker:
    """Checks traces against one variant of the model.

    With ``intern=False`` this is the reference checker: every engine's
    parity is tested against it, and ``perfbench/refs.py`` builds the
    benchmark's recorded verdicts with it.  With ``intern=True`` it
    runs :func:`explore` with one platform.  Applications should check
    through :mod:`repro.oracle` (``get_oracle("linux").check(trace)``),
    which adds prefix resumption, one-pass multi-platform checking and
    the common :class:`~repro.oracle.Verdict` surface.

    ``groups`` optionally pre-populates the model's group table, matching
    the checking flags the paper mentions (e.g. whether the initial
    process runs with root privileges is determined by the trace's
    ``@process create`` line).
    """

    #: Bound on the state set carried *between* labels.  On a
    #: conformant trace the set stays small by construction
    #: (nondeterminism is resolved by the next label); it can grow
    #: without bound after a deviation, when recovery keeps every
    #: pending alternative — e.g. all partial-write lengths.  Past the
    #: bound the checker prunes deterministically and flags the trace
    #: via ``CheckedTrace.pruned`` (best-effort continuation).  The
    #: transient set between a call and its return is not pruned.
    DEFAULT_MAX_STATES = 64

    def __init__(self, spec: PlatformSpec, groups: dict | None = None,
                 max_states: int = DEFAULT_MAX_STATES,
                 default_uid: int = 0, default_gid: int = 0,
                 intern: bool = True):
        self.spec = spec
        self.groups = groups or {}
        self.max_states = max_states
        #: Credentials assumed for processes a trace uses without an
        #: explicit ``@process create`` line — the paper's checking
        #: flag for "whether the initial process runs with root
        #: privileges or not".
        self.default_uid = default_uid
        self.default_gid = default_gid
        #: ``intern=True`` (the default) runs :func:`explore` on the
        #: :mod:`repro.engine` interned engine: states are hash-consed
        #: into ids and transitions/tau closures are memoized for the
        #: checker's lifetime, so repeated prefixes across the traces
        #: one checker sees are derived once.  ``intern=False`` keeps
        #: the original frozenset-of-states loop — the baseline the
        #: parity property tests and ``bench_engine_intern`` compare
        #: against (results are bit-for-bit identical either way).
        #: Long-lived interned checkers keep their memo warm across
        #: ``check`` calls; per-trace specification-clause coverage
        #: therefore must use fresh instances (as the coverage path's
        #: uncached oracles already do).
        self.intern = intern
        if intern:
            self._memos = (TransitionMemo(spec, InternTable()),)

    def check(self, trace: Trace) -> CheckedTrace:
        if not self.intern:
            return self._check_uninterned(trace)
        devs, peaks, pruned = explore(
            self._memos, trace, groups=self.groups,
            max_states=self.max_states, default_uid=self.default_uid,
            default_gid=self.default_gid, cache=None)
        return CheckedTrace(trace=trace, deviations=tuple(devs[0]),
                            max_state_set=peaks[0],
                            labels_checked=len(trace.events),
                            pruned=pruned[0])

    def _check_uninterned(self, trace: Trace) -> CheckedTrace:
        """The original frozenset-of-states loop (``intern=False``)."""
        spec = self.spec
        states: FrozenSet[OsStateOrSpecial] = frozenset(
            {initial_os_state(self.groups)})
        max_states = 1
        for create in implicit_creates(trace, self.default_uid,
                                       self.default_gid):
            states = _apply(spec, states, create)
            max_states = max(max_states, len(states))
        deviations: List[Deviation] = []
        labels = 0
        pruned = False

        for event in trace.events:
            label = event.label
            labels += 1

            if isinstance(label, (OsSignal, OsSpin)):
                # The model never allows a call to kill or hang a
                # process; these observations are always deviations.
                kind = "signal" if isinstance(label, OsSignal) else "spin"
                deviations.append(Deviation(
                    line_no=event.line_no, kind=kind,
                    observed=label.render(), allowed=(),
                    message=f"process-level misbehaviour: "
                            f"{label.render()}"))
                continue

            if isinstance(label, OsReturn):
                closed = tau_closure(spec, states)
                max_states = max(max_states, len(closed))
                next_states = _apply(spec, closed, label)
                if next_states:
                    states = next_states
                    max_states = max(max_states, len(states))
                    if len(states) > self.max_states:
                        # A conformant trace collapses the set at every
                        # return; exceeding the bound is only plausible
                        # in pathological cases — prune and flag.
                        states = _prune(states, self.max_states)
                        pruned = True
                    continue
                allowed = allowed_returns(closed, label.pid)
                allowed_strs = tuple(sorted(
                    render_return(r) for r in allowed))
                deviations.append(Deviation(
                    line_no=event.line_no, kind="return-mismatch",
                    observed=render_return(label.ret),
                    allowed=allowed_strs,
                    message=f"unexpected results: "
                            f"{render_return(label.ret)}"))
                states = recover_states(closed, label.pid) or closed
                max_states = max(max_states, len(states))
                if len(states) > self.max_states:
                    states = _prune(states, self.max_states)
                    pruned = True
                continue

            # CALL / CREATE / DESTROY.
            next_states = _apply(spec, states, label)
            if next_states:
                states = next_states
                max_states = max(max_states, len(states))
                continue
            deviations.append(Deviation(
                line_no=event.line_no, kind="structural",
                observed=label.render(), allowed=(),
                message=f"label not allowed here: {label.render()}"))

        return CheckedTrace(trace=trace, deviations=tuple(deviations),
                            max_state_set=max_states,
                            labels_checked=labels, pruned=pruned)


def _prune(states: FrozenSet[OsStateOrSpecial],
           limit: int) -> FrozenSet[OsStateOrSpecial]:
    """Deterministically keep ``limit`` states (best-effort mode).

    The key is the rendered representation, which is stable across
    processes (object hashes are randomised per interpreter and would
    make serial and parallel checking disagree).
    """
    return frozenset(sorted(states, key=repr)[:limit])


def _apply(spec: PlatformSpec, states: FrozenSet[OsStateOrSpecial],
           label: OsLabel) -> FrozenSet[OsStateOrSpecial]:
    out: set[OsStateOrSpecial] = set()
    for state in states:
        out |= os_trans(spec, state, label)
    return frozenset(out)


def check_trace(spec: PlatformSpec, trace: Trace,
                groups: dict | None = None) -> CheckedTrace:
    """Convenience one-shot trace check."""
    return TraceChecker(spec, groups).check(trace)
