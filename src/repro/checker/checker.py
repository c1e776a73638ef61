"""State-set trace checking.

The core loop (paper section 5): maintain a finite set ``S_i`` of model
states; for each label apply ``os_trans`` to every element and union the
results.  A non-empty final set means the trace is accepted.  Internal
tau transitions (a pending call taking effect) are explored by taking the
tau closure before matching each return — this is what copes with both
result nondeterminism and concurrent in-flight calls without any
backtracking search (the six-orders-of-magnitude point of section 3).
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Optional, Tuple

from repro.core.labels import (OsCall, OsCreate, OsDestroy, OsLabel,
                               OsReturn, OsSignal, OsSpin)
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


def implicit_creates(trace: Trace, default_uid: int = 0,
                     default_gid: int = 0) -> List[OsCreate]:
    """CREATE labels for pids the trace uses but never creates.

    The paper's checking flag for "whether the initial process runs
    with root privileges or not": processes a trace uses without an
    explicit ``@process create`` line are created up front with the
    given default credentials.  Shared by :class:`TraceChecker` and the
    vectored oracle engine so the rule cannot desynchronize.
    """
    created: set = set()
    implicit: List[OsCreate] = []
    for event in trace.events:
        label = event.label
        if isinstance(label, OsCreate):
            created.add(label.pid)
        elif isinstance(label, (OsCall, OsReturn, OsSignal, OsSpin)):
            if label.pid not in created:
                created.add(label.pid)
                implicit.append(OsCreate(label.pid, default_uid,
                                         default_gid))
    return implicit


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

    This is the reference checker: the oracles' single-platform parity
    is tested against it, and ``perfbench/refs.py`` builds the
    benchmark's recorded verdicts with it.  Applications should check
    through :mod:`repro.oracle` (``get_oracle("linux").check(trace)``),
    which adds prefix memoization, one-pass multi-platform checking and
    the common :class:`~repro.oracle.Verdict` surface.  This class
    keeps its own body, because layering forbids ``repro.checker``
    importing ``repro.oracle``.

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
        #: ``intern=True`` (the default) explores over the
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
            self._table = InternTable()
            self._memo = TransitionMemo(spec, self._table)

    def _implicit_creates(self, trace: Trace) -> List[OsCreate]:
        """CREATE labels for pids the trace uses but never creates."""
        return implicit_creates(trace, self.default_uid,
                                self.default_gid)

    def check(self, trace: Trace) -> CheckedTrace:
        if self.intern:
            return self._check_interned(trace)
        return self._check_uninterned(trace)

    def _check_interned(self, trace: Trace) -> CheckedTrace:
        """The interned engine loop: ids in, ids out.

        Mirrors :meth:`_check_uninterned` step for step (the randomized
        parity test holds the two to identical results); the state set
        is a frozenset of :class:`~repro.engine.InternTable` ids and
        every transition goes through the memo.
        """
        memo = self._memo
        table = self._table
        ids: FrozenSet[int] = frozenset(
            {table.intern(initial_os_state(self.groups))})
        max_states = 1
        for create in self._implicit_creates(trace):
            ids = memo.apply(ids, create)
            max_states = max(max_states, len(ids))
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
                closed = memo.closure(ids)
                max_states = max(max_states, len(closed))
                next_ids = memo.apply(closed, label)
                if next_ids:
                    ids = next_ids
                    max_states = max(max_states, len(ids))
                    if len(ids) > self.max_states:
                        # A conformant trace collapses the set at every
                        # return; exceeding the bound is only plausible
                        # in pathological cases — prune and flag.
                        ids = memo.prune(ids, self.max_states)
                        pruned = True
                    continue
                allowed = allowed_returns(table.states_of(closed),
                                          label.pid)
                allowed_strs = tuple(sorted(
                    render_return(r) for r in allowed))
                deviations.append(Deviation(
                    line_no=event.line_no, kind="return-mismatch",
                    observed=render_return(label.ret),
                    allowed=allowed_strs,
                    message=f"unexpected results: "
                            f"{render_return(label.ret)}"))
                ids = memo.recover(closed, label.pid) or closed
                max_states = max(max_states, len(ids))
                if len(ids) > self.max_states:
                    ids = memo.prune(ids, self.max_states)
                    pruned = True
                continue

            # CALL / CREATE / DESTROY.
            next_ids = memo.apply(ids, label)
            if next_ids:
                ids = next_ids
                max_states = max(max_states, len(ids))
                continue
            deviations.append(Deviation(
                line_no=event.line_no, kind="structural",
                observed=label.render(), allowed=(),
                message=f"label not allowed here: {label.render()}"))

        return CheckedTrace(trace=trace, deviations=tuple(deviations),
                            max_state_set=max_states,
                            labels_checked=labels, pruned=pruned)

    def _check_uninterned(self, trace: Trace) -> CheckedTrace:
        """The original frozenset-of-states loop (``intern=False``)."""
        spec = self.spec
        states: FrozenSet[OsStateOrSpecial] = frozenset(
            {initial_os_state(self.groups)})
        max_states = 1
        for create in self._implicit_creates(trace):
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
                states = _recover(closed, label.pid) or closed
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


def _recover(states: FrozenSet[OsStateOrSpecial],
             pid: int) -> Optional[FrozenSet[OsStateOrSpecial]]:
    """Continue after a failed return match.

    The canonical body lives in :func:`repro.engine.recover_states`
    (one definition shared with the interned engine); this wrapper
    keeps the checker-local name importers rely on.
    """
    return recover_states(states, pid)


def check_trace(spec: PlatformSpec, trace: Trace,
                groups: dict | None = None) -> CheckedTrace:
    """Convenience one-shot trace check."""
    return TraceChecker(spec, groups).check(trace)
