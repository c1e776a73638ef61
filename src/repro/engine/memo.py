"""Memoized transition and tau-closure application over interned ids.

A :class:`TransitionMemo` binds one
:class:`~repro.core.platform.PlatformSpec` to one
:class:`~repro.engine.intern.InternTable` and caches

* ``(state_id, label) -> tuple of successor ids`` for every
  ``os_trans`` application, and
* ``state_id -> frozenset of ids`` for single-state tau closures.

Set-level operations are unions of the per-state memo entries.  That
is sound because the model's transitions are per-state independent
(``os_trans`` never looks at the rest of the set), and for closures
because the tau graph is monotone — every tau step consumes a pending
call, so ``closure(S) == union(closure({s}) for s in S)`` and the
closure of a successor is a subset of the closure of its predecessor
(which lets the worklist splice in already-memoized closures).

The checker's recovery and pruning rules live here too, expressed over
ids, so the interned loop (:func:`~repro.checker.checker.explore`) and
the uninterned one share one definition: :func:`recover_states` is the
canonical "resume after a failed return match" body (the uninterned
loop calls it directly), and :meth:`TransitionMemo.prune` keeps the
uninterned loop's deterministic keep-by-repr rule.

Memos for several specs over one table may share their tau steps.
Only the tau step (``exec_call`` on the pending call) consults the
spec, and most steps read few of its fields.  So a sharing memo
evaluates a tau step on a :class:`RecordingSpec`, which logs every
field the step reads, and files ``(reads, successors)`` under the
state id in a table common to the memos.  A sibling memo missing
the same step takes the first entry whose logged values its own spec
equals, field by field; failing that, it evaluates the step itself
and files its own entry.  Equal reads mean the step took the same
path under either spec, so the successors, and the ``cover()``
clauses the path fired, are the same.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.labels import OsLabel, OsTau
from repro.core.platform import PlatformSpec
from repro.engine.intern import InternTable
from repro.osapi.os_state import OsStateOrSpecial, SpecialOsState
from repro.osapi.process import RsReturning, RsRunning
from repro.osapi.transition import os_trans

#: Shared tau label instance (frozen, stateless).
_TAU = OsTau()

#: The ``(field, value)`` pairs one tau evaluation read, in read order.
Reads = Tuple[Tuple[str, Any], ...]

#: State id -> ``(reads, successor ids)`` of each tau evaluation made
#: from it, one table for every sharing memo bound to one intern table.
SharedTau = Dict[int, List[Tuple[Reads, Tuple[int, ...]]]]


class RecordingSpec(PlatformSpec):
    """A view of a :class:`PlatformSpec` that logs each field read.

    Every field is a property here, so reads through ``FsEnv.spec``,
    through ``PermEnv``'s construction and through :meth:`allows`
    (which reads ``name``) all land in :attr:`reads`.  A view serves
    one evaluation, so two threads checking on one oracle never mix
    logs.  ``dataclasses.replace`` on a view reads, and so logs, every
    field it copies (``name`` among them) and builds a plain spec, so
    that evaluation is never shared.
    """

    def __new__(cls, *args, **kwargs):
        # ``dataclasses.replace`` calls the instance's class.
        return PlatformSpec(*args, **kwargs)

    @classmethod
    def of(cls, spec: PlatformSpec) -> "RecordingSpec":
        view = object.__new__(cls)
        view.__dict__.update(_spec=spec, reads={})
        return view


def _logged(name: str) -> property:
    def read(view: RecordingSpec):
        value = getattr(view._spec, name)
        view.reads[name] = value
        return value
    return property(read)


for _field in dataclasses.fields(PlatformSpec):
    setattr(RecordingSpec, _field.name, _logged(_field.name))


def recover_states(states: Iterable[OsStateOrSpecial], pid: int
                   ) -> Optional[FrozenSet[OsStateOrSpecial]]:
    """Continue after a failed return match.

    The paper's checker continues "with EEXIST, ENOTEMPTY": we resume
    from every state in which the pending return (whatever it was) has
    been delivered, i.e. the process is running again.  This is the
    single definition both the uninterned checker and the interned
    engine use.
    """
    recovered: set = set()
    for state in states:
        if isinstance(state, SpecialOsState):
            recovered.add(state)
            continue
        proc = state.procs.get(pid)
        if proc is None:
            continue
        if isinstance(proc.run, RsReturning):
            recovered.add(state.with_proc(pid, proc.with_run(RsRunning())))
        elif isinstance(proc.run, RsRunning):
            recovered.add(state)
    return frozenset(recovered) if recovered else None


class TransitionMemo:
    """Per-spec memo of ``os_trans`` and tau closures over one table.

    ``shared`` is the tau table common to the memos of one
    multi-platform oracle (see the module docstring); ``None`` keeps
    every tau step private, with no recording.
    """

    __slots__ = ("spec", "table", "_trans", "_closures", "_shared",
                 "_tau_shared")

    def __init__(self, spec: PlatformSpec, table: InternTable,
                 shared: Optional[SharedTau] = None) -> None:
        self.spec = spec
        self.table = table
        self._trans: Dict[Tuple[int, OsLabel], Tuple[int, ...]] = {}
        self._closures: Dict[int, FrozenSet[int]] = {}
        self._shared = shared
        self._tau_shared = 0

    # -- single-state steps ---------------------------------------------------

    def apply_one(self, sid: int, label: OsLabel) -> Tuple[int, ...]:
        """Successor ids of ``os_trans(spec, state_of(sid), label)``."""
        key = (sid, label)
        cached = self._trans.get(key)
        if cached is None:
            if self._shared is not None and label.__class__ is OsTau:
                cached = self._shared_tau(sid)
            else:
                table = self.table
                cached = tuple(
                    table.intern(succ)
                    for succ in os_trans(self.spec, table.state_of(sid),
                                         label))
            self._trans[key] = cached
        return cached

    def _shared_tau(self, sid: int) -> Tuple[int, ...]:
        """The tau step from ``sid``: a sibling's successors if this
        spec equals every value that sibling's evaluation read, else a
        recorded evaluation of its own, filed for the siblings."""
        spec = self.spec
        entries = self._shared.get(sid, ())
        for reads, succs in entries:
            for name, value in reads:
                if getattr(spec, name) != value:
                    break
            else:
                self._tau_shared += 1
                return succs
        view = RecordingSpec.of(spec)
        table = self.table
        succs = tuple(table.intern(succ)
                      for succ in os_trans(view, table.state_of(sid),
                                           _TAU))
        self._shared.setdefault(sid, []).append(
            (tuple(view.reads.items()), succs))
        return succs

    def closure_one(self, sid: int) -> FrozenSet[int]:
        """Ids of the tau closure of the single state ``sid``.

        The state itself is always a member (a pending call need not
        have taken effect yet).  Already-memoized closures of
        successors are spliced in rather than re-walked — sound
        because the tau graph only consumes pending calls, so a
        successor's closure is a subset of this one.
        """
        cached = self._closures.get(sid)
        if cached is not None:
            return cached
        seen = {sid}
        frontier: List[int] = [sid]
        closures = self._closures
        while frontier:
            current = frontier.pop()
            for succ in self.apply_one(current, _TAU):
                if succ in seen:
                    continue
                succ_closure = closures.get(succ)
                if succ_closure is not None:
                    seen.update(succ_closure)
                else:
                    seen.add(succ)
                    frontier.append(succ)
        result = frozenset(seen)
        closures[sid] = result
        return result

    # -- id-set operations ----------------------------------------------------

    def recover(self, ids: Iterable[int],
                pid: int) -> Optional[FrozenSet[int]]:
        """:func:`recover_states` over ids (spec-independent)."""
        recovered = recover_states(self.table.states_of(ids), pid)
        if recovered is None:
            return None
        return self.table.intern_all(recovered)

    def prune(self, ids: FrozenSet[int], limit: int) -> FrozenSet[int]:
        """Deterministically keep ``limit`` ids — the checker's
        keep-by-repr rule (stable across processes, unlike object
        hashes)."""
        table = self.table
        keep = sorted(ids, key=lambda sid: repr(table.state_of(sid)))
        return frozenset(keep[:limit])

    def stats(self) -> Dict[str, int]:
        return {"states": len(self.table),
                "transitions": len(self._trans),
                "closures": len(self._closures),
                "tau_shared": self._tau_shared}
