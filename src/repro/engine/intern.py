"""Hash-consing of model states into small integer ids.

An :class:`InternTable` assigns each distinct
:class:`~repro.osapi.os_state.OsStateOrSpecial` a dense integer id, in
first-seen order.  The expensive part of state-set checking — hashing
and equality-comparing whole nested-dataclass states on every set
operation — is paid once per *distinct* state; the exploration then
works on frozensets of ints, which hash in nanoseconds and stay small
in snapshots.

Ids are stable for the lifetime of the table (the table only grows),
so id-keyed memo tables and cached snapshots never need invalidation.
Ids from different tables are incomparable: whoever shares memoized
data keyed by ids must share the table that minted them (a caching
oracle owns one table for life for exactly this reason).

Two threads checking on one oracle intern through one table, so a
fresh id is minted under a lock: unlocked, hashing a new state can
switch threads between reading the next id and storing it, and two
states would share an id.  Lookups of known states take no lock.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List

from repro.osapi.os_state import OsStateOrSpecial


class InternTable:
    """A bijection between seen states and dense integer ids."""

    __slots__ = ("_ids", "_states", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[OsStateOrSpecial, int] = {}
        self._states: List[OsStateOrSpecial] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: OsStateOrSpecial) -> bool:
        return state in self._ids

    def intern(self, state: OsStateOrSpecial) -> int:
        """The id for ``state``, minting a fresh one on first sight."""
        sid = self._ids.get(state)
        if sid is None:
            with self._lock:
                sid = self._ids.get(state)
                if sid is None:
                    # The state goes in before its id is published, so
                    # whoever finds the id can resolve it.
                    sid = len(self._states)
                    self._states.append(state)
                    self._ids[state] = sid
        return sid

    def intern_all(self,
                   states: Iterable[OsStateOrSpecial]) -> FrozenSet[int]:
        """Intern every state, returning the id set."""
        intern = self.intern
        return frozenset(intern(state) for state in states)

    def state_of(self, sid: int) -> OsStateOrSpecial:
        """The state an id stands for (ids are dense list indices)."""
        return self._states[sid]

    def states_of(self, ids: Iterable[int]) -> List[OsStateOrSpecial]:
        """Materialize an id set back into states (arbitrary order)."""
        states = self._states
        return [states[sid] for sid in ids]
