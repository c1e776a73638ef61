"""The OS-level model state (the paper's ``ty_os_state``).

An :class:`OsState` bundles the abstract file system with the process
table, the open-file-description table and the group table.  A
:class:`SpecialOsState` represents POSIX undefined / unspecified /
implementation-defined behaviour: once the system may be in a special
state, the model places no further constraints (``finset
os_state_or_special`` in the paper).
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.state.heap import FsState, empty_fs
from repro.util.fdict import fdict


@dataclasses.dataclass(frozen=True)
class OsState:
    """OS model state: file system + processes + fids + groups."""

    fs: FsState
    procs: fdict  # pid (int) -> Process
    fids: fdict  # fid (int) -> FidState
    groups: fdict  # gid (int) -> frozenset of uids
    next_fid: int = 1

    def proc(self, pid: int):
        return self.procs[pid]

    # The two hottest builders call the constructor directly, which is
    # cheaper than ``dataclasses.replace``; a fresh instance carries no
    # cached hash.  ``test_state_builders_carry_every_field`` fails if
    # a field is added here and not to them.

    def with_proc(self, pid: int, proc) -> "OsState":
        return OsState(fs=self.fs, procs=self.procs.set(pid, proc),
                       fids=self.fids, groups=self.groups,
                       next_fid=self.next_fid)

    def with_fs(self, fs: FsState) -> "OsState":
        return OsState(fs=fs, procs=self.procs, fids=self.fids,
                       groups=self.groups, next_fid=self.next_fid)

    def groups_of(self, uid: int) -> frozenset:
        """Supplementary groups: every gid whose member set contains uid."""
        return frozenset(g for g, members in self.groups.items()
                         if uid in members)


def _os_state_hash(self: "OsState") -> int:
    """Field-tuple hash, computed once per instance.

    States are immutable but re-hashed constantly by state-set
    operations (set membership, interning, snapshot keys); the
    dataclass-generated ``__hash__`` walks the whole nested structure
    on every call.  The cached value lives outside the field set, so
    equality, ``repr`` and ``dataclasses.replace`` are unaffected.
    """
    h = self.__dict__.get("_cached_hash")
    if h is None:
        h = hash((self.fs, self.procs, self.fids, self.groups,
                  self.next_fid))
        object.__setattr__(self, "_cached_hash", h)
    return h


def _os_state_getstate(self: "OsState") -> dict:
    """Drop the cached hash when pickling: hash values are only valid
    within the interpreter that computed them (string hashing is
    per-process)."""
    state = dict(self.__dict__)
    state.pop("_cached_hash", None)
    return state


# Assigned post-definition: @dataclass(frozen=True) installs its own
# __hash__ on the class, which this replaces wholesale.
OsState.__hash__ = _os_state_hash  # type: ignore[assignment]
OsState.__getstate__ = _os_state_getstate  # type: ignore[attr-defined]


@dataclasses.dataclass(frozen=True)
class SpecialOsState:
    """Undefined / unspecified / implementation-defined behaviour marker."""

    kind: str
    detail: str = ""


OsStateOrSpecial = Union[OsState, SpecialOsState]


def initial_os_state(groups: dict | None = None) -> OsState:
    """The start state ``s_0``: an empty file system and no processes.

    ``groups`` optionally pre-populates the group table (gid -> iterable
    of member uids), mirroring the test harness's user/group setup
    (paper section 6.2).
    """
    gtable = fdict({gid: frozenset(members)
                    for gid, members in (groups or {}).items()})
    return OsState(fs=empty_fs(), procs=fdict(), fids=fdict(),
                   groups=gtable)
