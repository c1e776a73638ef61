"""Per-process state and open file descriptions.

Mirrors the paper's ``per_process_state`` (working directory, file
descriptors, directory handles, run state, file-creation mask, ids) and
``fid_state`` (the state of an open file description, held in the
OS-global ``oss_fid_table``).
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.core.commands import OsCommand
from repro.core.flags import OpenFlag
from repro.core.values import ReturnValue
from repro.state.heap import DirRef, FileRef
from repro.util.fdict import fdict


@dataclasses.dataclass(frozen=True)
class RsRunning:
    """The process is running and may make a libc call (receptivity)."""


@dataclasses.dataclass(frozen=True)
class RsCalling:
    """The process has made a call that has not yet taken effect."""

    cmd: OsCommand


@dataclasses.dataclass(frozen=True)
class RsReturning:
    """The call has taken effect; its return value is pending."""

    ret: ReturnValue


RunState = Union[RsRunning, RsCalling, RsReturning]


@dataclasses.dataclass(frozen=True)
class FidState:
    """An open file description: target object, offset, and open flags."""

    target: Union[FileRef, DirRef]
    offset: int
    flags: OpenFlag


@dataclasses.dataclass(frozen=True)
class Process:
    """Per-process state tracked by the operating system."""

    cwd: DirRef
    uid: int
    gid: int
    groups: frozenset
    umask: int
    fds: fdict  # fd (int) -> fid (int)
    dhs: fdict  # directory-handle number (int) -> DhState
    run: RunState
    next_fd: int = 3
    next_dh: int = 1

    def with_run(self, run: RunState) -> "Process":
        # Built directly, not with ``dataclasses.replace`` (hot path);
        # ``test_state_builders_carry_every_field`` guards the field
        # list.
        return Process(cwd=self.cwd, uid=self.uid, gid=self.gid,
                       groups=self.groups, umask=self.umask,
                       fds=self.fds, dhs=self.dhs, run=run,
                       next_fd=self.next_fd, next_dh=self.next_dh)
