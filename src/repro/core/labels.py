"""Labels of the labelled transition system (the paper's ``os_label``).

A trace is a sequence of labels.  Besides the five label forms of the
paper's model (CALL, RETURN, CREATE, DESTROY, TAU) we include two
*observation-only* labels produced by the test executor when the system
under test misbehaves at the process level: :class:`OsSignal` (a process
was killed by a signal, e.g. the OS X ``pwrite`` SIGXFSZ defect of section
7.3.4) and :class:`OsSpin` (a process entered an unkillable busy loop,
e.g. the OpenZFS-on-OSX defect of Fig. 8).  The model allows neither, so
the checker reports them as deviations with a dedicated diagnosis.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from repro.core.commands import OsCommand
from repro.core.values import ReturnValue, render_return


@dataclasses.dataclass(frozen=True)
class OsCall:
    """Process ``pid`` invokes a libc command."""

    pid: int
    cmd: OsCommand

    def render(self) -> str:
        return f"p{self.pid}: {self.cmd.render()}"


@dataclasses.dataclass(frozen=True)
class OsReturn:
    """A value (or error) is returned to process ``pid``."""

    pid: int
    ret: ReturnValue

    def render(self) -> str:
        return f"p{self.pid}: {render_return(self.ret)}"


@dataclasses.dataclass(frozen=True)
class OsCreate:
    """A new process is created with the given credentials."""

    pid: int
    uid: int
    gid: int

    def render(self) -> str:
        return f"@process create p{self.pid} uid={self.uid} gid={self.gid}"


@dataclasses.dataclass(frozen=True)
class OsDestroy:
    """Process ``pid`` is destroyed."""

    pid: int

    def render(self) -> str:
        return f"@process destroy p{self.pid}"


@dataclasses.dataclass(frozen=True)
class OsTau:
    """An internal system transition (a pending call takes effect)."""

    def render(self) -> str:
        return "tau"


@dataclasses.dataclass(frozen=True)
class OsSignal:
    """Observation: the system under test killed ``pid`` with a signal."""

    pid: int
    signal: str

    def render(self) -> str:
        return f"p{self.pid}: !signal {self.signal}"


@dataclasses.dataclass(frozen=True)
class OsSpin:
    """Observation: ``pid`` entered an unkillable busy loop."""

    pid: int

    def render(self) -> str:
        return f"p{self.pid}: !spin"


OsLabel = Union[OsCall, OsReturn, OsCreate, OsDestroy, OsTau, OsSignal, OsSpin]
