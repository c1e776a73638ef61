"""Abstract syntax of test scripts and traces."""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Tuple, Union

from repro.core.commands import OsCommand, command_name
from repro.core.labels import (OsCall, OsCreate, OsDestroy, OsLabel,
                               OsReturn, OsSignal, OsSpin)


@dataclasses.dataclass(frozen=True)
class ScriptStep:
    """One scripted libc call, issued by process ``pid``."""

    pid: int
    cmd: OsCommand


@dataclasses.dataclass(frozen=True)
class CreateEvent:
    """Directive: create a worker process with the given credentials.

    The executor's analogue of the paper's per-process workers with
    generated real/effective ids (section 6.2).
    """

    pid: int
    uid: int
    gid: int


@dataclasses.dataclass(frozen=True)
class DestroyEvent:
    """Directive: destroy a worker process."""

    pid: int


ScriptItem = Union[ScriptStep, CreateEvent, DestroyEvent]


@dataclasses.dataclass(frozen=True)
class Script:
    """A test script: a name and a sequence of steps/directives.

    Scripts are grouped by the libc function they target (used for
    indexing and for the per-function test counts of section 6.1).
    """

    name: str
    items: Tuple[ScriptItem, ...]

    @property
    def target_function(self) -> str:
        """The function this script targets: that of its *last* call."""
        for item in reversed(self.items):
            if isinstance(item, ScriptStep):
                return command_name(item.cmd)
        return "none"

    def call_count(self) -> int:
        return sum(1 for item in self.items
                   if isinstance(item, ScriptStep))


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One event of an observed trace: a label plus its source line.

    Parsed and resumed traces share event objects (one per distinct
    line in context), so :attr:`line` is rendered once per object, not
    once per trace that holds it.
    """

    line_no: int
    label: OsLabel

    @functools.cached_property
    def line(self) -> str:
        """This event's line of trace text (paper Fig. 3), without the
        newline.  Cached on the instance, outside the fields, so eq,
        hash and repr are unchanged."""
        label = self.label
        if isinstance(label, OsCreate):
            return (f"@process create p{label.pid} uid={label.uid} "
                    f"gid={label.gid}")
        if isinstance(label, OsDestroy):
            return f"@process destroy p{label.pid}"
        if isinstance(label, OsCall):
            prefix = f"p{label.pid}: " if label.pid != 1 else ""
            return f"{self.line_no}: {prefix}{label.cmd.render()}"
        if isinstance(label, OsReturn):
            prefix = f"p{label.pid}: " if label.pid != 1 else ""
            return prefix + label.ret.render()
        if isinstance(label, OsSignal):
            return f"p{label.pid}: !signal {label.signal}"
        if isinstance(label, OsSpin):
            return f"p{label.pid}: !spin"
        raise TypeError(f"unprintable label: {label!r}")


@dataclasses.dataclass(frozen=True)
class Trace:
    """An observed trace: a name and a sequence of labelled events."""

    name: str
    events: Tuple[TraceEvent, ...]

    def labels(self) -> List[OsLabel]:
        return [event.label for event in self.events]
