"""Script execution against a file system under test.

The paper's executor forks an interpreter per script and dispatches
commands to worker processes in a chroot jail, each running with the
generated credentials of the scripted process (section 6.2).  Here the
system under test is an in-process :class:`~repro.fsimpl.kernel.KernelFS`
(see DESIGN.md's substitution note), so "execution" is a direct
interpretation loop — but the observable artefact is the same: a trace
interleaving the script's commands with the returns the implementation
produced, including the process-level ``!signal`` and ``!spin``
observations for the section 7.3.4-7.3.5 defects.

``KernelFS`` is the determinized model (the section 8 technique), so
the kernel after a script prefix is a pure function of (configuration,
default credentials, prefix).  :class:`ScriptExecutor` exploits that:
generated scripts share their setup by construction, and each script
resumes from the state the previous one reached at their shared
prefix instead of replaying it from an empty file system.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.labels import (OsCall, OsCreate, OsDestroy, OsReturn,
                               OsSignal, OsSpin)
from repro.fsimpl.kernel import KernelFS, SignalKill, SpinHang
from repro.fsimpl.quirks import Quirks
from repro.osapi.os_state import OsState
from repro.script.ast import (CreateEvent, DestroyEvent, Script,
                              ScriptItem, Trace, TraceEvent)


def _step(kernel: KernelFS, item: ScriptItem, default_uid: int,
          default_gid: int, line_no: int) -> Tuple[TraceEvent, ...]:
    """Interpret one script item on ``kernel``; return the events it
    emitted, numbered on from ``line_no``.

    Process 1 (or any pid first seen in a step) is created implicitly
    with the default credentials.  A killed or spinning process's
    remaining commands are skipped, mirroring the paper's
    fault-isolated interpreter.
    """
    labels: list = []
    if isinstance(item, CreateEvent):
        kernel.create_process(item.pid, item.uid, item.gid)
        labels.append(OsCreate(item.pid, item.uid, item.gid))
    elif isinstance(item, DestroyEvent):
        if kernel.process_alive(item.pid):
            kernel.destroy_process(item.pid)
            labels.append(OsDestroy(item.pid))
    else:
        if not kernel.process_alive(item.pid):
            if item.pid in kernel.state.procs:
                # Killed or spinning: the worker is gone; skip its
                # remaining commands (the interpreter isolates the fault).
                return ()
            kernel.create_process(item.pid, default_uid, default_gid)
            labels.append(OsCreate(item.pid, default_uid, default_gid))
        labels.append(OsCall(item.pid, item.cmd))
        try:
            ret = kernel.call(item.pid, item.cmd)
        except SignalKill as sig:
            labels.append(OsSignal(item.pid, sig.signal))
        except SpinHang:
            labels.append(OsSpin(item.pid))
        else:
            labels.append(OsReturn(item.pid, ret))
    return tuple(TraceEvent(n, label)
                 for n, label in enumerate(labels, line_no + 1))


class _Entry(NamedTuple):
    """The kernel right after ``item`` ran, and the events it emitted.

    ``state`` is immutable, so together with copies of the two mutable
    ``KernelFS`` fields this is a complete snapshot.
    """

    item: Optional[ScriptItem]
    state: OsState
    leaked_bytes: int
    dead: frozenset
    events: Tuple[TraceEvent, ...]


class ScriptExecutor:
    """Executes a stream of scripts, each resuming from the state the
    previous script reached at their shared prefix.

    Per ``(quirks, default_uid, default_gid)`` key the executor keeps one
    kernel and the previous script's path as a stack of snapshots, one
    per item.  :meth:`execute` cuts the stack back to the longest prefix
    the new script shares with it, restores the kernel from the top
    entry and interprets only the remaining items.  Memory is bounded
    by one script's length per key.  The traces are ``==`` to fresh
    :func:`execute_script` runs (the parity harness enforces it).

    Not thread-safe: give each thread or worker process its own.
    """

    def __init__(self) -> None:
        self._paths: Dict[tuple, Tuple[KernelFS, List[_Entry]]] = {}

    def execute(self, quirks: Quirks, script: Script,
                default_uid: int = 0, default_gid: int = 0) -> Trace:
        """Run ``script`` as if on a fresh instance of ``quirks``."""
        key = (quirks, default_uid, default_gid)
        path = self._paths.get(key)
        if path is None:
            kernel = KernelFS(quirks)
            root = _Entry(None, kernel.state, kernel.leaked_bytes,
                          frozenset(kernel._dead), ())
            path = self._paths[key] = (kernel, [root])
        kernel, stack = path
        items = script.items
        shared = 0
        limit = min(len(stack) - 1, len(items))
        while shared < limit and stack[shared + 1].item == items[shared]:
            shared += 1
        del stack[shared + 1:]
        top = stack[-1]
        kernel.state = top.state
        kernel.leaked_bytes = top.leaked_bytes
        kernel._dead = set(top.dead)
        line_no = sum(len(entry.events) for entry in stack)
        for item in items[shared:]:
            events = _step(kernel, item, default_uid, default_gid, line_no)
            line_no += len(events)
            stack.append(_Entry(item, kernel.state, kernel.leaked_bytes,
                                frozenset(kernel._dead), events))
        return Trace(name=script.name, events=tuple(
            itertools.chain.from_iterable(entry.events for entry in stack)))


def execute_script(quirks: Quirks, script: Script,
                   default_uid: int = 0, default_gid: int = 0) -> Trace:
    """Run ``script`` on a fresh instance of the given configuration.

    Each script starts from an empty file system (the chroot-jail
    analogue).  Process 1 is created implicitly with ``default_uid`` /
    ``default_gid`` unless the script creates it explicitly.  A killed or
    spinning process terminates the script, mirroring the paper's
    fault-isolated interpreter.  To execute a stream of scripts, use one
    :class:`ScriptExecutor` instead: it shares their common prefixes.
    """
    return ScriptExecutor().execute(quirks, script, default_uid,
                                    default_gid)
