"""Printers for scripts and traces (inverse of the parser)."""

from __future__ import annotations

from typing import List

from repro.script.ast import (CreateEvent, DestroyEvent, Script, ScriptStep,
                              Trace)


def print_script(script: Script) -> str:
    """Render a :class:`Script` in the file format of paper Fig. 2."""
    lines: List[str] = ["@type script", f"# Test {script.name}"]
    for item in script.items:
        if isinstance(item, CreateEvent):
            lines.append(f"@process create p{item.pid} uid={item.uid} "
                         f"gid={item.gid}")
        elif isinstance(item, DestroyEvent):
            lines.append(f"@process destroy p{item.pid}")
        else:
            assert isinstance(item, ScriptStep)
            prefix = f"p{item.pid}: " if item.pid != 1 else ""
            lines.append(prefix + item.cmd.render())
    return "\n".join(lines) + "\n"


def print_trace(trace: Trace) -> str:
    """Render a :class:`Trace` in the file format of paper Fig. 3.

    Each event renders its own line once (:attr:`TraceEvent.line`), and
    traces share event objects, so a trace costs only its new events.
    """
    lines: List[str] = ["@type trace", f"# Test {trace.name}"]
    lines.extend([event.line for event in trace.events])
    return "\n".join(lines) + "\n"
