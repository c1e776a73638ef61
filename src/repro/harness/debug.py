"""Model-debugging tool (paper section 2).

"A model-debugging tool allows model developers to analyse the checking
process itself, taking a trace and producing a description of the
real-world states that were being tracked by SibylFS at every step of
the trace."  :func:`debug_trace` replays a trace exactly as the checker
does, but records, per label, the size of the tracked state set, the
pending returns, and a compact summary of each state.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Tuple

from repro.core.labels import OsReturn
from repro.core.platform import PlatformSpec
from repro.core.values import render_return
from repro.osapi.os_state import (OsStateOrSpecial, SpecialOsState,
                                  initial_os_state)
from repro.osapi.process import RsCalling, RsRunning
from repro.osapi.transition import os_trans, tau_closure
from repro.script.ast import Trace


@dataclasses.dataclass(frozen=True)
class DebugStep:
    """What the checker was tracking at one step of the trace."""

    line_no: int
    label: str
    states_before: int
    states_after: int
    matched: bool
    pending_returns: Tuple[str, ...]
    state_summaries: Tuple[str, ...]


def summarize_state(state: OsStateOrSpecial) -> str:
    """A one-line description of one tracked model state."""
    if isinstance(state, SpecialOsState):
        return f"<special: {state.kind}>"
    parts = []
    fs = state.fs
    parts.append(f"{len(fs.dirs)}d/{len(fs.files)}f")
    for pid in sorted(state.procs):
        proc = state.procs[pid]
        if isinstance(proc.run, RsRunning):
            run = "running"
        elif isinstance(proc.run, RsCalling):
            run = f"calling {proc.run.cmd.render()}"
        else:
            run = f"returning {render_return(proc.run.ret)}"
        parts.append(f"p{pid}[{run}, {len(proc.fds)}fd, "
                     f"{len(proc.dhs)}dh]")
    return " ".join(parts)


def debug_trace(spec: PlatformSpec, trace: Trace,
                max_summaries: int = 4) -> List[DebugStep]:
    """Replay ``trace`` recording the tracked state set at every label.

    Unlike the checker this never recovers after a failed step: the
    point is to show the developer exactly where the set became empty.
    """
    from repro.checker.checker import implicit_creates

    states: FrozenSet[OsStateOrSpecial] = frozenset(
        {initial_os_state()})
    # Same convenience as the checker: processes used without an
    # explicit create line are created implicitly with root ids.
    for create in implicit_creates(trace):
        nxt: set[OsStateOrSpecial] = set()
        for state in states:
            nxt |= os_trans(spec, state, create)
        states = frozenset(nxt)
    steps: List[DebugStep] = []
    for event in trace.events:
        label = event.label
        before = len(states)
        pending: Tuple[str, ...] = ()
        if isinstance(label, OsReturn):
            states = tau_closure(spec, states)
            before = len(states)
            from repro.osapi.transition import allowed_returns
            pending = tuple(sorted(
                render_return(r)
                for r in allowed_returns(states, label.pid)))
        nxt: set[OsStateOrSpecial] = set()
        for state in states:
            nxt |= os_trans(spec, state, label)
        matched = bool(nxt)
        summaries = tuple(
            summarize_state(s)
            for s in sorted(nxt, key=repr)[:max_summaries])
        steps.append(DebugStep(
            line_no=event.line_no, label=label.render(),
            states_before=before, states_after=len(nxt),
            matched=matched, pending_returns=pending,
            state_summaries=summaries))
        if not nxt:
            break
        states = frozenset(nxt)
    return steps


def render_debug(steps: List[DebugStep]) -> str:
    """Human-readable rendering of a debug replay."""
    lines = []
    for step in steps:
        status = "ok" if step.matched else "STUCK"
        lines.append(f"[{step.line_no:>3}] {status:<5} "
                     f"|S|: {step.states_before} -> "
                     f"{step.states_after}   {step.label}")
        if step.pending_returns:
            lines.append("      pending: "
                         + ", ".join(step.pending_returns))
        for summary in step.state_summaries:
            lines.append(f"      . {summary}")
    return "\n".join(lines)
