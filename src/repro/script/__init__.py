"""Test-script and trace file formats (paper Figs. 2-4).

A *script* is a sequence of commands used to drive a file system under
test; a *trace* interleaves the commands with the observed return values.
Both have a line-oriented text syntax with ``@type script`` / ``@type
trace`` headers, a parser, and a printer; ``parse . print`` is the
identity (property-tested, and checked on every default-plan script and
trace by ``benchmarks/smoke_roundtrip.py``).

Lines repeat heavily (about 95% of the default plan's trace lines repeat
an earlier one), so the parser parses each distinct line once per
process.  :func:`~repro.script.parser.parse_script_line` is memoized on
a script line's text.  Trace text has one memo, of events:
:func:`~repro.script.parser.parse_trace_event` maps a line, the event
number before it and the pending call's pid to the
:class:`~repro.script.ast.TraceEvent` it makes.  Each memo keeps at most
:data:`~repro.script.parser.LINE_MEMO_MAX` entries.  Parsed commands,
events, labels and return values are therefore shared between scripts
and traces, as a :class:`~repro.executor.ScriptExecutor`'s traces share
their prefix events; they are frozen, and must stay so.  The one value
derived and cached on an event is its line of text,
:attr:`~repro.script.ast.TraceEvent.line`, so printing a trace renders
only events no earlier trace printed.
"""

from repro.script.ast import (CreateEvent, DestroyEvent, Script, ScriptStep,
                              Trace, TraceEvent)
from repro.script.parser import (ParseError, parse_command, parse_return,
                                 parse_script, parse_trace)
from repro.script.printer import print_script, print_trace

__all__ = [
    "Script", "ScriptStep", "CreateEvent", "DestroyEvent", "Trace",
    "TraceEvent",
    "ParseError", "parse_command", "parse_return", "parse_script",
    "parse_trace",
    "print_script", "print_trace",
]
