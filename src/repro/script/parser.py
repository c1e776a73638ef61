"""Parser for the script and trace text formats.

The concrete syntax follows the paper's figures:

.. code-block:: text

    @type script
    # Test rename___rename_emptydir___nonemptydir
    mkdir "emptydir" 0o777
    open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
    rename "emptydir" "nonemptydir"

Commands may carry a ``pN:`` process prefix (default process 1).
Process creation/destruction are ``@process create pN uid=U gid=G`` and
``@process destroy pN`` directives.  Trace files use ``@type trace``;
call lines may carry a ``N:`` line-number prefix and are each followed by
a return-value line (``RV_none``, ``RV_num(3)``, an errno name, ...).
"""

from __future__ import annotations

import ast
import functools
import re
from typing import List, Optional, Tuple

from repro.core import commands as C
from repro.core.errors import Errno
from repro.core.flags import OpenFlag, SeekWhence, parse_open_flags
from repro.core.labels import (OsCall, OsCreate, OsDestroy, OsLabel,
                               OsReturn, OsSignal, OsSpin)
from repro.core.values import (Err, Ok, ReturnValue, RvBytes, RvDirEntry,
                               RvNone, RvNum, RvStat, Stat)
from repro.core.flags import FileKind
from repro.script.ast import (CreateEvent, DestroyEvent, Script, ScriptItem,
                              ScriptStep, Trace, TraceEvent)


class ParseError(ValueError):
    """A malformed script or trace file."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


# -- tokenizing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"(?:\\.|[^"\\])*")   |
        (?P<flags>\[[A-Z_;\s]*\])       |
        (?P<word>[^\s"\[\]]+)
    )""", re.VERBOSE)


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"cannot tokenize: {text[pos:]!r}")
        tokens.append(match.group(0).strip())
        pos = match.end()
    return tokens


def _unquote(token: str) -> str:
    if not (token.startswith('"') and token.endswith('"')):
        raise ParseError(f"expected quoted string, got {token!r}")
    body = token[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _int(token: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise ParseError(f"expected integer, got {token!r}") from None


def _open_flags(token: str) -> OpenFlag:
    try:
        return parse_open_flags(token)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# -- command parsing --------------------------------------------------------------

def parse_command(text: str) -> C.OsCommand:
    """Parse one command line (without pid / line-number prefixes)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty command")
    keyword, args = tokens[0], tokens[1:]

    def arity(n: int) -> None:
        if len(args) != n:
            raise ParseError(
                f"{keyword} expects {n} argument(s), got {len(args)}")

    if keyword == "mkdir":
        arity(2)
        return C.Mkdir(_unquote(args[0]), _int(args[1]))
    if keyword == "rmdir":
        arity(1)
        return C.Rmdir(_unquote(args[0]))
    if keyword == "unlink":
        arity(1)
        return C.Unlink(_unquote(args[0]))
    if keyword == "open":
        if len(args) == 2:
            return C.Open(_unquote(args[0]), _open_flags(args[1]))
        arity(3)
        return C.Open(_unquote(args[0]), _open_flags(args[1]),
                      _int(args[2]))
    if keyword == "close":
        arity(1)
        return C.Close(_int(args[0]))
    if keyword == "link":
        arity(2)
        return C.Link(_unquote(args[0]), _unquote(args[1]))
    if keyword == "rename":
        arity(2)
        return C.Rename(_unquote(args[0]), _unquote(args[1]))
    if keyword == "symlink":
        arity(2)
        return C.Symlink(_unquote(args[0]), _unquote(args[1]))
    if keyword == "readlink":
        arity(1)
        return C.Readlink(_unquote(args[0]))
    if keyword == "stat":
        arity(1)
        return C.StatCmd(_unquote(args[0]))
    if keyword == "lstat":
        arity(1)
        return C.LstatCmd(_unquote(args[0]))
    if keyword == "truncate":
        arity(2)
        return C.Truncate(_unquote(args[0]), _int(args[1]))
    if keyword == "read":
        arity(2)
        return C.Read(_int(args[0]), _int(args[1]))
    if keyword == "write":
        arity(2)
        return C.Write(_int(args[0]), _unquote(args[1]).encode("utf-8"))
    if keyword == "pread":
        arity(3)
        return C.Pread(_int(args[0]), _int(args[1]), _int(args[2]))
    if keyword == "pwrite":
        arity(3)
        return C.Pwrite(_int(args[0]), _unquote(args[1]).encode("utf-8"),
                        _int(args[2]))
    if keyword == "lseek":
        arity(3)
        try:
            whence = SeekWhence(args[2])
        except ValueError:
            raise ParseError(f"bad whence: {args[2]!r}") from None
        return C.Lseek(_int(args[0]), _int(args[1]), whence)
    if keyword == "opendir":
        arity(1)
        return C.Opendir(_unquote(args[0]))
    if keyword == "readdir":
        arity(1)
        return C.Readdir(_int(args[0]))
    if keyword == "rewinddir":
        arity(1)
        return C.Rewinddir(_int(args[0]))
    if keyword == "closedir":
        arity(1)
        return C.Closedir(_int(args[0]))
    if keyword == "chdir":
        arity(1)
        return C.Chdir(_unquote(args[0]))
    if keyword == "chmod":
        arity(2)
        return C.Chmod(_unquote(args[0]), _int(args[1]))
    if keyword == "chown":
        arity(3)
        return C.Chown(_unquote(args[0]), _int(args[1]), _int(args[2]))
    if keyword == "umask":
        arity(1)
        return C.Umask(_int(args[0]))
    raise ParseError(f"unknown command: {keyword!r}")


# -- return-value parsing -----------------------------------------------------------

_STAT_RE = re.compile(
    r"RV_stat\(\{kind=(?P<kind>\w+); size=(?P<size>\d+); "
    r"nlink=(?P<nlink>-|\d+); uid=(?P<uid>\d+); gid=(?P<gid>\d+); "
    r"mode=0o(?P<mode>[0-7]+)\}\)")


def parse_return(text: str) -> ReturnValue:
    """Parse one return-value line of a trace."""
    text = text.strip()
    if text == "RV_none":
        return Ok(RvNone())
    if text == "RV_end_of_dir":
        return Ok(RvDirEntry(None))
    if text.startswith("RV_num(") and text.endswith(")"):
        return Ok(RvNum(_int(text[len("RV_num("):-1])))
    if text.startswith("RV_bytes(") and text.endswith(")"):
        literal = text[len("RV_bytes("):-1]
        return Ok(RvBytes(_parse_py_string(literal).encode("utf-8")))
    if text.startswith("RV_entry(") and text.endswith(")"):
        literal = text[len("RV_entry("):-1]
        return Ok(RvDirEntry(_parse_py_string(literal)))
    match = _STAT_RE.fullmatch(text)
    if match:
        nlink = None if match.group("nlink") == "-" else \
            int(match.group("nlink"))
        try:
            kind = FileKind(match.group("kind"))
        except ValueError:
            raise ParseError(
                f"unknown file kind: {match.group('kind')!r}") from None
        return Ok(RvStat(Stat(
            kind=kind,
            size=int(match.group("size")),
            nlink=nlink,
            uid=int(match.group("uid")),
            gid=int(match.group("gid")),
            mode=int(match.group("mode"), 8),
        )))
    try:
        return Err(Errno[text])
    except KeyError:
        raise ParseError(f"cannot parse return value: {text!r}") from None


def _parse_py_string(literal: str) -> str:
    """Parse the printer's ``repr``-style string literal.

    The printer renders byte payloads via :func:`repr`, which escapes
    non-printable characters (``\\x00``, ``\\n``, …); decoding with
    :func:`ast.literal_eval` inverts every escape, so traces carrying
    e.g. NUL-padded read results round-trip exactly — which the
    sharded backend (shards parse the trace text the parent printed)
    and the RunArtifact JSON format depend on.
    """
    literal = literal.strip()
    if len(literal) >= 2 and literal[0] == literal[-1] and \
            literal[0] in "'\"":
        try:
            value = ast.literal_eval(literal)
        except (ValueError, SyntaxError):
            raise ParseError(
                f"malformed string literal: {literal!r}") from None
        if isinstance(value, str):
            return value
    raise ParseError(f"expected string literal, got {literal!r}")


# -- file parsing -----------------------------------------------------------------

_PID_PREFIX = re.compile(r"^p(\d+):\s*")
_LINE_NO_PREFIX = re.compile(r"^(\d+):\s*")
_CREATE_RE = re.compile(
    r"^@process\s+create\s+p(\d+)\s+uid=(\d+)\s+gid=(\d+)\s*$")
_DESTROY_RE = re.compile(r"^@process\s+destroy\s+p(\d+)\s*$")
_SIGNAL_RE = re.compile(r"^p(\d+):\s*!signal\s+(\w+)\s*$")
_SPIN_RE = re.compile(r"^p(\d+):\s*!spin\s*$")


def _split_pid(text: str) -> Tuple[int, str]:
    match = _PID_PREFIX.match(text) if text.startswith("p") else None
    if match:
        return int(match.group(1)), text[match.end():]
    return 1, text


def _header_and_lines(text: str, expected: str) -> Tuple[str, List[Tuple[int, str]]]:
    name = ""
    lines: List[Tuple[int, str]] = []
    saw_type = False
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("@type"):
            kind = line[len("@type"):].strip()
            if kind != expected:
                raise ParseError(
                    f"expected '@type {expected}', got {kind!r}", idx)
            saw_type = True
            continue
        if line.startswith("#"):
            if not name:
                name = _test_name(line)
            continue
        lines.append((idx, line))
    if not saw_type:
        raise ParseError(f"missing '@type {expected}' header")
    return name, lines


def _test_name(comment_line: str) -> str:
    """``NAME`` of a stripped ``# Test NAME`` comment line, else ``""``."""
    comment = comment_line.lstrip("#").strip()
    if comment.startswith("Test "):
        return comment[len("Test "):].strip()
    return ""


#: Entries each memo keeps (least recently used go first): distinct
#: script lines for :func:`parse_script_line`, distinct trace lines in
#: context for :func:`parse_trace_event`.  One survey's lines fit: the
#: full default plan has 5,208 distinct script lines, and 5,573 distinct
#: trace events over all 43 configurations (5,520 on ``linux_ext4``).
#: Standing processes (``repro serve``, ``repro fuzz``) stay bounded: a
#: full trace memo holds about 5 MB.
LINE_MEMO_MAX = 8192

#: Kinds of trace line, as :func:`parse_trace_line` reports them, named
#: by what they do to the pending call (whose pid a return inherits).
CALL = "call"            # an ``OsCall``: becomes the pending call
RETURN = "return"        # a ``ReturnValue``: ends the pending call
INTERRUPT = "interrupt"  # an ``OsSignal`` or ``OsSpin``: ends it too
PROCESS = "process"      # an ``OsCreate`` or ``OsDestroy``: leaves it


@functools.lru_cache(maxsize=LINE_MEMO_MAX)
def parse_script_line(line: str) -> ScriptItem:
    """What one stripped script line (not a header or comment) means.

    Memoized: every occurrence of a line shares one immutable item.
    """
    if line.startswith("@"):
        match = _CREATE_RE.match(line)
        if match:
            return CreateEvent(pid=int(match.group(1)),
                               uid=int(match.group(2)),
                               gid=int(match.group(3)))
        match = _DESTROY_RE.match(line)
        if match:
            return DestroyEvent(pid=int(match.group(1)))
    pid, rest = _split_pid(line)
    return ScriptStep(pid=pid, cmd=parse_command(rest))


def parse_trace_line(line: str
                     ) -> Tuple[str, Optional[int], int, object]:
    """What one stripped trace line (not a header or comment) means:
    ``(kind, explicit event number or None, pid, payload)``.

    The payload is the label, except for a :data:`RETURN` line, whose
    payload is the ``ReturnValue``: its ``OsReturn`` takes the pid of
    the pending call, which only the trace knows.  Not memoized: it
    runs on a miss of :func:`parse_trace_event`'s memo.
    """
    # Each pattern is tried only on lines it can match: on a memo miss
    # this parse is the whole cost, and most lines are calls or returns.
    if line.startswith("@"):
        match = _CREATE_RE.match(line)
        if match:
            pid = int(match.group(1))
            return PROCESS, None, pid, OsCreate(
                pid=pid, uid=int(match.group(2)), gid=int(match.group(3)))
        match = _DESTROY_RE.match(line)
        if match:
            pid = int(match.group(1))
            return PROCESS, None, pid, OsDestroy(pid=pid)
    elif "!" in line:
        match = _SIGNAL_RE.match(line)
        if match:
            pid = int(match.group(1))
            return INTERRUPT, None, pid, OsSignal(pid=pid,
                                                  signal=match.group(2))
        match = _SPIN_RE.match(line)
        if match:
            pid = int(match.group(1))
            return INTERRUPT, None, pid, OsSpin(pid=pid)
    lineno_match = _LINE_NO_PREFIX.match(line) if line[:1].isdigit() \
        else None
    body = line[lineno_match.end():] if lineno_match else line
    pid, rest = _split_pid(body)
    if lineno_match or _looks_like_command(rest):
        explicit = int(lineno_match.group(1)) if lineno_match else None
        return CALL, explicit, pid, OsCall(pid=pid,
                                           cmd=parse_command(rest))
    return RETURN, None, pid, parse_return(rest)


@functools.lru_cache(maxsize=LINE_MEMO_MAX)
def parse_trace_event(line: str, number: int, pending: Optional[int]
                      ) -> Tuple[TraceEvent, int, Optional[int]]:
    """The event one stripped trace line makes in context:
    ``(event, event number after, pending pid after)``, given the event
    number before the line and the pid of the pending call (or None).

    Event numbering: call lines carry an explicit ``N:`` prefix (the
    executor's event counter); other events continue from the number
    before, so ``parse(print(trace))`` keeps event numbers.  A return
    takes the pid of the pending call.  Memoized: every occurrence of a
    line in the same context shares one immutable event, so traces that
    share lines share their events (and their labels).
    """
    kind, explicit, pid, payload = parse_trace_line(line)
    number = number + 1 if explicit is None else explicit
    if kind == RETURN:
        payload = OsReturn(pid=pending if pending is not None else pid,
                           ret=payload)
    if kind == CALL:
        pending = pid
    elif kind != PROCESS:
        pending = None
    return TraceEvent(number, payload), number, pending


def parse_script(text: str, name: str = "") -> Script:
    """Parse a script file into a :class:`Script`."""
    parsed_name, lines = _header_and_lines(text, "script")
    items: List[ScriptItem] = []
    for line_no, line in lines:
        try:
            items.append(parse_script_line(line))
        except ParseError as exc:
            raise ParseError(str(exc), line_no) from None
    return Script(name=name or parsed_name or "unnamed",
                  items=tuple(items))


def parse_trace(text: str, name: str = "") -> Trace:
    """Parse a trace file into a :class:`Trace`."""
    parsed_name, lines = _header_and_lines(text, "trace")
    events: List[TraceEvent] = []
    number = 0
    pending: Optional[int] = None
    for line_no, line in lines:
        try:
            event, number, pending = parse_trace_event(line, number,
                                                       pending)
        except ParseError as exc:
            raise ParseError(str(exc), line_no) from None
        events.append(event)
    return Trace(name=name or parsed_name or "unnamed",
                 events=tuple(events))


def trace_name(text: str) -> str:
    """``parse_trace(text).name``, read from the first ``# Test NAME``
    comment line without parsing the events (so a malformed text is not
    detected here: its parse fails where it is checked)."""
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            name = _test_name(line)
            if name:
                return name
    return "unnamed"


_COMMAND_KEYWORDS = frozenset({
    "close", "closedir", "link", "lseek", "lstat", "mkdir", "open",
    "opendir", "pread", "pwrite", "read", "readdir", "readlink", "rename",
    "rewinddir", "rmdir", "stat", "symlink", "truncate", "unlink", "write",
    "chdir", "chmod", "chown", "umask",
})


def _looks_like_command(text: str) -> bool:
    head = text.split(None, 1)
    return bool(head) and head[0] in _COMMAND_KEYWORDS
