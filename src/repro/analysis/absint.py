"""Abstract interpretation of test scripts: well-formed vs doomed.

A script step is *doomed* when no execution of the script can make it
return ``Ok`` — e.g. a ``read`` on a descriptor number the process can
never have allocated, a ``pwrite`` at a negative offset, or a ``stat``
of a path naming a component no command in the script ever creates.
Doomed steps still exercise spec error clauses, but a script consisting
of *nothing but* doomed steps is error soup: it can never grow the
success-path coverage the fuzzer's energy model rewards, so
:func:`rejects` lets :mod:`repro.fuzz.mutate` drop such mutants before
paying for execution.

The interpreter is deliberately one-sided.  *Doomed* is a proof
obligation — it must hold under the concrete :class:`KernelFS` of every
configuration, including the quirk table (the zero-byte-write-to-bad-fd
quirk can turn an EBADF into ``Ok(0)``, so zero-length writes are never
doomed for descriptor reasons).  *Well-formed* promises nothing: the
step may still fail at runtime; the analysis only claims it could not
prove doom.  Soundness is pinned by a property test executing doomed
scripts under the real executor on clean and quirky configurations.

The abstract state tracked per process mirrors exactly the facts the
executor makes deterministic:

* descriptor bounds — ``next_fd`` starts at 3 and only ever grows, and
  at most one descriptor is allocated per ``open``, so after *k* opens
  any fd outside ``[3, 3+k)`` is provably never open (dually for
  directory handles, which start at 1);
* the created-name namespace — apart from the root, every object's name
  was the final path component of some earlier ``mkdir``/``symlink``/
  ``open O_CREAT``/``link``/``rename``, so a path component that no
  prior command could have created can never resolve;
* process identity — the same live-set rule :func:`repro.fuzz.mutate.
  sanitize` enforces (duplicate creates, destroys of dead pids or of
  the root process are *ill-formed*; ``sanitize`` repairs them by
  dropping the directive).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.core import commands as C
from repro.core.flags import OpenFlag, SeekWhence
from repro.pathres.resolve import NAME_MAX, PATH_MAX
from repro.script.ast import (CreateEvent, DestroyEvent, Script,
                              ScriptItem, ScriptStep)

WELL_FORMED = "well-formed"
DOOMED = "doomed"
ILL_FORMED = "ill-formed"

#: First file descriptor / directory handle a fresh process allocates.
_FIRST_FD = 3
_FIRST_DH = 1

_SPECIAL_COMPONENTS = (".", "..")


@dataclasses.dataclass(frozen=True)
class StepVerdict:
    """The verdict for one script item."""

    index: int
    item: ScriptItem
    verdict: str
    #: Human-readable explanation (empty for well-formed items).
    reason: str = ""

    def render(self) -> str:
        if isinstance(self.item, ScriptStep):
            text = f"{self.item.pid}: {self.item.cmd.render()}"
        elif isinstance(self.item, CreateEvent):
            text = (f"create {self.item.pid} "
                    f"{self.item.uid} {self.item.gid}")
        else:
            text = f"destroy {self.item.pid}"
        suffix = f"  ({self.reason})" if self.reason else ""
        return f"[{self.verdict:>11}] {text}{suffix}"


@dataclasses.dataclass(frozen=True)
class ScriptReport:
    """Per-item verdicts plus the whole-script classification.

    The script verdict is ``ill-formed`` if any *directive* violates the
    process-lifecycle rules, ``doomed`` if it has calls and every call
    is doomed, else ``well-formed``.
    """

    script: Script
    steps: Tuple[StepVerdict, ...]
    verdict: str

    def render(self) -> str:
        lines = [f"script {self.script.name}: {self.verdict}"]
        lines.extend(step.render() for step in self.steps)
        return "\n".join(lines)


def _encoded(text: str) -> bytes:
    # Mirror of repro.pathres.resolve._encoded: limits are on UTF-8
    # bytes, tolerating the lone surrogates os.fsdecode produces.
    return text.encode("utf-8", "surrogatepass")


def _path_doom(path: str, candidates: Set[str], *,
               final_may_create: bool) -> Optional[str]:
    """Why resolving ``path`` can never succeed, or None.

    ``final_may_create`` marks creation ops (mkdir, open O_CREAT, the
    destination of link/rename/symlink): their final component is
    allowed to be a name nothing created yet.
    """
    if path == "":
        return "empty path always resolves to ENOENT"
    if len(_encoded(path)) > PATH_MAX:
        return f"path is {len(_encoded(path))} bytes > PATH_MAX"
    comps = [c for c in path.split("/") if c != ""]
    for comp in comps:
        if len(_encoded(comp)) > NAME_MAX:
            return (f"component {comp[:16]!r}... is "
                    f"{len(_encoded(comp))} bytes > NAME_MAX")
    if final_may_create and comps and \
            comps[-1] not in _SPECIAL_COMPONENTS:
        comps = comps[:-1]
    for comp in comps:
        if comp in _SPECIAL_COMPONENTS:
            continue
        if comp not in candidates:
            return (f"component {comp!r} is never created by any "
                    "command in the script")
    return None


def _created_name(path: str) -> Optional[str]:
    """The namespace entry a successful creation op adds, if any."""
    comps = [c for c in path.split("/") if c != ""]
    if comps and comps[-1] not in _SPECIAL_COMPONENTS:
        return comps[-1]
    return None


#: (existence path attrs, creation path attrs) per path-taking command.
_PATH_ARGS = {
    C.LstatCmd: (("path",), ()),
    C.StatCmd: (("path",), ()),
    C.Readlink: (("path",), ()),
    C.Opendir: (("path",), ()),
    C.Unlink: (("path",), ()),
    C.Rmdir: (("path",), ()),
    C.Truncate: (("path",), ()),
    C.Chdir: (("path",), ()),
    C.Chmod: (("path",), ()),
    C.Chown: (("path",), ()),
    C.Mkdir: ((), ("path",)),
    C.Symlink: ((), ("linkpath",)),  # the target is stored, not resolved
    C.Link: (("src",), ("dst",)),
    C.Rename: (("src",), ("dst",)),
}


class _ProcState:
    """Descriptor-allocation bounds for one live process."""

    __slots__ = ("opens", "opendirs")

    def __init__(self) -> None:
        self.opens = 0
        self.opendirs = 0


def _doom_reason(cmd: C.OsCommand, proc: _ProcState,
                 candidates: Set[str],
                 quirks) -> Optional[str]:
    """Why ``cmd`` can never return Ok from this abstract state."""
    if isinstance(cmd, C.Umask):
        return None

    if quirks is not None and quirks.chmod_errno is not None and \
            isinstance(cmd, C.Chmod):
        return (f"configuration {quirks.name!r} fails every chmod "
                f"with {quirks.chmod_errno.name}")

    if isinstance(cmd, (C.Pread, C.Pwrite)) and cmd.offset < 0:
        return f"negative offset {cmd.offset} is rejected up front"
    if isinstance(cmd, (C.Read, C.Pread)) and cmd.count < 0:
        return f"negative count {cmd.count} cannot be transferred"
    if isinstance(cmd, C.Lseek) and cmd.whence is SeekWhence.SEEK_SET \
            and cmd.offset < 0:
        return f"seek to negative position {cmd.offset}"

    if isinstance(cmd, (C.Close, C.Read, C.Write, C.Lseek, C.Pread,
                        C.Pwrite)):
        # A zero-length write to a bad descriptor is implementation-
        # defined and *may succeed* (spec switch + kernel quirk), so it
        # is never doomed for descriptor reasons.
        zero_write = isinstance(cmd, (C.Write, C.Pwrite)) and \
            len(cmd.data) == 0
        bad = cmd.fd < _FIRST_FD or cmd.fd >= _FIRST_FD + proc.opens
        if bad and not zero_write:
            return (f"fd {cmd.fd} cannot be open: the process has "
                    f"issued only {proc.opens} open(s), so live fds "
                    f"lie in [{_FIRST_FD}, {_FIRST_FD + proc.opens})")
        return None

    if isinstance(cmd, (C.Closedir, C.Readdir, C.Rewinddir)):
        if cmd.dh < _FIRST_DH or \
                cmd.dh >= _FIRST_DH + proc.opendirs:
            return (f"dh {cmd.dh} cannot be open: the process has "
                    f"issued only {proc.opendirs} opendir(s)")
        return None

    if isinstance(cmd, C.Open):
        creating = bool(cmd.flags & OpenFlag.O_CREAT)
        return _path_doom(cmd.path, candidates,
                          final_may_create=creating)

    exist_attrs, create_attrs = _PATH_ARGS.get(type(cmd), ((), ()))
    for attr in exist_attrs:
        reason = _path_doom(getattr(cmd, attr), candidates,
                            final_may_create=False)
        if reason is not None:
            return reason
    for attr in create_attrs:
        reason = _path_doom(getattr(cmd, attr), candidates,
                            final_may_create=True)
        if reason is not None:
            return reason
    return None


def _apply_effects(cmd: C.OsCommand, proc: _ProcState,
                   candidates: Set[str]) -> None:
    """Account for what a (possibly) successful ``cmd`` may create."""
    if isinstance(cmd, C.Open):
        proc.opens += 1
        if cmd.flags & OpenFlag.O_CREAT:
            name = _created_name(cmd.path)
            if name is not None:
                candidates.add(name)
    elif isinstance(cmd, C.Opendir):
        proc.opendirs += 1
    elif isinstance(cmd, (C.Mkdir, C.Symlink, C.Link, C.Rename)):
        path = cmd.linkpath if isinstance(cmd, C.Symlink) else (
            cmd.dst if isinstance(cmd, (C.Link, C.Rename)) else
            cmd.path)
        name = _created_name(path)
        if name is not None:
            candidates.add(name)


def classify_script(script: Script, quirks=None) -> ScriptReport:
    """Interpret ``script`` abstractly, classifying every item.

    ``quirks`` (a :class:`repro.fsimpl.quirks.Quirks`) optionally
    sharpens the verdicts with configuration-level facts (e.g. a
    configuration whose every ``chmod`` fails); without it verdicts
    hold for every configuration.
    """
    live: Set[int] = {1}
    procs: Dict[int, _ProcState] = {1: _ProcState()}
    candidates: Set[str] = set()
    steps: List[StepVerdict] = []
    any_ill = False
    call_verdicts: List[str] = []

    for index, item in enumerate(script.items):
        if isinstance(item, CreateEvent):
            if item.pid in live:
                any_ill = True
                steps.append(StepVerdict(
                    index, item, ILL_FORMED,
                    f"pid {item.pid} is already live"))
            else:
                live.add(item.pid)
                procs[item.pid] = _ProcState()
                steps.append(StepVerdict(index, item, WELL_FORMED))
        elif isinstance(item, DestroyEvent):
            if item.pid not in live or item.pid == 1:
                any_ill = True
                reason = ("the root process cannot be destroyed"
                          if item.pid == 1 else
                          f"pid {item.pid} is not live")
                steps.append(StepVerdict(index, item, ILL_FORMED,
                                         reason))
            else:
                live.discard(item.pid)
                procs.pop(item.pid, None)
                steps.append(StepVerdict(index, item, WELL_FORMED))
        else:
            assert isinstance(item, ScriptStep)
            if item.pid not in live:
                # The executor auto-creates on first use (and afresh
                # after a destroy), resetting descriptor counters.
                live.add(item.pid)
                procs[item.pid] = _ProcState()
            proc = procs[item.pid]
            reason = _doom_reason(item.cmd, proc, candidates, quirks)
            if reason is None:
                _apply_effects(item.cmd, proc, candidates)
                steps.append(StepVerdict(index, item, WELL_FORMED))
                call_verdicts.append(WELL_FORMED)
            else:
                steps.append(StepVerdict(index, item, DOOMED, reason))
                call_verdicts.append(DOOMED)

    if any_ill:
        verdict = ILL_FORMED
    elif call_verdicts and all(v == DOOMED for v in call_verdicts):
        verdict = DOOMED
    else:
        verdict = WELL_FORMED
    return ScriptReport(script=script, steps=tuple(steps),
                        verdict=verdict)


def rejects(script: Script) -> bool:
    """Should the fuzzer drop this mutant before execution?

    Only pure error soup is rejected: every call doomed *and* more than
    one call (single-call probes of error clauses — e.g. the handwritten
    ``path_too_long`` parity script — are legitimate tests and must
    never be dropped).
    """
    if script.call_count() < 2:
        return False
    return classify_script(script).verdict == DOOMED
