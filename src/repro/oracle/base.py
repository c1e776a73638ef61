"""The Oracle protocol: one pluggable conformance-checking front door.

An oracle answers exactly one question — ``check(trace) -> Verdict`` —
and declares which platforms its verdicts cover.  Everything that used
to drive the model ad hoc (``TraceChecker`` consumers, the portability
and merge analyses, the differential harness, the pipeline backends)
now goes through this protocol, so single- and multi-platform
conformance and prefix-resumed checking are interchangeable behind one
surface.
"""

from __future__ import annotations

from typing import Tuple

try:  # Protocol is 3.8+; keep a soft fallback for exotic interpreters.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.oracle.verdict import Verdict
from repro.script.ast import Trace


@runtime_checkable
class Oracle(Protocol):
    """Decides, per trace, which behaviours a set of platforms admit."""

    #: Registry key / artifact descriptor (e.g. ``"linux"``,
    #: ``"vectored:posix+linux+osx+freebsd"``).
    name: str
    #: Platforms covered by this oracle's verdicts, in profile order;
    #: the first one is the primary platform.
    platforms: Tuple[str, ...]

    def check(self, trace: Trace) -> Verdict:
        """Check one trace, returning a profile per platform."""
        ...
