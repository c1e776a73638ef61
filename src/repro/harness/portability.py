"""Trace portability analysis (paper section 9, future work).

"With modest additional engineering, SibylFS could support analysis of
API traces of applications, identifying when they rely on non-portable
aspects of the model."  Given a trace (e.g. recorded from an
application), :func:`portability_report` folds a multi-platform
:class:`~repro.oracle.Verdict` — one vectored state-set pass over every
model variant — into a report of which platforms allow the trace,
pinpointing the first non-portable step for each rejecting platform::

    report = portability_report(get_oracle("all").check(trace))

Keep the verdict: the same pass also answers the merge and survey
questions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.core.platform import real_platforms
from repro.oracle import Verdict


@dataclasses.dataclass(frozen=True)
class PortabilityReport:
    """Which model variants accept a trace, and why the others don't."""

    trace_name: str
    accepted_on: Tuple[str, ...]
    rejected_on: Dict[str, Tuple[str, ...]]  # platform -> messages

    @property
    def portable(self) -> bool:
        """Portable = allowed by every real-world platform variant (and
        therefore by the loose POSIX envelope as well)."""
        return all(p in self.accepted_on for p in real_platforms())

    def render(self) -> str:
        lines = [f"trace: {self.trace_name}",
                 f"portable across modelled platforms: {self.portable}",
                 f"accepted on : {', '.join(self.accepted_on) or '-'}"]
        for platform, messages in sorted(self.rejected_on.items()):
            lines.append(f"rejected on {platform}:")
            lines.extend(f"  - {m}" for m in messages[:5])
        return "\n".join(lines)


def portability_report(verdict: Verdict) -> PortabilityReport:
    """Fold a multi-platform verdict into a portability report.

    The verdict should cover every variant (the ``"all"`` oracle); a
    narrower verdict yields a report over just the platforms it checked.
    """
    accepted: List[str] = []
    rejected: Dict[str, Tuple[str, ...]] = {}
    for profile in verdict.profiles:
        if profile.accepted:
            accepted.append(profile.platform)
        else:
            rejected[profile.platform] = tuple(
                f"line {d.line_no}: {d.message}"
                + (f" (allowed: {', '.join(d.allowed)})" if d.allowed
                   else "")
                for d in profile.deviations)
    return PortabilityReport(trace_name=verdict.trace.name,
                             accepted_on=tuple(accepted),
                             rejected_on=rejected)
