"""Verdicts: what an oracle says about one trace.

A :class:`Verdict` is the result of asking an :class:`~repro.oracle.Oracle`
about a trace: one :class:`ConformanceProfile` per platform the oracle
models.  For a single-platform oracle the verdict carries one profile;
for the vectored multi-platform oracle it carries one per
:class:`~repro.core.platform.PlatformSpec` — the raw material of the
paper's section 7.3 survey, the merge view and the section 9
portability analysis, produced by a single state-set pass.

Profiles deliberately mirror :class:`repro.checker.checker.CheckedTrace`
field for field (minus the trace, which lives on the verdict): the
per-platform rows of a vectored pass are *identical* to what four
independent ``TraceChecker`` passes would have produced, and the parity
is test-enforced.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.checker.checker import CheckedTrace, Deviation
from repro.script.ast import Trace


def deviation_to_dict(deviation: Deviation) -> dict:
    """The single wire shape for a :class:`Deviation` (profile rows and
    the legacy RunArtifact trace rows share it)."""
    return {
        "line_no": deviation.line_no,
        "kind": deviation.kind,
        "observed": deviation.observed,
        "allowed": list(deviation.allowed),
        "message": deviation.message,
    }


def deviation_from_dict(row: dict) -> Deviation:
    return Deviation(line_no=row["line_no"], kind=row["kind"],
                     observed=row["observed"],
                     allowed=tuple(row["allowed"]),
                     message=row["message"])


@dataclasses.dataclass(frozen=True)
class ConformanceProfile:
    """One platform's view of a checked trace."""

    platform: str
    deviations: Tuple[Deviation, ...]
    max_state_set: int
    labels_checked: int
    pruned: bool = False

    @property
    def accepted(self) -> bool:
        return not self.deviations

    def as_checked(self, trace: Trace) -> CheckedTrace:
        """The legacy :class:`CheckedTrace` view of this profile."""
        return CheckedTrace(trace=trace, deviations=self.deviations,
                            max_state_set=self.max_state_set,
                            labels_checked=self.labels_checked,
                            pruned=self.pruned)

    @classmethod
    def from_checked(cls, platform: str,
                     checked: CheckedTrace) -> "ConformanceProfile":
        return cls(platform=platform, deviations=checked.deviations,
                   max_state_set=checked.max_state_set,
                   labels_checked=checked.labels_checked,
                   pruned=checked.pruned)

    # -- (de)serialisation: the RunArtifact v3 row shape ----------------------

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "max_state_set": self.max_state_set,
            "labels_checked": self.labels_checked,
            "pruned": self.pruned,
            "deviations": [deviation_to_dict(d)
                           for d in self.deviations],
        }

    @classmethod
    def from_dict(cls, row: dict) -> "ConformanceProfile":
        return cls(
            platform=row["platform"],
            deviations=tuple(deviation_from_dict(d)
                             for d in row["deviations"]),
            max_state_set=row["max_state_set"],
            labels_checked=row["labels_checked"],
            pruned=row["pruned"])


@dataclasses.dataclass(frozen=True)
class Verdict:
    """An oracle's answer for one trace: a profile per platform.

    Profile order follows the oracle's platform order; the first
    profile is the *primary* one (what single-model consumers read).
    """

    trace: Trace
    profiles: Tuple[ConformanceProfile, ...]

    @property
    def primary(self) -> ConformanceProfile:
        return self.profiles[0]

    @property
    def primary_checked(self) -> CheckedTrace:
        """The primary profile as a legacy :class:`CheckedTrace`."""
        return self.primary.as_checked(self.trace)

    @property
    def accepted(self) -> bool:
        """Accepted by *every* platform the oracle models."""
        return all(p.accepted for p in self.profiles)

    @property
    def accepted_on(self) -> Tuple[str, ...]:
        return tuple(p.platform for p in self.profiles if p.accepted)

    @property
    def rejected_on(self) -> Tuple[str, ...]:
        return tuple(p.platform for p in self.profiles
                     if not p.accepted)

    def profile_for(self, platform: str) -> ConformanceProfile:
        for profile in self.profiles:
            if profile.platform == platform:
                return profile
        raise KeyError(
            f"verdict has no profile for {platform!r}; covered: "
            f"{', '.join(p.platform for p in self.profiles)}")

    def render(self) -> str:
        """A compact per-platform conformance summary."""
        lines = [f"trace: {self.trace.name}"]
        for profile in self.profiles:
            status = ("accepted" if profile.accepted else
                      f"REJECTED ({len(profile.deviations)} "
                      f"deviation(s))")
            lines.append(f"  {profile.platform:<8} {status}")
            for dev in profile.deviations[:5]:
                line = f"    line {dev.line_no}: {dev.message}"
                if dev.allowed:
                    line += f" (allowed: {', '.join(dev.allowed)})"
                lines.append(line)
        return "\n".join(lines)
