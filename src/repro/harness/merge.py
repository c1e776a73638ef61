"""Merging results across configurations and platforms (paper §2).

"To analyse the results of multiple runs, the system can intelligently
combine the results across many different platforms, merging behaviours
common to many runs and highlighting the differences."  A merged view
groups identical deviations and records which configurations exhibit
each — the raw material of the section 7.3 survey.

Two merge axes share one record shape:

* :func:`merge_results` merges *across configurations*, from run
  artifacts;
* :func:`merge_verdicts` merges *across platforms* from multi-platform
  oracle verdicts — the one-pass vectored check of a trace set folded
  into "which model variants exhibit which deviation".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.platform import real_platforms
from repro.oracle import Verdict


@dataclasses.dataclass(frozen=True)
class DeviationRecord:
    """One distinct deviation, with the configurations exhibiting it."""

    trace_name: str
    kind: str
    observed: str
    allowed: Tuple[str, ...]
    configs: Tuple[str, ...]

    @property
    def ubiquity(self) -> int:
        return len(self.configs)

    @property
    def spans_real_platforms(self) -> bool:
        """True when every real-world platform variant exhibits this
        deviation (meaningful for platform-axis merges): such a
        deviation is a property of the trace, not of any one model."""
        return set(real_platforms()) <= set(self.configs)


def merge_results(artifacts: Sequence) -> List[DeviationRecord]:
    """Group identical deviations across the
    :class:`repro.api.RunArtifact` values of several configurations.

    Deviations exhibited by many configurations usually indicate model
    or harness artefacts (or platform-wide conventions); deviations
    unique to one configuration are the interesting defects.
    """
    grouped: Dict[Tuple, List[str]] = {}
    for artifact in artifacts:
        for failure in artifact.failing:
            for dev in failure.deviations:
                key = (failure.trace_name, dev.kind, dev.observed,
                       dev.allowed)
                grouped.setdefault(key, []).append(artifact.config)
    return _records(grouped)


def merge_verdicts(verdicts: Iterable[Verdict]) -> List[DeviationRecord]:
    """Group identical deviations across *platforms* from
    multi-platform oracle verdicts.

    One vectored pass over a trace set yields, per trace, a profile per
    model variant; this merge folds them into deviation records whose
    ``configs`` are platform names — the "merge view" of checking the
    same trace against several model variants.  A record spanning every
    real platform (:attr:`DeviationRecord.spans_real_platforms`)
    indicts the trace; a record unique to one platform pinpoints a
    platform-specific convention.
    """
    grouped: Dict[Tuple, List[str]] = {}
    for verdict in verdicts:
        for profile in verdict.profiles:
            for dev in profile.deviations:
                key = (verdict.trace.name, dev.kind, dev.observed,
                       dev.allowed)
                grouped.setdefault(key, []).append(profile.platform)
    return _records(grouped)


def _records(grouped: Dict[Tuple, List[str]]) -> List[DeviationRecord]:
    records = [
        DeviationRecord(trace_name=key[0], kind=key[1], observed=key[2],
                        allowed=key[3],
                        configs=tuple(sorted(set(configs))))
        for key, configs in grouped.items()
    ]
    records.sort(key=lambda r: (r.ubiquity, r.trace_name, r.observed))
    return records
