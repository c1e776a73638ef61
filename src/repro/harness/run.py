"""Suite-result shapes shared by the reports, merges and CI baselines.

A :class:`SuiteResult` is the per-configuration acceptance summary that
:mod:`repro.harness.report`, :mod:`repro.harness.merge` and
:mod:`repro.harness.ci` render and compare.  It is a view of a
:class:`repro.api.RunArtifact` (``artifact.suite_result``), which
:class:`repro.api.Session` produces from its one streaming pass over
the pipeline of paper Fig. 1.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.checker.checker import Deviation


@dataclasses.dataclass(frozen=True)
class TraceFailure:
    """One failing trace in a suite run."""

    trace_name: str
    target_function: str
    deviations: Tuple[Deviation, ...]


@dataclasses.dataclass(frozen=True)
class SuiteResult:
    """The outcome of one test-and-check run (one configuration)."""

    config: str
    model: str
    total: int
    failing: Tuple[TraceFailure, ...]
    exec_seconds: float
    check_seconds: float

    @property
    def accepted(self) -> int:
        return self.total - len(self.failing)

    @property
    def check_rate(self) -> float:
        """Traces checked per second (the paper reports 266/s)."""
        if self.check_seconds == 0:
            return float("inf")
        return self.total / self.check_seconds


def as_suite_result(result) -> SuiteResult:
    """Coerce a :class:`SuiteResult` or anything carrying a
    ``suite_result`` view (a :class:`repro.api.RunArtifact`)."""
    return getattr(result, "suite_result", result)
