"""Test-and-check harness and result analysis (paper Fig. 1, section 7).

``backends`` is the engine: the serial and sharded backends whose
``run_iter`` executes and checks a script stream for
:class:`repro.api.Session`, the one way a suite is run.
``merge``/``report``/``html`` combine and render the
:class:`repro.api.RunArtifact` values a run leaves behind, across
configurations; ``portability``, ``debug`` and ``reduce`` analyse
single traces, and ``differential`` compares two configurations
script by script (paper section 8).
"""

from repro.harness.backends import (Backend, CheckOutcome,
                                    SerialBackend, ShardedBackend,
                                    make_backend, owned_backend)
from repro.harness.merge import (DeviationRecord, merge_results,
                                 merge_verdicts)
from repro.harness.report import (render_artifact_summary, render_merge,
                                  render_summary_table)
from repro.harness.debug import DebugStep, debug_trace, render_debug
from repro.harness.portability import (PortabilityReport,
                                       portability_report)
from repro.harness.reduce import (is_one_minimal, reduce_script,
                                  script_fails)
from repro.harness.html import render_artifact_html, render_html_report
from repro.harness.differential import (Difference, DifferentialResult,
                                         differential_run)

__all__ = [
    "Backend", "CheckOutcome", "SerialBackend", "ShardedBackend",
    "make_backend", "owned_backend",
    "DeviationRecord", "merge_results", "merge_verdicts",
    "render_artifact_summary", "render_merge", "render_summary_table",
    "DebugStep", "debug_trace", "render_debug",
    "PortabilityReport", "portability_report",
    "is_one_minimal", "reduce_script", "script_fails",
    "render_artifact_html", "render_html_report",
    "Difference", "DifferentialResult", "differential_run",
]
