"""Test-and-check harness and result analysis (paper Fig. 1, section 7).

``backends`` is the engine: the serial and sharded backends whose
``run_iter`` executes and checks a script stream for
:class:`repro.api.Session`, the one way a suite is run.  ``run`` holds
the :class:`SuiteResult` view of a run; ``merge``/``report``/``ci``
combine, render and baseline results across configurations;
``portability``, ``debug``, ``reduce`` and ``differential`` analyse
single traces and configuration pairs.
"""

from repro.harness.backends import (Backend, CheckOutcome,
                                    SerialBackend, ShardedBackend,
                                    make_backend, owned_backend)
from repro.harness.run import SuiteResult, TraceFailure, as_suite_result
from repro.harness.merge import (DeviationRecord, merge_results,
                                 merge_verdicts)
from repro.harness.report import (render_merge, render_suite_result,
                                  render_summary_table)
from repro.harness.debug import DebugStep, debug_trace, render_debug
from repro.harness.portability import (PortabilityReport,
                                       portability_report)
from repro.harness.reduce import (is_one_minimal, reduce_script,
                                  script_fails)
from repro.harness.html import render_artifact_html, render_html_report
from repro.harness.differential import (Difference, DifferentialResult,
                                         differential_run)
from repro.harness.ci import (RegressionReport, compare_to_baseline,
                              save_baseline)

__all__ = [
    "Backend", "CheckOutcome", "SerialBackend", "ShardedBackend",
    "make_backend", "owned_backend",
    "SuiteResult", "TraceFailure", "as_suite_result",
    "DeviationRecord", "merge_results", "merge_verdicts",
    "render_merge", "render_suite_result", "render_summary_table",
    "DebugStep", "debug_trace", "render_debug",
    "PortabilityReport", "portability_report",
    "is_one_minimal", "reduce_script", "script_fails",
    "render_artifact_html", "render_html_report",
    "Difference", "DifferentialResult", "differential_run",
    "RegressionReport", "compare_to_baseline", "save_baseline",
]
