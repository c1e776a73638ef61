"""Plain-text rendering of suite results and merged surveys.

The paper renders checked traces to HTML with autogenerated indexes;
here the same summaries are rendered as text tables (suitable for the
terminal and for EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.harness.merge import DeviationRecord
from repro.harness.run import SuiteResult, as_suite_result


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def render_suite_result(result: SuiteResult) -> str:
    """One configuration's acceptance summary (of a
    :class:`SuiteResult` or a :class:`repro.api.RunArtifact`)."""
    result = as_suite_result(result)
    lines = [
        f"configuration: {result.config}  (checked against the "
        f"{result.model} model)",
        f"traces: {result.total}  accepted: {result.accepted}  "
        f"failing: {len(result.failing)}",
        f"execute: {result.exec_seconds:.2f}s  "
        f"check: {result.check_seconds:.2f}s  "
        f"({result.check_rate:.0f} traces/s)",
    ]
    if result.failing:
        rows = []
        for failure in result.failing[:40]:
            first = failure.deviations[0]
            rows.append([failure.trace_name, first.kind,
                         first.observed[:48],
                         ", ".join(first.allowed)[:48]])
        lines.append(_table(
            ["trace", "kind", "observed", "allowed"], rows))
        if len(result.failing) > 40:
            lines.append(f"... and {len(result.failing) - 40} more")
    return "\n".join(lines)


def render_summary_table(results: Sequence[SuiteResult]) -> str:
    """Acceptance counts across configurations (section 7.2's shape),
    of :class:`SuiteResult` or :class:`repro.api.RunArtifact` values."""
    rows = [[r.config, r.model, str(r.total), str(r.accepted),
             str(len(r.failing))]
            for r in map(as_suite_result, results)]
    return _table(["configuration", "model", "traces", "accepted",
                   "failing"], rows)


def render_merge(records: Sequence[DeviationRecord],
                 limit: int = 60) -> str:
    """Merged cross-configuration deviations (the section 7.3 survey)."""
    rows = []
    for record in records[:limit]:
        rows.append([
            record.trace_name[:44], record.kind,
            record.observed[:36],
            str(record.ubiquity),
            ",".join(record.configs)[:60],
        ])
    out = _table(["trace", "kind", "observed", "#cfg", "configurations"],
                 rows)
    if len(records) > limit:
        out += f"\n... and {len(records) - limit} more distinct deviations"
    return out
