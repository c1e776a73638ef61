"""Plain-text rendering of run artifacts and merged surveys.

The paper renders checked traces to HTML with autogenerated indexes;
here the same summaries are rendered as text tables (suitable for the
terminal and for EXPERIMENTS.md), from :class:`repro.api.RunArtifact`
values.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.harness.merge import DeviationRecord


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def render_artifact_summary(artifact) -> str:
    """One configuration's acceptance summary, of a
    :class:`repro.api.RunArtifact`."""
    failing = artifact.failing
    lines = [
        f"configuration: {artifact.config}  (checked against the "
        f"{artifact.model} model)",
        f"traces: {artifact.total}  accepted: {artifact.accepted}  "
        f"failing: {len(failing)}",
        f"execute: {artifact.exec_seconds:.2f}s  "
        f"check: {artifact.check_seconds:.2f}s  "
        f"({artifact.check_rate:.0f} traces/s)",
    ]
    if failing:
        rows = []
        for failure in failing[:40]:
            first = failure.deviations[0]
            rows.append([failure.trace_name, first.kind,
                         first.observed[:48],
                         ", ".join(first.allowed)[:48]])
        lines.append(_table(
            ["trace", "kind", "observed", "allowed"], rows))
        if len(failing) > 40:
            lines.append(f"... and {len(failing) - 40} more")
    return "\n".join(lines)


def render_summary_table(artifacts: Sequence) -> str:
    """Acceptance counts across configurations (section 7.2's shape),
    of :class:`repro.api.RunArtifact` values."""
    rows = [[a.config, a.model, str(a.total), str(a.accepted),
             str(len(a.failing))]
            for a in artifacts]
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
