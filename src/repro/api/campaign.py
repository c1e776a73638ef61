"""RunArtifact <-> campaign store interchange.

The store speaks :class:`~repro.store.TraceRecord` rows; the rest of
the world (``repro run --artifact``, the v1–v6 JSON format) speaks
:class:`~repro.api.RunArtifact`.  This module is the bridge:

* :func:`import_artifact` / :func:`import_artifact_file` append an
  artifact's checked results as trace rows (content-addressed — a
  re-import adds zero rows) plus one :class:`~repro.store.MetaRecord`
  carrying the run-level fields, under the same partition convention
  :class:`~repro.api.Session` uses (``"<config>:<oracle-name>"``).
  The file variant streams via :func:`repro.api.artifact.iter_results`
  so a large artifact never has to fit in memory.
* :func:`export_artifact` rebuilds a :class:`RunArtifact` from a
  partition's rows and its newest meta row — for a clean import/export
  round trip the result equals the original artifact (up to trace
  dedup within it).
"""

from __future__ import annotations

import pathlib
from typing import Dict, Optional, Tuple, Union

from repro.api.artifact import (RunArtifact, iter_results, read_header)
from repro.oracle import ConformanceProfile, oracle_name_for
from repro.script.parser import parse_trace
from repro.script.printer import print_trace
from repro.store import CampaignStore, MetaRecord, TraceRecord


def artifact_partition(config: str, model: str,
                       check_on: Tuple[str, ...] = ()) -> str:
    """The store partition an artifact's rows belong to — identical to
    the partition a live ``Session(config, model, check_on=...)`` run
    appends under, so importing an artifact of a run dedups against
    the run's own streamed rows."""
    platforms = list(check_on) if check_on else [model]
    return f"{config}:{oracle_name_for(platforms)}"


def _meta_from_header(partition: str, header: dict) -> MetaRecord:
    return MetaRecord(
        partition=partition,
        config=header["config"],
        model=header["model"],
        backend=header["backend"],
        exec_seconds=header["exec_seconds"],
        check_seconds=header["check_seconds"],
        coverage_collected=header.get("coverage_collected", False),
        covered_clauses=tuple(header.get("covered_clauses", ())),
        plan=header.get("plan", ""),
        seeds=tuple(header.get("seeds", ())),
        check_on=tuple(header.get("check_on", ())),
        engine_stats=tuple(sorted(
            (key, int(value)) for key, value in
            header.get("engine_stats", {}).items())))


def _append_row(store: CampaignStore, partition: str, model: str,
                target: str, checked, profiles) -> bool:
    profiles = tuple(profiles) or (
        ConformanceProfile.from_checked(model, checked),)
    return store.append(TraceRecord(
        partition=partition, name=checked.trace.name,
        target_function=target,
        trace_text=print_trace(checked.trace),
        profiles=profiles))


def import_artifact(store: CampaignStore, artifact: RunArtifact
                    ) -> Dict[str, int]:
    """Append a loaded artifact's results to the store.

    Returns ``{"partition", "appended", "deduped"}`` counts (the
    partition key itself under ``"partition"`` is informational and
    returned as a string in the same dict for CLI rendering)."""
    partition = artifact_partition(artifact.config, artifact.model,
                                   artifact.check_on)
    appended = 0
    total = 0
    profile_rows = artifact.profiles or ((),) * len(artifact.checked)
    for checked, target, profiles in zip(artifact.checked,
                                         artifact.target_functions,
                                         profile_rows):
        total += 1
        if _append_row(store, partition, artifact.model, target,
                       checked, profiles):
            appended += 1
    meta = _meta_from_header(partition, {
        "config": artifact.config, "model": artifact.model,
        "backend": artifact.backend,
        "exec_seconds": artifact.exec_seconds,
        "check_seconds": artifact.check_seconds,
        "coverage_collected": artifact.coverage_collected,
        "covered_clauses": list(artifact.covered_clauses),
        "plan": artifact.plan, "seeds": list(artifact.seeds),
        "check_on": list(artifact.check_on),
        "engine_stats": dict(artifact.engine_stats)})
    store.append(meta)
    store.flush()
    return {"partition": partition, "appended": appended,
            "deduped": total - appended}


def import_artifact_file(store: CampaignStore,
                         path: Union[str, pathlib.Path]
                         ) -> Dict[str, int]:
    """Append an artifact JSON file's results, streaming.

    The header is read first (a small prefix of the file), then the
    trace rows are decoded and appended one at a time — peak memory is
    one row, not the artifact."""
    header = read_header(path)
    partition = artifact_partition(
        header["config"], header["model"],
        tuple(header.get("check_on", ())))
    appended = 0
    total = 0
    for row in iter_results(path):
        total += 1
        if _append_row(store, partition, header["model"],
                       row.target_function, row.checked, row.profiles):
            appended += 1
    store.append(_meta_from_header(partition, header))
    store.flush()
    return {"partition": partition, "appended": appended,
            "deduped": total - appended}


def export_artifact(store: CampaignStore, partition: str
                    ) -> RunArtifact:
    """Rebuild a :class:`RunArtifact` from one partition's rows.

    Run-level fields come from the partition's newest meta row (the
    one the latest import wrote); a partition populated only by live
    appends (no meta) synthesises them: config from the partition key,
    timings summed from the rows, backend ``"store"``."""
    rows = []
    meta: Optional[MetaRecord] = None
    for _cursor, record in store.records():
        if record.partition != partition:
            continue
        if isinstance(record, MetaRecord):
            meta = record  # newest wins: records stream in append order
        else:
            rows.append(record)
    if not rows and meta is None:
        raise KeyError(f"no rows stored under partition {partition!r}")
    checked = tuple(row.profiles[0].as_checked(
        parse_trace(row.trace_text)) for row in rows)
    targets = tuple(row.target_function for row in rows)
    if meta is not None:
        check_on = meta.check_on
        return RunArtifact(
            config=meta.config, model=meta.model, backend=meta.backend,
            checked=checked, target_functions=targets,
            exec_seconds=meta.exec_seconds,
            check_seconds=meta.check_seconds,
            coverage_collected=meta.coverage_collected,
            covered_clauses=meta.covered_clauses,
            plan=meta.plan, seeds=meta.seeds, check_on=check_on,
            profiles=(tuple(row.profiles for row in rows)
                      if check_on else ()),
            engine_stats=meta.engine_stats)
    config = partition.split(":", 1)[0]
    multi = any(len(row.profiles) > 1 for row in rows)
    check_on = (tuple(p.platform for p in rows[0].profiles)
                if multi else ())
    model = rows[0].profiles[0].platform
    covered: set = set()
    for row in rows:
        covered.update(row.covered)
    return RunArtifact(
        config=config, model=model, backend="store",
        checked=checked, target_functions=targets,
        exec_seconds=sum(row.exec_seconds for row in rows),
        check_seconds=sum(row.check_seconds for row in rows),
        coverage_collected=bool(covered),
        covered_clauses=tuple(sorted(covered)),
        check_on=check_on,
        profiles=(tuple(row.profiles for row in rows)
                  if check_on else ()))
