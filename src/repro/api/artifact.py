"""Structured, serialisable artifacts of one pipeline run.

A :class:`RunArtifact` is everything one execute-and-check pass over a
suite produced — the observed traces, the checked results, phase
timings, and (optionally) the specification clauses covered — in a form
every consumer renders from: the CLI summary, the HTML report, CI
baselines, surveys and merges all read the *same* artifact instead of
re-running the pipeline.

Artifacts serialise to JSON (``to_json``/``from_json``) for CI diffing;
traces are stored in the paper's trace file format (Fig. 3), which
round-trips exactly, so ``RunArtifact.from_json(a.to_json()) == a``.
Format v3 added the multi-platform fields (``check_on`` and per-trace
per-platform conformance profiles from the vectored oracle); v4 added
``engine_stats`` — the execution engine's counters (shard count,
warmup size, shared-memo arena rows and pool-wide hit/miss totals)
reported by backends with a ``run_stats`` method; v5 extends
``engine_stats`` with the persistent-pool amortization counters
(``epochs_published``, ``pool_cold_starts``, ``epochs_adopted``,
``verdict_hits``) — the layout itself is unchanged, the version bump
marks that identical inputs now produce different (richer) stats
dictionaries than a v4 writer would; v6 extended them again with a
compiled checking engine's fast-path counters (``compiled_hits`` /
``compiled_misses``).  That engine has since been removed, so writers
no longer report those keys, but ``engine_stats`` is an open map and
v6 files that carry them still load, as do v1–v5 artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import IO, Iterator, Tuple

from repro.checker.checker import CheckedTrace
from repro.core.coverage import REGISTRY, CoverageReport
from repro.harness.html import render_artifact_html
from repro.harness.report import render_suite_result
from repro.harness.run import SuiteResult, TraceFailure
from repro.oracle import (ConformanceProfile, deviation_from_dict,
                          deviation_to_dict)
from repro.script.parser import parse_trace
from repro.script.printer import print_trace

#: Bumped when the JSON layout changes incompatibly.
FORMAT_VERSION = 6

#: Versions ``from_json`` still reads (v1 lacked plan provenance, v2
#: the multi-platform conformance profiles, v3 the engine stats, v4
#: the amortization counters, v5 the counters of the since-removed
#: compiled engine).
_READABLE_VERSIONS = (1, 2, 3, 4, 5, 6)


@dataclasses.dataclass(frozen=True)
class RunArtifact:
    """The product of one :class:`repro.api.Session` pipeline pass."""

    config: str
    model: str
    #: Descriptor of the backend that produced this artifact
    #: (e.g. ``"serial"`` or ``"process[4]"``); informational only.
    backend: str
    checked: Tuple[CheckedTrace, ...]
    #: Per-trace target function, parallel to ``checked`` (from the
    #: scripts; traces alone do not record what they were testing).
    target_functions: Tuple[str, ...]
    exec_seconds: float
    check_seconds: float
    coverage_collected: bool = False
    #: Sorted clause names covered by the checking phase (empty unless
    #: the session collected coverage).
    covered_clauses: Tuple[str, ...] = ()
    #: Provenance of the :class:`repro.gen.TestPlan` that produced the
    #: suite (e.g. ``"default.filter(include=rename*).sample(100,
    #: seed=7)"``); empty for pre-plan runs.
    plan: str = ""
    #: Every seed the plan used (sampling, shuffling, randomized
    #: generation) — what makes a randomized run reproducible.
    seeds: Tuple[int, ...] = ()
    #: Every platform the run checked, in profile order (first =
    #: primary ``model``); empty for single-model runs.
    check_on: Tuple[str, ...] = ()
    #: Per-trace, per-platform conformance profiles from the vectored
    #: oracle, parallel to ``checked`` — the one-pass answer to the
    #: survey / merge / portability questions.  Empty for single-model
    #: runs, whose only profile *is* ``checked``.
    profiles: Tuple[Tuple[ConformanceProfile, ...], ...] = ()
    #: Execution-engine counters as sorted ``(key, value)`` pairs —
    #: the sharded backend reports shard count, warmup size, arena
    #: rows/states and pool-wide memo hit/miss totals here.  Empty for
    #: backends without ``run_stats``.
    engine_stats: Tuple[Tuple[str, int], ...] = ()

    # -- derived views --------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.checked)

    @property
    def accepted(self) -> int:
        return sum(1 for c in self.checked if c.accepted)

    @property
    def failing(self) -> Tuple[TraceFailure, ...]:
        return tuple(
            TraceFailure(trace_name=c.trace.name,
                         target_function=target,
                         deviations=c.deviations)
            for c, target in zip(self.checked, self.target_functions)
            if not c.accepted)

    @property
    def check_rate(self) -> float:
        """Traces checked per second (the paper reports 266/s)."""
        if self.check_seconds == 0:
            return float("inf")
        return self.total / self.check_seconds

    def conformance_counts(self) -> dict:
        """Accepted-trace count per checked platform.

        For a multi-platform run the counts come from the vectored
        profiles (all zero for an empty suite); a single-model run
        reports its one model.
        """
        if not self.check_on:
            return {self.model: self.accepted}
        counts: dict = {p: 0 for p in self.check_on}
        for row in self.profiles:
            for profile in row:
                if profile.accepted:
                    counts[profile.platform] += 1
        return counts

    def failing_on(self, platform: str) -> Tuple[TraceFailure, ...]:
        """The failing traces as seen by one checked platform."""
        if not self.check_on:
            if platform != self.model:
                raise KeyError(
                    f"run did not check platform {platform!r}")
            return self.failing
        if platform not in self.check_on:
            raise KeyError(f"run did not check platform {platform!r}")
        failures = []
        for c, target, row in zip(self.checked, self.target_functions,
                                  self.profiles):
            for profile in row:
                if profile.platform == platform:
                    if not profile.accepted:
                        failures.append(TraceFailure(
                            trace_name=c.trace.name,
                            target_function=target,
                            deviations=profile.deviations))
                    break
        return tuple(failures)

    @property
    def suite_result(self) -> SuiteResult:
        """The legacy :class:`SuiteResult` view of this artifact, for
        the renderers, merge and CI baseline machinery."""
        return SuiteResult(config=self.config, model=self.model,
                           total=self.total, failing=self.failing,
                           exec_seconds=self.exec_seconds,
                           check_seconds=self.check_seconds)

    def coverage_report(self) -> CoverageReport:
        """Model coverage of the checking phase (section 7.2)."""
        if not self.coverage_collected:
            raise ValueError(
                "coverage was not collected for this run; create the "
                "Session with collect_coverage=True")
        return REGISTRY.report_for(self.covered_clauses,
                                   platform=self.model)

    # -- rendering ------------------------------------------------------------

    def render_summary(self) -> str:
        """The plain-text acceptance summary (CLI output).

        Multi-platform runs append the per-platform conformance counts
        produced by the same single pass.
        """
        text = render_suite_result(self.suite_result)
        if self.check_on:
            lines = ["conformance by platform (same pass):"]
            for platform, count in self.conformance_counts().items():
                lines.append(
                    f"  {platform:<8} {count}/{self.total} accepted")
            text = text + "\n" + "\n".join(lines)
        return text

    def render_html(self, title: str | None = None) -> str:
        """The self-contained HTML report — from the *same* checked
        results as the summary (no second pipeline pass)."""
        return render_artifact_html(self, title)

    # -- (de)serialisation ----------------------------------------------------

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "format": FORMAT_VERSION,
            "config": self.config,
            "model": self.model,
            "backend": self.backend,
            "exec_seconds": self.exec_seconds,
            "check_seconds": self.check_seconds,
            "coverage_collected": self.coverage_collected,
            "covered_clauses": list(self.covered_clauses),
            "plan": self.plan,
            "seeds": list(self.seeds),
            "check_on": list(self.check_on),
            "engine_stats": {key: value
                             for key, value in self.engine_stats},
            "traces": [
                {
                    "target_function": target,
                    "trace": print_trace(c.trace),
                    "max_state_set": c.max_state_set,
                    "labels_checked": c.labels_checked,
                    "pruned": c.pruned,
                    "deviations": [deviation_to_dict(d)
                                   for d in c.deviations],
                }
                for c, target in zip(self.checked, self.target_functions)
            ],
        }
        if self.profiles:
            for row, profile_row in zip(payload["traces"],
                                        self.profiles):
                row["profiles"] = [p.to_dict() for p in profile_row]
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        payload = json.loads(text)
        version = payload.get("format")
        if version not in _READABLE_VERSIONS:
            raise ValueError(f"unsupported artifact format: {version!r}")
        checked = []
        targets = []
        profile_rows = []
        for row in payload["traces"]:
            decoded = ArtifactRow.from_dict(row)
            checked.append(decoded.checked)
            targets.append(decoded.target_function)
            if decoded.profiles:
                profile_rows.append(decoded.profiles)
        return cls(config=payload["config"], model=payload["model"],
                   backend=payload["backend"],
                   checked=tuple(checked),
                   target_functions=tuple(targets),
                   exec_seconds=payload["exec_seconds"],
                   check_seconds=payload["check_seconds"],
                   coverage_collected=payload["coverage_collected"],
                   covered_clauses=tuple(payload["covered_clauses"]),
                   plan=payload.get("plan", ""),
                   seeds=tuple(payload.get("seeds", ())),
                   check_on=tuple(payload.get("check_on", ())),
                   profiles=tuple(profile_rows),
                   engine_stats=tuple(sorted(
                       (key, int(value)) for key, value in
                       payload.get("engine_stats", {}).items())))

    def save(self, path: str | pathlib.Path,
             indent: int | None = 2) -> None:
        """Write the artifact to disk (for CI diffing)."""
        pathlib.Path(path).write_text(self.to_json(indent=indent) + "\n")

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RunArtifact":
        return cls.from_json(pathlib.Path(path).read_text())


# -- streaming reads ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ArtifactRow:
    """One decoded ``traces`` row of an artifact JSON: the checked
    trace, its target function, and (for multi-platform runs) its
    per-platform profiles — what :func:`iter_results` yields one at a
    time."""

    target_function: str
    checked: CheckedTrace
    profiles: Tuple[ConformanceProfile, ...] = ()

    @classmethod
    def from_dict(cls, row: dict) -> "ArtifactRow":
        return cls(
            target_function=row["target_function"],
            checked=CheckedTrace(
                trace=parse_trace(row["trace"]),
                deviations=tuple(deviation_from_dict(d)
                                 for d in row["deviations"]),
                max_state_set=row["max_state_set"],
                labels_checked=row["labels_checked"],
                pruned=row["pruned"]),
            profiles=tuple(ConformanceProfile.from_dict(p)
                           for p in row.get("profiles", ())))


#: Read granularity of the streaming artifact reader.
_STREAM_CHUNK = 1 << 16


class _JsonStream:
    """Incremental JSON scanning over a file handle: a rolling text
    buffer plus ``raw_decode``, so one value is materialised at a
    time no matter how large the document is."""

    def __init__(self, handle: IO[str]) -> None:
        self._handle = handle
        self._buffer = ""
        self._decoder = json.JSONDecoder()

    def _fill(self) -> bool:
        chunk = self._handle.read(_STREAM_CHUNK)
        if not chunk:
            return False
        self._buffer += chunk
        return True

    def skip_ws(self) -> None:
        while True:
            self._buffer = self._buffer.lstrip()
            if self._buffer or not self._fill():
                return

    def peek(self) -> str:
        self.skip_ws()
        return self._buffer[:1]

    def expect(self, char: str) -> None:
        if self.peek() != char:
            found = self._buffer[:1] or "end of file"
            raise ValueError(
                f"malformed artifact JSON: expected {char!r}, "
                f"found {found!r}")
        self._buffer = self._buffer[1:]

    def value(self):
        """Decode exactly one JSON value from the stream."""
        self.skip_ws()
        while True:
            try:
                value, end = self._decoder.raw_decode(self._buffer)
            except ValueError:
                if not self._fill():
                    raise
                continue
            if end == len(self._buffer) and self._fill():
                # A number (or bare literal) that stops exactly at the
                # buffer edge may continue in the next chunk — refill
                # and decode again before trusting it.
                continue
            self._buffer = self._buffer[end:]
            return value


def _stream_artifact(path: str | pathlib.Path):
    """Parse an artifact top-level object incrementally: yields
    ``("field", key, value)`` for scalar fields and ``("row", None,
    row_dict)`` per ``traces`` element, in document order."""
    with open(path, "r") as handle:
        stream = _JsonStream(handle)
        stream.expect("{")
        if stream.peek() == "}":
            return
        while True:
            key = stream.value()
            stream.expect(":")
            if key == "traces":
                stream.expect("[")
                if stream.peek() != "]":
                    while True:
                        yield ("row", None, stream.value())
                        if stream.peek() != ",":
                            break
                        stream.expect(",")
                stream.expect("]")
            else:
                yield ("field", key, stream.value())
            if stream.peek() != ",":
                break
            stream.expect(",")
        stream.expect("}")


def read_header(path: str | pathlib.Path) -> dict:
    """The artifact's run-level fields (everything but ``traces``)
    without loading the trace rows.

    Artifacts are written with sorted keys, so ``traces`` is the last
    top-level field and this reads only the small prefix of the file.
    """
    header = {}
    for kind, key, value in _stream_artifact(path):
        if kind == "row":
            break
        header[key] = value
    version = header.get("format")
    if version not in _READABLE_VERSIONS:
        raise ValueError(f"unsupported artifact format: {version!r}")
    return header


def iter_results(path: str | pathlib.Path) -> Iterator[ArtifactRow]:
    """Stream an artifact's checked results one row at a time.

    Unlike :meth:`RunArtifact.load`, which holds the whole file *and*
    the decoded artifact simultaneously, this parses incrementally —
    peak memory is one row plus a small read buffer, whatever the
    artifact's size.  The format version is validated as soon as the
    ``format`` field is seen (before the first row for sorted-key
    writers, including :meth:`RunArtifact.save`).
    """
    for kind, key, value in _stream_artifact(path):
        if kind == "field":
            if key == "format" and value not in _READABLE_VERSIONS:
                raise ValueError(
                    f"unsupported artifact format: {value!r}")
        else:
            yield ArtifactRow.from_dict(value)
