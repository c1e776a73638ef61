"""The durable row types of the campaign store.

A campaign is made of two record kinds, both serialised as one JSON
object per segment row:

* :class:`TraceRecord` — one checked trace: script provenance (name and
  target function), the trace text itself, the per-platform
  :class:`~repro.oracle.ConformanceProfile` rows the oracle produced,
  the specification clauses the check covered, and the measured phase
  timings.  This is the unit the store deduplicates: the record's
  :attr:`~TraceRecord.key` is a content address over
  ``(partition, trace text)``, so re-running a suite — or a
  :class:`~repro.service.ServiceClient` retrying a submission — appends
  zero new rows.
* :class:`MetaRecord` — one imported :class:`repro.api.RunArtifact`'s
  run-level fields (config, model, backend, plan provenance, seeds,
  engine stats, phase totals), content-addressed over its full payload.
  Export (:func:`repro.api.campaign.export_artifact`) pairs a
  partition's trace rows with its newest meta row to rebuild the exact
  artifact.

The *partition* is the config-partition namespace of the content
address: ``"<config>:<oracle-name>"`` for pipeline runs (what
:class:`repro.api.Session` uses) and ``"serve:<model>"`` for traces
checked by the standing service.  The same trace checked under two
partitions is two rows — verdicts from different configurations or
oracle sets are different facts.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Tuple, Union

from repro.oracle import ConformanceProfile


def record_key(partition: str, trace_text: str) -> str:
    """The content address of a trace row: hex SHA-256 over the
    partition and the exact trace text (NUL-separated — neither side
    may contain ``\\0``, which the trace format never produces)."""
    digest = hashlib.sha256()
    digest.update(partition.encode())
    digest.update(b"\0")
    digest.update(trace_text.encode())
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One checked trace, as durably stored."""

    partition: str
    name: str
    target_function: str
    trace_text: str
    profiles: Tuple[ConformanceProfile, ...]
    covered: Tuple[str, ...] = ()
    exec_seconds: float = 0.0
    check_seconds: float = 0.0

    @functools.cached_property
    def key(self) -> str:
        """:func:`record_key` of this row, hashed once per record
        (``append`` reads it, then ``to_payload``)."""
        return record_key(self.partition, self.trace_text)

    @property
    def accepted_on(self) -> Tuple[str, ...]:
        return tuple(p.platform for p in self.profiles if p.accepted)

    def to_payload(self) -> dict:
        return {
            "kind": "trace",
            "key": self.key,
            "partition": self.partition,
            "name": self.name,
            "target_function": self.target_function,
            "trace": self.trace_text,
            "profiles": [p.to_dict() for p in self.profiles],
            "covered": list(self.covered),
            "exec_seconds": self.exec_seconds,
            "check_seconds": self.check_seconds,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TraceRecord":
        return cls(
            partition=payload["partition"],
            name=payload["name"],
            target_function=payload["target_function"],
            trace_text=payload["trace"],
            profiles=tuple(ConformanceProfile.from_dict(row)
                           for row in payload["profiles"]),
            covered=tuple(payload.get("covered", ())),
            exec_seconds=payload.get("exec_seconds", 0.0),
            check_seconds=payload.get("check_seconds", 0.0))


@dataclasses.dataclass(frozen=True)
class MetaRecord:
    """One imported artifact's run-level fields (everything a
    :class:`~repro.api.RunArtifact` carries besides its trace rows)."""

    partition: str
    config: str
    model: str
    backend: str
    exec_seconds: float
    check_seconds: float
    coverage_collected: bool = False
    covered_clauses: Tuple[str, ...] = ()
    plan: str = ""
    seeds: Tuple[int, ...] = ()
    check_on: Tuple[str, ...] = ()
    engine_stats: Tuple[Tuple[str, int], ...] = ()

    @property
    def key(self) -> str:
        # Content address over the whole payload: re-importing the
        # *same* artifact dedups; a re-run whose timings or stats
        # differ is a new meta row (export reads the newest; ``gc``
        # drops superseded ones).
        body = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.sha256(("meta\0" + body).encode()).hexdigest()

    def to_payload(self) -> dict:
        return {
            "kind": "meta",
            "partition": self.partition,
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
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MetaRecord":
        return cls(
            partition=payload["partition"],
            config=payload["config"],
            model=payload["model"],
            backend=payload["backend"],
            exec_seconds=payload["exec_seconds"],
            check_seconds=payload["check_seconds"],
            coverage_collected=payload["coverage_collected"],
            covered_clauses=tuple(payload["covered_clauses"]),
            plan=payload["plan"],
            seeds=tuple(payload["seeds"]),
            check_on=tuple(payload["check_on"]),
            engine_stats=tuple(sorted(
                (key, int(value)) for key, value in
                payload["engine_stats"].items())))


StoreRecord = Union[TraceRecord, MetaRecord]


def record_from_payload(payload: dict) -> StoreRecord:
    """Rebuild the typed record from a decoded segment row."""
    kind = payload.get("kind")
    if kind == "trace":
        return TraceRecord.from_payload(payload)
    if kind == "meta":
        return MetaRecord.from_payload(payload)
    raise ValueError(f"unknown store record kind: {kind!r}")


def payload_key(payload: dict) -> str:
    """The content address of a decoded row without rebuilding it."""
    if payload.get("kind") == "trace":
        return payload["key"]
    return record_from_payload(payload).key
