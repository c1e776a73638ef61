"""The long-lived checking session behind ``repro serve``.

A :class:`CheckingService` is a warm
:class:`~repro.oracle.VectoredOracle` plus a persistent
:class:`~repro.service.pool.ShardPool` with an explicit lifecycle:
``start`` / ``submit`` / ``drain`` / ``stats`` / ``shutdown``.  It is
the paper's oracle offered as a standing facility — traces arrive over
its lifetime and are checked against state that stays warm, instead of
each batch paying the fork + warmup + arena-publish cost from scratch.

Epoch policy: the first ``warmup`` traces of a *new* epoch are checked
in the parent (their verdicts resolve immediately, and the pass
populates the warm oracle's tables), then the arena is published and
everything else fans out to the pool.  Later submissions skip the
warmup entirely — a new epoch is cut only when the pool's cumulative
arena misses cross ``miss_watermark`` (the workload drifted), which is
what drives the amortized per-call overhead toward zero.

``shards=0`` selects the parent-only mode (``repro serve --backend
serial``): every trace is checked synchronously in the submitting
thread on the warm oracle — no processes, same verdicts.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
from concurrent.futures import Future, wait
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.oracle import ConformanceProfile
from repro.script.ast import Trace
from repro.script.parser import parse_trace
from repro.script.printer import print_trace
from repro.service.pool import ArenaEpochs, ShardPool
from repro.store import CampaignStore, TraceRecord


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One served verdict: the trace name and its per-platform
    profiles (exactly what travels over the wire — a
    :class:`~repro.oracle.Verdict` can be rebuilt from it with the
    parsed trace when a caller wants the rendered view)."""

    name: str
    profiles: Tuple[ConformanceProfile, ...]

    @property
    def accepted(self) -> bool:
        return self.profiles[0].accepted

    @property
    def accepted_on(self) -> Tuple[str, ...]:
        return tuple(p.platform for p in self.profiles if p.accepted)

    def to_payload(self) -> dict:
        """The wire form (lossless: ConformanceProfile round-trips)."""
        return {"name": self.name, "accepted": self.accepted,
                "accepted_on": list(self.accepted_on),
                "profiles": [p.to_dict() for p in self.profiles]}

    @classmethod
    def from_payload(cls, payload: dict) -> "CheckResult":
        return cls(name=payload["name"],
                   profiles=tuple(ConformanceProfile.from_dict(row)
                                  for row in payload["profiles"]))


class CheckingService:
    """A persistent warm oracle + shard pool with explicit lifecycle."""

    def __init__(self, model: str = "all", *,
                 shards: Optional[int] = None, warmup: int = 16,
                 miss_watermark: int = 256, window: int = 16,
                 chunk: int = 16, reclaim: bool = True,
                 store: Optional[Union[CampaignStore, str]] = None
                 ) -> None:
        self.model = model
        # Campaign store wiring (``repro serve --store DIR``): every
        # verdict the service produces is appended as it resolves,
        # under the "serve:<model>" partition — content-addressed, so
        # client retries and re-submissions add zero rows, and the
        # campaign survives server restarts.  A store given as a path
        # is owned (closed on shutdown); an instance is shared.
        if store is None or isinstance(store, CampaignStore):
            self.store = store
            self._owns_store = False
        else:
            self.store = CampaignStore(store)
            self._owns_store = True
        self.warmup = max(0, warmup)
        if shards == 0:
            self.shards = 0
            self._pool: Optional[ShardPool] = None
            pool = ShardPool(1)  # never started: stats source only
        else:
            self.shards = shards or max(
                2, multiprocessing.cpu_count())
            self._pool = pool = ShardPool(self.shards, window=window,
                                          chunk=chunk)
        self._epochs = ArenaEpochs(pool, reclaim=reclaim,
                                   miss_watermark=miss_watermark)
        self._lock = threading.Lock()
        self._outstanding: List[Future] = []
        self._submitted = 0
        self._resolved_in_parent = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Warm up eagerly (idempotent): spawn the pool and build the
        parent oracle so the first ``submit`` pays less."""
        if self._closed:
            raise RuntimeError("service is shut down")
        self._epochs.warm_oracle(self.model)
        if self._pool is not None:
            self._pool.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted trace has a verdict (or the
        timeout passes); returns True when fully drained."""
        with self._lock:
            pending = [f for f in self._outstanding if not f.done()]
            self._outstanding = pending
        if not pending:
            return True
        done, not_done = wait(pending, timeout=timeout)
        return not not_done

    def shutdown(self) -> None:
        """Drain nothing, release everything: shard processes, shared
        arenas, warm oracles.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._epochs.close()
        if self._pool is not None:
            self._pool.close()
        if self.store is not None:
            if self._owns_store:
                self.store.close()
            else:
                self.store.flush()

    def __enter__(self) -> "CheckingService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission -----------------------------------------------------------

    def check(self, trace: Union[str, Trace]) -> CheckResult:
        """Submit one trace and wait for its verdict."""
        return self.submit([trace])[0].result()

    def _store_append(self, trace: Trace,
                      profiles: Tuple[ConformanceProfile, ...],
                      text: Optional[str] = None) -> None:
        # ``text`` is the trace printed, when the caller already has it.
        if self.store is not None:
            self.store.append(TraceRecord(
                partition=f"serve:{self.model}", name=trace.name,
                target_function="",
                trace_text=print_trace(trace) if text is None else text,
                profiles=tuple(profiles)))

    def submit(self, traces: Sequence[Union[str, Trace]]
               ) -> List[Future]:
        """Submit traces (parsed or text); one future per trace, each
        resolving to a :class:`CheckResult`, in input order."""
        if self._closed:
            raise RuntimeError("service is shut down")
        parsed: List[Trace] = [
            parse_trace(t) if isinstance(t, str) else t
            for t in traces]
        futures: List[Future] = [Future() for _ in parsed]
        if not parsed:
            return futures
        with self._lock:
            index = 0
            if self._pool is None:
                # Parent-only mode: check synchronously, warm oracle.
                oracle = self._epochs.warm_oracle(self.model)
                for future, trace in zip(futures, parsed):
                    verdict = oracle.check(trace)
                    self._store_append(trace, verdict.profiles)
                    future.set_result(CheckResult(trace.name,
                                                  verdict.profiles))
                self._resolved_in_parent += len(parsed)
            else:
                if self._epochs.needs_publish(self.model):
                    oracle = self._epochs.warm_oracle(self.model)
                    for trace in parsed[:self.warmup]:
                        verdict = oracle.check(trace)
                        self._store_append(trace, verdict.profiles)
                        futures[index].set_result(
                            CheckResult(trace.name, verdict.profiles))
                        index += 1
                    self._resolved_in_parent += index
                    self._epochs.publish(self.model)
                if index < len(parsed):
                    items = [(trace.name, print_trace(trace))
                             for trace in parsed[index:]]
                    inner = self._pool.submit(
                        items, model=self.model, partition=self.model,
                        start_index=index)
                    for offset, raw in enumerate(inner):
                        raw.add_done_callback(self._propagate(
                            futures[index + offset],
                            parsed[index + offset], items[offset][1]))
            self._submitted += len(parsed)
            self._outstanding = [f for f in self._outstanding
                                 if not f.done()]
            self._outstanding.extend(f for f in futures
                                     if not f.done())
        return futures

    def _propagate(self, outer: Future, trace: Trace, text: str):
        # Bound (not static) so pool-path verdicts reach the campaign
        # store too, under the text the shard checked; the callback runs
        # on the pool's result thread and the store append is behind the
        # store's own lock.
        def done(inner: Future) -> None:
            error = inner.exception()
            if error is not None:
                outer.set_exception(error)
                return
            profiles, _covered, _seconds = inner.result()
            self._store_append(trace, profiles, text)
            outer.set_result(CheckResult(trace.name, profiles))
        return done

    # -- stats ----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cumulative service counters: pool worker totals plus the
        epoch/warmup amortization story."""
        totals: Dict[str, int] = (
            self._pool.run_stats() if self._pool is not None
            else {"shards": 0})
        arena = self._epochs.arena
        totals["epochs_published"] = self._epochs.epochs_published
        totals["arena_states"] = arena.n_states if arena else 0
        totals["arena_rows"] = arena.rows if arena else 0
        totals["traces_submitted"] = self._submitted
        totals["resolved_in_parent"] = self._resolved_in_parent
        if self.store is not None:
            store_stats = self.store.stats()
            totals["store_rows"] = store_stats["rows"]
            totals["store_dedup_hits"] = store_stats["dedup_hits"]
        return totals
