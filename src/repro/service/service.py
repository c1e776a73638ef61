"""The long-lived checking session behind ``repro serve``.

A :class:`CheckingService` is a persistent
:class:`~repro.service.pool.ShardPool` with an explicit lifecycle:
``start`` / ``submit`` / ``drain`` / ``stats`` / ``shutdown``.  It is
the paper's oracle offered as a standing facility — traces arrive over
its lifetime and are checked by shards whose oracles stay warm, instead
of each batch paying the spawn and the cold caches from scratch.  Every
submitted trace goes to the pool, which answers an exact repeat from its
verdict memo here, in the server process, and sends the rest to the
shards; a trace whose check raises, or whose shard dies, fails only its
own future.

A trace given as text goes to its shard as sent (the service reads only
its name, :func:`~repro.script.parser.trace_name`), so a malformed one
fails its own future with ``ParseError``; the memo key and the store row
are that text.  A parsed trace is printed once.

``shards=0`` selects the parent-only mode (``repro serve --backend
serial``): every trace is checked synchronously in the submitting
thread on one warm oracle — no processes, same verdicts.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, wait
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.oracle import ConformanceProfile, Oracle, create_oracle
from repro.script.ast import Trace
from repro.script.parser import parse_trace, trace_name
from repro.script.printer import print_trace
from repro.service.pool import ShardPool
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
    """A persistent shard pool (or one warm parent oracle, with
    ``shards=0``) with explicit lifecycle."""

    def __init__(self, model: str = "all", *,
                 shards: Optional[int] = None,
                 store: Optional[Union[CampaignStore, str]] = None
                 ) -> None:
        self.model = model
        #: The parent-only mode's one warm oracle.
        self._oracle: Optional[Oracle] = None
        self._pool: Optional[ShardPool] = None
        if shards == 0:
            self.shards = 0
            self._oracle = create_oracle(model, cache=True)
        else:
            self._pool = ShardPool(shards)
            self.shards = self._pool.shards
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
        self._lock = threading.Lock()
        self._outstanding: List[Future] = []
        self._submitted = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn the pool eagerly (idempotent), so the first ``submit``
        pays less."""
        if self._closed:
            raise RuntimeError("service is shut down")
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
        """Drain nothing, release everything: shard processes, the
        store.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
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

    def _store_append(self, name: str, trace: Union[str, Trace],
                      profiles: Tuple[ConformanceProfile, ...]) -> None:
        # The row keeps the text as sent; a parsed trace is printed
        # only when there is a store to hold it.
        if self.store is not None:
            self.store.append(TraceRecord(
                partition=f"serve:{self.model}", name=name,
                target_function="",
                trace_text=(trace if isinstance(trace, str)
                            else print_trace(trace)),
                profiles=tuple(profiles)))

    def submit(self, traces: Sequence[Union[str, Trace]]
               ) -> List[Future]:
        """Submit traces (parsed or text); one future per trace, each
        resolving to a :class:`CheckResult`, in input order.  A trace
        that fails to parse, or whose check raises, fails its own
        future."""
        if self._closed:
            raise RuntimeError("service is shut down")
        traces = list(traces)
        futures: List[Future] = [Future() for _ in traces]
        if not futures:
            return futures
        with self._lock:
            if self._oracle is not None:
                # Parent-only mode: check synchronously, warm oracle.
                for future, trace in zip(futures, traces):
                    try:
                        parsed = (parse_trace(trace)
                                  if isinstance(trace, str) else trace)
                        profiles = self._oracle.check(parsed).profiles
                    except Exception as exc:
                        future.set_exception(exc)
                        continue
                    self._store_append(parsed.name, trace, profiles)
                    future.set_result(CheckResult(parsed.name, profiles))
            else:
                items = [(trace_name(trace), trace)
                         if isinstance(trace, str)
                         else (trace.name, print_trace(trace))
                         for trace in traces]
                inner = self._pool.submit(items, model=self.model,
                                          partition=self.model)
                for future, raw, (name, text) in zip(futures, inner,
                                                     items):
                    raw.add_done_callback(
                        self._propagate(future, name, text))
            self._submitted += len(futures)
            self._outstanding = [f for f in self._outstanding
                                 if not f.done()]
            self._outstanding.extend(f for f in futures
                                     if not f.done())
        return futures

    def _propagate(self, outer: Future, name: str, text: str):
        # Bound (not static) so pool-path verdicts reach the campaign
        # store too, under the text the shard checked; the callback runs
        # on the pool's result thread (or in ``submit`` for a memo hit)
        # and the store append is behind the store's own lock.
        def done(inner: Future) -> None:
            error = inner.exception()
            if error is not None:
                outer.set_exception(error)
                return
            profiles, _covered, _seconds = inner.result()
            self._store_append(name, text, profiles)
            outer.set_result(CheckResult(name, profiles))
        return done

    # -- stats ----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cumulative service counters: the pool's (shards, verdict-memo
        hits, cold starts, calls) plus the traces submitted."""
        totals: Dict[str, int] = (
            self._pool.run_stats() if self._pool is not None
            else {"shards": 0})
        totals["traces_submitted"] = self._submitted
        if self.store is not None:
            store_stats = self.store.stats()
            totals["store_rows"] = store_stats["rows"]
            totals["store_dedup_hits"] = store_stats["dedup_hits"]
        return totals
