"""Pluggable execution/checking backends: the pipeline engine.

The paper's pipeline (Fig. 1) has two embarrassingly parallel phases —
executing a script suite and checking the observed traces — and reports
running the checking phase over 4 worker processes (section 7.1).  This
module factors both phases behind a small :class:`Backend` protocol so
that every consumer (the :class:`repro.api.Session` facade, the
deprecated free functions, the CLI) shares one engine:

* :class:`SerialBackend` runs in-process and caches one
  :class:`repro.oracle.Oracle` per model/oracle name;
* :class:`ProcessPoolBackend` keeps a *persistent* worker pool across
  calls that both executes and checks; each worker caches its oracle
  per name, and results are returned in full and keyed by index
  (duplicate trace names cannot collide).  Workers exchange trace
  *text*, mirroring the paper's process-per-trace architecture.
* :class:`ShardedBackend` executes every script in the parent and
  partitions the *checking* across *persistent* shard processes (a
  :class:`~repro.service.pool.ShardPool` that outlives the call), which
  share **one** read-mostly transition memo: a parent-side warmup pass
  packs the interned engine's tables into a shared-memory
  :class:`~repro.engine.shard.MemoArena` that every worker re-attaches
  per published epoch, falling back to local memoization on miss
  (hit/miss and amortization counters surface in RunArtifact v5
  ``engine_stats``).

Checking is oracle-driven: the ``model`` parameter is an oracle name
resolved through :mod:`repro.oracle` — a plain platform (``"linux"``)
behaves exactly as before, while ``"all"`` / ``"vectored:A+B"`` runs
the one-pass multi-platform oracle and every outcome carries the full
per-platform :class:`~repro.oracle.ConformanceProfile` tuple.  Cached
oracle instances keep their prefix-memoization caches — and with them
the :mod:`repro.engine` intern tables and transition memos — warm
across calls (and across a worker's whole life under the pool), so a
transition derived for one trace is free for every later trace the
same worker checks.

Backends yield results as they complete, which is what makes
``Session.iter_checked()`` a true streaming iterator.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import multiprocessing
import threading
import time
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator,
                    List, Optional, Sequence, Tuple, Union)

try:  # Protocol is 3.8+; keep a soft fallback for exotic interpreters.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.checker.checker import CheckedTrace
from repro.core.coverage import REGISTRY
# ``execute_script`` is unused here but stays importable as
# ``backends.execute_script``: perfbench/spans.py wraps that name.
from repro.executor.executor import (  # noqa: F401
    ScriptExecutor, execute_script)
from repro.fsimpl.quirks import Quirks
from repro.oracle import ConformanceProfile, Oracle, get_oracle
from repro.script.ast import Script, Trace
from repro.service.pool import ArenaEpochs, ShardPool
from repro.script.parser import parse_trace
from repro.script.printer import print_trace
from repro.store import CampaignStore, TraceRecord

#: Progress callback: ``(completed, total, last_checked_trace)``.
ProgressFn = Callable[[int, int, CheckedTrace], None]


@dataclasses.dataclass(frozen=True)
class CheckOutcome:
    """One checked trace, plus the specification clauses it covered.

    ``covered`` is empty unless coverage collection was requested; with
    a process backend it is how per-worker coverage hits travel back to
    the parent process.  ``profiles`` carries the oracle's full
    per-platform verdict — one entry for a plain model oracle, one per
    platform for a vectored run; ``checked`` is always the primary
    (first) profile's legacy view.
    """

    checked: CheckedTrace
    covered: FrozenSet[str] = frozenset()
    profiles: Tuple[ConformanceProfile, ...] = ()


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One script through the whole pipeline: executed and checked.

    This is what the streaming path yields: the script's target
    function travels with the outcome (a streamed suite is never held,
    so the consumer cannot look it up later), and the per-phase seconds
    are as measured where the work ran (summed worker time under a
    process pool).
    """

    target_function: str
    outcome: CheckOutcome
    exec_seconds: float = 0.0
    check_seconds: float = 0.0


@runtime_checkable
class Backend(Protocol):
    """Where the pipeline's two parallel phases actually run."""

    #: Short descriptor recorded in artifacts (e.g. ``"serial"``).
    name: str

    def execute_iter(self, quirks: Quirks,
                     scripts: Iterable[Script]) -> Iterator[Trace]:
        """Execute scripts on fresh instances of a configuration,
        yielding traces in script order as they complete."""
        ...

    def check_iter(self, model: str, traces: Sequence[Trace], *,
                   collect_coverage: bool = False
                   ) -> Iterator[CheckOutcome]:
        """Check traces against a model variant, yielding outcomes in
        trace order as they complete."""
        ...

    def run_iter(self, quirks: Quirks, model: str,
                 scripts: Iterable[Script], *,
                 collect_coverage: bool = False
                 ) -> Iterator[RunRecord]:
        """Execute *and* check a stream of scripts, yielding a
        :class:`RunRecord` per script in input order.

        ``scripts`` may be a lazy generator (a
        :meth:`repro.gen.TestPlan.scripts` stream); the backend pulls
        from it incrementally, so checking begins while generation is
        still producing and the suite is never materialised.

        Optional for backward compatibility: a backend implementing
        only the two-phase surface still works —
        :class:`repro.api.Session` falls back to
        :func:`fallback_run_iter`, which composes this from
        ``execute_iter``/``check_iter``.
        """
        ...

    def close(self) -> None:
        """Release any held resources (worker pools)."""
        ...


class _BackendBase:
    """Context-manager plumbing shared by the concrete backends."""

    def close(self) -> None:  # pragma: no cover - overridden
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(_BackendBase):
    """In-process backend with a per-name :class:`~repro.oracle.Oracle`
    cache.

    The cache is what a long-lived :class:`repro.api.Session` (or a
    survey over many configurations sharing one backend) saves compared
    to the old free functions, which rebuilt the checker per call — the
    oracle instance carries its prefix-memoization cache across every
    trace the backend ever checks against that name.  Execution goes
    through one :class:`~repro.executor.ScriptExecutor`, so each script
    resumes from its predecessor's state at their shared prefix.
    """

    name = "serial"

    def __init__(self) -> None:
        self._executor = ScriptExecutor()

    def _oracle(self, model: str,
                collect_coverage: bool = False) -> Oracle:
        # get_oracle memoizes per (name, cache) process-wide, so the
        # prefix cache stays warm across calls and sessions without a
        # second memo layer (which would serve stale instances after
        # register_oracle(replace=True)).  Coverage collection gets an
        # uncached oracle: prefix hits would skip clause evaluations.
        return get_oracle(model, cache=not collect_coverage)

    def run_stats(self) -> Dict[str, int]:
        """Serial runs keep no engine counters: an empty map, so their
        artifacts record an empty ``engine_stats``."""
        return {}

    def execute_iter(self, quirks: Quirks,
                     scripts: Iterable[Script]) -> Iterator[Trace]:
        for script in scripts:
            yield self._executor.execute(quirks, script)

    def check_iter(self, model: str, traces: Sequence[Trace], *,
                   collect_coverage: bool = False
                   ) -> Iterator[CheckOutcome]:
        oracle = self._oracle(model, collect_coverage)
        for trace in traces:
            if collect_coverage:
                REGISTRY.reset_hits()
            verdict = oracle.check(trace)
            covered = (REGISTRY.hit_names() if collect_coverage
                       else frozenset())
            yield CheckOutcome(verdict.primary_checked, covered,
                               verdict.profiles)

    def run_iter(self, quirks: Quirks, model: str,
                 scripts: Iterable[Script], *,
                 collect_coverage: bool = False
                 ) -> Iterator[RunRecord]:
        oracle = self._oracle(model, collect_coverage)
        for script in scripts:
            t0 = time.perf_counter()
            trace = self._executor.execute(quirks, script)
            t1 = time.perf_counter()
            if collect_coverage:
                REGISTRY.reset_hits()
            verdict = oracle.check(trace)
            t2 = time.perf_counter()
            covered = (REGISTRY.hit_names() if collect_coverage
                       else frozenset())
            yield RunRecord(target_function=script.target_function,
                            outcome=CheckOutcome(verdict.primary_checked,
                                                 covered,
                                                 verdict.profiles),
                            exec_seconds=t1 - t0,
                            check_seconds=t2 - t1)


# -- process-pool worker side -------------------------------------------------

def _worker_oracle(model: str, collect_coverage: bool) -> Oracle:
    """The worker-process oracle for a name.

    :func:`repro.oracle.get_oracle` memoizes per process, so each
    worker keeps one oracle per name for its whole life — and with it
    a warm prefix cache, intern table and transition memo
    (:mod:`repro.engine`), the per-worker reuse that replaces
    per-trace checker construction and transition re-derivation.
    Coverage runs resolve with ``cache=False``, which also rebuilds
    the engine tables per trace so memo hits cannot swallow
    specification-clause ``cover()`` calls.
    """
    return get_oracle(model, cache=not collect_coverage)


@functools.lru_cache(maxsize=1)
def _worker_executor() -> ScriptExecutor:
    """The worker-process executor, created on first use and kept for
    the worker's life (as :func:`_worker_oracle` keeps oracles), so the
    scripts of consecutive chunks resume from each other's prefixes."""
    return ScriptExecutor()


def _check_worker(args: Tuple[int, str, str, bool]
                  ) -> Tuple[int, tuple, tuple]:
    """Check one trace; return *full* results keyed by index.

    Returning the complete per-platform profile tuple (frozen
    dataclasses, one per platform of the oracle) and the payload index
    — rather than the trace name — means duplicate script names cannot
    collide and nothing is reconstructed lossily in the parent.
    """
    index, model, trace_text, collect_coverage = args
    oracle = _worker_oracle(model, collect_coverage)
    trace = parse_trace(trace_text)
    if collect_coverage:
        REGISTRY.reset_hits()
    verdict = oracle.check(trace)
    covered = (tuple(sorted(REGISTRY.hit_names()))
               if collect_coverage else ())
    return (index, verdict.profiles, covered)


def _execute_worker(args: Tuple[int, Quirks, Script]) -> Tuple[int, str]:
    """Execute one script; return the observed trace as text."""
    index, quirks, script = args
    return index, print_trace(_worker_executor().execute(quirks, script))


def _run_worker(args: Tuple[int, Quirks, Script, str, bool]) -> tuple:
    """Execute *and* check one script in the worker (streaming path).

    Both phases run on the worker so a generated script makes a single
    trip through the pool; the parent gets the trace back as text (the
    exact round-tripping format) plus the full per-platform profiles,
    keyed by index as in :func:`_check_worker`.
    """
    index, quirks, script, model, collect_coverage = args
    t0 = time.perf_counter()
    trace = _worker_executor().execute(quirks, script)
    t1 = time.perf_counter()
    oracle = _worker_oracle(model, collect_coverage)
    if collect_coverage:
        REGISTRY.reset_hits()
    verdict = oracle.check(trace)
    t2 = time.perf_counter()
    covered = (tuple(sorted(REGISTRY.hit_names()))
               if collect_coverage else ())
    return (index, script.target_function, print_trace(trace),
            verdict.profiles, covered, t1 - t0, t2 - t1)


class ProcessPoolBackend(_BackendBase):
    """Backend fanning both phases out over a persistent worker pool.

    Unlike the old ``check_traces(processes=N)``, the pool survives
    across calls (a Session checking several models, or a survey over
    many configurations, pays the fork cost once), and ``chunksize`` is
    configurable with a default derived from the input size.
    """

    def __init__(self, processes: Optional[int] = None,
                 chunksize: Optional[int] = None) -> None:
        self.processes = processes or multiprocessing.cpu_count()
        self.chunksize = chunksize
        self._pool: Optional[multiprocessing.pool.Pool] = None

    @property
    def name(self) -> str:
        return f"process[{self.processes}]"

    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            self._pool = multiprocessing.Pool(self.processes)
        return self._pool

    def pick_chunksize(self, n_items: int) -> int:
        """The chunksize used for ``n_items``: the configured value, or
        a heuristic giving each worker ~4 chunks (bounded to [1, 32])."""
        if self.chunksize is not None:
            return max(1, self.chunksize)
        return max(1, min(32, n_items // (self.processes * 4)))

    def execute_iter(self, quirks: Quirks,
                     scripts: Iterable[Script]) -> Iterator[Trace]:
        scripts = list(scripts)
        if not scripts:
            return
        pool = self._ensure_pool()
        payload = ((i, quirks, script)
                   for i, script in enumerate(scripts))
        for index, trace_text in pool.imap(
                _execute_worker, payload,
                chunksize=self.pick_chunksize(len(scripts))):
            assert index is not None
            yield parse_trace(trace_text)

    def check_iter(self, model: str, traces: Sequence[Trace], *,
                   collect_coverage: bool = False
                   ) -> Iterator[CheckOutcome]:
        """Check traces on the pool, yielding outcomes in order.

        Caveat for streaming consumers: tasks are fed to the pool ahead
        of consumption, so abandoning the iterator early does not
        cancel work already queued — remaining traces finish in the
        background (the pool stays usable; later calls queue after
        them).  ``close()`` terminates outstanding work.
        """
        traces = list(traces)
        if not traces:
            return
        pool = self._ensure_pool()
        payload = ((i, model, print_trace(trace), collect_coverage)
                   for i, trace in enumerate(traces))
        for index, profiles, covered in pool.imap(
                _check_worker, payload,
                chunksize=self.pick_chunksize(len(traces))):
            yield CheckOutcome(
                profiles[0].as_checked(traces[index]),
                frozenset(covered), profiles)

    def stream_chunksize(self) -> int:
        """The chunksize for a stream of unknown length: the configured
        value, or a small default that keeps first results early."""
        if self.chunksize is not None:
            return max(1, self.chunksize)
        return 8

    def run_iter(self, quirks: Quirks, model: str,
                 scripts: Iterable[Script], *,
                 collect_coverage: bool = False
                 ) -> Iterator[RunRecord]:
        """Stream scripts through execute+check on the pool.

        The feeder holds a bounded window of in-flight scripts (a
        semaphore released as results are consumed), so a lazy
        generator — a :class:`repro.gen.TestPlan` stream — is pulled
        only slightly ahead of checking and the suite is never
        materialised, while the pool starts checking the first chunk
        while generation is still producing the rest.
        """
        pool = self._ensure_pool()
        chunk = self.stream_chunksize()
        window = max(chunk * self.processes * 4, chunk)
        in_flight = threading.Semaphore(window)
        stop = threading.Event()

        def payload() -> Iterator[tuple]:
            # Runs on the pool's task-feeder thread: block (with a
            # stop-aware timeout, so close()/abandonment cannot wedge
            # the feeder) until the consumer drains a result.
            for index, script in enumerate(scripts):
                while not in_flight.acquire(timeout=0.1):
                    if stop.is_set():
                        return
                yield (index, quirks, script, model, collect_coverage)

        try:
            for (index, target, trace_text, profiles, covered, exec_s,
                 check_s) in pool.imap(
                    _run_worker, payload(), chunksize=chunk):
                in_flight.release()
                yield RunRecord(
                    target_function=target,
                    outcome=CheckOutcome(
                        profiles[0].as_checked(parse_trace(trace_text)),
                        frozenset(covered), profiles),
                    exec_seconds=exec_s, check_seconds=check_s)
        finally:
            stop.set()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


# -- sharded backend ----------------------------------------------------------

class ShardedBackend(_BackendBase):
    """Sharded checking over a shared read-mostly transition memo.

    A drop-in for :class:`ProcessPoolBackend` built on the persistent
    :class:`~repro.service.pool.ShardPool`, with four differences in
    how the work runs:

    * **Execute in the parent, check on the shards.**  As in the paper
      (§7.1), only checking runs on worker processes.  ``run_iter``
      executes on the pool's feeder thread with a per-call
      :class:`~repro.executor.ScriptExecutor` (an abandoned call's
      feeder may still be running), keeps each :class:`Trace` and ships
      its text once; a shard parses and checks it.  A script that
      raises fails its call, not the pool.  That one thread bounds the
      call's throughput: cheap on prefix-sharing streams, it becomes
      the limit at a few shards when scripts share little.
    * **Persistent workers.**  Shard processes are spawned on the first
      call and *reused* across calls — the re-fork cost that used to be
      paid per ``check_iter``/``run_iter`` call is paid once per
      backend (``pool_cold_starts`` in :meth:`run_stats` counts it).
    * **Warmup + arena epochs.**  When an epoch must be (re)published,
      the first ``warmup`` items of the call are checked in the parent
      on a persistent warm oracle; the engine tables that pass
      populates are packed into a
      :class:`~repro.engine.shard.MemoArena` (shared memory where
      available) which every worker re-attaches by handle — one memo
      for the whole pool, no re-fork.  Workers fall back to local
      memoization on any arena miss, with identical results (parity is
      test-enforced).  Republishing is driven by an **arena-miss
      watermark** (:class:`~repro.service.pool.ArenaEpochs`): a later
      call skips warmup and publication entirely until the pool has
      drifted ``miss_watermark`` misses away from the published rows —
      this is what makes repeat-call sharding beat serial.
    * **Partitioned feeding.**  Items are routed to shards by a stable
      hash of the configuration-partition key and the item name, so
      repeats of a trace (and families sharing its name) always land on
      the shard whose prefix cache — and bounded verdict memo — already
      knows them.

    Hit/miss and amortization counters come back in :meth:`run_stats`
    (surfaced as RunArtifact v5 ``engine_stats``).
    """

    def __init__(self, shards: Optional[int] = None, *,
                 warmup: int = 16, window: int = 16, chunk: int = 16,
                 reclaim: bool = True, miss_watermark: int = 512,
                 store: Optional[Union[CampaignStore, str]] = None
                 ) -> None:
        self.shards = shards or max(2, multiprocessing.cpu_count())
        # Campaign store wiring: every verdict this backend produces is
        # appended as it arrives (content-addressed, so repeats and
        # retries dedup).  ``run_iter`` rows share the Session
        # partition convention ("<config>:<oracle>"); ``check_iter``
        # has no configuration in scope and uses "check:<oracle>".
        if store is None or isinstance(store, CampaignStore):
            self.store = store
            self._owns_store = False
        else:
            self.store = CampaignStore(store)
            self._owns_store = True
        self.warmup = max(0, warmup)
        self.reclaim = reclaim
        self.epoch = 0
        self._pool = ShardPool(self.shards, window=window, chunk=chunk)
        self._epochs = ArenaEpochs(self._pool, reclaim=reclaim,
                                   miss_watermark=miss_watermark)
        self._last_stats: Dict[str, int] = {}
        # Parent-side bounded verdict memo, keyed by exact trace text.
        # The oracle is deterministic, so a memoized profile tuple is
        # bit-for-bit what a re-check would produce — an exact repeat
        # costs a dict lookup instead of an IPC round trip, which is
        # what drives the amortized per-call overhead to ~zero on
        # repeat-heavy campaigns (CI re-runs, watch loops).
        self._verdicts: Dict[Tuple[str, str], tuple] = {}

    @property
    def name(self) -> str:
        return f"sharded[{self.shards}]"

    @property
    def window(self) -> int:
        """Bounded per-shard queue depth, in *batches* — the
        backpressure window a lazy plan stream is pulled ahead by."""
        return self._pool.window

    @window.setter
    def window(self, value: int) -> None:
        self._pool.window = max(1, value)

    @property
    def chunk(self) -> int:
        """Items per queue message: repeat-heavy checking is fast
        enough that per-item IPC would dominate, so items travel (and
        results return) in chunks."""
        return self._pool.chunk

    @chunk.setter
    def chunk(self, value: int) -> None:
        self._pool.chunk = max(1, value)

    def run_stats(self) -> Dict[str, int]:
        """Counters from the most recent pass (RunArtifact v5
        ``engine_stats``): shard/warmup/arena sizes, the per-call
        arena hit/miss and verdict-memo deltas, and the cumulative
        amortization counters (``epochs_published``,
        ``pool_cold_starts``, ``epochs_adopted``)."""
        return dict(self._last_stats)

    def _begin_epoch(self) -> Dict[str, int]:
        # The epoch counter itself stays off the stats: it would make
        # otherwise-identical runs on a reused backend produce
        # different artifacts (they are CI-diffed byte for byte).
        self.epoch += 1
        return {"shards": self.shards, "warmup_traces": 0,
                "arena_states": 0, "arena_rows": 0,
                "arena_hits": 0, "arena_misses": 0,
                "verdict_hits": 0, "epochs_adopted": 0}

    def _note_arena(self, stats: Dict[str, int]) -> None:
        arena = self._epochs.arena
        if arena is not None:
            stats["arena_states"] = arena.n_states
            stats["arena_rows"] = arena.rows

    def _finish_call(self, stats: Dict[str, int], call) -> None:
        if call is not None:
            for key in ("arena_hits", "arena_misses", "verdict_hits",
                        "epochs_adopted"):
                stats[key] = stats.get(key, 0) + call.stats.get(key, 0)
        stats["epochs_published"] = self._epochs.epochs_published
        stats["pool_cold_starts"] = self._pool.cold_starts
        self._last_stats = stats

    # -- the Backend protocol -------------------------------------------------

    def execute_iter(self, quirks: Quirks,
                     scripts: Iterable[Script]) -> Iterator[Trace]:
        executor = ScriptExecutor()
        for script in scripts:
            yield executor.execute(quirks, script)

    def _store_append(self, partition: str, name: str,
                      trace_text: str, profiles: tuple,
                      covered: tuple = (), target: str = "",
                      exec_seconds: float = 0.0,
                      check_seconds: float = 0.0) -> None:
        if self.store is None or not profiles:
            return
        self.store.append(TraceRecord(
            partition=partition, name=name, target_function=target,
            trace_text=trace_text, profiles=tuple(profiles),
            covered=tuple(sorted(covered)),
            exec_seconds=exec_seconds, check_seconds=check_seconds))

    def _memoize(self, model: str, trace_text: str,
                 profiles: tuple) -> None:
        from repro.service.pool import VERDICT_MEMO_MAX
        if len(self._verdicts) >= VERDICT_MEMO_MAX:
            self._verdicts.pop(next(iter(self._verdicts)))
        self._verdicts[(model, trace_text)] = profiles

    def check_iter(self, model: str, traces: Sequence[Trace], *,
                   collect_coverage: bool = False
                   ) -> Iterator[CheckOutcome]:
        traces = list(traces)
        stats = self._begin_epoch()
        index = 0
        if not collect_coverage:
            if self._epochs.needs_publish(model):
                oracle = self._epochs.warm_oracle(model)
                for trace in traces[:self.warmup]:
                    verdict = oracle.check(trace)
                    text = print_trace(trace)
                    self._memoize(model, text, verdict.profiles)
                    self._store_append(f"check:{model}", trace.name,
                                       text, verdict.profiles)
                    yield CheckOutcome(verdict.primary_checked,
                                       frozenset(), verdict.profiles)
                    index += 1
                stats["warmup_traces"] = index
                self._epochs.publish(model)
            self._note_arena(stats)
        if collect_coverage:
            # Coverage never touches the memo: a served verdict would
            # skip the specification clauses' cover() calls.
            texts = {i: print_trace(traces[i])
                     for i in range(index, len(traces))}
            hits: Dict[int, tuple] = {}
        else:
            texts = {i: print_trace(traces[i])
                     for i in range(index, len(traces))}
            hits = {i: self._verdicts[(model, texts[i])]
                    for i in texts
                    if (model, texts[i]) in self._verdicts}
            stats["verdict_hits"] += len(hits)
        misses = [i for i in sorted(texts) if i not in hits]
        call = None
        pool_iter = None
        try:
            if misses:
                items = [(traces[i].name, texts[i]) for i in misses]
                call = self._pool.submit_stream(
                    items, model=model,
                    collect_coverage=collect_coverage, partition=model)
                pool_iter = call.results()
            for i in range(index, len(traces)):
                memoized = hits.get(i)
                if memoized is not None:
                    profiles, covered = memoized, ()
                else:
                    assert pool_iter is not None
                    _got, (profiles, covered, _seconds) = next(pool_iter)
                    if not collect_coverage:
                        self._memoize(model, texts[i], profiles)
                self._store_append(f"check:{model}", traces[i].name,
                                   texts[i], profiles, covered)
                yield CheckOutcome(profiles[0].as_checked(traces[i]),
                                   frozenset(covered), profiles)
            if pool_iter is not None:
                # Drain to the call barrier: the per-call counter
                # deltas in ``call.stats`` only land once every shard
                # has answered ``done``, which the last *result* does
                # not wait for.
                next(pool_iter, None)
        finally:
            if pool_iter is not None:
                pool_iter.close()
        self._finish_call(stats, call)

    def run_iter(self, quirks: Quirks, model: str,
                 scripts: Iterable[Script], *,
                 collect_coverage: bool = False
                 ) -> Iterator[RunRecord]:
        stream = iter(scripts)
        executor = ScriptExecutor()
        # Store rows and shard routing share the Session partition.
        partition = f"{quirks.name}:{model}"
        stats = self._begin_epoch()
        index = 0
        if not collect_coverage and self._epochs.needs_publish(model):
            oracle = self._epochs.warm_oracle(model)
            for script in itertools.islice(stream, self.warmup):
                t0 = time.perf_counter()
                trace = executor.execute(quirks, script)
                t1 = time.perf_counter()
                verdict = oracle.check(trace)
                t2 = time.perf_counter()
                self._store_append(partition, trace.name,
                                   print_trace(trace), verdict.profiles,
                                   target=script.target_function,
                                   exec_seconds=t1 - t0,
                                   check_seconds=t2 - t1)
                yield RunRecord(
                    target_function=script.target_function,
                    outcome=CheckOutcome(verdict.primary_checked,
                                         frozenset(), verdict.profiles),
                    exec_seconds=t1 - t0, check_seconds=t2 - t1)
                index += 1
            stats["warmup_traces"] = index
            self._epochs.publish(model)
        if not collect_coverage:
            self._note_arena(stats)
        call = None
        first = next(stream, None)
        if first is not None:
            # Filled on the pool's feeder thread, emptied here: an
            # index's result can only arrive after its item was yielded.
            held: Dict[int, Tuple[str, Trace, str, float]] = {}

            def items() -> Iterator[Tuple[str, str]]:
                for i, script in enumerate(
                        itertools.chain([first], stream), index):
                    t0 = time.perf_counter()
                    trace = executor.execute(quirks, script)
                    text = print_trace(trace)
                    held[i] = (script.target_function, trace, text,
                               time.perf_counter() - t0)
                    yield (script.name, text)

            call = self._pool.submit_stream(
                items(), model=model, collect_coverage=collect_coverage,
                partition=partition, start_index=index)
            for i, (profiles, covered, check_s) in call.results():
                target, trace, trace_text, exec_s = held.pop(i)
                self._store_append(partition, trace.name,
                                   trace_text, profiles, covered,
                                   target=target,
                                   exec_seconds=exec_s,
                                   check_seconds=check_s)
                yield RunRecord(
                    target_function=target,
                    outcome=CheckOutcome(
                        profiles[0].as_checked(trace),
                        frozenset(covered), profiles),
                    exec_seconds=exec_s, check_seconds=check_s)
        self._finish_call(stats, call)

    def close(self) -> None:
        self._epochs.close()
        self._pool.close()
        if self.store is not None:
            if self._owns_store:
                self.store.close()
            else:
                self.store.flush()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


def fallback_run_iter(backend: Backend, quirks: Quirks, model: str,
                      scripts: Iterable[Script], *,
                      collect_coverage: bool = False
                      ) -> Iterator[RunRecord]:
    """``run_iter`` composed from the two-phase protocol, for custom
    backends written against the pre-0.3 :class:`Backend` surface
    (``execute_iter``/``check_iter`` only).  Feeds one script at a time
    so a lazy plan stream stays lazy."""
    for script in scripts:
        t0 = time.perf_counter()
        for trace in backend.execute_iter(quirks, (script,)):
            t1 = time.perf_counter()
            for outcome in backend.check_iter(
                    model, (trace,),
                    collect_coverage=collect_coverage):
                yield RunRecord(
                    target_function=script.target_function,
                    outcome=outcome,
                    exec_seconds=t1 - t0,
                    check_seconds=time.perf_counter() - t1)


def make_backend(processes: int = 1,
                 chunksize: Optional[int] = None,
                 backend: Optional[str] = None,
                 shards: Optional[int] = None) -> Backend:
    """The conventional backend for the CLI flags.

    ``backend`` picks a family by name (``serial`` / ``process`` /
    ``sharded``); when omitted, ``shards`` selects the sharded backend
    and otherwise ``processes > 1`` selects the process pool, exactly
    as before.
    """
    if backend == "sharded" or (backend is None and shards):
        sharded = ShardedBackend(
            shards or (processes if processes and processes > 1
                       else None))
        if chunksize:
            sharded.chunk = max(1, chunksize)
        return sharded
    if backend == "serial":
        return SerialBackend()
    if backend == "process" or (processes and processes > 1):
        return ProcessPoolBackend(
            processes if processes and processes > 1 else None,
            chunksize=chunksize)
    return SerialBackend()


@contextlib.contextmanager
def owned_backend(backend: Optional[Backend], processes: int = 1,
                  chunksize: Optional[int] = None):
    """Yield ``backend``, or a default one owned by this scope.

    The shared create-if-absent/close-only-if-created pattern: an
    explicitly supplied backend is the caller's to manage (and
    ``processes`` must then be left at its default); a created one is
    closed on exit.
    """
    if backend is not None:
        if processes > 1:
            raise ValueError(
                "pass either processes or an explicit backend, not "
                "both (the backend decides the parallelism)")
        yield backend
        return
    created = make_backend(processes, chunksize=chunksize)
    try:
        yield created
    finally:
        created.close()


# -- the one-pass pipeline ----------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PipelineRun:
    """Raw engine output: one execute + check pass over a suite."""

    model: str
    traces: Tuple[Trace, ...]
    outcomes: Tuple[CheckOutcome, ...]
    exec_seconds: float
    check_seconds: float

    @property
    def checked(self) -> Tuple[CheckedTrace, ...]:
        return tuple(outcome.checked for outcome in self.outcomes)

    @property
    def covered_clauses(self) -> FrozenSet[str]:
        covered: set = set()
        for outcome in self.outcomes:
            covered |= outcome.covered
        return frozenset(covered)


def run_pipeline(quirks: Quirks, scripts: Sequence[Script],
                 model: Optional[str] = None,
                 backend: Optional[Backend] = None,
                 collect_coverage: bool = False,
                 progress: Optional[ProgressFn] = None) -> PipelineRun:
    """Execute a suite and check the traces — exactly once.

    This is the engine under :class:`repro.api.Session`; the deprecated
    free functions call it directly so old and new surfaces share one
    implementation.
    """
    backend = backend or SerialBackend()
    model = model or quirks.platform

    t0 = time.perf_counter()
    traces = list(backend.execute_iter(quirks, scripts))
    t1 = time.perf_counter()
    outcomes: List[CheckOutcome] = []
    for outcome in backend.check_iter(model, traces,
                                      collect_coverage=collect_coverage):
        outcomes.append(outcome)
        if progress is not None:
            progress(len(outcomes), len(traces), outcome.checked)
    t2 = time.perf_counter()
    return PipelineRun(model=model, traces=tuple(traces),
                       outcomes=tuple(outcomes),
                       exec_seconds=t1 - t0, check_seconds=t2 - t1)
