"""Persistent shard workers: the pool that outlives the call.

``ShardedBackend`` used to fork a fresh set of shard processes for
every ``check_iter``/``run_iter`` call and hand each a one-shot arena
handle — which is why ``bench_shard_scaling`` showed sharding *losing*
to serial on small repeated calls: the fork + re-warm cost was paid per
call.  This module factors the worker lifetime out of the call:

* :class:`ShardPool` spawns shard processes **once** and reuses them
  across calls.  Shards only check (the caller executes, §7.1): work
  is ``(name, trace_text)`` items, each answered with
  ``(profiles, covered, parse_and_check_seconds)``, either streamed
  (:meth:`ShardPool.submit_stream`, bounded backpressure, results
  re-sequenced in input order) or as a materialised list returning one
  future per item (:meth:`ShardPool.submit`).  Cumulative counters
  come back on every call barrier and surface through
  :meth:`ShardPool.run_stats`.
* Arena epochs are **republished, not re-forked**: the parent
  broadcasts an ``("epoch", model, handle)`` message and each worker
  re-attaches by :data:`~repro.engine.shard.ArenaHandle`, rebuilding a
  fresh oracle around the new epoch's rows.  A worker that cannot
  attach (the segment is gone, the payload is torn) keeps its previous
  oracle — stale rows only ever describe transitions that are still
  correct, so the fallback is soundness-preserving and merely misses
  the new epoch's sharing (the parity harness enforces bit-for-bit
  identical verdicts either way).
* :class:`ArenaEpochs` owns the parent side of that story: the warm
  packing oracles, the current :class:`~repro.engine.shard.MemoArena`,
  and the *miss-watermark* republish policy — a new epoch is cut when
  the pool has accumulated enough arena misses to suggest the published
  rows no longer cover the workload, instead of unconditionally per
  call.

Shared-memory segments and worker processes are released by
``close()``; a ``weakref.finalize`` safety net unlinks/terminates at
garbage collection so an abandoned pool cannot leak OS resources past
interpreter exit.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
import time
import traceback
import weakref
import zlib
from concurrent.futures import Future
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.coverage import REGISTRY
from repro.engine.shard import ArenaHandle, ArenaReader, MemoArena
from repro.oracle import (Oracle, VectoredOracle, create_oracle,
                          get_oracle)
from repro.script.parser import parse_trace

#: Stats keys each worker accumulates and reports on call barriers.
_WORKER_COUNTERS = ("arena_hits", "arena_misses", "epochs_adopted",
                    "epoch_attach_failures", "verdict_hits")

#: Bound on the per-worker verdict memo (entries, FIFO eviction).
VERDICT_MEMO_MAX = 4096


def _add_arena_counts(totals: Dict[str, int],
                      oracle: Optional[Oracle]) -> None:
    """Add a cached engine oracle's arena hit/miss counts to
    ``totals`` (nothing for other oracles, or None)."""
    if isinstance(oracle, VectoredOracle) and oracle.cache is not None:
        for memo in oracle.engine_snapshot()[1]:
            totals["arena_hits"] += getattr(memo, "arena_hits", 0)
            totals["arena_misses"] += getattr(memo, "arena_misses", 0)


class ShardWorkerState:
    """Everything a shard worker keeps warm across calls and epochs.

    Factored out of the worker loop so epoch re-attachment is testable
    in-process: ``adopt_epoch`` is exactly what a worker does on an
    ``("epoch", ...)`` message, and ``check`` is its one task path (the
    worker loop adds the timing).  A shard never executes scripts.

    Oracles are built fresh *inside* the worker (never inherited from
    the parent) and kept per model; on each adopted epoch the model's
    oracle is rebuilt around the new :class:`ArenaReader` — a worker
    that derived transitions locally has grown its intern table past
    the parent's, so re-seeding the new arena into the old table could
    misalign ids (``seed_table`` raises); rebuilding fresh sidesteps
    that entirely.  A bounded verdict memo keyed by exact trace text
    short-circuits repeat checks — the oracle is deterministic, so a
    memoized profile tuple is bit-for-bit the answer a re-check would
    produce (and it survives epoch swaps for the same reason).
    """

    def __init__(self) -> None:
        self._oracles: Dict[str, Oracle] = {}
        self._readers: Dict[str, ArenaReader] = {}
        self._verdicts: "Dict[Tuple[str, str], tuple]" = {}
        self._banked = {"arena_hits": 0, "arena_misses": 0}
        self.epochs_adopted = 0
        self.epoch_attach_failures = 0
        self.verdict_hits = 0

    # -- oracles / epochs -----------------------------------------------------

    def oracle(self, model: str, collect_coverage: bool) -> Oracle:
        if collect_coverage:
            # Coverage keeps the old per-call policy: fresh engine
            # tables per check and no memo reuse, so prefix/memo hits
            # cannot swallow specification-clause cover() calls.
            return get_oracle(model, cache=False)
        oracle = self._oracles.get(model)
        if oracle is None:
            oracle = create_oracle(model, cache=True)
            self._oracles[model] = oracle
        return oracle

    def adopt_epoch(self, model: str, handle: ArenaHandle) -> bool:
        """Re-attach to a republished arena epoch.

        Returns True when the new epoch was adopted; on any failure the
        previous oracle (and its reader, if any) keeps serving — stale
        arena rows are still-correct transitions, so falling back costs
        sharing, never soundness.
        """
        try:
            reader = ArenaReader.attach(handle)
        except Exception:
            self.epoch_attach_failures += 1
            return False
        try:
            oracle = create_oracle(model, cache=True)
            if not isinstance(oracle, VectoredOracle):
                reader.close()
                return False
            oracle.adopt_shared_memo(reader)
        except Exception:
            reader.close()
            self.epoch_attach_failures += 1
            return False
        # A replaced oracle's hit/miss history must survive into the
        # cumulative stats even though the oracle itself is dropped.
        _add_arena_counts(self._banked, self._oracles.get(model))
        previous = self._readers.pop(model, None)
        self._oracles[model] = oracle
        self._readers[model] = reader
        if previous is not None:
            previous.close()
        self.epochs_adopted += 1
        return True

    # -- tasks ----------------------------------------------------------------

    def check(self, model: str, collect_coverage: bool,
              trace_text: str) -> Tuple[tuple, tuple]:
        """Check one trace (text form); return (profiles, covered)."""
        if not collect_coverage:
            memoized = self._verdicts.get((model, trace_text))
            if memoized is not None:
                self.verdict_hits += 1
                return memoized, ()
        oracle = self.oracle(model, collect_coverage)
        trace = parse_trace(trace_text)
        if collect_coverage:
            REGISTRY.reset_hits()
        verdict = oracle.check(trace)
        covered = (tuple(sorted(REGISTRY.hit_names()))
                   if collect_coverage else ())
        if not collect_coverage:
            if len(self._verdicts) >= VERDICT_MEMO_MAX:
                self._verdicts.pop(next(iter(self._verdicts)))
            self._verdicts[(model, trace_text)] = verdict.profiles
        return verdict.profiles, covered

    # -- stats / teardown -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        totals = dict(self._banked)
        for oracle in self._oracles.values():
            _add_arena_counts(totals, oracle)
        totals["epochs_adopted"] = self.epochs_adopted
        totals["epoch_attach_failures"] = self.epoch_attach_failures
        totals["verdict_hits"] = self.verdict_hits
        return totals

    def close(self) -> None:
        for reader in self._readers.values():
            reader.close()
        self._readers = {}
        self._oracles = {}


def _pool_worker(shard_index: int, in_q, out_q) -> None:
    """One persistent shard process: drain messages until the sentinel.

    Messages from the parent:

    * ``("epoch", model, handle)`` — re-attach to a republished arena.
    * ``("task", call_id, model, coverage, batch)`` — a chunk of
      ``(index, trace_text)`` items to check; results go back as
      ``("ok", call_id, [(index, (profiles, covered, seconds)), ...])``,
      the seconds timing the parse plus the check.
    * ``("end", call_id)`` — call barrier; the worker answers
      ``("done", call_id, shard_index, cumulative_stats)``.  Because
      each worker's messages are FIFO, the parent seeing ``done`` knows
      every ``ok`` of that call from this shard already arrived.
    * ``None`` — shut down.
    """
    state = ShardWorkerState()
    try:
        while True:
            message = in_q.get()
            if message is None:
                break
            kind = message[0]
            if kind == "epoch":
                _, model, handle = message
                state.adopt_epoch(model, handle)
                continue
            if kind == "end":
                out_q.put(("done", message[1], shard_index,
                           state.stats()))
                continue
            _, call_id, model, coverage, batch = message
            results = []
            for index, trace_text in batch:
                t0 = time.perf_counter()
                profiles, covered = state.check(model, coverage,
                                                trace_text)
                results.append((index, (profiles, covered,
                                        time.perf_counter() - t0)))
            out_q.put(("ok", call_id, results))
    except Exception:
        out_q.put(("fatal", shard_index, traceback.format_exc()))
    finally:
        state.close()


class ShardCall:
    """One submitted batch: re-sequenced results plus per-call stats.

    Results stream through :meth:`results` in input-index order as the
    shards complete them.  ``stats`` holds the per-call *delta* of the
    pool's cumulative worker counters once the call barrier completes
    (exact for sequential calls, approximate under concurrent ones —
    the counters are pool-wide).
    """

    _SENTINEL = object()

    def __init__(self, pool: "ShardPool", call_id: int,
                 start_index: int, window_items: int) -> None:
        self.call_id = call_id
        self.stats: Dict[str, int] = {}
        self._pool = pool
        self._next = start_index
        self._buffered: Dict[int, object] = {}
        self._out: "queue_mod.Queue" = queue_mod.Queue()
        self._in_flight = threading.Semaphore(window_items)
        self._stop = threading.Event()
        self._finished = threading.Event()
        self._error: Optional[BaseException] = None
        self._feeder_error: Optional[BaseException] = None
        self._fed: Optional[int] = None
        self._delivered = 0
        self._done_shards: set = set()
        self._stats_before = pool._worker_totals()

    # -- collector side (pool's collector thread) -----------------------------

    def _deliver(self, index: int, payload: object) -> None:
        self._buffered[index] = payload
        while self._next in self._buffered:
            self._out.put((self._next, self._buffered.pop(self._next)))
            self._delivered += 1
            self._next += 1

    def _shard_done(self, shard_index: int,
                    n_shards: int) -> None:
        self._done_shards.add(shard_index)
        if len(self._done_shards) < n_shards:
            return
        # Per-worker FIFO: every ok of this call already arrived, so a
        # shortfall here means a result message was lost (e.g. an
        # unpicklable payload dropped by a child's queue feeder).
        if self._feeder_error is not None:
            self._fail(self._feeder_error)
        elif self._fed is not None and self._delivered < self._fed:
            self._fail(RuntimeError(
                f"sharded run lost results: fed {self._fed}, "
                f"received {self._delivered}"))
        else:
            self._finish()

    def _finish(self) -> None:
        if self._finished.is_set():
            return
        after = self._pool._worker_totals()
        self.stats = {key: after.get(key, 0)
                      - self._stats_before.get(key, 0)
                      for key in _WORKER_COUNTERS}
        self._finished.set()
        self._out.put(ShardCall._SENTINEL)

    def _fail(self, error: BaseException) -> None:
        if self._finished.is_set():
            return
        self._error = error
        self._finished.set()
        self._out.put(ShardCall._SENTINEL)

    # -- consumer side --------------------------------------------------------

    def results(self) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, result)`` in input order as they complete."""
        try:
            while True:
                try:
                    item = self._out.get(timeout=0.5)
                except queue_mod.Empty:
                    self._pool._check_health()
                    continue
                if item is ShardCall._SENTINEL:
                    if self._error is not None:
                        raise self._error
                    return
                self._in_flight.release()
                yield item
        finally:
            # Abandonment (or error): stop the feeder; queued work
            # drains in the background, as under ProcessPoolBackend.
            self._stop.set()
            self._pool._retire_call(self)


class ShardPool:
    """Shard worker processes that outlive individual calls.

    The pool spawns lazily on first use and keeps its workers across
    calls; arena epochs are pushed to the *running* workers with
    :meth:`publish` (and replayed to newly spawned ones), so a new
    epoch costs one attach per worker instead of a pool re-fork.
    ``close()`` is a full stop — a later call restarts the pool (the
    ``cold_starts`` counter in :meth:`run_stats` makes that visible).
    """

    def __init__(self, shards: int, *, window: int = 16,
                 chunk: int = 16) -> None:
        self.shards = max(1, shards)
        #: Bounded per-shard queue depth, in batches — the backpressure
        #: window a lazy stream is pulled ahead by.
        self.window = max(1, window)
        #: Items per queue message (per-item IPC would dominate).
        self.chunk = max(1, chunk)
        self._ctx = multiprocessing.get_context()
        self._procs: Optional[list] = None
        self._in_qs: list = []
        self._out_q = None
        self._collector: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._calls: Dict[int, ShardCall] = {}
        self._call_ids = iter(range(1, 1 << 62)).__next__
        self._shard_stats: Dict[int, Dict[str, int]] = {}
        self._epoch_handles: Dict[str, ArenaHandle] = {}
        self._broken: Optional[str] = None
        self.cold_starts = 0
        self.calls_started = 0
        self._finalizer = weakref.finalize(self, ShardPool._atexit,
                                           weakref.ref(self))

    @staticmethod
    def _atexit(pool_ref) -> None:  # pragma: no cover - GC timing
        pool = pool_ref()
        if pool is not None:
            try:
                pool.close()
            except Exception:
                pass

    # -- lifecycle ------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._procs is not None

    def start(self) -> None:
        """Spawn the workers (idempotent; restarts after ``close``)."""
        with self._lock:
            if self._procs is not None:
                return
            self._stop.clear()
            self._broken = None
            self._out_q = self._ctx.Queue()
            self._in_qs = [self._ctx.Queue(self.window)
                           for _ in range(self.shards)]
            self._procs = [
                self._ctx.Process(target=_pool_worker,
                                  args=(i, self._in_qs[i], self._out_q),
                                  daemon=True)
                for i in range(self.shards)]
            for proc in self._procs:
                proc.start()
            self._shard_stats = {}
            self.cold_starts += 1
            # Replay the standing epochs so late-spawned workers see
            # the same arenas the running ones adopted.
            for model, handle in self._epoch_handles.items():
                for in_q in self._in_qs:
                    in_q.put(("epoch", model, handle))
            self._collector = threading.Thread(target=self._collect,
                                               daemon=True)
            self._collector.start()

    def publish(self, model: str, handle: ArenaHandle) -> None:
        """Broadcast a republished arena epoch to every worker."""
        self._epoch_handles[model] = handle
        if not self.alive:
            return  # replayed by start()
        for in_q in self._in_qs:
            self._put_blocking(in_q, ("epoch", model, handle))

    def close(self) -> None:
        with self._lock:
            procs, self._procs = self._procs, None
            in_qs, self._in_qs = self._in_qs, []
            out_q, self._out_q = self._out_q, None
            collector, self._collector = self._collector, None
            calls, self._calls = dict(self._calls), {}
        for call in calls.values():
            call._fail(RuntimeError("shard pool closed"))
        self._stop.set()
        if procs is None:
            return
        for in_q in in_qs:
            try:
                in_q.put_nowait(None)
            except queue_mod.Full:
                pass
        if out_q is not None:
            out_q.cancel_join_thread()
        for proc in procs:
            proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - abandonment
                proc.terminate()
                proc.join()
        if collector is not None:
            collector.join(timeout=2)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission -----------------------------------------------------------

    def shard_of(self, partition: str, name: str) -> int:
        """Stable item routing: repeats of a name land on the shard
        whose caches already know it."""
        return zlib.crc32(f"{partition}:{name}".encode()) % self.shards

    def submit_stream(self, items: Iterable[Tuple[str, str]],
                      *, model: Optional[str] = None,
                      collect_coverage: bool = False,
                      partition: str = "",
                      start_index: int = 0) -> ShardCall:
        """Feed ``(name, trace_text)`` items to the pool.

        ``name`` routes the item (:meth:`shard_of`); only the text
        travels to the shard.  ``items`` may be a lazy generator: a
        feeder thread pulls it only ``window * chunk`` items ahead of
        consumption (the in-flight semaphore is released as
        :meth:`ShardCall.results` yields), so a generating plan stream
        stays lazy.  A stream that
        raises mid-generation fails the call with that exception rather
        than truncating it; the pool stays usable.
        """
        if self._broken is not None:
            raise RuntimeError(self._broken)
        self.start()
        call = ShardCall(self, self._call_ids(), start_index,
                         window_items=self.window * self.chunk
                         * self.shards)
        with self._lock:
            self._calls[call.call_id] = call
            self.calls_started += 1
        feeder = threading.Thread(
            target=self._feed,
            args=(call, items, model, collect_coverage, partition,
                  start_index),
            daemon=True)
        feeder.start()
        return call

    def submit(self, items: Iterable[Tuple[str, str]], *,
               model: Optional[str] = None,
               collect_coverage: bool = False, partition: str = "",
               start_index: int = 0) -> List[Future]:
        """Submit a materialised item list; one future per item.

        A drainer thread resolves the futures as results stream back;
        a pool failure rejects every still-pending future.
        """
        items = list(items)
        futures: List[Future] = [Future() for _ in items]
        if not items:
            return futures
        call = self.submit_stream(items, model=model,
                                  collect_coverage=collect_coverage,
                                  partition=partition,
                                  start_index=start_index)

        def drain() -> None:
            try:
                for index, payload in call.results():
                    futures[index - start_index].set_result(payload)
            except BaseException as exc:
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)

        threading.Thread(target=drain, daemon=True).start()
        return futures

    def _feed(self, call: ShardCall, items, model,
              collect_coverage: bool, partition: str,
              start_index: int) -> None:
        buffers: List[list] = [[] for _ in range(self.shards)]
        fed = 0

        def flush(shard: int) -> bool:
            batch = buffers[shard]
            if not batch:
                return True
            message = ("task", call.call_id, model, collect_coverage,
                       batch)
            if not self._put_blocking(self._in_qs[shard], message,
                                      stop=call._stop):
                return False
            buffers[shard] = []
            return True

        try:
            for index, (name, trace_text) in enumerate(
                    items, start_index):
                while not call._in_flight.acquire(timeout=0.1):
                    if call._stop.is_set() or self._stop.is_set():
                        return
                shard = self.shard_of(partition, name)
                buffers[shard].append((index, trace_text))
                fed += 1
                if len(buffers[shard]) >= self.chunk:
                    if not flush(shard):
                        return
                # Pulling an item can be costly (the caller may execute
                # a script to make it): an abandoned call pulls no more.
                if call._stop.is_set() or self._stop.is_set():
                    return
            for shard in range(self.shards):
                if not flush(shard):
                    return
        except BaseException as exc:
            # The lazy stream raised mid-generation: record it so the
            # consumer re-raises instead of reading a short pass.
            call._feeder_error = exc
        finally:
            call._fed = fed
            in_qs = self._in_qs
            for in_q in in_qs:
                self._put_blocking(in_q, ("end", call.call_id))

    def _put_blocking(self, in_q, message, *,
                      stop: Optional[threading.Event] = None) -> bool:
        while True:
            if self._stop.is_set() or (stop is not None
                                       and stop.is_set()):
                return False
            try:
                in_q.put(message, timeout=0.1)
                return True
            except queue_mod.Full:
                continue

    # -- collection -----------------------------------------------------------

    def _collect(self) -> None:
        out_q = self._out_q
        procs = self._procs
        while out_q is not None:
            try:
                message = out_q.get(timeout=0.2)
            except (queue_mod.Empty, OSError, ValueError):
                if self._stop.is_set():
                    return
                self._check_health(procs)
                continue
            except EOFError:  # pragma: no cover - teardown race
                return
            kind = message[0]
            if kind == "fatal":
                self._break(f"shard {message[1]} failed:"
                            f"\n{message[2]}")
                continue
            if kind == "done":
                _, call_id, shard_index, stats = message
                with self._lock:
                    self._shard_stats[shard_index] = stats
                call = self._calls.get(call_id)
                if call is not None:
                    call._shard_done(shard_index, self.shards)
                continue
            # ("ok", call_id, results)
            call = self._calls.get(message[1])
            if call is not None:
                for index, payload in message[2]:
                    call._deliver(index, payload)

    def _check_health(self, procs=None) -> None:
        procs = procs if procs is not None else self._procs
        if self._stop.is_set() or procs is None:
            return
        dead = [i for i, proc in enumerate(procs)
                if not proc.is_alive()]
        if dead and self._calls:
            self._break(f"shard process(es) {dead} died unexpectedly "
                        "(see stderr for the cause)")

    def _break(self, reason: str) -> None:
        # The failure callbacks run outside the lock: a call's waiter
        # may re-enter pool accessors from another thread.
        with self._lock:
            self._broken = reason
            calls = list(self._calls.values())
        for call in calls:
            call._fail(RuntimeError(reason))

    def _retire_call(self, call: ShardCall) -> None:
        with self._lock:
            self._calls.pop(call.call_id, None)

    # -- stats ----------------------------------------------------------------

    def _worker_totals(self) -> Dict[str, int]:
        with self._lock:
            totals = {key: 0 for key in _WORKER_COUNTERS}
            for stats in self._shard_stats.values():
                for key in _WORKER_COUNTERS:
                    totals[key] += stats.get(key, 0)
        return totals

    def run_stats(self) -> Dict[str, int]:
        """Cumulative pool counters: worker totals (as of the last call
        barrier) plus the parent-side lifecycle counters."""
        totals = self._worker_totals()
        totals["shards"] = self.shards
        totals["pool_cold_starts"] = self.cold_starts
        totals["pool_calls"] = self.calls_started
        return totals


class ArenaEpochs:
    """The parent half of epoch republishing: warm oracles, the current
    arena, and the miss-watermark policy.

    One arena is live at a time (matching the one-model-per-campaign
    shape the sharded backend always had); cutting an epoch for a model
    drops the previous segment first so a stale handle can never reach
    a worker after its memory is gone — workers that already adopted it
    keep their (still-correct) mapped copy until the next epoch
    arrives.

    ``needs_publish`` is the amortization knob: a model is published
    once, then *re*published only after the pool reports at least
    ``miss_watermark`` arena misses since the last cut — i.e. when the
    workload has drifted far enough from the published rows to be worth
    a new pack-and-attach round trip.  ``miss_watermark <= 0`` disables
    republishing entirely (first epoch only).
    """

    def __init__(self, pool: ShardPool, *, reclaim: bool = True,
                 miss_watermark: int = 512) -> None:
        self.pool = pool
        self.reclaim = reclaim
        self.miss_watermark = miss_watermark
        self.epochs_published = 0
        self._warm: Dict[str, Oracle] = {}
        self._arena: Optional[MemoArena] = None
        self._published: set = set()
        self._miss_floor: Dict[str, int] = {}
        self._finalizer = weakref.finalize(self, ArenaEpochs._atexit,
                                           weakref.ref(self))

    @staticmethod
    def _atexit(epochs_ref) -> None:  # pragma: no cover - GC timing
        epochs = epochs_ref()
        if epochs is not None:
            try:
                epochs.close()
            except Exception:
                pass

    @property
    def arena(self) -> Optional[MemoArena]:
        return self._arena

    def warm_oracle(self, model: str) -> Oracle:
        oracle = self._warm.get(model)
        if oracle is None:
            oracle = create_oracle(model, cache=True)
            self._warm[model] = oracle
        return oracle

    def needs_publish(self, model: str) -> bool:
        if model not in self._published:
            return True
        if self.miss_watermark <= 0:
            return False
        misses = self.pool.run_stats().get("arena_misses", 0)
        return (misses - self._miss_floor.get(model, 0)
                >= self.miss_watermark)

    def publish(self, model: str) -> Optional[MemoArena]:
        """Cut a new epoch from the warm oracle and broadcast it."""
        oracle = self._warm.get(model)
        self._drop_arena()
        self._published.add(model)
        self._miss_floor[model] = \
            self.pool.run_stats().get("arena_misses", 0)
        if not isinstance(oracle, VectoredOracle):
            return None  # reference/custom oracles: no engine tables
        table, memos = oracle.engine_snapshot()
        keep = oracle.live_state_ids() if self.reclaim else None
        self._arena = MemoArena.create(table, memos, keep_sids=keep)
        self.epochs_published += 1
        self.pool.publish(model, self._arena.handle())
        return self._arena

    def _drop_arena(self) -> None:
        if self._arena is not None:
            self._arena.close()
            self._arena.unlink()
            self._arena = None

    def close(self) -> None:
        self._drop_arena()
        self._warm = {}
        self._published = set()
