"""Persistent shard workers: the pool that outlives the call.

:class:`ShardPool` spawns shard processes **once** and reuses them
across calls.  Shards only check (the caller executes, §7.1): work is
``(name, trace_text)`` items, each answered with ``(profiles, covered,
parse_and_check_seconds)`` through **one future per item**.
:meth:`ShardPool.submit` routes a materialised list and sends it on the
caller's thread; :meth:`ShardPool.submit_stream` has one feeder thread
pull a lazy stream under a bounded in-flight window, and
:meth:`ShardCall.results` yields the same futures' results in input
order.  One reader thread per shard resolves each future as its result
arrives.

The verdict memo lives in the parent, here: an exact ``(model,
trace_text)`` repeat of a verdict the pool already computed, or of an
item still in flight, is answered before routing, without a round trip.
The memo keeps at most :data:`VERDICT_MEMO_MAX` verdicts (FIFO
eviction); coverage runs bypass it, so no memo hit can swallow a
clause's ``cover()`` call.

What a shard keeps (:class:`ShardWorkerState`) is one warm
``create_oracle(model, cache=True)`` per model, whose intern table and
transition memos grow over the shard's whole life, beside one stored
path no longer than a trace.  Items are routed by
:meth:`ShardPool.shard_of`, so repeats of a name land on the shard
whose memos already know it.  Nothing is shared
between shards.

No result is dropped silently:

* a check that raises fails only its own item: the worker sends the
  exception back as that item's result, with a note naming the trace
  and the shard (an exception that would not survive the pipe is
  replaced by a ``RuntimeError`` carrying its traceback);
* a shard that dies fails the items it held with a ``RuntimeError``
  naming the shard and the trace; items on the other shards finish,
  and the next submission runs on a fresh worker (``pool_cold_starts``
  counts it).

Worker processes are released by ``close()``; a ``weakref.finalize``
safety net terminates them at interpreter exit so an abandoned pool
cannot outlive the interpreter, and a worker whose parent is killed
reads EOF on its task pipe and exits.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import queue as queue_mod
import threading
import time
import traceback
import weakref
import zlib
from concurrent.futures import Future
from multiprocessing.reduction import ForkingPickler
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.coverage import REGISTRY
from repro.oracle import Oracle, create_oracle, get_oracle
from repro.script.parser import parse_trace

#: Bound on the pool's verdict memo (entries, FIFO eviction).
VERDICT_MEMO_MAX = 4096

#: Chunks per shard a lazy stream is pulled ahead of its consumer.
WINDOW = 16


class ShardWorkerState:
    """Everything a shard worker keeps warm across calls.

    Factored out of the worker loop so the task path is testable
    in-process: ``check`` is what a worker does per item (the loop adds
    the timing and sends a raised exception back as the item's
    result).  A shard never executes scripts.

    Oracles are built fresh *inside* the worker (never inherited from
    the parent) and kept per model for the worker's life.
    """

    def __init__(self) -> None:
        self._oracles: Dict[str, Oracle] = {}

    def oracle(self, model: str, collect_coverage: bool) -> Oracle:
        if collect_coverage:
            # Coverage keeps the old per-call policy: fresh engine
            # tables per check, so prefix/memo hits cannot swallow
            # specification-clause cover() calls.
            return get_oracle(model, cache=False)
        oracle = self._oracles.get(model)
        if oracle is None:
            oracle = create_oracle(model, cache=True)
            self._oracles[model] = oracle
        return oracle

    def check(self, model: str, collect_coverage: bool,
              trace_text: str) -> Tuple[tuple, tuple]:
        """Check one trace (text form); return (profiles, covered)."""
        oracle = self.oracle(model, collect_coverage)
        trace = parse_trace(trace_text)
        if collect_coverage:
            REGISTRY.reset_hits()
        verdict = oracle.check(trace)
        covered = (tuple(sorted(REGISTRY.hit_names()))
                   if collect_coverage else ())
        return verdict.profiles, covered


def _sendable(exc: Exception, shard_index: int,
              name: str) -> Exception:
    """``exc``, noted with the trace and the shard, if it survives the
    pipe; otherwise a ``RuntimeError`` carrying its traceback."""
    detail = "".join(traceback.format_exception(exc)).rstrip()
    exc.add_note(f"raised by shard {shard_index} checking trace "
                 f"{name!r}:\n{detail}")
    try:
        ForkingPickler.loads(ForkingPickler.dumps(exc))
    except Exception as error:
        return RuntimeError(
            f"shard {shard_index} cannot send back the "
            f"{type(exc).__name__} that checking trace {name!r} raised "
            f"({error!r}):\n{detail}")
    return exc


def _pool_worker(shard_index: int, tasks, results,
                 parent_ends) -> None:
    """One persistent shard process: answer task messages until the
    pool terminates it or its task pipe reads EOF.

    A task message is ``(model, coverage, batch)``, a chunk of
    ``(item_id, name, trace_text)`` items.  Its answer is ``("ok",
    [(item_id, payload), ...])``, where ``payload`` is ``(profiles,
    covered, seconds)``, the seconds timing the parse plus the check, or
    the exception the item raised.  ``Connection.send`` pickles in this
    thread, so a reply that cannot be sent raises here, never in a
    background thread.  Anything that fails outside an item's check
    sends ``("fatal", traceback)`` and ends the worker.

    ``parent_ends`` are the parent's ends of every pipe of the pool that
    the fork copied, this shard's included.  Closed here, they leave the
    parent the only writer of ``tasks``, so a parent that dies without
    ``close()`` (SIGKILL) reads as EOF, and the worker exits.
    """
    for end in parent_ends:
        end.close()
    state = ShardWorkerState()
    try:
        while True:
            try:
                model, coverage, batch = tasks.recv()
            except EOFError:
                return  # the parent is gone
            replies = []
            for item_id, name, trace_text in batch:
                t0 = time.perf_counter()
                try:
                    profiles, covered = state.check(model, coverage,
                                                    trace_text)
                except Exception as exc:
                    replies.append((item_id,
                                    _sendable(exc, shard_index, name)))
                    continue
                replies.append((item_id, (profiles, covered,
                                          time.perf_counter() - t0)))
            results.send(("ok", replies))
    except Exception:
        results.send(("fatal", traceback.format_exc()))


def _future() -> Future:
    """A pool future: never cancelled, so its result, or its error,
    always arrives."""
    future: Future = Future()
    future.set_running_or_notify_cancel()
    return future


class _Shard:
    """One worker process and the two pipes to it, plus the items it
    holds: ``pending`` maps an item id to ``(name, memo key, futures)``
    (the pool's lock guards it)."""

    def __init__(self, ctx, index: int, live: List["_Shard"]) -> None:
        self.index = index
        task_reader, self.tasks = ctx.Pipe(duplex=False)
        self.results, result_writer = ctx.Pipe(duplex=False)
        # The fork copies this shard's parent ends and those of the
        # ``live`` shards forked before it: the worker closes them all.
        parent_ends = [end for shard in [self, *live]
                       for end in (shard.tasks, shard.results)]
        self.proc = ctx.Process(target=_pool_worker,
                                args=(index, task_reader, result_writer,
                                      parent_ends),
                                daemon=True)
        self.proc.start()
        # Only the worker holds its ends, so its death reads as EOF.
        task_reader.close()
        result_writer.close()
        self.send_lock = threading.Lock()
        self.pending: Dict[int, tuple] = {}
        self.retired = False

    def send(self, message) -> None:
        try:
            with self.send_lock:
                self.tasks.send(message)
        except OSError:
            pass  # the worker is gone: its reader fails what it held


class ShardCall:
    """One lazily fed stream: :meth:`results` yields its items' results
    in input order, each as soon as it and every earlier item resolved.

    The feeder thread puts ``(index, future)`` entries, then the end
    marker or the exception the stream raised; ``_window`` bounds the
    items fed but not yet consumed.  Fed items wait in ``_buffer`` until
    a flush dispatches them as one batch: the feeder flushes a full
    buffer and the stream's end, and the consumer flushes before it
    waits on an item still buffered, so a stream that blocks can never
    hold back the item its consumer waits for.
    """

    _END = object()

    def __init__(self, window_items: int, dispatch) -> None:
        self._entries: "queue_mod.SimpleQueue" = queue_mod.SimpleQueue()
        self._window = threading.Semaphore(window_items)
        self._stop = threading.Event()
        self._dispatch = dispatch
        self._lock = threading.Lock()
        self._buffer: List[Tuple[Future, str, str]] = []
        self._flushed = 0  # items dispatched: indices below are sent

    def _flush(self) -> None:
        with self._lock:
            batch, self._buffer = self._buffer, []
            self._flushed += len(batch)
        if batch and not self._stop.is_set():  # no one waits if stopped
            self._dispatch(batch)

    def results(self) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, result)`` in input order as they complete.

        ``result`` is ``(profiles, covered, seconds)``, or the exception
        the item's check raised (or that lost it): the consumer decides
        whether one item fails the call (the backends raise it) or only
        its own future.  A stream that raised mid-generation raises
        here after its last item.
        """
        try:
            while True:
                entry = self._entries.get()
                if entry is ShardCall._END:
                    return
                if isinstance(entry, BaseException):
                    raise entry
                index, future = entry
                if index >= self._flushed:
                    self._flush()
                error = future.exception()
                self._window.release()
                yield index, (future.result() if error is None
                              else error)
        finally:
            # Abandonment (or error): the feeder stops pulling; items
            # already sent finish in the background.
            self._stop.set()
            self._window.release()  # wake a feeder waiting for room


class ShardPool:
    """Shard worker processes that outlive individual calls.

    The pool spawns lazily on first use and keeps its workers across
    calls; a worker that died is replaced at the next submission.
    ``close()`` is a full stop — a later call restarts the pool (the
    ``cold_starts`` counter in :meth:`run_stats` makes both visible).
    """

    def __init__(self, shards: int, *, chunk: int = 16) -> None:
        self.shards = max(1, shards)
        #: Items per task message (per-item IPC would dominate).
        self.chunk = max(1, chunk)
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._shards: List[Optional[_Shard]] = [None] * self.shards
        self._readers: List[threading.Thread] = []
        self._item_ids = itertools.count()
        # (model, trace_text) -> profiles, and -> the futures waiting
        # on the one item in flight for that key.
        self._verdicts: Dict[Tuple[str, str], tuple] = {}
        self._inflight: Dict[Tuple[str, str], List[Future]] = {}
        self.verdict_hits = 0
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
    def _procs(self) -> list:
        """The live workers' processes."""
        return [shard.proc for shard in self._shards if shard is not None]

    @property
    def alive(self) -> bool:
        return bool(self._procs)

    def start(self) -> None:
        """Spawn the missing workers (idempotent; restarts after
        ``close`` or a worker's death)."""
        with self._lock:
            self._spawn_missing()

    def _spawn_missing(self) -> None:
        # Called with the lock held, on a submitting caller's thread
        # only: forking while another thread of the call may hold a
        # lock (the feeder executing a script) would hand the child
        # that lock held.
        missing = [i for i, shard in enumerate(self._shards)
                   if shard is None]
        if not missing:
            return
        self._readers = [r for r in self._readers if r.is_alive()]
        for i in missing:
            shard = _Shard(self._ctx, i,
                           [s for s in self._shards if s is not None])
            self._shards[i] = shard
            reader = threading.Thread(target=self._read, args=(shard,),
                                      daemon=True,
                                      name=f"repro-shard-{i}-reader")
            reader.start()
            self._readers.append(reader)
        self.cold_starts += 1

    def close(self) -> None:
        """Stop every worker now and drop the verdict memo; items still
        in flight fail with ``shard pool closed``, and a stream still
        feeding fails its later items."""
        with self._lock:
            shards = [s for s in self._shards if s is not None]
            self._shards = [None] * self.shards
            readers, self._readers = self._readers, []
            self._verdicts = {}
            for shard in shards:
                shard.retired = True
                shard.proc.terminate()
        current = threading.current_thread()
        for reader in readers:
            if reader is not current:
                reader.join()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission -----------------------------------------------------------

    def shard_of(self, partition: str, name: str) -> int:
        """Stable item routing: repeats of a name land on the shard
        whose caches already know it."""
        return zlib.crc32(f"{partition}:{name}".encode()) % self.shards

    def _dispatch(self, model: Optional[str], coverage: bool,
                  partition: str,
                  batch: List[Tuple[Future, str, str]]) -> None:
        """Answer each ``(future, name, text)`` item from the memo when
        it can be, else route it to its shard and send it there."""
        answered = []
        tasks: Dict[_Shard, list] = {}
        with self._lock:
            for future, name, text in batch:
                key = None if coverage else (model, text)
                if key is not None:
                    profiles = self._verdicts.get(key)
                    waiting = self._inflight.get(key)
                    if profiles is not None:
                        self.verdict_hits += 1
                        answered.append((future, (profiles, (), 0.0)))
                        continue
                    if waiting is not None:
                        self.verdict_hits += 1
                        waiting.append(future)
                        continue
                index = self.shard_of(partition, name)
                shard = self._shards[index]
                if shard is None:  # gone since the call began
                    answered.append((future, RuntimeError(
                        f"shard {index} died (or the pool closed) before "
                        f"trace {name!r} was sent; the next call starts "
                        "a fresh worker")))
                    continue
                item_id = next(self._item_ids)
                waiting = [future]
                shard.pending[item_id] = (name, key, waiting)
                if key is not None:
                    self._inflight[key] = waiting
                tasks.setdefault(shard, []).append((item_id, name, text))
        for future, payload in answered:
            if isinstance(payload, BaseException):
                future.set_exception(payload)
            else:
                future.set_result(payload)
        for shard, items in tasks.items():
            for start in range(0, len(items), self.chunk):
                shard.send((model, coverage,
                            items[start:start + self.chunk]))

    def submit(self, items: Iterable[Tuple[str, str]], *,
               model: Optional[str] = None,
               collect_coverage: bool = False,
               partition: str = "") -> List[Future]:
        """Submit a materialised item list; one future per item.

        ``name`` routes the item (:meth:`shard_of`) and travels with the
        text, so an error can name its trace.  Routing and sending run
        on the caller's thread.  An item whose check raised fails only
        its own future, with that exception; a dead shard fails the
        futures of the items it held.
        """
        batch = [(_future(), name, text) for name, text in items]
        if not batch:
            return []
        with self._lock:
            self._spawn_missing()
            self.calls_started += 1
        self._dispatch(model, collect_coverage, partition, batch)
        return [future for future, _name, _text in batch]

    def submit_stream(self, items: Iterable[Tuple[str, str]],
                      *, model: Optional[str] = None,
                      collect_coverage: bool = False,
                      partition: str = "") -> ShardCall:
        """Feed ``(name, trace_text)`` items to the pool lazily.

        ``items`` may be a lazy generator: one feeder thread pulls it
        only ``WINDOW * chunk`` items per shard ahead of consumption
        (the window is released as :meth:`ShardCall.results` yields),
        so a generating plan stream stays lazy.  A stream that raises
        mid-generation fails the call with that exception rather than
        truncating it; the pool stays usable.
        """
        call = ShardCall(WINDOW * self.chunk * self.shards,
                         functools.partial(self._dispatch, model,
                                           collect_coverage, partition))
        with self._lock:
            self._spawn_missing()
            self.calls_started += 1
        threading.Thread(target=self._feed, args=(call, items),
                         daemon=True, name="repro-shard-feeder").start()
        return call

    def _feed(self, call: ShardCall, items) -> None:
        end: object = ShardCall._END
        try:
            for index, (name, text) in enumerate(items):
                call._window.acquire()
                # Pulling an item can be costly (the caller may execute
                # a script to make it): an abandoned call pulls no more.
                if call._stop.is_set():
                    break
                future = _future()
                call._entries.put((index, future))
                with call._lock:
                    call._buffer.append((future, name, text))
                    full = len(call._buffer) >= self.chunk * self.shards
                if full:
                    call._flush()
            else:
                call._flush()
        except BaseException as exc:
            # The lazy stream raised mid-generation: the consumer
            # re-raises it after the items before it, flushing what is
            # still buffered when it reaches them.
            end = exc
        call._entries.put(end)

    # -- collection -----------------------------------------------------------

    def _read(self, shard: _Shard) -> None:
        """The shard's reader thread: resolve each item's future as its
        result arrives, then fail whatever the shard still held."""
        fatal = ""
        try:
            while True:
                kind, body = shard.results.recv()
                if kind == "fatal":
                    fatal = body
                    break
                self._resolve(shard, body)
        except (EOFError, OSError):
            pass  # the worker exited or was terminated
        shard.proc.join()
        code = shard.proc.exitcode
        with self._lock:
            if self._shards[shard.index] is shard:
                self._shards[shard.index] = None
            lost, shard.pending = shard.pending, {}
            for _name, key, _waiting in lost.values():
                if key is not None:
                    del self._inflight[key]
        with shard.send_lock:
            shard.tasks.close()
        shard.results.close()
        for name, _key, waiting in lost.values():
            error = RuntimeError(
                "shard pool closed" if shard.retired else
                f"shard {shard.index} died (exit code {code}) before "
                f"answering trace {name!r}"
                + (f":\n{fatal}" if fatal else
                   " (see stderr for the cause)"))
            for future in waiting:
                future.set_exception(error)

    def _resolve(self, shard: _Shard, replies: list) -> None:
        resolved = []
        with self._lock:
            for item_id, payload in replies:
                entry = shard.pending.pop(item_id, None)
                if entry is None:
                    continue
                _name, key, waiting = entry
                if key is not None:
                    del self._inflight[key]
                    if not isinstance(payload, BaseException):
                        if len(self._verdicts) >= VERDICT_MEMO_MAX:
                            del self._verdicts[next(iter(self._verdicts))]
                        self._verdicts[key] = payload[0]
                resolved.append((waiting, payload))
        for waiting, payload in resolved:
            for future in waiting:
                if isinstance(payload, BaseException):
                    future.set_exception(payload)
                else:
                    future.set_result(payload)

    # -- stats ----------------------------------------------------------------

    def run_stats(self) -> Dict[str, int]:
        """Cumulative pool counters: verdict-memo hits, the shard
        count, cold starts and calls."""
        with self._lock:
            return {"verdict_hits": self.verdict_hits,
                    "shards": self.shards,
                    "pool_cold_starts": self.cold_starts,
                    "pool_calls": self.calls_started}


# ``ArenaEpochs`` is unused here but stays importable with its
# ``warm_oracle`` method: perfbench/spans.py wraps that name.
class ArenaEpochs:
    def warm_oracle(self, model: str) -> Oracle:
        return create_oracle(model, cache=True)
