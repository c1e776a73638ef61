"""Pluggable execution/checking backends: the pipeline engine.

The paper's pipeline (Fig. 1) has two embarrassingly parallel phases —
executing a script suite and checking the observed traces — and reports
running the checking phase over 4 worker processes (section 7.1).  This
module runs both phases behind a small :class:`Backend` protocol.  Its
``run_iter`` executes *and* checks a script stream, and it is the one
way a suite runs: :class:`repro.api.Session` calls it, and through
Session so do :func:`repro.api.survey`, the CLI and the fuzzer.  Three
backends implement it:

* :class:`SerialBackend` runs in-process and caches one
  :class:`repro.oracle.Oracle` per model/oracle name;
* :class:`ProcessPoolBackend` keeps a *persistent* worker pool across
  calls that both executes and checks; each worker caches its oracle
  per name, and results are returned in full and keyed by index
  (duplicate trace names cannot collide).  Workers exchange trace
  *text*, mirroring the paper's process-per-trace architecture.
* :class:`ShardedBackend` executes every script in the parent and
  partitions the *checking* across *persistent* shard processes (a
  :class:`~repro.service.pool.ShardPool` that outlives the call), each
  checking on its own warm oracle; the pool answers exact repeats from
  its verdict memo in the parent (memo and pool counters surface in
  RunArtifact ``engine_stats``).

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
``Session.iter_checked()`` a true streaming iterator.  Each backend
also keeps the two single-phase halves, ``execute_iter`` and
``check_iter``, for callers that already hold scripts or traces.
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
                    Optional, Protocol, Sequence, Tuple, Union,
                    runtime_checkable)

from repro.checker.checker import CheckedTrace
from repro.core.coverage import REGISTRY
# ``execute_script`` is unused here but stays importable as
# ``backends.execute_script``: perfbench/spans.py wraps that name.
from repro.executor.executor import (  # noqa: F401
    ScriptExecutor, execute_script)
from repro.fsimpl.quirks import Quirks
from repro.oracle import ConformanceProfile, Oracle, get_oracle
from repro.script.ast import Script, Trace
from repro.service.pool import ShardPool
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
    process pool).  ``trace_text`` is the trace as the backend printed
    it, or empty when the backend printed nothing (a consumer that needs
    the text prints the trace itself).
    """

    target_function: str
    outcome: CheckOutcome
    exec_seconds: float = 0.0
    check_seconds: float = 0.0
    trace_text: str = ""


@runtime_checkable
class Backend(Protocol):
    """Where the pipeline's two parallel phases actually run.

    :meth:`run_iter` is the pipeline; :class:`repro.api.Session` calls
    nothing else to run a suite.  A custom backend must implement all
    four methods.
    """

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
        still producing and the suite is never materialised.  Each
        outcome carries one :class:`~repro.oracle.ConformanceProfile`
        per platform of the ``model`` oracle.
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


def _oracle(model: str, collect_coverage: bool) -> Oracle:
    """The oracle for a name, in this process.

    :func:`repro.oracle.get_oracle` memoizes per ``(name, cache)``
    process-wide, so a serial backend and each pool worker keep one
    oracle per name for their whole life — and with it a warm stored
    path, intern table and transition memos (:mod:`repro.engine`) —
    without a second memo layer that would serve stale instances after
    ``register_oracle(replace=True)``.  Coverage runs resolve with
    ``cache=False``, which also rebuilds the engine tables per trace so
    restored prefixes and memo hits cannot swallow
    specification-clause ``cover()`` calls.
    """
    return get_oracle(model, cache=not collect_coverage)


class SerialBackend(_BackendBase):
    """In-process backend with a per-name :class:`~repro.oracle.Oracle`
    cache.

    The oracle instance carries its prefix-memoization cache across
    every trace the backend ever checks against that name, so a survey
    over many configurations sharing one backend derives each
    transition once.  Execution goes through one
    :class:`~repro.executor.ScriptExecutor`, so each script resumes
    from its predecessor's state at their shared prefix.
    """

    name = "serial"

    def __init__(self) -> None:
        self._executor = ScriptExecutor()

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
        oracle = _oracle(model, collect_coverage)
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
        oracle = _oracle(model, collect_coverage)
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

@functools.lru_cache(maxsize=1)
def _worker_executor() -> ScriptExecutor:
    """The worker-process executor, created on first use and kept for
    the worker's life (as :func:`_oracle` keeps oracles), so the
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
    oracle = _oracle(model, collect_coverage)
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
    oracle = _oracle(model, collect_coverage)
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

    The pool survives across calls (a survey over many configurations
    pays the fork cost once), and ``chunksize`` is configurable with a
    default derived from the input size.
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
        for _index, trace_text in pool.imap(
                _execute_worker, payload,
                chunksize=self.pick_chunksize(len(scripts))):
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
                    exec_seconds=exec_s, check_seconds=check_s,
                    trace_text=trace_text)
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
    """Sharded checking on a standing pool of warm shard processes.

    A drop-in for :class:`ProcessPoolBackend` built on the persistent
    :class:`~repro.service.pool.ShardPool`, with three differences in
    how the work runs:

    * **Execute in the parent, check on the shards.**  As in the paper
      (§7.1), only checking runs on worker processes.  ``run_iter``
      executes on the call's feeder thread with a per-call
      :class:`~repro.executor.ScriptExecutor` (an abandoned call's
      feeder may still be running), keeps each :class:`Trace` and ships
      its text once; a shard parses and checks it.  A script or a check
      that raises fails its call at that item, not the pool.  That one
      thread bounds the call's throughput: cheap on prefix-sharing
      streams, it becomes the limit at a few shards when scripts share
      little.
    * **Persistent workers.**  Shard processes are spawned on the first
      call and *reused* across calls, each keeping one warm oracle per
      model (stored path, intern table, transition memos) for its whole
      life — the spawn cost is paid once per backend
      (``pool_cold_starts`` in :meth:`run_stats` counts it).
    * **Partitioned feeding.**  Items are routed to shards by a stable
      hash of the configuration-partition key and the item name, so
      repeats of a trace (and families sharing its name) always land on
      the shard whose memos already know them.

    The pool keeps one bounded verdict memo in the parent, so an exact
    repeat (in ``run_iter`` and ``check_iter`` alike) costs a dict
    lookup instead of a round trip.  Counters come back in
    :meth:`run_stats` (surfaced as RunArtifact ``engine_stats``).
    """

    def __init__(self, shards: Optional[int] = None, *,
                 chunk: int = 16,
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
        self._pool = ShardPool(self.shards, chunk=chunk)
        self._last_stats: Dict[str, int] = {}

    @property
    def name(self) -> str:
        return f"sharded[{self.shards}]"

    @property
    def chunk(self) -> int:
        """Items per task message: repeat-heavy checking is fast
        enough that per-item IPC would dominate, so items travel (and
        results return) in chunks."""
        return self._pool.chunk

    @chunk.setter
    def chunk(self, value: int) -> None:
        self._pool.chunk = max(1, value)

    def run_stats(self) -> Dict[str, int]:
        """Counters from the most recent pass (RunArtifact
        ``engine_stats``): the shard count, the pass's verdict-memo hits
        and the cumulative ``pool_cold_starts``.  ``warmup_traces`` is
        always 0: no trace is checked in the parent (perfbench reads the
        key)."""
        return dict(self._last_stats)

    def _finish_call(self, hits_before: int) -> None:
        # The pool's counters are cumulative: a pass's hits are its
        # delta (exact for sequential passes).
        self._last_stats = {
            "shards": self.shards, "warmup_traces": 0,
            "verdict_hits": self._pool.verdict_hits - hits_before,
            "pool_cold_starts": self._pool.cold_starts}

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

    def check_iter(self, model: str, traces: Sequence[Trace], *,
                   collect_coverage: bool = False
                   ) -> Iterator[CheckOutcome]:
        traces = list(traces)
        texts = [print_trace(trace) for trace in traces]
        hits_before = self._pool.verdict_hits
        futures = self._pool.submit(
            [(trace.name, text) for trace, text in zip(traces, texts)],
            model=model, collect_coverage=collect_coverage,
            partition=model)
        for trace, text, future in zip(traces, texts, futures):
            # An item whose check raised (or that a dead shard lost)
            # raises here, at that item.
            profiles, covered, _seconds = future.result()
            self._store_append(f"check:{model}", trace.name, text,
                               profiles, covered)
            yield CheckOutcome(profiles[0].as_checked(trace),
                               frozenset(covered), profiles)
        self._finish_call(hits_before)

    def run_iter(self, quirks: Quirks, model: str,
                 scripts: Iterable[Script], *,
                 collect_coverage: bool = False
                 ) -> Iterator[RunRecord]:
        stream = iter(scripts)
        hits_before = self._pool.verdict_hits
        first = next(stream, None)
        if first is None:  # nothing to run: leave the pool unspawned
            self._finish_call(hits_before)
            return
        executor = ScriptExecutor()
        # Store rows and shard routing share the Session partition.
        partition = f"{quirks.name}:{model}"
        # Filled on the call's feeder thread, emptied here: an index's
        # result can only arrive after its item was yielded.
        held: Dict[int, Tuple[str, Trace, str, float]] = {}

        def items() -> Iterator[Tuple[str, str]]:
            for i, script in enumerate(itertools.chain([first], stream)):
                t0 = time.perf_counter()
                trace = executor.execute(quirks, script)
                text = print_trace(trace)
                held[i] = (script.target_function, trace, text,
                           time.perf_counter() - t0)
                yield (script.name, text)

        results = self._pool.submit_stream(
            items(), model=model, collect_coverage=collect_coverage,
            partition=partition).results()
        try:
            for i, payload in results:
                if isinstance(payload, BaseException):
                    raise payload
                profiles, covered, check_s = payload
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
                    exec_seconds=exec_s, check_seconds=check_s,
                    trace_text=trace_text)
        finally:
            # Stop the feeder now, also when an item raised: the
            # exception's traceback keeps this frame (and an unclosed
            # ``results``) alive.
            results.close()
        self._finish_call(hits_before)

    def close(self) -> None:
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


def make_backend(processes: int = 1,
                 chunksize: Optional[int] = None,
                 backend: Optional[str] = None,
                 shards: Optional[int] = None) -> Backend:
    """The conventional backend for the CLI flags.

    ``backend`` picks a family by name (``serial`` / ``process`` /
    ``sharded``); when omitted, ``shards`` selects the sharded backend
    and otherwise ``processes > 1`` selects the process pool.  A
    sharded backend without ``shards`` gets ``processes`` shards.
    Sizing the chosen family would ignore raises :class:`ValueError`
    naming the flag: ``serial`` takes no ``processes > 1``, ``shards``
    or ``chunksize``, and ``process`` takes no ``shards``.
    """
    many = processes if processes and processes > 1 else None
    family = backend or ("sharded" if shards else
                         "process" if many else "serial")
    ignored = {"serial": {"processes": many, "shards": shards,
                          "chunksize": chunksize},
               "process": {"shards": shards},
               "sharded": {}}
    if family not in ignored:
        raise ValueError(f"unknown backend family {family!r} (expected "
                         "serial, process or sharded)")
    for flag, value in ignored[family].items():
        if value:
            raise ValueError(f"the {family} backend does not take "
                             f"{flag}={value!r}")
    if family == "sharded":
        sharded = ShardedBackend(shards or many)
        if chunksize:
            sharded.chunk = max(1, chunksize)
        return sharded
    if family == "process":
        return ProcessPoolBackend(many, chunksize=chunksize)
    return SerialBackend()


@contextlib.contextmanager
def owned_backend(backend: Optional[Backend]):
    """Yield ``backend``, or a serial one owned by this scope.

    The shared create-if-absent/close-only-if-created pattern: an
    explicitly supplied backend is the caller's to manage; a created
    one is closed on exit.
    """
    if backend is not None:
        yield backend
        return
    with SerialBackend() as created:
        yield created
