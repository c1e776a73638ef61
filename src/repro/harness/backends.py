"""Pluggable execution/checking backends: the pipeline engine.

The paper's pipeline (Fig. 1) has two embarrassingly parallel phases —
executing a script suite and checking the observed traces — and reports
running the checking phase over 4 worker processes (section 7.1).  This
module runs both phases behind a small :class:`Backend` protocol.  Its
``run_iter`` executes *and* checks a script stream, and it is the one
way a suite runs: :class:`repro.api.Session` calls it, and through
Session so do :func:`repro.api.survey`, the CLI and the fuzzer.  Two
backends implement it:

* :class:`SerialBackend` runs in-process and caches one
  :class:`repro.oracle.Oracle` per model/oracle name;
* :class:`ShardedBackend` is the section 7.1 split: it executes every
  script in the parent and partitions the *checking* across
  *persistent* shard processes (a :class:`~repro.service.pool.ShardPool`
  that outlives the call), each checking on its own warm oracle; the
  pool answers exact repeats from its verdict memo in the parent (memo
  and pool counters surface in RunArtifact ``engine_stats``).

Checking is oracle-driven: the ``model`` parameter is an oracle name
resolved through :mod:`repro.oracle` — a plain platform (``"linux"``)
behaves exactly as before, while ``"all"`` / ``"vectored:A+B"`` runs
the one-pass multi-platform oracle and every outcome carries the full
per-platform :class:`~repro.oracle.ConformanceProfile` tuple.  Cached
oracle instances keep their prefix-memoization caches — and with them
the :mod:`repro.engine` intern tables and transition memos — warm
across calls (and across a shard's whole life under the pool), so a
transition derived for one trace is free for every later trace the
same process checks.

Backends yield results as they complete, which is what makes
``Session.iter_checked()`` a true streaming iterator.  A caller that
already holds traces checks them on an oracle
(``get_oracle(name).check``), or on a shard pool through
:class:`repro.service.CheckingService`.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from typing import (Callable, Deque, Dict, FrozenSet, Iterable, Iterator,
                    Optional, Protocol, Tuple, Union, runtime_checkable)

from repro.checker.checker import CheckedTrace
from repro.core.coverage import REGISTRY
from repro.executor.executor import ScriptExecutor
# ``execute_script`` is unused here but stays importable as
# ``backends.execute_script``: perfbench/spans.py wraps that name.
from repro.executor.executor import (
    execute_script)  # lint: ignore[unused-import]
from repro.fsimpl.quirks import Quirks
from repro.oracle import ConformanceProfile, get_oracle
from repro.script.ast import Script, Trace
from repro.service.pool import ShardPool
# ``parse_trace`` is unused here but stays importable as
# ``backends.parse_trace``: perfbench/spans.py wraps that name.
from repro.script.parser import (
    parse_trace)  # lint: ignore[unused-import]
from repro.script.printer import print_trace

#: Progress callback: ``(completed, total, last_checked_trace)``.
ProgressFn = Callable[[int, int, CheckedTrace], None]


@dataclasses.dataclass(frozen=True)
class CheckOutcome:
    """One checked trace, plus the specification clauses it covered.

    ``covered`` is empty unless coverage collection was requested; with
    the sharded backend it is how each shard's coverage hits travel back
    to the parent process.  ``profiles`` carries the oracle's full
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
    are as measured where the work ran (a shard's parse and check time
    under the sharded backend).  ``trace_text`` is the trace as the
    backend printed it, or empty when the backend printed nothing (a
    consumer that needs the text prints the trace itself).
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
    nothing else to run a suite.  A custom backend implements it and
    :meth:`close`.
    """

    #: Short descriptor recorded in artifacts (e.g. ``"serial"``).
    name: str

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
        """Release any held resources (shard processes)."""
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

    :func:`repro.oracle.get_oracle` memoizes per ``(name, cache)``
    process-wide (no second memo layer here, which would serve stale
    instances after ``register_oracle(replace=True)``), so the oracle
    for a name carries its stored path, intern table and transition
    memos across every trace the backend ever checks against that
    name: a survey over many configurations sharing one backend derives
    each transition once.  Coverage runs resolve with ``cache=False``,
    which rebuilds the engine tables per trace so restored prefixes and
    memo hits cannot swallow specification-clause ``cover()`` calls.
    Execution goes through one :class:`~repro.executor.ScriptExecutor`,
    so each script resumes from its predecessor's state at their shared
    prefix.
    """

    name = "serial"

    def __init__(self) -> None:
        self._executor = ScriptExecutor()

    def run_stats(self) -> Dict[str, int]:
        """Serial runs keep no engine counters: an empty map, so their
        artifacts record an empty ``engine_stats``."""
        return {}

    def run_iter(self, quirks: Quirks, model: str,
                 scripts: Iterable[Script], *,
                 collect_coverage: bool = False
                 ) -> Iterator[RunRecord]:
        oracle = get_oracle(model, cache=not collect_coverage)
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


# -- sharded backend ----------------------------------------------------------

class ShardedBackend(_BackendBase):
    """Sharded checking on a standing pool of warm shard processes.

    The parallel backend, built on the persistent
    :class:`~repro.service.pool.ShardPool`.  Three choices shape how
    the work runs:

    * **Execute in the parent, check on the shards.**  As in the paper
      (§7.1), only checking runs on worker processes.  ``run_iter``
      executes on the caller's thread, as the pool's
      :meth:`~repro.service.pool.ShardCall.results` pulls each script,
      with the backend's one :class:`~repro.executor.ScriptExecutor`
      (as :class:`SerialBackend` does, so, like it, a backend serves
      one thread at a time); it keeps each :class:`Trace` and ships its
      text once; a shard parses and checks it.  A script or a check
      that raises fails its call at that item, not the pool.  That
      one thread bounds the call's throughput: cheap on
      prefix-sharing streams, it becomes the limit at a few shards when
      scripts share little.
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
    repeat costs a dict lookup instead of a round trip.  Counters come
    back in :meth:`run_stats` (surfaced as RunArtifact
    ``engine_stats``).
    """

    def __init__(self, shards: Optional[int] = None) -> None:
        self._pool = ShardPool(shards)
        self.shards = self._pool.shards
        self._executor = ScriptExecutor()
        self._last_stats: Dict[str, int] = {}

    @property
    def name(self) -> str:
        return f"sharded[{self.shards}]"

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

    def run_iter(self, quirks: Quirks, model: str,
                 scripts: Iterable[Script], *,
                 collect_coverage: bool = False
                 ) -> Iterator[RunRecord]:
        hits_before = self._pool.verdict_hits
        # Shards are routed by the Session's store partition.
        partition = f"{quirks.name}:{model}"
        # An item is held when the call pulls it and taken when the
        # call yields its result: both in input order.
        held: Deque[Tuple[str, Trace, str, float]] = collections.deque()

        def items() -> Iterator[Tuple[str, str]]:
            for script in scripts:
                t0 = time.perf_counter()
                trace = self._executor.execute(quirks, script)
                text = print_trace(trace)
                held.append((script.target_function, trace, text,
                             time.perf_counter() - t0))
                yield (script.name, text)

        results = self._pool.submit_stream(
            items(), model=model, collect_coverage=collect_coverage,
            partition=partition).results()
        try:
            for _index, payload in results:
                if isinstance(payload, BaseException):
                    raise payload
                profiles, covered, check_s = payload
                target, trace, trace_text, exec_s = held.popleft()
                yield RunRecord(
                    target_function=target,
                    outcome=CheckOutcome(
                        profiles[0].as_checked(trace),
                        frozenset(covered), profiles),
                    exec_seconds=exec_s, check_seconds=check_s,
                    trace_text=trace_text)
        finally:
            # Stop pulling now, also when an item raised: the
            # exception's traceback keeps this frame (and an unclosed
            # ``results``) alive.
            results.close()
        self._finish_call(hits_before)

    def close(self) -> None:
        self._pool.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


def make_backend(backend: Optional[str] = None,
                 shards: Optional[int] = None) -> Backend:
    """The conventional backend for the CLI flags.

    ``backend`` picks a family by name (``serial`` / ``sharded``); when
    omitted, ``shards`` selects the sharded backend and otherwise the
    serial one.  A sharded backend without ``shards`` gets the
    :class:`ShardedBackend` default.  ``serial`` with ``shards``, or an
    unknown family, raises :class:`ValueError`.
    """
    family = backend or ("sharded" if shards is not None else "serial")
    if family == "sharded":
        return ShardedBackend(shards)
    if family != "serial":
        raise ValueError(f"unknown backend family {family!r} (expected "
                         "serial or sharded)")
    if shards is not None:
        raise ValueError(f"the serial backend does not take "
                         f"shards={shards!r}")
    return SerialBackend()


def resolve_backend(backend: Optional[Union[Backend, str]],
                    shards: Optional[int] = None
                    ) -> Tuple[Backend, bool]:
    """``(backend, owned)`` for a caller's ``backend`` argument.

    A family name, or None, is built by :func:`make_backend` (sized by
    ``shards``) and owned by the caller, which must close it; an
    instance is shared.  ``shards`` beside an instance raises
    :class:`ValueError`: the instance's construction decided it.
    """
    if backend is None or isinstance(backend, str):
        return make_backend(backend, shards), True
    if shards is not None:
        raise ValueError(
            "shards sizes a *named* backend; a backend instance was "
            "already built — pass one or the other")
    return backend, False
