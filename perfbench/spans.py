"""Layer spans recorded from outside the program.

A :class:`Tracer` times calls into each layer's public functions.  Spans
nest per thread: a span's *self* time is its duration minus its child
spans.  Self times on the main thread partition the traced wall time;
spans on other threads (the shard pool's plan feeder) count as busy
time only, since they overlap the main thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List


class Tracer:
    def __init__(self) -> None:
        self.main = threading.get_ident()
        #: Main-thread self seconds per layer (they sum to wall time,
        #: less whatever ran outside every span).
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds per layer over every thread.
        self.busy_s: Dict[str, float] = defaultdict(float)
        #: Oracle instances whose ``check`` is spanned (for cache stats).
        self.oracles: list = []
        self._stacks: Dict[int, List[float]] = defaultdict(list)
        self._lock = threading.Lock()

    def _enter(self) -> float:
        self._stacks[threading.get_ident()].append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        ident = threading.get_ident()
        stack = self._stacks[ident]
        children = stack.pop()
        if stack:
            stack[-1] += duration
        with self._lock:
            self.busy_s[name] += duration
            if ident == self.main:
                self.self_s[name] += duration - children

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, start)
        return spanned

    def wrap_iter(self, name: str, iterable: Iterable) -> Iterator:
        """``iterable`` with every ``next`` recorded as a ``name`` span."""
        it = iter(iterable)
        try:
            while True:
                start = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(name, start)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()


def instrument_oracle(tracer: Tracer, oracle):
    """Span ``oracle.check`` on this instance (idempotent)."""
    if not getattr(oracle, "_perfbench_spanned", False):
        oracle.check = tracer.wrap("check", oracle.check)
        oracle._perfbench_spanned = True
        tracer.oracles.append(oracle)
    return oracle


def install(tracer: Tracer) -> None:
    """Put spans around the layers a ``Session`` run calls into.

    Only names the parent process looks up are replaced; shard workers
    forked later call their own module's functions, which stay bare, and
    report their work through ``RunRecord.exec_seconds/check_seconds``.
    """
    from repro.api import session as session_mod
    from repro.harness import backends
    from repro.service import pool

    backends.execute_script = tracer.wrap("exec", backends.execute_script)
    backends.parse_trace = tracer.wrap("trace.parse", backends.parse_trace)
    session_mod.print_trace = tracer.wrap("trace.print",
                                          session_mod.print_trace)
    real_get_oracle = backends.get_oracle
    backends.get_oracle = lambda *a, **k: instrument_oracle(
        tracer, real_get_oracle(*a, **k))
    real_warm = pool.ArenaEpochs.warm_oracle
    pool.ArenaEpochs.warm_oracle = lambda self, model: instrument_oracle(
        tracer, real_warm(self, model))
    real_results = pool.ShardCall.results
    pool.ShardCall.results = lambda call: tracer.wrap_iter(
        "pool.wait", real_results(call))


class TimedPlan:
    """A plan whose script stream is spanned as the ``gen`` layer and
    whose yielded scripts are kept for the input properties."""

    def __init__(self, plan, tracer: "Tracer | None") -> None:
        self.plan = plan
        self.tracer = tracer
        self.seen: list = []

    def scripts(self):
        if self.tracer is None:
            stream = self.plan.scripts()
        else:  # a plan may materialise when asked for its stream
            stream = self.tracer.wrap_iter(
                "gen", self.tracer.wrap("gen", self.plan.scripts)())
        for script in stream:
            self.seen.append(script)
            yield script

    def __getattr__(self, name):
        return getattr(self.plan, name)
