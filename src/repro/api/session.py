"""The Session facade: configure once, run the pipeline once.

The paper positions oracle-based testing as usable "routinely (with low
effort for the user)" in development and CI.  A :class:`Session` is that
routine entry point: configured once with a configuration, model
variant, test plan and backend, it generates, executes and checks
**exactly once**, caching each stage so every consumer — summary, HTML
report, coverage, survey merge — renders from the same
:class:`RunArtifact` instead of re-running the pipeline.

Generation *streams*: a :class:`repro.gen.TestPlan` is consumed lazily
by the backend's ``run_iter`` — the suite is never materialised, and
the sharded backend's shards start checking the first scripts while
the plan is still producing the rest.  That streaming pass is the only
way a session runs its suite: ``iter_checked()`` yields each
:class:`CheckedTrace` as the backend completes it, with an optional
progress callback, and :meth:`Session.run`, :attr:`Session.traces` and
:func:`survey` all read the artifact that one pass leaves behind.
"""

from __future__ import annotations

import pathlib
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import time

from repro.api.artifact import RunArtifact
from repro.checker.checker import CheckedTrace
from repro.core.platform import spec_by_name
from repro.fsimpl.configs import ALL_CONFIGS, config_by_name
from repro.fsimpl.quirks import Quirks
from repro.gen import TestPlan, default_plan, explicit
from repro.harness.backends import (Backend, ProgressFn, RunRecord,
                                    resolve_backend)
from repro.oracle import oracle_name_for
from repro.script.ast import Script, Trace
from repro.script.printer import print_trace
from repro.store import CampaignStore, TraceRecord


class Session:
    """One configured pass of the test-and-check pipeline.

    Parameters
    ----------
    config:
        Configuration name (e.g. ``"linux_ext4"``) or a
        :class:`Quirks` instance.
    model:
        Model variant to check against; defaults to the configuration's
        platform.
    check_on:
        Additional platforms to check *in the same pass*: the traces go
        through the vectored multi-platform oracle once, and the
        resulting :class:`RunArtifact` carries a per-platform
        :class:`~repro.oracle.ConformanceProfile` for every trace
        (format v3).  ``check_on=["posix", "linux", "osx", "freebsd"]``
        answers the whole survey/portability question in one state-set
        exploration; ``model`` stays the primary verdict.
    plan:
        A :class:`repro.gen.TestPlan` selecting what to generate; its
        scripts stream into the backend without ever being
        materialised, and its provenance (and seeds) are recorded in
        the :class:`RunArtifact`.  Mutually exclusive with ``suite``.
    scale / limit:
        Default-plan knobs (ignored when ``plan`` or ``suite`` is
        given): ``scale`` multiplies the generated population,
        ``limit`` caps it.
    suite:
        An explicit script suite, e.g. to share one generated suite
        across the many sessions of a survey.
    backend:
        A :class:`repro.harness.backends.Backend` instance, or a
        family name (``"serial"`` / ``"sharded"``).  A *named* backend
        is built via :func:`~repro.harness.backends.make_backend`
        (``shards`` sizes it), **owned** by the session, and
        deterministically released by :meth:`close` — shard worker
        processes included, so a ``with Session(...)`` block leaves no
        worker running past it.  A backend *instance* passed in
        explicitly is shared — the session will not close it (use the
        backend's own context manager).  Defaults to a private, owned
        :class:`~repro.harness.backends.SerialBackend`.
    shards:
        Shard count for a named (or defaulted) backend: given alone it
        selects the sharded backend.  Rejected alongside a backend
        instance, whose construction already decided it.
    collect_coverage:
        Record which specification clauses the checking phase covers
        (needed for :meth:`RunArtifact.coverage_report`).
    store:
        A :class:`repro.store.CampaignStore` (or a path to one) that
        every verdict is appended to *as it arrives*, under the
        partition ``"<config>:<oracle-name>"``.  Appends are
        content-addressed, so re-running the same suite into the same
        store adds zero rows.  A store given as a path is owned by the
        session and closed by :meth:`close`; a store instance is
        shared and left open.
    """

    def __init__(self, config: str | Quirks,
                 model: Optional[str] = None, *,
                 check_on: Optional[Sequence[str]] = None,
                 plan: Optional[TestPlan] = None,
                 scale: int = 1, limit: int = 0,
                 suite: Optional[Sequence[Script]] = None,
                 backend: Optional[Union[Backend, str]] = None,
                 shards: Optional[int] = None,
                 collect_coverage: bool = False,
                 store: Optional[Union[CampaignStore, str,
                                       pathlib.Path]] = None) -> None:
        if plan is not None and suite is not None:
            raise ValueError("pass either plan or suite, not both")
        self.quirks = (config if isinstance(config, Quirks)
                       else config_by_name(config))
        self.model = model or self.quirks.platform
        # The checked-platform list, primary model first.  A one-entry
        # list degenerates to the classic single-model run.
        platforms = [self.model]
        for name in check_on or ():
            spec_by_name(name)  # validate eagerly, not in a worker
            if name not in platforms:
                platforms.append(name)
        self.check_on: Tuple[str, ...] = (
            tuple(platforms) if len(platforms) > 1 else ())
        self._oracle_name = oracle_name_for(platforms)
        self.scale = scale
        self.limit = limit
        self.backend, self._owns_backend = resolve_backend(backend,
                                                           shards)
        self._closed = False
        self.collect_coverage = collect_coverage
        if store is None or isinstance(store, CampaignStore):
            self._store = store
            self._owns_store = False
        else:
            self._store = CampaignStore(store)
            self._owns_store = True
        self._suite: Optional[Tuple[Script, ...]] = (
            tuple(suite) if suite is not None else None)
        if plan is not None:
            self.plan = plan
        elif suite is not None:
            self.plan = explicit(self._suite)
        else:
            generated = default_plan(scale=scale)
            self.plan = generated.take(limit) if limit else generated
        self._artifact: Optional[RunArtifact] = None

    # -- cached pipeline stages -----------------------------------------------

    @property
    def traces(self) -> Tuple[Trace, ...]:
        """The observed traces: those of :meth:`run`'s artifact (so the
        first access runs the pipeline, once)."""
        return tuple(c.trace for c in self.run().checked)

    # -- the campaign store ---------------------------------------------------

    @property
    def store(self) -> Optional[CampaignStore]:
        """The campaign store verdicts stream into (None when the
        session was built without one)."""
        return self._store

    @property
    def store_partition(self) -> str:
        """The config-partition this session's rows are addressed
        under: configuration name + oracle name."""
        return f"{self.quirks.name}:{self._oracle_name}"

    def _store_append(self, record: RunRecord) -> None:
        if self._store is None:
            return
        outcome = record.outcome
        self._store.append(TraceRecord(
            partition=self.store_partition,
            name=outcome.checked.trace.name,
            target_function=record.target_function,
            trace_text=(record.trace_text
                        or print_trace(outcome.checked.trace)),
            profiles=tuple(outcome.profiles),
            covered=tuple(sorted(outcome.covered)),
            exec_seconds=record.exec_seconds,
            check_seconds=record.check_seconds))

    # -- running --------------------------------------------------------------

    def iter_checked(self, progress: Optional[ProgressFn] = None
                     ) -> Iterator[CheckedTrace]:
        """Stream checked traces as the backend completes them.

        Consuming every item caches the :class:`RunArtifact`, so a
        subsequent :meth:`run` is free.  An abandoned partial iteration
        caches nothing.  The ``total`` passed to ``progress`` is the
        plan's cheap estimate — exact for materialised suites, ``0``
        when counting would cost a generation pass (name filters).
        """
        if self._artifact is not None:
            total = self._artifact.total
            for done, checked in enumerate(self._artifact.checked, 1):
                if progress is not None:
                    progress(done, total, checked)
                yield checked
            return
        for record in self._iter_records_streaming(progress):
            yield record.outcome.checked

    def iter_records(self, progress: Optional[ProgressFn] = None
                     ) -> Iterator[RunRecord]:
        """Stream full :class:`RunRecord` values as the backend
        completes them: the checked trace plus its per-script coverage
        fingerprint and per-platform profiles.

        This is the coverage-guided consumer's surface (the fuzzer
        selects parents by per-script clause hit-sets, which the
        artifact's union cannot provide).  Like :meth:`iter_checked`,
        consuming every item caches the artifact and streams rows into
        the campaign store.  Only a fresh session streams records: once
        the artifact is cached the per-record coverage is gone, so this
        raises rather than silently yielding hollow records.
        """
        if self._artifact is not None:
            raise RuntimeError(
                "iter_records needs a fresh session: the pipeline "
                "already ran and per-record coverage is folded away")
        yield from self._iter_records_streaming(progress)

    def _iter_records_streaming(self, progress: Optional[ProgressFn]
                                ) -> Iterator[RunRecord]:
        """The plan -> backend stream: generation is consumed lazily by
        the backend chunker, so checking overlaps generation and the
        suite is never held in memory.

        The loop runs one record ahead of what it yields: the end of a
        lazy stream is only observable by pulling past it, and the
        artifact must be finalized *before* the last item is yielded so
        a consumer that stops at exactly the last trace (zip, islice,
        next()-counting) still leaves the artifact cached and a later
        :meth:`run` free.
        """
        if self._suite is not None:
            source: Union[Tuple[Script, ...], Iterator[Script]] = \
                self._suite
            total_hint = len(self._suite)
        else:
            source = self.plan.scripts()
            total_hint = (self.plan.cheap_estimate() or 0
                          if progress is not None else 0)
        records: List[RunRecord] = []
        iterator = self.backend.run_iter(
            self.quirks, self._oracle_name, iter(source),
            collect_coverage=self.collect_coverage)
        t0 = time.perf_counter()
        pending = next(iterator, None)
        while pending is not None:
            record = pending
            pending = next(iterator, None)
            records.append(record)
            self._store_append(record)
            if progress is not None:
                progress(len(records), total_hint,
                         record.outcome.checked)
            if pending is None:
                self._finalize_records(
                    records, wall_seconds=time.perf_counter() - t0)
            yield record
        if self._artifact is None:  # empty suite: the loop never ran
            self._finalize_records(records, wall_seconds=0.0)

    def _finalize_records(self, records: Sequence[RunRecord],
                          wall_seconds: float) -> None:
        # The phases interleave (and under shards the check times are
        # summed shard time, not wall time), so apportion the
        # measured wall clock by the phases' relative weight — artifact
        # timings stay comparable to the paper's wall-clock
        # traces/second.
        sum_exec = sum(r.exec_seconds for r in records)
        busy = sum_exec + sum(r.check_seconds for r in records)
        exec_seconds = wall_seconds * sum_exec / busy if busy else 0.0
        check_seconds = wall_seconds - exec_seconds if busy else 0.0
        covered: set = set()
        for record in records:
            covered |= record.outcome.covered
        # Backends exposing run_stats (the sharded backend's shard and
        # verdict-memo counters) get them recorded in the artifact
        # (format v4 on) as sorted (key, value) pairs.
        stats_fn = getattr(self.backend, "run_stats", None)
        engine_stats = (tuple(sorted(
            (str(k), int(v)) for k, v in stats_fn().items()))
            if callable(stats_fn) else ())
        if self.check_on and any(
                len(r.outcome.profiles) != len(self.check_on)
                for r in records):
            # A custom backend that ignores the oracle name would
            # otherwise yield short profile rows and the artifact would
            # quietly report zero conformance everywhere.
            raise ValueError(
                "backend did not produce one conformance profile per "
                "platform; check_on requires an oracle-aware backend")
        self._artifact = RunArtifact(
            config=self.quirks.name, model=self.model,
            backend=self.backend.name,
            checked=tuple(r.outcome.checked for r in records),
            target_functions=tuple(r.target_function for r in records),
            exec_seconds=exec_seconds,
            check_seconds=check_seconds,
            coverage_collected=self.collect_coverage,
            covered_clauses=tuple(sorted(covered)),
            plan=self.plan.describe(),
            seeds=self.plan.seeds(),
            check_on=self.check_on,
            profiles=(tuple(r.outcome.profiles for r in records)
                      if self.check_on else ()),
            engine_stats=engine_stats)
        if self._store is not None:
            # The pass is complete: make the appended rows' index
            # durable now rather than at whenever-close-happens.
            self._store.flush()

    def run(self, progress: Optional[ProgressFn] = None) -> RunArtifact:
        """Run the pipeline (once) and return its artifact.

        Repeated calls return the cached artifact without re-executing
        or re-checking anything.
        """
        if self._artifact is None:
            for _ in self.iter_checked(progress=progress):
                pass
        assert self._artifact is not None
        return self._artifact

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the backend and campaign store this session owns
        (idempotent); shared instances are left untouched.

        For an owned sharded backend this is the deterministic
        teardown: shard worker processes are joined *now*, not whenever
        the interpreter's finalizers get around to it.
        """
        if not self._closed:
            self._closed = True
            if self._owns_backend:
                self.backend.close()
            if self._owns_store and self._store is not None:
                self._store.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def survey(configs: Optional[Sequence[str | Quirks]] = None, *,
           plan: Optional[TestPlan] = None,
           suite: Optional[Sequence[Script]] = None,
           scale: int = 1, limit: int = 0,
           check_on: Optional[Sequence[str]] = None,
           backend: Optional[Backend] = None,
           collect_coverage: bool = False) -> List[RunArtifact]:
    """Run the pipeline across many configurations, sharing the work.

    The backend (with its caches and shard processes) is shared by every
    per-configuration session — the section 7.3 survey as a single API
    call.  The population is generated exactly once: a ``plan`` is
    :meth:`~repro.gen.TestPlan.materialize`-d up front (its provenance
    and seeds still reach every artifact) rather than re-generated per
    configuration, and a ``suite`` — or the default generated
    population — is shared as-is.  ``check_on`` threads through to
    every session: each configuration's traces are checked against all
    listed platforms in one vectored pass.
    """
    if plan is not None and suite is not None:
        raise ValueError("pass either plan or suite, not both")
    quirks = [q if isinstance(q, Quirks) else config_by_name(q)
              for q in configs] if configs is not None else \
        list(ALL_CONFIGS)
    if plan is not None:
        plan = plan.materialize()
    elif suite is None:
        generated = default_plan(scale=scale)
        if limit:
            generated = generated.take(limit)
        suite = tuple(generated.scripts())
    shared, owned = resolve_backend(backend)
    try:
        return [
            Session(q, plan=plan, suite=suite, backend=shared,
                    check_on=check_on,
                    collect_coverage=collect_coverage).run()
            for q in quirks
        ]
    finally:
        if owned:
            shared.close()
