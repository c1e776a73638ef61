"""The coverage-guided fuzzing loop.

One iteration is one ordinary checking pass: select energy-weighted
parents from the corpus, mutate them (:mod:`repro.fuzz.mutate`), and
drive the batch through a fresh :class:`~repro.api.Session` — plans,
executor, oracles, backends (sharded and served included) and the
campaign store all behave exactly as they do for any other suite; the
fuzzer adds nothing to the checking path.  The per-script
:class:`~repro.api.RunRecord` stream feeds the corpus: coverage
fingerprints update clause rarity, verdict signals (deviation,
cross-platform divergence) add energy, and the per-platform frontier
(reachable-but-unhit clauses) steers the ``insert`` operator's
rare-clause templates.

Determinism: one seeded :class:`random.Random` drives selection and
mutation, serial execution/checking is deterministic, and script names
are stamped ``fuzz___s<seed>_i<iteration>_<k>`` — the same seed and
budget reproduce the same corpus and the same frontier history
bit-for-bit (CI asserts this).

Persistence: give ``store=`` and every verdict streams into the
campaign store under the session's usual partition; on the next run
the loop folds those rows back into the corpus (traces → scripts via
:func:`~repro.fuzz.corpus.script_from_trace`) before fuzzing, so a
campaign resumes where it stopped.  The ``fuzz`` store view
(:mod:`repro.fuzz.view`) tracks the same frontier incrementally.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.session import Session
from repro.core.coverage import REGISTRY
from repro.core.platform import real_platforms
from repro.fsimpl.quirks import Quirks
from repro.fsimpl.configs import config_by_name
from repro.fuzz.corpus import Corpus, script_from_trace
from repro.fuzz.mutate import mutate, probe
from repro.gen.registry import REGISTRY as STRATEGIES
from repro.harness.backends import Backend, resolve_backend
from repro.oracle import oracle_name_for
from repro.script.ast import Script
from repro.script.parser import parse_trace
from repro.store import CampaignStore, TraceRecord

#: The scenario families seeding a fresh corpus: fault injection,
#: crash/recovery prefixes, multi-process interleavings.
SEED_STRATEGIES: Tuple[str, ...] = ("fault", "crash_recovery",
                                    "interleaving")


@dataclasses.dataclass(frozen=True)
class FuzzReport:
    """What a fuzzing run produced, JSON-serialisable for CI."""

    config: str
    model: str
    platforms: Tuple[str, ...]
    seed: int
    iterations: int
    history: Tuple[dict, ...]
    covered: Tuple[str, ...]
    frontier: Dict[str, List[str]]
    corpus_size: int
    corpus_texts: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "model": self.model,
            "platforms": list(self.platforms),
            "seed": self.seed,
            "iterations": self.iterations,
            "history": list(self.history),
            "covered": list(self.covered),
            "covered_clauses": len(self.covered),
            "frontier": {p: list(c) for p, c in self.frontier.items()},
            "frontier_sizes": {p: len(c)
                               for p, c in self.frontier.items()},
            "corpus_size": self.corpus_size,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _resume_corpus(store: CampaignStore, partition: str) -> Corpus:
    """Fold a store partition's rows back into a corpus."""
    corpus = Corpus()
    for _cursor, record in store.records():
        if not isinstance(record, TraceRecord):
            continue
        if record.partition != partition:
            continue
        trace = parse_trace(record.trace_text, name=record.name)
        corpus.add_script(script_from_trace(trace), record.covered,
                          record.profiles)
    return corpus


def run_fuzz(config: Union[str, Quirks], *,
             platforms: Optional[Sequence[str]] = None,
             iterations: int = 8,
             batch: int = 8,
             seed: int = 0,
             store: Optional[Union[CampaignStore, str,
                                   pathlib.Path]] = None,
             backend: Optional[Union[Backend, str]] = None,
             shards: Optional[int] = None,
             seed_strategies: Sequence[str] = SEED_STRATEGIES,
             progress=None) -> FuzzReport:
    """Run the coverage-guided loop and return its report.

    ``platforms`` defaults to every real modelled platform so the
    divergence signal (platforms disagreeing about one trace) is
    available; the first entry (default: the configuration's own
    platform) is the primary model.  ``progress`` is called as
    ``progress(iteration, total_iterations, stats_dict)`` after each
    iteration.

    ``store`` and ``backend`` follow :class:`~repro.api.Session`'s
    rules: a store given as a path, and a backend given by name (sized
    by ``shards``), are owned by the run and closed at its end;
    instances are shared.  ``shards`` with a backend instance raises
    :class:`ValueError`.
    """
    # Statically-dead clauses leave the frontier before the first
    # iteration: probing them would be guaranteed-wasted energy, and
    # the coverage reports must agree bit-for-bit with this view.
    from repro.analysis.dead import install_dead_clauses
    install_dead_clauses()

    quirks = (config if isinstance(config, Quirks)
              else config_by_name(config))
    if platforms is None:
        primary = (quirks.platform if quirks.platform
                   in real_platforms() else "posix")
        platform_list = [primary] + [p for p in real_platforms()
                                     if p != primary]
    else:
        platform_list = list(platforms)
    model, check_on = platform_list[0], platform_list[1:]
    partition = f"{quirks.name}:{oracle_name_for(platform_list)}"

    # The backend first: a named one that rejects its sizing raises
    # before a store is opened (a pool spawns only on its first call).
    backend_obj, owns_backend = resolve_backend(backend, shards)
    owns_store = store is not None and not isinstance(store,
                                                      CampaignStore)
    store_obj: Optional[CampaignStore] = (
        CampaignStore(store) if owns_store else store)

    rng = random.Random(seed)
    corpus = (Corpus() if store_obj is None
              else _resume_corpus(store_obj, partition))
    resumed = len(corpus)
    history: List[dict] = []

    def run_batch(suite: Sequence[Script]) -> int:
        """One checking pass; returns how many scripts were new."""
        session = Session(quirks, model, check_on=check_on,
                          suite=list(suite), backend=backend_obj,
                          collect_coverage=True, store=store_obj)
        added = 0
        for record in session.iter_records():
            # Enter the corpus in *realized* form (recovered from the
            # trace, auto-created pids explicit): byte-identical to
            # what a store resume recovers, so dedup survives restarts.
            script = script_from_trace(record.outcome.checked.trace)
            if corpus.add_script(script, record.outcome.covered,
                                 record.outcome.profiles):
                added += 1
        return added

    try:
        for iteration in range(iterations):
            if len(corpus) == 0:
                # Iteration 0 of a fresh campaign: the scenario seeds.
                suite: List[Script] = []
                for name in seed_strategies:
                    suite.extend(STRATEGIES.get(name).scripts())
            else:
                frontier = REGISTRY.frontier(corpus.covered,
                                             platform_list)
                rare: List[str] = sorted(
                    {clause for clauses in frontier.values()
                     for clause in clauses})
                # A slice of each batch goes to from-scratch frontier
                # probes (rare-clause fragments, no parent); the rest
                # are energy-selected mutants.
                probes = max(1, batch // 4) if rare else 0
                parents = corpus.select(rng, batch - probes)
                mates = corpus.select(rng, batch - probes)
                suite = [
                    mutate(parent.script, rng, mate=mates[k].script,
                           rare_clauses=rare,
                           name=f"fuzz___s{seed}_i{iteration}_{k}")
                    for k, parent in enumerate(parents)]
                suite.extend(
                    probe(rng, rare,
                          name=f"fuzz___s{seed}_i{iteration}_p{k}")
                    for k in range(probes))
            added = run_batch(suite)
            frontier = REGISTRY.frontier(corpus.covered, platform_list)
            stats = {
                "iteration": iteration,
                "scripts": len(suite),
                "new": added,
                "corpus_size": len(corpus),
                "covered_clauses": len(corpus.covered),
                "frontier_sizes": {p: len(c)
                                   for p, c in frontier.items()},
                "divergent": sum(1 for e in corpus if e.divergent),
            }
            history.append(stats)
            if store_obj is not None:
                store_obj.refresh_view("fuzz")
            if progress is not None:
                progress(iteration + 1, iterations, stats)
    finally:
        if owns_backend:
            backend_obj.close()
        if owns_store and store_obj is not None:
            store_obj.close()

    frontier = REGISTRY.frontier(corpus.covered, platform_list)
    if resumed:
        history.insert(0, {"iteration": -1, "scripts": 0,
                           "new": resumed, "corpus_size": resumed,
                           "resumed": True})
    return FuzzReport(
        config=quirks.name, model=model,
        platforms=tuple(platform_list), seed=seed,
        iterations=iterations, history=tuple(history),
        covered=tuple(sorted(corpus.covered)),
        frontier=frontier,
        corpus_size=len(corpus),
        corpus_texts=tuple(entry.script_text for entry in corpus))
