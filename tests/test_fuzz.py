"""The fuzzing subsystem: corpus, mutation, loop, view, CLI.

The load-bearing guarantees: every mutant round-trips byte-identically
through the parser/printer and type-checks against the command AST
(seeded property chains); the guided loop is deterministic and its
coverage frontier monotonically non-increasing; a stored campaign
resumes; and fuzz-generated scripts flow through every registered
checking engine with bit-for-bit parity — zero special cases.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from helpers_parity import ENGINES, profile_row
from repro.cli import main
from repro.core.commands import COMMAND_NAMES, command_name
from repro.core.coverage import CoverageRegistry, REGISTRY
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.fuzz import (Corpus, mutate, overlap_schedule, run_fuzz,
                        sanitize, script_from_trace)
from repro.gen import DEFAULT_STRATEGY_NAMES, REGISTRY as STRATEGIES
from repro.script.ast import CreateEvent, DestroyEvent, Script, ScriptStep
from repro.script.parser import parse_script
from repro.script.printer import print_script, print_trace
from repro.store import CampaignStore
from repro.testgen.randomized import random_script
from repro.testgen.scenarios import (gen_fault_tests,
                                     gen_interleaving_tests)


def _pool():
    return (gen_fault_tests() + gen_interleaving_tests()
            + [random_script(i, length=12, multi_process=(i % 2 == 0))
               for i in range(4)])


# -- scenario strategies ----------------------------------------------------

def test_scenario_strategies_registered_not_default():
    """The three families are selectable but keep the default suite
    byte-identical (estimate exactness is enforced for every strategy
    by test_gen_plan)."""
    for name, tag in (("fault", "fault"),
                      ("crash_recovery", "crash-recovery"),
                      ("interleaving", "interleaving")):
        strategy = STRATEGIES.get(name)
        assert "scenario" in strategy.tags and tag in strategy.tags
        assert name not in DEFAULT_STRATEGY_NAMES


def test_fault_family_reaches_fault_clauses():
    """The fault scripts actually hit the modelled fault surface:
    partial I/O and negative-offset clauses under coverage, ENOSPC in
    the traces of a capacity-limited configuration."""
    from repro.api import Session

    with Session("linux_ext4", suite=gen_fault_tests(),
                 collect_coverage=True) as session:
        covered = set(session.run().covered_clauses)
    assert {"osapi.write.partial", "osapi.read.partial",
            "osapi.pwrite.negative_offset",
            "osapi.pread.negative_offset"} <= covered

    quirks = config_by_name("linux_posixovl_vfat")
    texts = [print_trace(execute_script(quirks, s))
             for s in gen_fault_tests()]
    assert any("ENOSPC" in text for text in texts)


# -- mutation ---------------------------------------------------------------

def test_mutants_roundtrip_and_typecheck():
    """Property: seeded mutation chains stay parseable, printable and
    well-typed — parse(print(m)) == m and every command is a known
    command dataclass."""
    rng = random.Random(0)
    pool = _pool()
    for i in range(300):
        parent, mate = rng.choice(pool), rng.choice(pool)
        mutant = parent
        for _ in range(rng.randint(1, 4)):  # chains, not single hops
            mutant = mutate(mutant, rng, mate=mate,
                            rare_clauses=["osapi.write.partial",
                                          "fsop.rename.clobber",
                                          "pathres.symlink"],
                            name=f"fuzz___prop_{i}")
        text = print_script(mutant)
        assert parse_script(text) == mutant
        for item in mutant.items:
            if isinstance(item, ScriptStep):
                assert type(item.cmd) in COMMAND_NAMES
                assert command_name(item.cmd)


def test_mutants_execute_cleanly():
    rng = random.Random(1)
    pool = _pool()
    quirks = config_by_name("freebsd_ufs")
    for i in range(60):
        mutant = mutate(rng.choice(pool), rng, mate=rng.choice(pool),
                        name=f"fuzz___exec_{i}")
        execute_script(quirks, mutant)  # must not raise


def test_sanitize_repairs_process_directives():
    items = (CreateEvent(pid=2, uid=0, gid=0),
             CreateEvent(pid=2, uid=1, gid=1),   # duplicate: dropped
             DestroyEvent(pid=3),                # never created: dropped
             ScriptStep(pid=3, cmd=parse_script(
                 '@type script\nstat "a"\n').items[0].cmd),
             DestroyEvent(pid=3),                # auto-created: kept
             DestroyEvent(pid=1))                # p1: never destroyed
    cleaned = sanitize(items)
    assert cleaned == (items[0], items[3], items[4])


# -- trace <-> script -------------------------------------------------------

def test_script_from_trace_replays_identically():
    quirks = config_by_name("linux_ext4")
    for script in gen_interleaving_tests():
        trace = execute_script(quirks, script)
        recovered = script_from_trace(trace)
        assert print_trace(execute_script(quirks, recovered)) == \
            print_trace(trace)


def test_overlap_schedule_is_checkable_and_parity_clean():
    """Overlapped CALL/CALL/RETURN/RETURN schedules (which no script
    can express) go through every engine bit-for-bit identically."""
    from repro.core.labels import OsCall, OsReturn

    quirks = config_by_name("linux_ext4")
    traces = [overlap_schedule(execute_script(quirks, s))
              for s in gen_interleaving_tests()]
    overlapped = 0
    for trace in traces:
        depth = peak = 0
        for event in trace.events:
            if isinstance(event.label, OsCall):
                depth += 1
                peak = max(peak, depth)
            elif isinstance(event.label, OsReturn):
                depth -= 1
        overlapped += peak >= 2
    assert overlapped, "no interleaving trace produced overlap"

    platforms = ("posix", "linux")
    baseline = ENGINES["uninterned"](platforms)(traces)
    for name, factory in ENGINES.items():
        if name == "uninterned":
            continue
        assert factory(platforms)(traces) == baseline, name


# -- coverage registry satellites -------------------------------------------

def test_hit_is_thread_safe():
    registry = CoverageRegistry()
    registry.declare("t.clause", reachable=True)
    threads = [threading.Thread(
        target=lambda: [registry.hit("t.clause") for _ in range(2000)])
        for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # No public per-clause count surface; the invariant under test is
    # the locked increment, so read the point directly.
    assert registry._points["t.clause"].hits == 16000


def test_frontier_is_reachable_minus_covered():
    reachable = REGISTRY.reachable_names("linux")
    covered = set(list(reachable)[:10])
    frontier = REGISTRY.frontier(covered, ["linux"])
    assert set(frontier["linux"]) == reachable - covered


# -- the guided loop --------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_report():
    return run_fuzz("linux_ext4", iterations=3, batch=5, seed=11)


def test_fuzz_is_deterministic(fuzz_report):
    again = run_fuzz("linux_ext4", iterations=3, batch=5, seed=11)
    assert again.to_json() == fuzz_report.to_json()
    assert again.corpus_texts == fuzz_report.corpus_texts


def test_fuzz_frontier_monotone(fuzz_report):
    """Covered clauses only grow, so every platform's frontier is
    monotonically non-increasing across iterations."""
    history = [h for h in fuzz_report.history
               if not h.get("resumed")]
    assert [h["iteration"] for h in history] == [0, 1, 2]
    for platform in fuzz_report.platforms:
        sizes = [h["frontier_sizes"][platform] for h in history]
        assert sizes == sorted(sizes, reverse=True)
    covered = [h["covered_clauses"] for h in history]
    assert covered == sorted(covered)
    assert fuzz_report.history[0]["scripts"] == 30  # the scenario seeds


def test_fuzz_corpus_replays_through_every_engine(fuzz_report):
    """Zero special cases: the final corpus — seeds and mutants —
    checks bit-for-bit identically on every registered engine."""
    quirks = config_by_name("linux_ext4")
    traces = [execute_script(quirks, parse_script(text))
              for text in fuzz_report.corpus_texts]
    platforms = ("posix", "linux")
    baseline = ENGINES["uninterned"](platforms)(traces)
    for name, factory in ENGINES.items():
        if name == "uninterned":
            continue
        assert factory(platforms)(traces) == baseline, name


def test_fuzz_resumes_from_store(tmp_path):
    store_dir = str(tmp_path / "campaign")
    first = run_fuzz("linux_sshfs_tmpfs", iterations=2, batch=4,
                     seed=5, store=store_dir)
    second = run_fuzz("linux_sshfs_tmpfs", iterations=1, batch=4,
                      seed=6, store=store_dir)
    assert second.history[0].get("resumed")
    assert second.history[0]["corpus_size"] == first.corpus_size
    assert set(first.covered) <= set(second.covered)
    assert set(first.corpus_texts) <= set(second.corpus_texts)


def test_fuzz_resumes_from_path_store(tmp_path):
    """A store given as a ``pathlib.Path`` is opened and owned by the
    run, as a ``str`` one is, and a second run resumes from it."""
    store_dir = tmp_path / "campaign"
    first = run_fuzz("linux_sshfs_tmpfs", iterations=1, batch=2,
                     seed=5, store=store_dir)
    second = run_fuzz("linux_sshfs_tmpfs", iterations=1, batch=2,
                      seed=6, store=store_dir)
    assert second.history[0].get("resumed")
    assert second.history[0]["corpus_size"] == first.corpus_size
    assert set(first.corpus_texts) <= set(second.corpus_texts)


def test_fuzz_rejects_shards_with_backend_instance(tmp_path):
    """``shards`` sizes a named backend only: with a backend instance
    it raises, as :class:`~repro.api.Session` does, before a store is
    opened."""
    from repro.api import SerialBackend

    with pytest.raises(ValueError, match="backend instance"):
        run_fuzz("linux_ext4", iterations=1, batch=2,
                 backend=SerialBackend(), shards=4,
                 store=tmp_path / "campaign")
    assert not (tmp_path / "campaign").exists()


def test_fuzz_view_tracks_frontier(tmp_path):
    store_dir = str(tmp_path / "campaign")
    report = run_fuzz("linux_ext4", iterations=1, batch=4, seed=2,
                      store=store_dir)
    with CampaignStore(store_dir, create=False) as store:
        out = store.view("fuzz")
    assert out["records"] == report.corpus_size
    assert out["covered_clauses"] == len(report.covered)
    for platform, clauses in report.frontier.items():
        assert out["frontier_sizes"][platform] == len(clauses)
    partition, = out["partitions"]
    assert partition.startswith("linux_ext4:")


def test_session_iter_records_exposes_fingerprints():
    from repro.api import Session

    suite = gen_fault_tests()[:3]
    with Session("linux_ext4", check_on=["posix"], suite=suite,
                 collect_coverage=True) as session:
        records = list(session.iter_records())
        assert [r.outcome.checked.trace.name for r in records] == \
            [s.name for s in suite]
        assert all(r.outcome.covered for r in records)
        assert all(len(r.outcome.profiles) == 2 for r in records)
        with pytest.raises(RuntimeError):
            next(iter(session.iter_records()))


def test_corpus_energy_prefers_rare_and_divergent():
    corpus = Corpus()
    common = parse_script('@type script\nstat "a"\n', name="common")
    rare = parse_script('@type script\nstat "b"\n', name="rare")
    for i in range(9):
        corpus.add_script(
            Script(name=f"c{i}", items=common.items),
            ["clause.common"])
    corpus.add_script(rare, ["clause.rare"])
    entries = {e.name: e for e in corpus}
    assert corpus.energy(entries["rare"]) > \
        corpus.energy(entries["c0"])


# -- CLI --------------------------------------------------------------------

def test_cli_fuzz_smoke(tmp_path, capsys):
    out_json = tmp_path / "fuzz.json"
    code = main(["fuzz", "--config", "linux_ext4", "--iterations", "1",
                 "--batch", "4", "--seed", "0",
                 "--store", str(tmp_path / "store"),
                 "--frontier-json", str(out_json)])
    assert code == 0
    assert "corpus 30 scripts" in capsys.readouterr().out
    payload = json.loads(out_json.read_text())
    assert payload["corpus_size"] == 30
    assert payload["history"][0]["iteration"] == 0
    assert set(payload["frontier_sizes"]) == {"linux", "osx", "freebsd"}


def test_cli_coverage_json_and_uncovered(tmp_path, capsys):
    out_json = tmp_path / "coverage.json"
    code = main(["coverage", "--config", "linux_ext4",
                 "--plan", "handwritten", "--json", str(out_json),
                 "--uncovered"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if not l.startswith("coverage JSON")]
    assert lines and all(len(line.split(" ", 1)) == 2
                         for line in lines)
    payload = json.loads(out_json.read_text())
    assert payload["covered"] and payload["uncovered"]
    assert 0 < payload["fraction"] < 1
    platforms = payload["uncovered_by_platform"]
    for platform, clauses in platforms.items():
        assert [c for p, c in (line.split(" ", 1) for line in lines)
                if p == platform] == clauses
