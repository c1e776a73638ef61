"""Command-line interface: the turnkey black-box test setup.

The paper positions SibylFS as usable "routinely (with low effort for
the user)" during development and continuous integration.  This CLI
packages the pipeline accordingly::

    python -m repro check TRACE --model linux
    python -m repro check TRACE --platforms all      # one vectored pass
    python -m repro check TRACE --platforms linux,osx
    python -m repro oracles
    python -m repro exec SCRIPT --config linux_ext4 [--check]
    python -m repro gen --out DIR [--scale N]
    python -m repro run --config linux_sshfs_tmpfs [--html report.html]
    python -m repro run --config linux_ext4 --include 'rename*' \\
        --sample 100 --seed 7
    python -m repro run --config linux_ext4 --plan randomized \\
        --sample 50 --seed 3
    python -m repro run --config linux_ext4 --backend sharded \\
        --shards 4
    python -m repro serve --backend sharded --shards 4
    python -m repro serve --store campaign/ --stats-json stats.json
    python -m repro check TRACE --server 127.0.0.1:7323
    python -m repro check --artifact run.json       # streaming summary
    python -m repro run --config linux_ext4 --store campaign/
    python -m repro campaign init campaign/
    python -m repro campaign append campaign/ run.json
    python -m repro campaign survey campaign/ --json survey.json
    python -m repro campaign report campaign/ --html dash.html
    python -m repro campaign gc campaign/
    python -m repro survey
    python -m repro coverage --config linux_ext4
    python -m repro plans
    python -m repro portability TRACE
    python -m repro reduce SCRIPT --config linux_sshfs_tmpfs
    python -m repro debug TRACE --model posix
    python -m repro configs

Suite-level commands (``run``, ``survey``, ``coverage``, ``gen``) build
a :class:`repro.gen.TestPlan` from the selection flags —
``--plan`` (strategy name globs; see ``repro plans``), ``--include`` /
``--exclude`` (script-name globs), ``--sample N`` + ``--seed S``
(seeded reservoir sample), ``--scale`` and ``--limit`` — and stream it
through :class:`repro.api.Session`: one pipeline pass produces a
:class:`repro.api.RunArtifact` (with the plan's provenance and seeds
recorded) that the text summary, the HTML report (``--html``) and the
JSON artifact (``--artifact``) are all rendered from.  Generation
streams into checking, so ``--shards N`` starts checking on N shard
processes while the plan is still generating.

Exit status: 0 if everything checked conformant, 1 otherwise (suitable
for CI).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from typing import List, Optional

from repro.api import Session, make_backend, survey
from repro.checker import render_checked_trace
from repro.core.platform import SPECS, real_platforms, spec_by_name
from repro.executor import execute_script
from repro.fsimpl import ALL_CONFIGS, config_by_name
from repro.gen import REGISTRY, TestPlan, build_plan
from repro.harness import (merge_results, render_merge,
                           render_summary_table)
from repro.harness.debug import debug_trace, render_debug
from repro.harness.portability import portability_report
from repro.harness.reduce import reduce_script
from repro.oracle import (get_oracle, oracle_name_for,
                          REGISTRY as ORACLES)
from repro.script import (parse_script, parse_trace, print_script,
                          print_trace)


def _read(path: str) -> str:
    return pathlib.Path(path).read_text()


def _progress_printer(total_hint: str = "traces"):
    """A Session progress callback writing a live counter to stderr.

    ``total`` may be 0 when the plan streams without a cheap count
    (e.g. a name filter); the counter then runs open-ended.
    """
    def progress(done: int, total: int, _checked) -> None:
        if total:
            end = "\n" if done == total else "\r"
            print(f"checked {done}/{total} {total_hint}",
                  file=sys.stderr, end=end, flush=True)
        else:
            print(f"checked {done} {total_hint}",
                  file=sys.stderr, end="\r", flush=True)
    return progress


def _parse_platforms(spec: str) -> List[str]:
    """``--platforms`` values: a comma list, ``all``, or ``real``.

    Order-preserving and deduplicated (the first mention wins)."""
    if spec == "all":
        return list(SPECS)
    if spec == "real":
        return list(real_platforms())
    names: List[str] = []
    for name in (n.strip() for n in spec.split(",")):
        if not name or name in names:
            continue
        spec_by_name(name)  # fail fast on typos
        names.append(name)
    return names


def _cmd_check(args) -> int:
    if args.artifact:
        # Artifact mode: summarise a saved RunArtifact JSON without
        # loading it — rows stream through iter_results, so a huge v5
        # artifact costs one row of memory, not file + artifact.
        from repro.api import iter_results, read_header

        header = read_header(args.artifact)
        total = accepted = 0
        counts: dict = {p: 0 for p in header.get("check_on", ())}
        for row in iter_results(args.artifact):
            total += 1
            if row.checked.accepted:
                accepted += 1
            for profile in row.profiles:
                if profile.accepted:
                    counts[profile.platform] = \
                        counts.get(profile.platform, 0) + 1
        print(f"{args.artifact}: {accepted}/{total} traces accepted "
              f"({header['config']} vs {header['model']}, "
              f"format v{header['format']})")
        for platform, count in counts.items():
            print(f"  {platform:<8} {count}/{total} accepted")
        return 0 if accepted == total else 1
    if args.trace is None:
        print("repro check: a TRACE file (or --artifact) is required",
              file=sys.stderr)
        return 2
    if args.server:
        # Served checking: the trace travels to a running `repro
        # serve` as text; the model/platform set is the *server's*
        # (it owns the warm oracle), so --model/--platforms are
        # ignored here.  The wire profiles rebuild losslessly.
        from repro.oracle import ConformanceProfile, Verdict
        from repro.service.client import ServiceClient

        trace_text = _read(args.trace)
        with ServiceClient(args.server) as client:
            reply = client.check(trace_text)
        verdict = Verdict(
            trace=parse_trace(trace_text),
            profiles=tuple(ConformanceProfile.from_dict(row)
                           for row in reply["profiles"]))
        print(verdict.render())
        return 0 if verdict.accepted else 1
    trace = parse_trace(_read(args.trace))
    if args.platforms:
        oracle = get_oracle(
            oracle_name_for(_parse_platforms(args.platforms)))
        verdict = oracle.check(trace)
        print(verdict.render())
        return 0 if verdict.accepted else 1
    verdict = get_oracle(args.model).check(trace)
    print(render_checked_trace(verdict.primary_checked), end="")
    return 0 if verdict.accepted else 1


def _cmd_serve(args) -> int:
    import json
    import signal
    import threading

    from repro.service.server import run_server
    from repro.service.service import CheckingService

    model = (oracle_name_for(_parse_platforms(args.platforms))
             if args.platforms else args.model)
    shards = 0 if args.backend == "serial" else args.shards
    service = CheckingService(model, shards=shards, store=args.store)
    service.start()

    def ready(server) -> None:
        # Parseable by scripts (the CI smoke job greps this line for
        # the bound port — --port 0 picks a free one).
        print(f"repro serve: listening on {server.address()} "
              f"(model={model}, shards={service.shards})",
              flush=True)

    def write_stats() -> None:
        if args.stats_json:
            pathlib.Path(args.stats_json).write_text(
                json.dumps(service.stats(), indent=2, sort_keys=True)
                + "\n")

    stop_flush = threading.Event()

    def flush_loop() -> None:
        # Periodic durability: a SIGKILLed server still leaves its
        # last stats snapshot and a current store index behind.
        while not stop_flush.wait(max(1.0, args.stats_interval)):
            try:
                write_stats()
                if service.store is not None:
                    service.store.flush()
            except Exception:  # pragma: no cover - best effort
                pass

    flusher = None
    if args.stats_json or service.store is not None:
        flusher = threading.Thread(target=flush_loop, daemon=True,
                                   name="repro-serve-flush")
        flusher.start()

    def on_sigterm(_signum, _frame):  # pragma: no cover - signal path
        # Raise out of the event loop so the finally block below runs:
        # SIGTERM leaves the same stats file and closed store a clean
        # shutdown would.
        raise SystemExit(143)

    previous = signal.signal(signal.SIGTERM, on_sigterm)
    try:
        run_server(service, args.host, args.port, ready=ready)
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        stop_flush.set()
        if flusher is not None:
            flusher.join(timeout=5.0)
        stats = service.stats()
        service.shutdown()
        if args.stats_json:
            pathlib.Path(args.stats_json).write_text(
                json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print("repro serve: stopped", flush=True)
    return 0


def _cmd_oracles(_args) -> int:
    for name, platforms, summary in ORACLES.describe():
        print(f"{name:<18} [{','.join(platforms)}]  {summary}")
    print("vectored:A+B[+...]  any platform combination, one pass "
          "(first = primary)")
    return 0


def _cmd_exec(args) -> int:
    script = parse_script(_read(args.script))
    trace = execute_script(config_by_name(args.config), script)
    print(print_trace(trace), end="")
    if args.check:
        model = args.model or config_by_name(args.config).platform
        verdict = get_oracle(model).check(trace)
        print(render_checked_trace(verdict.primary_checked), end="")
        return 0 if verdict.accepted else 1
    return 0


def _plan_from_args(args) -> TestPlan:
    """The :class:`TestPlan` described by the selection flags."""
    names = getattr(args, "plan", None)
    return build_plan(
        names=[n.strip() for n in names.split(",") if n.strip()]
        if names else None,
        include=getattr(args, "include", None),
        exclude=getattr(args, "exclude", None),
        sample=getattr(args, "sample", None),
        seed=getattr(args, "seed", 0),
        scale=getattr(args, "scale", 1),
        limit=getattr(args, "limit", 0))


def _cmd_gen(args) -> int:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for script in _plan_from_args(args).scripts():
        (out / f"{script.name}.script").write_text(
            print_script(script))
        count += 1
    print(f"wrote {count} scripts to {out}")
    return 0


def _cmd_run(args) -> int:
    with make_backend(args.backend, args.shards) as backend:
        with Session(args.config, model=args.model,
                     check_on=_parse_platforms(args.check_on)
                     if args.check_on else None,
                     plan=_plan_from_args(args), backend=backend,
                     store=args.store) as session:
            artifact = session.run(
                progress=_progress_printer() if args.progress
                else None)
            if args.store:
                stats = session.store.stats()
                print(f"campaign store {args.store}: "
                      f"{stats['rows']} rows "
                      f"({stats['dedup_hits']} deduped)")
    # Every output below renders from this one artifact: the suite was
    # generated, executed and checked exactly once (as one stream).
    print(artifact.render_summary())
    if args.html:
        pathlib.Path(args.html).write_text(artifact.render_html())
        print(f"HTML report written to {args.html}")
    if args.artifact:
        artifact.save(args.artifact)
        print(f"JSON artifact written to {args.artifact}")
    return 0 if not artifact.failing else 1


def _cmd_survey(args) -> int:
    configs = (args.configs.split(",") if args.configs
               else [cfg.name for cfg in ALL_CONFIGS])
    with make_backend(args.backend, args.shards) as backend:
        artifacts = survey(configs, plan=_plan_from_args(args),
                           backend=backend)
    print(render_summary_table(artifacts))
    print()
    print(render_merge(merge_results(artifacts)))
    return 0


def _cmd_coverage(args) -> int:
    from repro.analysis.dead import install_dead_clauses
    from repro.core.coverage import REGISTRY as COVERAGE

    # Same dead-clause view as the fuzz loop: frontier and denominator
    # exclude clauses a platform's spec switches statically preclude.
    install_dead_clauses()

    with make_backend(args.backend, args.shards) as backend:
        session = Session(args.config, model=args.model,
                          plan=_plan_from_args(args),
                          backend=backend, collect_coverage=True)
        artifact = session.run()
        report = artifact.coverage_report()
    # The reachable-but-unhit clauses, per platform: the frontier a
    # coverage-guided campaign (repro fuzz) chases.
    frontier = COVERAGE.frontier(artifact.covered_clauses,
                                 sorted(SPECS))
    dead_by_platform = {platform: sorted(COVERAGE.statically_dead(
        platform)) for platform in sorted(SPECS)}
    if args.json:
        payload = report.to_dict()
        payload["config"] = session.quirks.name
        payload["model"] = session.model
        payload["uncovered_by_platform"] = frontier
        payload["dead_by_platform"] = dead_by_platform
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"coverage JSON written to {args.json}")
        if not args.uncovered:
            return 0
    if args.uncovered:
        # Dead clauses are annotated (commented), not listed as gaps:
        # they are provably not reachable on that platform, so no
        # campaign should chase them.
        for platform in sorted(frontier):
            for clause in frontier[platform]:
                print(f"{platform} {clause}")
            for clause in dead_by_platform[platform]:
                print(f"# {platform} {clause} (statically dead)")
        return 0
    print(report.render())
    return 0


def _cmd_fuzz(args) -> int:
    """The coverage-guided fuzzing loop (importing :mod:`repro.fuzz`
    also registers the ``fuzz`` campaign-store view)."""
    from repro.fuzz import run_fuzz

    platforms = (_parse_platforms(args.platforms)
                 if args.platforms else None)

    def progress(done: int, total: int, stats: dict) -> None:
        sizes = ",".join(f"{p}:{n}" for p, n in
                         sorted(stats.get("frontier_sizes",
                                          {}).items()))
        print(f"iteration {done}/{total}: corpus "
              f"{stats['corpus_size']}, covered "
              f"{stats['covered_clauses']} clauses, frontier "
              f"[{sizes}]", file=sys.stderr, flush=True)

    report = run_fuzz(
        args.config, platforms=platforms,
        iterations=args.iterations, batch=args.batch, seed=args.seed,
        store=args.store,
        backend=args.backend, shards=args.shards,
        progress=progress if args.progress else None)
    last = report.history[-1] if report.history else {}
    print(f"fuzz: {report.config} on "
          f"{'+'.join(report.platforms)}; corpus "
          f"{report.corpus_size} scripts, "
          f"{len(report.covered)} clauses covered after "
          f"{report.iterations} iteration(s)")
    for platform, clauses in sorted(report.frontier.items()):
        print(f"  frontier {platform:<8} {len(clauses)} "
              f"reachable clauses unhit")
    if last.get("divergent"):
        print(f"  {last['divergent']} corpus script(s) "
              f"platform-divergent")
    if args.frontier_json:
        pathlib.Path(args.frontier_json).write_text(
            report.to_json() + "\n")
        print(f"fuzz report JSON written to {args.frontier_json}")
    return 0


def _cmd_lint(args) -> int:
    """Static analysis over the repo: invariant lints + dead clauses."""
    from repro.analysis.dead import dead_clause_report
    from repro.analysis.lint import lint_paths, render_findings

    findings = lint_paths(args.paths,
                          rules=args.rules.split(",")
                          if args.rules else None)
    if args.json:
        payload = [dataclasses.asdict(f) for f in findings]
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"lint findings JSON written to {args.json}",
              file=sys.stderr)
    if args.dead_report:
        report = dead_clause_report()
        pathlib.Path(args.dead_report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
            + "\n")
        print(f"dead-clause report written to {args.dead_report}",
              file=sys.stderr)
    print(render_findings(findings))
    return 1 if findings else 0


def _cmd_lint_script(args) -> int:
    """Explain the abstract interpreter's verdict for one script."""
    from repro.analysis.absint import DOOMED, classify_script

    quirks = config_by_name(args.config) if args.config else None
    script = parse_script(_read(args.script))
    report = classify_script(script, quirks=quirks)
    print(report.render())
    return 1 if report.verdict == DOOMED else 0


def _cmd_plans(_args) -> int:
    total = 0
    for strategy in REGISTRY:
        estimate = strategy.estimate()
        total += estimate
        tags = ",".join(sorted(strategy.tags))
        print(f"{strategy.name:<18} {estimate:>6}  [{tags}]")
    print(f"{'TOTAL':<18} {total:>6}")
    return 0


def _cmd_portability(args) -> int:
    # One vectored pass over every model variant (SPECS order), folded
    # into the section 9 portability report.
    verdict = get_oracle("all").check(parse_trace(_read(args.trace)))
    report = portability_report(verdict)
    print(report.render())
    return 0 if report.portable else 1


def _cmd_reduce(args) -> int:
    from repro.harness.reduce import script_fails

    script = parse_script(_read(args.script))
    if not script_fails(args.config, script, model=args.model):
        print("# script does not fail on this configuration; "
              "nothing to reduce", file=sys.stderr)
        return 1
    reduced = reduce_script(args.config, script, model=args.model)
    print(print_script(reduced), end="")
    return 0


def _cmd_debug(args) -> int:
    trace = parse_trace(_read(args.trace))
    steps = debug_trace(spec_by_name(args.model), trace)
    print(render_debug(steps))
    return 0 if all(step.matched for step in steps) else 1


def _cmd_configs(_args) -> int:
    for cfg in ALL_CONFIGS:
        print(f"{cfg.name:<46} [{cfg.platform}]  {cfg.description}")
    return 0


def _cmd_campaign(args) -> int:
    """The campaign-store verbs: everything renders from the store's
    incremental folded views — no artifact is ever loaded whole."""
    from repro.store import (CampaignStore, render_dashboard,
                             render_survey)

    if args.action == "init":
        CampaignStore(args.dir).close()
        print(f"initialised campaign store at {args.dir}")
        return 0
    with CampaignStore(args.dir, create=False) as store:
        if args.action == "append":
            from repro.api import import_artifact_file
            for path in args.artifacts:
                result = import_artifact_file(store, path)
                print(f"{path}: {result['appended']} rows appended, "
                      f"{result['deduped']} deduped "
                      f"(partition {result['partition']})")
            return 0
        if args.action == "merge":
            from repro.harness import render_merge
            records = store.view("merge")
            if not records:
                print("no deviations recorded")
                return 0
            print(render_merge(records))
            return 0
        if args.action == "survey":
            survey_state = store.refresh_view("survey")
            print(render_survey(survey_state))
            if args.json:
                pathlib.Path(args.json).write_text(
                    store.view_json("survey"))
                print(f"survey JSON written to {args.json}")
            return 0
        if args.action == "report":
            page = render_dashboard(
                args.title or f"campaign: {args.dir}",
                survey=store.refresh_view("survey"),
                merge=store.view("merge"),
                portability=store.refresh_view("portability"),
                coverage=store.refresh_view("coverage"),
                stats=store.stats())
            pathlib.Path(args.html).write_text(page)
            print(f"campaign dashboard written to {args.html}")
            return 0
        if args.action == "export":
            from repro.api import export_artifact
            artifact = export_artifact(store, args.partition)
            artifact.save(args.out)
            print(f"exported {artifact.total} traces of partition "
                  f"{args.partition} to {args.out}")
            return 0
        if args.action == "gc":
            result = store.gc()
            print(f"gc: {result['rows_before']} -> "
                  f"{result['rows_after']} rows, "
                  f"{result['bytes_before']} -> "
                  f"{result['bytes_after']} bytes, "
                  f"{result['segments_before']} -> "
                  f"{result['segments_after']} segment(s)")
            return 0
    raise AssertionError(f"unhandled campaign action {args.action!r}")


def _shard_count(text: str) -> int:
    """``--shards``: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {value}")
    return value


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None,
                        choices=["serial", "sharded"],
                        help="backend family (default: serial, or "
                             "sharded with --shards); 'sharded' "
                             "executes in this process and checks on "
                             "persistent shard workers")
    parser.add_argument("--shards", type=_shard_count, default=None,
                        help="shard workers for the sharded backend "
                             "(default: CPU count, min 2); implies "
                             "--backend sharded")
    parser.set_defaults(usage_error=parser.error)


def _add_plan_flags(parser: argparse.ArgumentParser) -> None:
    """The TestPlan selection flags shared by the suite commands."""
    parser.add_argument("--plan", default=None, metavar="NAMES",
                        help="comma-separated strategy name globs "
                             "(see 'repro plans'; default: every "
                             "strategy except randomized)")
    parser.add_argument("--include", action="append", default=None,
                        metavar="GLOB",
                        help="keep only script names matching a glob "
                             "(repeatable)")
    parser.add_argument("--exclude", action="append", default=None,
                        metavar="GLOB",
                        help="drop script names matching a glob "
                             "(repeatable)")
    parser.add_argument("--sample", type=int, default=None, metavar="N",
                        help="seeded reservoir sample of N scripts")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for --sample and for the randomized "
                             "strategy (recorded in the artifact)")
    parser.add_argument("--scale", type=int, default=1,
                        help="replicate the population N times "
                             "(renamed copies, for throughput runs)")
    parser.add_argument("--limit", type=int, default=0,
                        help="stop after the first N scripts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SibylFS reproduction: oracle-based file-system "
                    "testing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a trace against one model "
                                     "or several in one pass")
    p.add_argument("trace", nargs="?", default=None)
    p.add_argument("--artifact", default=None, metavar="PATH",
                   help="summarise a saved RunArtifact JSON instead "
                        "of checking a trace (streams the rows; the "
                        "artifact is never loaded whole)")
    p.add_argument("--model", default="posix", choices=sorted(SPECS))
    p.add_argument("--platforms", default=None, metavar="LIST",
                   help="comma-separated platforms, 'all' or 'real': "
                        "check them all in a single vectored pass "
                        "(overrides --model; exit 0 iff every "
                        "platform accepts)")
    p.add_argument("--server", default=None, metavar="HOST:PORT",
                   help="check through a running 'repro serve' "
                        "instead of in-process (the server's model "
                        "decides the platforms)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("serve", help="run the persistent checking "
                                     "service (line-JSON over TCP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0: pick a free one; the "
                        "bound address is printed on stdout)")
    p.add_argument("--model", default="all",
                   help="oracle name to serve (default 'all': every "
                        "platform in one vectored pass)")
    p.add_argument("--platforms", default=None, metavar="LIST",
                   help="comma-separated platforms, 'all' or 'real' "
                        "(overrides --model)")
    p.add_argument("--backend", default="sharded",
                   choices=["serial", "sharded"],
                   help="'sharded' checks on a persistent shard pool; "
                        "'serial' checks in-process on the warm "
                        "oracle")
    p.add_argument("--shards", type=_shard_count, default=None,
                   help="shard workers (default: CPU count, min 2)")
    p.set_defaults(usage_error=p.error)
    p.add_argument("--stats-json", default=None, metavar="PATH",
                   help="write the service's cumulative stats as JSON "
                        "— periodically, on SIGTERM and on shutdown "
                        "(a killed server still leaves its last "
                        "snapshot)")
    p.add_argument("--stats-interval", type=float, default=30.0,
                   metavar="SECONDS",
                   help="periodic stats/store flush interval "
                        "(default 30)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="append every served verdict to a campaign "
                        "store (created if absent); content-addressed, "
                        "so retries dedup and the campaign survives "
                        "restarts")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("oracles", help="list registered checking "
                                       "oracles")
    p.set_defaults(func=_cmd_oracles)

    p = sub.add_parser("exec", help="execute a script on a "
                                    "configuration")
    p.add_argument("script")
    p.add_argument("--config", required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--model", default=None)
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("gen", help="write the planned suite to disk")
    p.add_argument("--out", required=True)
    _add_plan_flags(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="plan, execute and check a suite "
                                   "(one streamed pass)")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--check-on", default=None, metavar="LIST",
                   help="also check every trace against these "
                        "platforms (comma list, 'all' or 'real') in "
                        "the same vectored pass; the artifact records "
                        "per-platform profiles (format v3)")
    _add_plan_flags(p)
    _add_backend_flags(p)
    p.add_argument("--html", default=None,
                   help="also write an HTML report (same pass)")
    p.add_argument("--artifact", default=None,
                   help="also write the RunArtifact as JSON (for CI "
                        "diffing; records the plan and seeds)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="also append every verdict to a campaign "
                        "store as it arrives (created if absent; "
                        "re-runs dedup)")
    p.add_argument("--progress", action="store_true",
                   help="stream per-trace progress to stderr")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("survey", help="run all configurations and "
                                      "merge deviations")
    p.add_argument("--configs", default=None,
                   help="comma-separated subset")
    _add_plan_flags(p)
    _add_backend_flags(p)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("coverage", help="measure model coverage")
    p.add_argument("--config", default="linux_ext4")
    p.add_argument("--model", default=None)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the coverage report as JSON: covered "
                        "and uncovered clause lists plus the "
                        "per-platform reachable-but-unhit frontier")
    p.add_argument("--uncovered", action="store_true",
                   help="print the reachable-but-unhit clauses, one "
                        "'<platform> <clause>' per line, instead of "
                        "the rendered report")
    _add_plan_flags(p)
    _add_backend_flags(p)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("fuzz", help="coverage-guided scenario fuzzing "
                                    "(mutate toward rare clauses and "
                                    "platform divergence)")
    p.add_argument("--config", default="linux_ext4")
    p.add_argument("--platforms", default=None, metavar="LIST",
                   help="comma-separated platforms, 'all' or 'real' "
                        "(default: every real platform, so the "
                        "divergence signal is live); the first entry "
                        "is the primary model")
    p.add_argument("--iterations", type=int, default=8,
                   help="fuzzing iterations (iteration 0 of a fresh "
                        "campaign runs the scenario seed families)")
    p.add_argument("--batch", type=int, default=8,
                   help="mutants per iteration")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (same seed + budget + store state "
                        "=> identical corpus and frontier history)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="persist the corpus in a campaign store "
                        "(created if absent) and resume from it; "
                        "keeps the incremental 'fuzz' view fresh")
    p.add_argument("--frontier-json", default=None, metavar="PATH",
                   help="write the full fuzz report (per-iteration "
                        "frontier history, covered clauses, corpus "
                        "size) as JSON — the CI artifact")
    p.add_argument("--progress", action="store_true",
                   help="stream per-iteration progress to stderr")
    _add_backend_flags(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("plans", help="list registered generation "
                                     "strategies with estimates")
    p.set_defaults(func=_cmd_plans)

    p = sub.add_parser("lint", help="run the repo-invariant linter "
                                    "(layering, lock discipline, "
                                    "determinism, pickle-safety, "
                                    "clause consistency)")
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to lint "
                        "(default: src/repro)")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule subset (default: all)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the findings as JSON")
    p.add_argument("--dead-report", default=None, metavar="PATH",
                   help="also write the per-platform dead-clause "
                        "analysis as JSON")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("lint-script",
                       help="explain the abstract interpreter's "
                            "well-formed/doomed verdict per step")
    p.add_argument("script", help="script file (or - for stdin)")
    p.add_argument("--config", default=None,
                   help="sharpen verdicts with one configuration's "
                        "quirks (e.g. a config failing every chmod)")
    p.set_defaults(func=_cmd_lint_script)

    p = sub.add_parser("portability",
                       help="which platforms allow a trace?")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_portability)

    p = sub.add_parser("reduce", help="shrink a failing script")
    p.add_argument("script")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("debug", help="show the tracked state set at "
                                     "every step")
    p.add_argument("trace")
    p.add_argument("--model", default="posix", choices=sorted(SPECS))
    p.set_defaults(func=_cmd_debug)

    p = sub.add_parser("configs", help="list the survey configurations")
    p.set_defaults(func=_cmd_configs)

    p = sub.add_parser("campaign",
                       help="manage an append-only campaign store "
                            "(init/append/merge/survey/report/"
                            "export/gc)")
    campaign = p.add_subparsers(dest="action", required=True)
    c = campaign.add_parser("init", help="create an empty store")
    c.add_argument("dir")
    c = campaign.add_parser("append",
                            help="import RunArtifact JSON files "
                                 "(streaming; re-imports dedup)")
    c.add_argument("dir")
    c.add_argument("artifacts", nargs="+", metavar="ARTIFACT")
    c = campaign.add_parser("merge",
                            help="merged cross-platform deviations "
                                 "from the folded merge view")
    c.add_argument("dir")
    c = campaign.add_parser("survey",
                            help="per-partition conformance counts "
                                 "from the folded survey view")
    c.add_argument("dir")
    c.add_argument("--json", default=None, metavar="PATH",
                   help="also write the survey view state as "
                        "canonical JSON (byte-stable across re-runs)")
    c = campaign.add_parser("report",
                            help="render the HTML campaign dashboard "
                                 "from the folded views")
    c.add_argument("dir")
    c.add_argument("--html", required=True, metavar="PATH")
    c.add_argument("--title", default=None)
    c = campaign.add_parser("export",
                            help="rebuild one partition as a "
                                 "RunArtifact JSON")
    c.add_argument("dir")
    c.add_argument("partition")
    c.add_argument("--out", required=True, metavar="PATH")
    c = campaign.add_parser("gc",
                            help="compact segments: drop duplicate "
                                 "rows and superseded meta rows")
    c.add_argument("dir")
    for c in campaign.choices.values():
        c.set_defaults(func=_cmd_campaign)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None) == "serial" and \
            args.shards is not None:
        args.usage_error("--backend serial takes no --shards")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
