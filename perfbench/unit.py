"""One unit of a workload, in a fresh process (cold oracle and intern
caches, as a user's ``repro run`` or ``repro serve`` starts).

The runner passes its ``time.monotonic()`` reading taken just before it
launched this process; set-up time runs from there until the system can
take its first input.  The unit prints one JSON object: its timings,
latency samples, peak RSS, input properties, the verification counts
against the recorded references and, when traced, its layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import time

import workloads as W
from spans import TimedPlan, Tracer, install


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its children's."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def mismatches(keyed_digests, corrupt: bool) -> int:
    """How many ``(reference set, ref id, digest)`` differ from the
    recorded references (``corrupt`` flips the first, for the
    self-test)."""
    sets = W.load_refs()["sets"]
    failed = 0
    for n, (key, ref_id, got) in enumerate(keyed_digests):
        if corrupt and n == 0:
            got = "corrupted"
        if sets.get(key, {}).get(ref_id) != got:
            failed += 1
    return failed


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the Session lanes --------------------------------------------------------

def run_session(args, tracer) -> dict:
    from repro import Session
    from repro.script import print_trace
    from repro.store import CampaignStore

    store = None
    if args.workload == "random_check":
        plan, order = W.random_plan(args.seed,
                                    max(1, W.RANDOM_COUNT // args.fraction))
        ref_ids = [str(j) for j in order]
        config, kwargs = "linux_sshfs_tmpfs", {"check_on": W.PLATFORMS}
    else:
        plan = W.slice_plan(args.fraction)
        ref_ids = [str(i) for i in W.slice_indices(args.fraction)]
        config, kwargs = "linux_ext4", {}
        if args.workload == "plan_sharded":
            store = CampaignStore(os.path.join(args.work, "store"))
            if tracer is not None:
                store.append = tracer.wrap("store.append", store.append)
            config = "osx_hfsplus"
            kwargs = {"check_on": W.PLATFORMS, "backend": "sharded",
                      "shards": W.SHARDS, "store": store}
    timed_plan = TimedPlan(plan, tracer)
    session = Session(config, plan=timed_plan, **kwargs)
    setup_s = time.monotonic() - args.launch
    if args.setup_only:
        session.close()
        if store is not None:
            store.close()
        return {"setup_s": setup_s}

    records = []
    t0 = time.perf_counter()
    stream = session.iter_records()
    if tracer is not None:
        stream = tracer.wrap_iter("session", stream)
    for record in stream:
        records.append(record)
    wall = time.perf_counter() - t0

    run_stats = session.backend.run_stats()
    store_stats = store.stats() if store is not None else {}
    session.close()
    if store is not None:
        store.close()
    rss = peak_rss_mb()

    texts = [print_trace(r.outcome.checked.trace) for r in records]
    rows = [[p.to_dict() for p in r.outcome.profiles] for r in records]
    failed = mismatches([(args.workload, ref_id, W.digest(t, p))
                         for ref_id, t, p in zip(ref_ids, texts, rows)],
                        args.corrupt)
    result = {
        "setup_s": setup_s, "wall_s": wall, "items": len(records),
        "latencies_ms": [(r.exec_seconds + r.check_seconds) * 1e3
                         for r in records],
        "peak_rss_mb": rss, "attempted": len(ref_ids),
        "failed": failed + abs(len(ref_ids) - len(records)),
        "inputs": W.input_properties(timed_plan.seen, texts,
                                     max(map(len, texts), default=0)),
    }
    if tracer is not None:
        warm = run_stats.get("warmup_traces", len(records)) \
            if args.workload == "plan_sharded" else len(records)
        worker = records[warm:]
        profiles = [r.outcome.profiles for r in records]
        # Shard workers' prefix caches cannot be seen from here, and the
        # parent's warm oracle saw only the warmup traces.
        cache = [o.cache.stats() for o in tracer.oracles
                 if getattr(o, "cache", None) is not None
                 and args.workload != "plan_sharded"]
        hits = sum(c["hits"] for c in cache)
        labels = sum(p[0].labels_checked for p in profiles)
        exec_busy = tracer.busy_s["exec"] + sum(r.exec_seconds
                                                for r in worker)
        check_busy = tracer.busy_s["check"] + sum(r.check_seconds
                                                  for r in worker)
        arena = (run_stats.get("arena_hits", 0)
                 + run_stats.get("arena_misses", 0))
        steps = result["inputs"]["steps"]
        result["layers"] = {
            "gen.busy_s": tracer.busy_s["gen"],
            "exec.steps": steps, "exec.busy_s": exec_busy,
            "exec.us_per_step": ratio(exec_busy, steps) * 1e6,
            "trace.print_s": tracer.busy_s["trace.print"],
            "trace.parse_s": tracer.busy_s["trace.parse"],
            "check.labels": labels, "check.busy_s": check_busy,
            "check.us_per_label": ratio(check_busy, labels) * 1e6,
            "check.prefix_hit_ratio": ratio(
                hits, hits + sum(c["misses"] for c in cache)),
            "check.peak_states": max((q.max_state_set for p in profiles
                                      for q in p), default=0),
            "check.deviating": sum(not p[0].accepted for p in profiles),
            "pool.wait_s": tracer.self_s["pool.wait"],
            "pool.arena_hit_ratio": ratio(run_stats.get("arena_hits", 0),
                                          arena),
            "pool.epochs_published": run_stats.get("epochs_published", 0),
            "pool.verdict_hits": run_stats.get("verdict_hits", 0),
            "pool.resolved_in_parent": run_stats.get("warmup_traces", 0),
            "store.rows": store_stats.get("rows", 0),
            "store.dedup_hits": store_stats.get("dedup_hits", 0),
            "store.append_s": tracer.busy_s["store.append"],
            "store.bytes_per_row": ratio(store_stats.get("bytes", 0),
                                         store_stats.get("rows", 0)),
        }
    return result


# -- the served lane ----------------------------------------------------------

READY = re.compile(r"repro serve: listening on (\S+)")


def start_server(store_dir: str):
    env = dict(os.environ, PYTHONPATH=str(W.SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--model", "all", "--shards", str(W.SHARDS), "--store",
         store_dir], stdout=subprocess.PIPE, text=True, env=env)
    for line in proc.stdout:
        match = READY.search(line)
        if match:
            return proc, match.group(1)
    proc.wait()
    raise RuntimeError(f"repro serve exited ({proc.returncode}) before "
                       "listening")


def run_serve(args, tracer) -> dict:
    from repro.service import ServiceClient
    from repro.store import CampaignStore

    with open(args.stream) as fh:
        stream = json.load(fh)
    requests = stream["requests"]
    store_dir = os.path.join(args.work, "store")
    launch = time.monotonic()
    server, address = start_server(store_dir)
    try:
        setup_s = time.monotonic() - launch

        def connect():
            client = ServiceClient(address, timeout=60)
            if tracer is not None:
                client._send = tracer.wrap("serve.send", client._send)
                client._read = tracer.wrap("serve.reply_wait",
                                           client._read)
            return client

        client = connect()
        if args.setup_only:
            client.shutdown()
            client.close()
            code = server.wait(timeout=60)
            return {"setup_s": setup_s, "failed": int(code != 0)}

        def ask(text: str, request_id: int) -> dict:
            return client.check(text, request_id=request_id)

        if tracer is not None:
            ask = tracer.wrap("session", ask)
        replies, latencies = [], []
        reconnects = errors = 0
        t0 = time.perf_counter()
        for i, (config, index, text) in enumerate(requests):
            start = time.perf_counter()
            try:
                reply = ask(text, i)
            except RuntimeError:  # an error reply: the connection holds
                errors += 1
                latencies.append(None)
                continue
            except OSError:  # ConnectionError and timeouts included
                errors += 1
                reconnects += 1
                latencies.append(None)
                client.close()
                client = connect()
                continue
            latencies.append((time.perf_counter() - start) * 1e3)
            replies.append((config, index, text, reply))
        wall = time.perf_counter() - t0
        status = client.status()["engine_stats"]
        client.shutdown()
        client.close()
        code = server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    rss = peak_rss_mb()
    store_stats = CampaignStore(store_dir, create=False).stats()

    failed = mismatches([(f"serve_stream:{config}", str(index),
                          W.digest(text, reply["profiles"]))
                         for config, index, text, reply in replies],
                        args.corrupt)
    result = {
        "setup_s": setup_s, "wall_s": wall, "items": len(replies),
        "latencies_ms": latencies, "peak_rss_mb": rss,
        "attempted": len(requests),
        "failed": min(len(requests), failed + errors + (code != 0)),
        "inputs": stream["inputs"],
    }
    if tracer is not None:
        rows = [reply["profiles"] for *_, reply in replies]
        arena = status.get("arena_hits", 0) + status.get("arena_misses", 0)
        result["layers"] = {
            "check.labels": sum(p[0]["labels_checked"] for p in rows),
            "check.peak_states": max((q["max_state_set"] for p in rows
                                      for q in p), default=0),
            "check.deviating": sum(not r["accepted"] for *_, r in replies),
            "pool.arena_hit_ratio": ratio(status.get("arena_hits", 0),
                                          arena),
            "pool.epochs_published": status.get("epochs_published", 0),
            "pool.verdict_hits": status.get("verdict_hits", 0),
            "pool.resolved_in_parent": status.get("resolved_in_parent", 0),
            "store.rows": status.get("store_rows", 0),
            "store.dedup_hits": status.get("store_dedup_hits", 0),
            "store.bytes_per_row": ratio(store_stats["bytes"],
                                         store_stats["rows"]),
            "serve.send_s": tracer.busy_s["serve.send"],
            "serve.reply_wait_s": tracer.busy_s["serve.reply_wait"],
            "serve.max_line_bytes": stream["inputs"]["max_line_bytes"],
            "serve.reconnects": reconnects,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--stream")
    parser.add_argument("--fraction", type=int, default=1)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    W.use_source_tree()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    runner = run_serve if args.workload == "serve_stream" else run_session
    result = runner(args, tracer)
    if tracer is not None:
        layers = result["layers"]
        spans = sum(tracer.self_s.values())
        layer_self = spans - tracer.self_s["session"]
        layers["gen.scripts"] = result["inputs"]["scripts"]
        layers["gen.prefix_share"] = result["inputs"]["prefix_share"]
        layers["gen.repeat_share"] = result["inputs"]["repeat_share"]
        layers["trace.bytes"] = result["inputs"]["trace_bytes"]
        layers["session.self_s"] = result["wall_s"] - layer_self
        layers["trace.wall_s"] = result["wall_s"]
        layers["trace.accounted_frac"] = ratio(spans, result["wall_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
