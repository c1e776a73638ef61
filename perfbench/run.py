"""The SibylFS end-to-end benchmark.

    python3 perfbench/run.py --workload plan_sharded --seed 1 \\
        --seconds 50 --trace 0

Runs units of one workload (each a fresh process, see ``unit.py``) until
``--seconds`` have passed, at least three of them, and prints every
metric by name with its unit, then one JSON object as the last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over units,
timings scaled to the machine's usual speed by a calibration taken
before each unit, see ``calibrate.py``).  ``--trace 1``
alternates traced and untraced units and reports the per-layer metrics
of the traced ones, with the tracing overhead taken against the
untraced ones.  ``--workload all`` runs the four workloads in turn.
Every verdict is checked against the recorded references; a mismatch,
an error reply, a lost connection or a crashed unit counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calibrate as C
import workloads as W

MIN_UNITS = 3
#: Set-up is timed in every unit and in extra set-up-only launches
#: until there are this many samples.
SETUP_SAMPLES = 9
#: No new unit starts this long after the run began (the whole run must
#: end within 180 s).
LAUNCH_CUTOFF_S = 100.0
UNIT_TIMEOUT_S = 60.0

END_TO_END = {"traces_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_names() -> dict:
    with open(W.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_unit(args, index: int, traced: bool, work: str, stream,
             setup_only: bool = False) -> dict:
    unit_work = os.path.join(work, f"unit{index}")
    os.makedirs(unit_work)
    cmd = [sys.executable, str(W.HERE / "unit.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--work", unit_work,
           "--fraction", str(args.fraction)]
    if stream:
        cmd += ["--stream", stream]
    if args.corrupt:
        cmd.append("--corrupt")
    if setup_only:
        cmd.append("--setup-only")
    launch = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launch", repr(launch)],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    out = ""
    try:
        out, _ = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # The unit's own children (a server, shard workers) go with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    shutil.rmtree(unit_work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            result["traced"] = traced
            return result
        except ValueError:
            pass
    print(f"perfbench: unit {index} of {args.workload} failed "
          f"(exit {proc.returncode})", file=sys.stderr)
    return {"crashed": True, "traced": traced}


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def unit_summary(unit: dict) -> dict:
    """One unit's end-to-end numbers, timings scaled to the machine's
    usual speed by the calibration taken just before the unit."""
    slow = unit["slowdown"]
    lat = [x for x in unit["latencies_ms"] if x is not None]
    return {"traces_per_s": unit["items"] / unit["wall_s"] * slow,
            "latency_p50_ms": percentile(lat, 0.50) / slow,
            "latency_p90_ms": percentile(lat, 0.90) / slow,
            "peak_rss_mb": unit["peak_rss_mb"],
            "setup_s": unit["setup_s"] / slow,
            "slowdown": slow, "verdicts": len(lat)}


def end_to_end(units, setups) -> dict:
    """The median unit's numbers.

    A shared machine's speed swings up to 1.7 times within seconds, so
    one unit reads fast or slow by chance; the median of about ten units
    does not.  Pooling every unit's latencies instead lets the slowest
    units set the tail.  The machine also drifts over minutes, which no
    run is long enough to average out, so every unit's times are scaled
    by a calibration taken just before it (see ``calibrate.py``).
    """
    rows = [unit_summary(u) for u in units]
    values = {k: statistics.median(r[k] for r in rows)
              for k in ("traces_per_s", "latency_p50_ms", "latency_p90_ms",
                        "peak_rss_mb")}
    values["setup_s"] = statistics.median(s / slow for s, slow in setups)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(traced, untraced) -> dict:
    names = per_layer_names()
    values = {name: statistics.median(u["layers"].get(name, 0)
                                      for u in traced) for name in names}
    plain = statistics.median(u["wall_s"] for u in untraced)
    values["trace.overhead_frac"] = (
        (statistics.median(u["wall_s"] for u in traced) - plain) / plain)
    return {k: {"value": v, "unit": names[k]} for k, v in values.items()}


def run_workload(args) -> dict:
    W.WORK.mkdir(parents=True, exist_ok=True)
    work = str(W.WORK / f"run-{os.getpid()}-{args.workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    units = []
    probe_failures = 0
    try:
        stream = None
        if args.workload == "serve_stream":
            stream = os.path.join(work, "stream.json")
            write_stream(args.seed, W.SERVE_STRIDE * args.fraction, stream)
        start = time.monotonic()
        deadline = start + args.seconds
        minimum = 2 * MIN_UNITS if args.trace else MIN_UNITS
        while (len(units) < minimum or time.monotonic() < deadline) \
                and time.monotonic() - start < LAUNCH_CUTOFF_S:
            traced = bool(args.trace) and len(units) % 2 == 0
            slowdown = C.slowdown(args.workload)
            unit = run_unit(args, len(units), traced, work, stream)
            unit["slowdown"] = slowdown
            units.append(unit)
        setups = [(u["setup_s"], u["slowdown"]) for u in units
                  if "setup_s" in u]
        while not args.trace and len(setups) < SETUP_SAMPLES \
                and time.monotonic() - start < LAUNCH_CUTOFF_S:
            slowdown = C.slowdown(args.workload)
            probe = run_unit(args, len(units) + len(setups), False, work,
                             stream, setup_only=True)
            if probe.get("crashed") or probe.get("failed"):
                probe_failures += 1
            setups.append((probe.get("setup_s"), slowdown))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [u for u in units if "attempted" in u]
    expected = max((u["attempted"] for u in done), default=1)
    # A crashed unit fails everything it would have checked; a set-up
    # launch that crashed or whose server exited badly fails once.
    attempted = sum(u.get("attempted", expected) for u in units) \
        + probe_failures
    failed = sum(u.get("failed", expected) for u in units) + probe_failures
    inputs = [u["inputs"] for u in done]
    if any(i != inputs[0] for i in inputs):
        print("perfbench: units saw different inputs", file=sys.stderr)
        failed += 1
    traced = [u for u in done if u["traced"]]
    untraced = [u for u in done if not u["traced"]]
    setups = [(s, slow) for s, slow in setups if s is not None]
    if args.trace and traced and untraced:
        metrics = per_layer(traced, untraced)
    elif not args.trace and done:
        metrics = end_to_end(done, setups)
    else:  # every unit crashed: nothing was measured
        metrics = {}
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "units": [unit_summary(u) for u in untraced],
            "setups": setups,
            "slowdown": statistics.median(u["slowdown"] for u in units),
            "inputs": inputs[0] if inputs else {},
            "correct": failed == 0 and bool(metrics),
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def write_stream(seed: int, stride: int, path: str) -> None:
    """Execute the served stream's traces before any timing starts."""
    requests, scripts = W.serve_stream(seed, stride)
    texts = [text for _, _, text in requests]
    max_line = max(len((json.dumps({"op": "check", "id": n, "trace": t})
                        + "\n").encode()) for n, t in enumerate(texts))
    inputs = dict(W.input_properties(scripts, texts, max_line),
                  requests=len(requests))
    with open(path, "w") as fh:
        json.dump({"inputs": inputs, "requests": requests}, fh)


def report(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{result['workload']:<13} {name:<24} "
              f"{metric['value']:>14.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{result['workload']:<13} {'error_rate':<24} {rate:>14.6g} "
          f"({result['failed']}/{result['attempted']} failed)")
    print(f"{result['workload']:<13} {'machine_slowdown':<24} "
          f"{result['slowdown']:>14.6g} (median over units; each unit's "
          "timings are scaled by its own)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full run record "
                        "(inputs, environment, metrics) as JSON here")
    # Self-test knobs: units 1/FRACTION the size, and an injected
    # verdict corruption.
    parser.add_argument("--fraction", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    W.use_source_tree()
    # Terminated runs still stop their units (run_unit's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        sub = argparse.Namespace(**vars(args))
        sub.workload = name
        result = run_workload(sub)
        result["environment"] = W.environment()
        report(result)
        results.append(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results if len(results) > 1 else results[0], fh,
                      indent=1, sort_keys=True)
    last = results[-1] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{k}": v for r in results
                    for k, v in r["metrics"].items()}}
    print(json.dumps({"inputs": last.get("inputs"),
                      "environment": W.environment()}))
    print(json.dumps({key: last[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
