#!/usr/bin/env python3
"""Sharded-checking benchmark: parity + shard scaling.

Checking on a shard pool (a :class:`~repro.service.CheckingService`)
must be invisible in results and visible in throughput.  This bench
checks both on a *repeat-heavy* generated sample (a seeded sample of
the default plan, repeated several times — what long checking
campaigns look like), on a clean and a quirky configuration:

* **parity** — every per-platform conformance profile from the sharded
  pool must be identical to the in-process oracle's
  (``get_oracle(MODEL)``), both configurations (any mismatch fails the
  bench in every mode);
* **scaling** — the checking phase is timed at 1, 2 and 4 shards; the
  recorded speedup is ``time(1 shard) / time(N shards)`` (acceptance:
  >= 1.8x at 4 shards on this repeat-heavy shape).  Scaling is
  hardware-bound: the available CPU count is recorded next to the
  speedups, and ``--strict`` only enforces the target when at least 4
  CPUs are schedulable (a 1-CPU container cannot exhibit parallel
  speedup no matter how the work is sharded; parity is enforced
  everywhere regardless);
* **amortization** — the persistent-pool story: one service, many
  ``submit`` calls.  The first call pays the cold start (spawn +
  cold oracles); later calls re-use the standing workers, their warm
  oracles and verdict memos.  Recorded per call: ``cold_call_s``, the
  mean
  ``amortized_call_s`` of the repeat calls, the serial per-call
  baseline, and ``repeat_sharded_vs_serial`` (>= 1.0 means the warm
  pool beats serial on repeat calls even on one CPU).

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
        [--smoke] [--repeats N] [--json OUT.json] [--strict]

``--smoke`` runs a small seeded sample (CI-friendly); ``--strict``
exits non-zero if the 4-shard speedup misses the target (parity
failures exit non-zero in every mode).
"""

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.executor import execute_script  # noqa: E402
from repro.fsimpl import config_by_name  # noqa: E402
from repro.gen import default_plan  # noqa: E402
from repro.oracle import get_oracle  # noqa: E402
from repro.service import CheckingService  # noqa: E402

TARGET_SPEEDUP = 1.8
SHARD_COUNTS = (1, 2, 4)
MODEL = "all"  # one vectored pass per trace: per-platform profiles
CONFIGS = ("linux_ext4", "linux_sshfs_tmpfs")  # clean + quirky


def build_traces(config: str, sample: int, repeats: int, seed: int):
    quirks = config_by_name(config)
    scripts = list(default_plan().sample(sample, seed=seed).scripts())
    traces = [execute_script(quirks, script) for script in scripts]
    return traces * repeats


def serial_profiles(traces):
    """Seconds and per-trace profiles of one in-process pass."""
    oracle = get_oracle(MODEL)
    t0 = time.perf_counter()
    profiles = [oracle.check(trace).profiles for trace in traces]
    return time.perf_counter() - t0, profiles


def pool_profiles(service, traces):
    """Seconds and per-trace profiles of one ``submit`` call (the first
    call on a service spawns its shards)."""
    t0 = time.perf_counter()
    profiles = [future.result().profiles
                for future in service.submit(traces)]
    return time.perf_counter() - t0, profiles


def measure_amortization(config: str, sample: int, seed: int,
                         calls: int = 5, shards: int = 2) -> dict:
    """Cold-start vs amortized per-call cost of a persistent pool.

    One suite, ``calls`` sequential ``submit`` calls against the *same*
    service: call 1 pays the spawn and the cold oracles; the rest ride
    the standing pool (and its verdict memos).  The serial baseline is
    measured per call over the same repeats.  ``verdict_hits`` counts
    the last call's memo hits.
    """
    traces = build_traces(config, sample, repeats=1, seed=seed)
    serial_times = []
    want = None
    for _ in range(calls):
        seconds, got = serial_profiles(traces)
        serial_times.append(seconds)
        want = got if want is None else want
    serial_call_s = sum(serial_times[1:]) / max(1, calls - 1)

    service = CheckingService(MODEL, shards=shards)
    mismatches = 0
    try:
        cold_call_s, got = pool_profiles(service, traces)
        mismatches += sum(1 for g, w in zip(got, want) if g != w)
        warm_times = []
        hits_before = 0
        for _ in range(calls - 1):
            hits_before = service.stats()["verdict_hits"]
            seconds, got = pool_profiles(service, traces)
            warm_times.append(seconds)
            mismatches += sum(1 for g, w in zip(got, want) if g != w)
        stats = service.stats()
        stats["verdict_hits"] -= hits_before
    finally:
        service.shutdown()
    amortized_call_s = sum(warm_times) / max(1, len(warm_times))
    return {
        "config": config,
        "shards": shards,
        "calls": calls,
        "traces_per_call": len(traces),
        "cold_call_s": round(cold_call_s, 4),
        "amortized_call_s": round(amortized_call_s, 4),
        "serial_call_s": round(serial_call_s, 4),
        "cold_start_overhead_s": round(
            cold_call_s - amortized_call_s, 4),
        "repeat_sharded_vs_serial": round(
            serial_call_s / amortized_call_s, 3)
        if amortized_call_s else 0.0,
        "pool_cold_starts": stats.get("pool_cold_starts", 0),
        "verdict_hits": stats.get("verdict_hits", 0),
        "profile_mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small seeded sample (CI-friendly)")
    parser.add_argument("--sample", type=int, default=None,
                        help="scripts sampled from the default plan "
                             "(default: 200, or 60 with --smoke)")
    parser.add_argument("--repeats", type=int, default=4,
                        help="times the sampled suite is re-checked "
                             "(the repeat-heavy shape)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result as JSON")
    parser.add_argument("--strict", action="store_true",
                        help=f"exit 1 unless the 4-shard speedup >= "
                             f"{TARGET_SPEEDUP}")
    args = parser.parse_args(argv)

    sample = args.sample or (60 if args.smoke else 200)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    result = {
        "mode": "smoke" if args.smoke else "full",
        "model": MODEL,
        "sample": sample,
        "repeats": args.repeats,
        "cpus": cpus,
        "target_speedup_4_shards": TARGET_SPEEDUP,
        "configs": {},
    }
    mismatches = 0

    for config in CONFIGS:
        traces = build_traces(config, sample, args.repeats, args.seed)
        serial_s, want = serial_profiles(traces)
        row = {"traces": len(traces),
               "serial_seconds": round(serial_s, 3),
               "serial_traces_per_s": round(len(traces) / serial_s, 1),
               "shards": {}}
        times = {}
        for shards in SHARD_COUNTS:
            service = CheckingService(MODEL, shards=shards)
            try:
                shard_s, got = pool_profiles(service, traces)
                stats = service.stats()
            finally:
                service.shutdown()
            bad = sum(1 for g, w in zip(got, want) if g != w)
            mismatches += bad
            times[shards] = shard_s
            row["shards"][str(shards)] = {
                "seconds": round(shard_s, 3),
                "traces_per_s": round(len(traces) / shard_s, 1),
                "profile_mismatches": bad,
                "verdict_hits": stats.get("verdict_hits", 0),
            }
        for shards in SHARD_COUNTS[1:]:
            row["shards"][str(shards)]["speedup_vs_1_shard"] = round(
                times[1] / times[shards], 3) if times[shards] else 0.0
        row["speedup_4_shards"] = row["shards"]["4"].get(
            "speedup_vs_1_shard", 0.0)
        result["configs"][config] = row

        print(f"\n{config}: {len(traces)} traces "
              f"({sample} scripts x {args.repeats} repeats, "
              f"model={MODEL})")
        print(f"  serial    : {serial_s:7.2f} s "
              f"({row['serial_traces_per_s']:8.1f} traces/s)")
        for shards in SHARD_COUNTS:
            shard_row = row["shards"][str(shards)]
            speedup = shard_row.get("speedup_vs_1_shard")
            extra = f"  ({speedup:.2f}x vs 1 shard)" if speedup else ""
            print(f"  {shards} shard(s): {shard_row['seconds']:7.2f} s "
                  f"({shard_row['traces_per_s']:8.1f} traces/s)"
                  f"{extra}  [{shard_row['verdict_hits']} verdict "
                  f"memo hits]")

    amortization = measure_amortization(
        CONFIGS[1], sample=min(sample, 60), seed=args.seed)
    mismatches += amortization["profile_mismatches"]
    result["amortization"] = amortization
    print(f"\namortization ({amortization['config']}, "
          f"{amortization['shards']} shards, "
          f"{amortization['traces_per_call']} traces/call):")
    print(f"  cold call : {amortization['cold_call_s']:7.3f} s "
          f"(spawn + cold oracles)")
    print(f"  warm call : {amortization['amortized_call_s']:7.3f} s "
          f"(mean of {amortization['calls'] - 1} repeats)")
    print(f"  serial    : {amortization['serial_call_s']:7.3f} s "
          f"per call")
    print(f"  repeat sharded vs serial: "
          f"{amortization['repeat_sharded_vs_serial']:.2f}x "
          f"(>= 1.0 wanted)")

    worst = min(row["speedup_4_shards"]
                for row in result["configs"].values())
    result["speedup_4_shards_min"] = worst
    result["profile_mismatches"] = mismatches
    print(f"\n4-shard speedup (worst config): {worst:.2f}x "
          f"(target >= {TARGET_SPEEDUP}, {cpus} CPU(s) schedulable)")
    print(f"parity: {mismatches} profile mismatches vs serial")

    if args.json:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True)
                       + "\n")
        print(f"result written to {out}")

    if mismatches:
        print("FAIL: sharded profiles differ from the in-process "
              "oracle's")
        return 1
    if args.strict and worst < TARGET_SPEEDUP:
        if cpus < max(SHARD_COUNTS):
            print(f"NOTE: only {cpus} CPU(s) schedulable — the "
                  f"{TARGET_SPEEDUP}x scaling target needs "
                  f">= {max(SHARD_COUNTS)}; recording without "
                  "enforcing")
        else:
            print(f"FAIL: 4-shard speedup {worst:.2f} "
                  f"< {TARGET_SPEEDUP}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
