#!/usr/bin/env python3
"""Interned exploration engine benchmark: parity + throughput.

The ``repro.engine`` interned engine (hash-consed states, memoized
``os_trans`` / tau closures) must be invisible in results and visible
in throughput.  This bench checks both on a *repeat-heavy* generated
suite — a seeded sample of the default plan, repeated several times,
which is what long checking campaigns look like (generated families
share setup prefixes by construction, and suites re-check the same
traces across configurations):

* **baseline** — ``TraceChecker(intern=False)``: the original
  frozenset-of-dataclass state-set loop;
* **interned** — ``TraceChecker(intern=True)`` (the default): one warm
  checker per platform, engine tables kept across traces.

Every ``CheckedTrace`` must be identical across both, the vectored
oracle's profiles must match the uninterned checker per platform, and
the speedup is recorded.  Acceptance: interned >= 1.5x over baseline
on the cold total.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_intern.py \
        [--smoke] [--repeats N] [--json OUT.json] [--strict]

``--smoke`` runs a small seeded sample (CI-friendly); ``--strict``
exits non-zero if the speedup misses the target (parity failures exit
non-zero in every mode).
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.checker.checker import TraceChecker  # noqa: E402
from repro.core.platform import SPECS, spec_by_name  # noqa: E402
from repro.executor import execute_script  # noqa: E402
from repro.fsimpl import config_by_name  # noqa: E402
from repro.gen import default_plan  # noqa: E402
from repro.oracle import VectoredOracle  # noqa: E402

TARGET_SPEEDUP = 1.5


def build_traces(config: str, sample: int, repeats: int, seed: int):
    quirks = config_by_name(config)
    scripts = list(default_plan().sample(sample, seed=seed).scripts())
    traces = [execute_script(quirks, script) for script in scripts]
    return traces * repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small seeded sample (CI-friendly)")
    parser.add_argument("--config", default="linux_ext4")
    parser.add_argument("--sample", type=int, default=None,
                        help="scripts sampled from the default plan "
                             "(default: 400, or 100 with --smoke)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="times the sampled suite is re-checked "
                             "(the repeat-heavy shape)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result as JSON")
    parser.add_argument("--strict", action="store_true",
                        help=f"exit 1 unless speedup >= "
                             f"{TARGET_SPEEDUP}")
    args = parser.parse_args(argv)

    sample = args.sample or (100 if args.smoke else 400)
    traces = build_traces(args.config, sample, args.repeats, args.seed)
    platforms = list(SPECS)

    # Baseline: the original uninterned loop, one checker per platform
    # (construction is cheap; the loop dominates).
    t0 = time.perf_counter()
    baseline = {}
    for platform in platforms:
        checker = TraceChecker(spec_by_name(platform), intern=False)
        baseline[platform] = [checker.check(trace) for trace in traces]
    baseline_s = time.perf_counter() - t0

    # Interned: warm per-platform checkers, engine tables shared
    # across every trace each checker sees.
    t0 = time.perf_counter()
    interned = {}
    for platform in platforms:
        checker = TraceChecker(spec_by_name(platform))
        interned[platform] = [checker.check(trace) for trace in traces]
    interned_s = time.perf_counter() - t0

    mismatches = sum(
        1
        for platform in platforms
        for got, want in zip(interned[platform], baseline[platform])
        if got != want)

    # Vectored engine parity on a slice (full vectored parity is
    # test-enforced; this keeps the bench self-contained).
    oracle = VectoredOracle(tuple(platforms))
    vec_mismatches = 0
    for i, trace in enumerate(traces[:len(traces) // args.repeats]):
        verdict = oracle.check(trace)
        for profile in verdict.profiles:
            want = baseline[profile.platform][i]
            if (profile.deviations, profile.max_state_set,
                    profile.labels_checked, profile.pruned) != \
                    (want.deviations, want.max_state_set,
                     want.labels_checked, want.pruned):
                vec_mismatches += 1

    speedup = baseline_s / interned_s if interned_s else float("inf")
    checks = len(traces) * len(platforms)
    result = {
        "mode": "smoke" if args.smoke else "full",
        "config": args.config,
        "sample": sample,
        "repeats": args.repeats,
        "traces_checked": checks,
        "platforms": platforms,
        "baseline_seconds": round(baseline_s, 3),
        "interned_seconds": round(interned_s, 3),
        "baseline_traces_per_s": round(checks / baseline_s, 1),
        "interned_traces_per_s": round(checks / interned_s, 1),
        "speedup": round(speedup, 3),
        "target_speedup": TARGET_SPEEDUP,
        "checked_trace_mismatches": mismatches,
        "vectored_profile_mismatches": vec_mismatches,
    }

    print(f"suite: {sample} scripts x {args.repeats} repeats on "
          f"{args.config} ({result['mode']}), "
          f"{len(platforms)} platforms = {checks} checks")
    print(f"uninterned : {baseline_s:7.2f} s "
          f"({result['baseline_traces_per_s']:8.1f} traces/s)")
    print(f"interned   : {interned_s:7.2f} s "
          f"({result['interned_traces_per_s']:8.1f} traces/s)")
    print(f"speedup    : {speedup:7.2f}x  (target >= {TARGET_SPEEDUP})")
    print(f"parity     : {mismatches} CheckedTrace mismatches, "
          f"{vec_mismatches} vectored profile mismatches")
    if args.json:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True)
                       + "\n")
        print(f"result written to {out}")

    if mismatches or vec_mismatches:
        print("FAIL: engine results differ from baseline")
        return 1
    if args.strict and speedup < TARGET_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f} < {TARGET_SPEEDUP}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
