#!/usr/bin/env python3
"""Vectored oracle acceptance benchmark: one pass vs 4x sequential.

The multi-platform question — "which model variants allow each trace of
the survey suite?" — used to cost one full pipeline pass (execute +
check) per :class:`~repro.core.platform.PlatformSpec`.  The vectored
oracle answers it in a single pass: one execution, one state-set
exploration with platform-membership masks, one shard round-trip.

This bench runs both on the sharded backend, streaming:

* **baseline** — four sequential ``Session`` runs, one per model
  variant, sharing one shard pool;
* **one-pass** — a single ``Session(check_on=[all four])`` run.

It verifies the per-platform profiles of the one-pass artifact are
*identical* to the four independent runs, reports the wall-clock ratio
(acceptance: <= 0.5), and writes a JSON result for CI upload.

Usage::

    PYTHONPATH=src python benchmarks/bench_oracle_vectored.py \
        [--smoke] [--shards N] [--json OUT.json] [--strict]

``--smoke`` runs a seeded 120-script sample (CI-friendly); the default
is the full survey suite.  ``--strict`` exits non-zero if the ratio
exceeds 0.5 or any profile differs.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.api import Session, ShardedBackend  # noqa: E402
from repro.core.platform import SPECS  # noqa: E402
from repro.gen import default_plan  # noqa: E402

TARGET_RATIO = 0.5


def compare_profiles(one_pass, baseline) -> int:
    """Count per-trace per-platform field mismatches (should be 0)."""
    mismatches = 0
    for platform, artifact in baseline.items():
        for row, checked in zip(one_pass.profiles, artifact.checked):
            profile = next(p for p in row if p.platform == platform)
            if (profile.deviations, profile.max_state_set,
                    profile.labels_checked, profile.pruned) != \
                    (checked.deviations, checked.max_state_set,
                     checked.labels_checked, checked.pruned):
                mismatches += 1
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="seeded 120-script sample instead of the "
                             "full survey suite")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--config", default="linux_ext4")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result as JSON")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 unless ratio <= 0.5 and profiles "
                             "match")
    args = parser.parse_args(argv)

    plan = default_plan()
    if args.smoke:
        plan = plan.sample(120, seed=0)
    platforms = list(SPECS)

    t0 = time.perf_counter()
    baseline = {}
    with ShardedBackend(args.shards) as backend:
        for platform in platforms:
            baseline[platform] = Session(
                args.config, model=platform, plan=plan,
                backend=backend).run()
    baseline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with ShardedBackend(args.shards) as backend:
        one_pass = Session(args.config, model=platforms[0],
                           check_on=platforms, plan=plan,
                           backend=backend).run()
    one_pass_s = time.perf_counter() - t0

    ratio = one_pass_s / baseline_s if baseline_s else float("inf")
    mismatches = compare_profiles(one_pass, baseline)
    result = {
        "mode": "smoke" if args.smoke else "full",
        "config": args.config,
        "shards": args.shards,
        "traces": one_pass.total,
        "platforms": platforms,
        "baseline_seconds": round(baseline_s, 3),
        "one_pass_seconds": round(one_pass_s, 3),
        "ratio": round(ratio, 3),
        "target_ratio": TARGET_RATIO,
        "profile_mismatches": mismatches,
        "accepted_by_platform": one_pass.conformance_counts(),
    }

    print(f"suite: {one_pass.total} traces on {args.config} "
          f"({result['mode']}, {args.shards} shards)")
    print(f"4x sequential : {baseline_s:7.2f} s")
    print(f"one-pass      : {one_pass_s:7.2f} s")
    print(f"ratio         : {ratio:7.2f}  (target <= {TARGET_RATIO})")
    print(f"profile parity: {mismatches} mismatches")
    if args.json:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True)
                       + "\n")
        print(f"result written to {out}")

    if mismatches:
        print("FAIL: one-pass profiles differ from sequential runs")
        return 1
    if args.strict and ratio > TARGET_RATIO:
        print(f"FAIL: ratio {ratio:.2f} > {TARGET_RATIO}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
