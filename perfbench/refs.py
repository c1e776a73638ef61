"""Record and cross-check the reference verdicts the benchmark verifies.

``record`` executes every population a workload can draw from and
checks it with fresh oracles, storing one digest per trace (trace text
plus per-platform profiles) in ``refs/refs.json``:

* ``plan_serial``: the default-plan slice on ``linux_ext4``, ``linux``;
* ``plan_sharded``: the slice on ``osx_hfsplus``, all four platforms;
* ``random_check``: the randomized population on
  ``linux_sshfs_tmpfs``, all four platforms;
* ``serve_stream``: every 20th default-plan script on both served
  configurations, all four platforms.

``crosscheck`` recomputes every digest with ``execute_script`` and the
uninterned reference checker (``TraceChecker(intern=False)``, one pass
per platform) and records the outcome in the same file.

    python3 perfbench/refs.py record
    python3 perfbench/refs.py crosscheck
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

import workloads as W

W.use_source_tree()

from repro.checker.checker import TraceChecker  # noqa: E402
from repro.core.platform import spec_by_name  # noqa: E402
from repro.executor import execute_script  # noqa: E402
from repro.fsimpl import config_by_name  # noqa: E402
from repro.gen import default_plan  # noqa: E402
from repro.oracle import ConformanceProfile, create_oracle  # noqa: E402
from repro.script import print_trace  # noqa: E402
from repro.testgen.randomized import random_script  # noqa: E402


def populations():
    """``(key, config, platforms, [(ref id, script)])`` per population."""
    plan = list(default_plan().scripts())
    sliced = [(str(i), plan[i]) for i in W.slice_indices()]
    pool = [(str(j), random_script(j, length=W.RANDOM_LENGTH,
                                   multi_process=True))
            for j in range(W.RANDOM_COUNT)]
    yield "plan_serial", "linux_ext4", ("linux",), sliced
    yield "plan_sharded", "osx_hfsplus", W.PLATFORMS, sliced
    yield "random_check", "linux_sshfs_tmpfs", W.PLATFORMS, pool
    for config in W.SERVE_CONFIGS:
        yield (f"serve_stream:{config}", config, W.PLATFORMS,
               [(str(i), s) for i, s in enumerate(plan)
                if i % W.SERVE_STRIDE == 0])


def model_digests(config, platforms, scripts):
    oracle = create_oracle(platforms[0] if len(platforms) == 1 else "all")
    quirks = config_by_name(config)
    out = {}
    for ref_id, script in scripts:
        trace = execute_script(quirks, script)
        rows = [p.to_dict() for p in oracle.check(trace).profiles]
        out[ref_id] = W.digest(print_trace(trace), rows)
    return out


def reference_digests(config, platforms, scripts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        checkers = [(p, TraceChecker(spec_by_name(p), intern=False))
                    for p in platforms]
    quirks = config_by_name(config)
    out = {}
    for ref_id, script in scripts:
        trace = execute_script(quirks, script)
        rows = [ConformanceProfile.from_checked(p, c.check(trace)).to_dict()
                for p, c in checkers]
        out[ref_id] = W.digest(print_trace(trace), rows)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("record", "crosscheck"))
    args = parser.parse_args(argv)
    if args.mode == "record":
        refs = {"recorded_with": W.environment(), "sets": {}}
        for key, config, platforms, scripts in populations():
            t0 = time.perf_counter()
            refs["sets"][key] = model_digests(config, platforms, scripts)
            print(f"{key}: {len(scripts)} traces in "
                  f"{time.perf_counter() - t0:.1f}s", flush=True)
        W.REFS.parent.mkdir(exist_ok=True)
        W.REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
        return 0
    refs = W.load_refs()
    mismatches = {}
    for key, config, platforms, scripts in populations():
        t0 = time.perf_counter()
        got = reference_digests(config, platforms, scripts)
        bad = sorted(i for i in got if refs["sets"][key].get(i) != got[i])
        mismatches[key] = len(bad)
        print(f"{key}: {len(bad)} of {len(got)} differ "
              f"({time.perf_counter() - t0:.1f}s) {bad[:5]}", flush=True)
    refs["crosscheck"] = {"reference": "execute_script + "
                          "TraceChecker(intern=False)",
                          "mismatches": mismatches}
    W.REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 1 if any(mismatches.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
