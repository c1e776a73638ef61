"""Self-test of the benchmark, at a tiny size.

For every workload it checks that an untraced and a traced run print
exactly the metric names ``BENCHMARK.json`` lists, with no failed
verdict, and that the traced run's spans account for its wall time to
within 5%; that an injected verdict corruption yields a failure; and
that the benchmark refuses to run without the source tree.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads as W

TINY = ["--seconds", "0", "--fraction", "30"]


def run(*args: str, cwd=W.ROOT) -> "tuple[int, dict | None]":
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def main() -> int:
    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            code, result = run("--workload", workload, "--seed", "3",
                               "--trace", str(trace), *TINY)
            tag = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if set(result["metrics"]) != names[trace]:
                problems.append(f"{tag}: metric names differ from "
                                "BENCHMARK.json: " + ", ".join(sorted(
                                    set(result["metrics"]) ^ names[trace])))
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} failed")
            if trace:
                covered = result["metrics"]["trace.accounted_frac"]["value"]
                if abs(covered - 1) > 0.05:
                    problems.append(f"{tag}: spans cover {covered:.3f} "
                                    "of the traced wall time")
        code, result = run("--workload", workload, "--seed", "3",
                           "--trace", "0", "--corrupt", *TINY)
        if result is None or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: an injected verdict corruption "
                            "was not counted as failed")

    bare = W.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(W.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(W.ROOT / "BENCHMARK.json", bare)
    code, result = run("--workload", "plan_serial", "--seed", "3", *TINY,
                       cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append("ran without the source tree")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems
                          else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
