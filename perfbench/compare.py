"""Compare two run records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Records pair up by workload and trace mode.  Two runs of a workload with
the same seed must have seen the same inputs (script, step and byte
counts); if they did not, the comparison is refused (exit 2).  For each
end-to-end metric the change is printed as a share of the base value
and flagged when it is worse than the bound ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import json
import sys

import workloads as W


def records(path: str) -> list:
    with open(path) as fh:
        data = json.load(fh)
    return data if isinstance(data, list) else [data]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    new = {(r["workload"], r["trace"]): r for r in records(argv[1])}
    worse = 0
    for base in records(argv[0]):
        other = new.get((base["workload"], base["trace"]))
        if other is None:
            continue
        if base["seed"] == other["seed"] and base["inputs"] != other["inputs"]:
            print(f"refusing: {base['workload']} seed {base['seed']} saw "
                  f"different inputs\n  {base['inputs']}\n  "
                  f"{other['inputs']}", file=sys.stderr)
            return 2
        for name, metric in base["metrics"].items():
            if name not in other["metrics"] or not metric["value"]:
                continue
            change = other["metrics"][name]["value"] / metric["value"] - 1
            flag = ""
            if name in bounds:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                if sign * change > bounds[name]["bound"]:
                    flag = "  WORSE than bound"
                    worse += 1
            print(f"{base['workload']:<13} {name:<24} "
                  f"{metric['value']:>12.6g} -> "
                  f"{other['metrics'][name]['value']:<12.6g} "
                  f"{change:+8.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
