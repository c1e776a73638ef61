#!/usr/bin/env python3
"""CI check of the text formats' round-trip contract at plan scale.

Every default-plan script and the 300 randomized scripts of
perfbench's ``random_check`` population (``RandomizedStrategy`` base
seed 0, length 25, multi-process) are executed on all 43
configurations.  Every script ``s`` and every trace ``t`` must survive
both directions of the text round trip::

    parse_script(print_script(s)) == s    print_script(parse_script(x)) == x
    parse_trace(print_trace(t)) == t      print_trace(parse_trace(y)) == y

where ``x`` and ``y`` are the printed texts.  Workers, ``repro serve``,
the campaign store and ``RunArtifact`` all exchange traces as text, so a
printer or parser gap anywhere in these populations is a wrong verdict
somewhere downstream.

Usage::

    PYTHONPATH=src python benchmarks/smoke_roundtrip.py \
        [--stride N] [--random N]

Exit codes: 0 = every round trip exact; 1 = the first mismatch, named.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.executor import ScriptExecutor  # noqa: E402
from repro.fsimpl import ALL_CONFIGS  # noqa: E402
from repro.gen import RandomizedStrategy, default_plan  # noqa: E402
from repro.script import (ParseError, parse_script, parse_trace,  # noqa: E402
                          print_script, print_trace)


def broken(value, parse, render) -> str:
    """Which direction of the round trip fails for ``value``, or ``""``."""
    text = render(value)
    try:
        parsed = parse(text)
    except ParseError as exc:
        return f"parse(print(x)) raised {exc}"
    if parsed != value:
        return "parse(print(x)) != x"
    if render(parsed) != text:
        return "print(parse(text)) != text"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stride", type=int, default=1,
                        help="check every Nth default-plan script")
    parser.add_argument("--random", type=int, default=300,
                        help="randomized scripts to check")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    populations = [
        ("default plan", list(default_plan().scripts())[::args.stride]),
        ("randomized", list(RandomizedStrategy(
            count=args.random, seed=0, length=25,
            multi_process=True).scripts())),
    ]
    traces = 0
    for population, scripts in populations:
        for script in scripts:
            failure = broken(script, parse_script, print_script)
            if failure:
                print(f"MISMATCH: {population} script {script.name}: "
                      f"{failure}")
                return 1
        for quirks in ALL_CONFIGS:
            executor = ScriptExecutor()
            for script in scripts:
                trace = executor.execute(quirks, script)
                failure = broken(trace, parse_trace, print_trace)
                if failure:
                    print(f"MISMATCH: {population} trace {trace.name} "
                          f"on {quirks.name}: {failure}")
                    return 1
                traces += 1
        print(f"{population}: {len(scripts)} scripts on "
              f"{len(ALL_CONFIGS)} configurations round-trip exactly")
    print(f"round trip: {traces} traces exact in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
