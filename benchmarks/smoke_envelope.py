#!/usr/bin/env python3
"""CI check that the quirk-free executor stays inside the model.

The executor's kernel is the determinized model (paper section 8): on
the quirk-free ``Quirks(name="reference-<p>", platform=p)``
configuration it picks one of the outcomes the ``p`` model allows at
every step, so every trace it produces must be accepted by the ``p``
model.  Prefix resumption's soundness argument rests on this (README,
"Why resuming is sound").  Every default-plan script, the 300
randomized scripts of perfbench's ``random_check`` population
(``RandomizedStrategy`` base seed 0, length 25, multi-process) and the
registry's ``fault`` and ``crash_recovery`` scenario families are
executed on the four reference configurations and checked on their
platform.  The scenario families observe the file system after a
rename, which almost no default-plan script does (they end at their
first rename), so an executor whose renames change nothing is caught
here.  Tier-1's envelope axis (``tests/test_engine_parity.py``) runs a
slice of the same property.

Usage::

    PYTHONPATH=src python benchmarks/smoke_envelope.py

Exit codes: 0 = every trace accepted; 1 = the first rejected trace,
named with its first deviation.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.core.platform import SPECS  # noqa: E402
from repro.executor import ScriptExecutor  # noqa: E402
from repro.fsimpl import Quirks  # noqa: E402
from repro.gen import (RandomizedStrategy, default_plan,  # noqa: E402
                       get_strategy)
from repro.oracle import ModelOracle  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    populations = [
        ("default plan", list(default_plan().scripts())),
        ("randomized", list(RandomizedStrategy(
            count=300, seed=0, length=25, multi_process=True).scripts())),
        *((family, list(get_strategy(family).scripts()))
          for family in ("fault", "crash_recovery")),
    ]
    traces = 0
    for population, scripts in populations:
        for platform in SPECS:
            quirks = Quirks(name=f"reference-{platform}",
                            platform=platform)
            executor = ScriptExecutor()
            oracle = ModelOracle(platform)
            for script in scripts:
                verdict = oracle.check(executor.execute(quirks, script))
                if not verdict.accepted:
                    deviation = verdict.primary.deviations[0]
                    print(f"REJECTED: {population} trace {script.name} "
                          f"on {quirks.name}, line {deviation.line_no}: "
                          f"{deviation.message}")
                    return 1
                traces += 1
            print(f"{population}: {len(scripts)} traces of "
                  f"{quirks.name} accepted by the {platform} model")
    print(f"envelope: {traces} traces accepted in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
