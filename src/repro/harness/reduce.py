"""Automatic test-case reduction (paper section 9, future work).

"...and it could support automatic test case reduction."  Given a
script that produces a failing trace on some configuration, ddmin-style
delta debugging shrinks it to a locally-minimal script that still fails:
every single remaining step is necessary.  The oracle makes this
possible without any per-test expected outcome — each candidate is
simply re-executed and re-checked.  Checking goes through
:mod:`repro.oracle`, whose prefix memoization pays off here: ddmin
candidates share long unchanged prefixes by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.executor.executor import execute_script
from repro.fsimpl.configs import config_by_name
from repro.fsimpl.quirks import Quirks
from repro.oracle import Oracle, get_oracle
from repro.script.ast import Script, ScriptItem


def _fails(quirks: Quirks, oracle: Oracle,
           items: Sequence[ScriptItem], name: str) -> bool:
    candidate = Script(name=name, items=tuple(items))
    trace = execute_script(quirks, candidate)
    return not oracle.check(trace).accepted


def script_fails(config: str | Quirks, script: Script,
                 model: Optional[str] = None) -> bool:
    """Does this script produce a non-conformant trace on ``config``?"""
    quirks = config if isinstance(config, Quirks) else \
        config_by_name(config)
    oracle = get_oracle(model or quirks.platform)
    return _fails(quirks, oracle, list(script.items), script.name)


def reduce_script(config: str | Quirks, script: Script,
                  model: Optional[str] = None,
                  max_rounds: int = 24) -> Script:
    """Shrink ``script`` to a 1-minimal script that still fails.

    Classic ddmin: try removing chunks of decreasing size; finish with
    an element-wise pass so that removing any single remaining step
    makes the failure disappear.  Returns the original script unchanged
    if it does not fail in the first place.
    """
    quirks = config if isinstance(config, Quirks) else \
        config_by_name(config)
    oracle = get_oracle(model or quirks.platform)
    items: List[ScriptItem] = list(script.items)
    if not _fails(quirks, oracle, items, script.name):
        return script

    chunk = max(1, len(items) // 2)
    rounds = 0
    while chunk >= 1 and rounds < max_rounds:
        rounds += 1
        reduced_this_round = False
        start = 0
        while start < len(items):
            candidate = items[:start] + items[start + chunk:]
            if candidate and _fails(quirks, oracle, candidate,
                                    script.name):
                items = candidate
                reduced_this_round = True
                # Retry at the same position: the next chunk slid in.
            else:
                start += chunk
        if chunk == 1 and not reduced_this_round:
            break
        if not reduced_this_round:
            chunk = max(1, chunk // 2)
            if chunk == 1 and not reduced_this_round:
                continue
        elif chunk > 1:
            chunk = max(1, chunk // 2)
    return Script(name=f"{script.name}__reduced", items=tuple(items))


def is_one_minimal(config: str | Quirks, script: Script,
                   model: Optional[str] = None) -> bool:
    """True if removing any single step makes the script stop failing."""
    quirks = config if isinstance(config, Quirks) else \
        config_by_name(config)
    oracle = get_oracle(model or quirks.platform)
    items = list(script.items)
    if not _fails(quirks, oracle, items, script.name):
        return False
    for index in range(len(items)):
        candidate = items[:index] + items[index + 1:]
        if candidate and _fails(quirks, oracle, candidate,
                                script.name):
            return False
    return True
