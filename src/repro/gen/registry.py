"""The strategy registry: every generator family, selectable by name.

This is where the classic ``gen_*`` free functions become first-class
strategies (the tmt idiom: tests as data with names and tags that a
plan selects over).  The default registry holds

========================  =============================  ==============
name                      wraps                          tags
========================  =============================  ==============
``one_path``              ``gen_one_path_tests``         generated, combinatorial, one-path
``two_path:rename``       ``gen_two_path_tests`` (full)  generated, combinatorial, two-path
``two_path:link``         ``gen_two_path_tests``         generated, combinatorial, two-path
``two_path:symlink``      ``gen_two_path_tests``         generated, combinatorial, two-path
``open``                  ``gen_open_tests``             generated, combinatorial
``fd``                    ``gen_fd_tests``               generated, sequence
``handle``                ``gen_handle_tests``           generated, sequence
``permission``            ``gen_permission_tests``       generated, multi-process
``handwritten``           ``gen_handwritten_tests``      handwritten
``randomized``            ``random_script`` (seeded)     randomized
========================  =============================  ==============

:func:`default_plan` is the union of every strategy except
``randomized`` in the classic suite order.  ``generate_suite`` in
``tests/helpers.py`` states that order independently, as a list of
generator calls, and the tests hold the two byte-identical.
:func:`build_plan` turns CLI-shaped selection options
(``--plan/--include/--exclude/--sample/--seed``) into a plan.
"""

from __future__ import annotations

import fnmatch
from typing import Dict, Iterator, List, Optional, Sequence

from repro.gen.plan import TestPlan, union
from repro.gen.strategy import (FunctionStrategy, RandomizedStrategy,
                                Strategy)
from repro.testgen.generator import (gen_fd_tests, gen_handle_tests,
                                     gen_handwritten_tests,
                                     gen_one_path_tests, gen_open_tests,
                                     gen_permission_tests,
                                     gen_two_path_tests)
from repro.testgen.scenarios import (gen_crash_recovery_tests,
                                     gen_fault_tests,
                                     gen_interleaving_tests)


class StrategyRegistry:
    """Ordered name -> :class:`Strategy` mapping."""

    def __init__(self) -> None:
        self._strategies: Dict[str, Strategy] = {}

    def register(self, strategy: Strategy,
                 replace: bool = False) -> Strategy:
        """Add a strategy; refuses silent clobbering unless asked."""
        if strategy.name in self._strategies and not replace:
            raise ValueError(
                f"strategy {strategy.name!r} is already registered "
                "(pass replace=True to override)")
        self._strategies[strategy.name] = strategy
        return strategy

    def get(self, name: str) -> Strategy:
        try:
            return self._strategies[name]
        except KeyError:
            raise KeyError(
                f"unknown strategy {name!r}; registered: "
                f"{', '.join(self.names())}") from None

    def names(self) -> List[str]:
        return list(self._strategies)

    def matching(self, patterns: Sequence[str]) -> List[Strategy]:
        """Strategies whose name matches any glob, in registry order
        (a pattern matching nothing is an error — a typo, not a wish).
        """
        for pattern in patterns:
            if not any(fnmatch.fnmatchcase(name, pattern)
                       for name in self._strategies):
                raise KeyError(
                    f"no registered strategy matches {pattern!r}; "
                    f"registered: {', '.join(self.names())}")
        return [s for name, s in self._strategies.items()
                if any(fnmatch.fnmatchcase(name, pattern)
                       for pattern in patterns)]

    def plan(self, *patterns: str,
             label: Optional[str] = None) -> TestPlan:
        """A union plan over the strategies matching the name globs."""
        return union(*self.matching(patterns or ("*",)), label=label)

    def __iter__(self) -> Iterator[Strategy]:
        return iter(self._strategies.values())

    def __contains__(self, name: str) -> bool:
        return name in self._strategies

    def __len__(self) -> int:
        return len(self._strategies)


#: The process-wide default registry (import-time populated below).
REGISTRY = StrategyRegistry()


def register(strategy: Strategy, replace: bool = False) -> Strategy:
    """Register a strategy with the default registry."""
    return REGISTRY.register(strategy, replace=replace)


def get_strategy(name: str) -> Strategy:
    """Look a strategy up in the default registry."""
    return REGISTRY.get(name)


#: Default-plan members, in the classic suite order (the reference
#: is ``generate_suite`` in ``tests/helpers.py``).
DEFAULT_STRATEGY_NAMES = (
    "one_path", "two_path:rename", "two_path:link", "two_path:symlink",
    "open", "fd", "handle", "permission", "handwritten",
)

# Estimates are declared so listing plans and seeding progress totals
# never generate just to count; each is asserted exact against the
# real population by the test suite.
register(FunctionStrategy(
    "one_path", gen_one_path_tests,
    tags=("generated", "combinatorial", "one-path"), estimate=1280))
register(FunctionStrategy(
    "two_path:rename", lambda: gen_two_path_tests("rename", full=True),
    tags=("generated", "combinatorial", "two-path"), estimate=2564))
register(FunctionStrategy(
    "two_path:link", lambda: gen_two_path_tests("link"),
    tags=("generated", "combinatorial", "two-path"), estimate=332))
register(FunctionStrategy(
    "two_path:symlink", lambda: gen_two_path_tests("symlink"),
    tags=("generated", "combinatorial", "two-path"), estimate=332))
register(FunctionStrategy(
    "open", gen_open_tests, tags=("generated", "combinatorial"),
    estimate=486))
register(FunctionStrategy(
    "fd", gen_fd_tests, tags=("generated", "sequence"), estimate=36))
register(FunctionStrategy(
    "handle", gen_handle_tests, tags=("generated", "sequence"),
    estimate=15))
register(FunctionStrategy(
    "permission", gen_permission_tests,
    tags=("generated", "multi-process"), estimate=72))
register(FunctionStrategy(
    "handwritten", gen_handwritten_tests, tags=("handwritten",),
    estimate=24))
# The scenario families (fault injection, crash/recovery prefixes,
# multi-process interleavings) are selectable seeds for the fuzzer and
# for explicit --plan runs; like `randomized` they stay out of the
# default plan so the classic suite remains byte-identical.
register(FunctionStrategy(
    "fault", gen_fault_tests,
    tags=("generated", "scenario", "fault"), estimate=14))
register(FunctionStrategy(
    "crash_recovery", gen_crash_recovery_tests,
    tags=("generated", "scenario", "crash-recovery", "multi-process"),
    estimate=9))
register(FunctionStrategy(
    "interleaving", gen_interleaving_tests,
    tags=("generated", "scenario", "interleaving", "multi-process"),
    estimate=7))
register(RandomizedStrategy())


def default_plan(scale: int = 1) -> TestPlan:
    """The paper's full suite as a plan: every registered strategy
    except ``randomized``, in the classic suite order
    (:data:`DEFAULT_STRATEGY_NAMES`)."""
    plan = union(*(REGISTRY.get(name)
                   for name in DEFAULT_STRATEGY_NAMES),
                 label="default")
    return plan.scale(scale)


def build_plan(names: Optional[Sequence[str]] = None,
               include: Optional[Sequence[str]] = None,
               exclude: Optional[Sequence[str]] = None,
               sample: Optional[int] = None,
               seed: int = 0,
               scale: int = 1,
               limit: int = 0) -> TestPlan:
    """A plan from CLI-shaped selection options.

    ``names`` are strategy name globs (default: the default plan); the
    ``randomized`` strategy, when selected, is re-seeded with ``seed``
    so one flag controls both the sample *and* the random content.
    Combinators apply in the order scale -> filter -> sample -> take.
    """
    if names:
        strategies: List[Strategy] = [
            RandomizedStrategy(seed=seed)
            if s.name == "randomized" else s
            for s in REGISTRY.matching(list(names))]
        plan = union(*strategies)
    else:
        plan = default_plan()
    plan = plan.scale(scale)
    if include or exclude:
        plan = plan.filter(include=include, exclude=exclude)
    if sample:
        plan = plan.sample(sample, seed=seed)
    if limit:
        plan = plan.take(limit)
    return plan
