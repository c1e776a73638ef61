"""Composable, lazy test plans over generation strategies.

A :class:`TestPlan` is a *description* of a script population: a tree
of strategies and combinators that generates nothing until the pipeline
pulls from :meth:`TestPlan.scripts`.  Combinators compose lazily —

``union``
    concatenate plans (also ``plan_a | plan_b``);
``filter``
    select by strategy tag and/or script-name glob;
``sample``
    a seeded reservoir sample of *n* scripts (stable generation order);
``scale``
    replicate the population *k* times with renamed copies (the
    section 7.1 throughput filler);
``shuffle``
    a seeded permutation (the only combinator that materialises its
    input);
``take``
    the first *n* scripts (the classic ``limit`` knob)

— so a 5 000-script suite streams straight into the backend chunker
without ever being held as a list.  Every plan renders a provenance
string (:meth:`TestPlan.describe`) and the seeds it used
(:meth:`TestPlan.seeds`), which :class:`repro.api.RunArtifact` records
so a sampled or randomized run is reproducible from its artifact alone.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import random
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.gen.strategy import Strategy
from repro.script.ast import Script


class TestPlan:
    """Base class: a lazy, re-iterable, composable script population."""

    # -- the stream -----------------------------------------------------------

    def scripts(self) -> Iterator[Script]:
        """A fresh iterator over the planned scripts (re-iterable)."""
        raise NotImplementedError

    def estimate(self) -> int:
        """Script count (exact for every built-in plan, but documented
        as an estimate: custom strategies may approximate)."""
        raise NotImplementedError

    def cheap_estimate(self) -> Optional[int]:
        """Like :meth:`estimate`, but ``None`` rather than paying a
        generation pass (name filters must generate to count; progress
        hints should not block on that)."""
        return self.estimate()

    def materialize(self) -> "TestPlan":
        """Generate once and hold the result, keeping this plan's
        provenance — for consumers that iterate the same population
        many times (e.g. a survey over dozens of configurations)."""
        return _MaterializedPlan(self)

    def describe(self) -> str:
        """Provenance string recorded in run artifacts."""
        raise NotImplementedError

    def seeds(self) -> Tuple[int, ...]:
        """Sorted unique seeds used anywhere in the plan tree."""
        return ()

    def __iter__(self) -> Iterator[Script]:
        return self.scripts()

    # -- combinators ----------------------------------------------------------

    def filter(self, include: Optional[Sequence[str]] = None,
               exclude: Optional[Sequence[str]] = None,
               tags: Optional[Iterable[str]] = None) -> "TestPlan":
        """Select by script-name glob and/or strategy tag.

        ``include``/``exclude`` are ``fnmatch`` globs applied lazily to
        every script name; ``tags`` prunes whole strategies before any
        generation happens (a script passes if its strategy shares at
        least one tag).
        """
        plan: TestPlan = self
        if tags:
            restricted = plan._restrict_tags(frozenset(tags))
            plan = restricted if restricted is not None else EMPTY
        if include or exclude:
            plan = _FilterPlan(plan, tuple(include or ()),
                               tuple(exclude or ()))
        return plan

    def sample(self, n: int, seed: int = 0) -> "TestPlan":
        """A seeded reservoir sample of ``n`` scripts, emitted in
        generation order (deterministic for a given seed)."""
        return _SamplePlan(self, n, seed)

    def scale(self, k: int) -> "TestPlan":
        """Replicate the population ``k`` times; copies are renamed
        ``<name>__r<copy>`` (as the reference ``generate_suite`` in
        ``tests/helpers.py`` does), and the source is re-generated per
        copy (never held).

        Equivalence partitioning says such copies add no coverage,
        which makes them filler for performance experiments (section
        7.1) that leaves acceptance results undistorted."""
        return self if k <= 1 else _ScalePlan(self, k)

    def shuffle(self, seed: int = 0) -> "TestPlan":
        """A seeded permutation (materialises this plan's output)."""
        return _ShufflePlan(self, seed)

    def take(self, n: int) -> "TestPlan":
        """The first ``n`` scripts."""
        return _TakePlan(self, n)

    def __or__(self, other: "TestPlan") -> "TestPlan":
        return union(self, other)

    # -- structure ------------------------------------------------------------

    def strategies(self) -> Tuple[Strategy, ...]:
        """The leaf strategies this plan draws from."""
        return ()

    def _restrict_tags(self,
                       tags: frozenset) -> Optional["TestPlan"]:
        """The sub-plan drawing only from strategies matching ``tags``
        (``None`` if nothing survives).  Structural: applied before any
        generation."""
        raise ValueError(
            f"{type(self).__name__} is not strategy-backed; tag "
            "filtering requires a plan built from strategies")


class StrategyPlan(TestPlan):
    """A single strategy as a plan (the leaf of every plan tree)."""

    def __init__(self, strategy: Strategy) -> None:
        self.strategy = strategy

    def scripts(self) -> Iterator[Script]:
        return iter(self.strategy.scripts())

    def estimate(self) -> int:
        return self.strategy.estimate()

    def cheap_estimate(self) -> Optional[int]:
        cheap = getattr(self.strategy, "cheap_estimate", None)
        return cheap() if cheap is not None else \
            self.strategy.estimate()

    def describe(self) -> str:
        describe = getattr(self.strategy, "describe", None)
        return describe() if describe else self.strategy.name

    def seeds(self) -> Tuple[int, ...]:
        return tuple(getattr(self.strategy, "seeds", ()))

    def strategies(self) -> Tuple[Strategy, ...]:
        return (self.strategy,)

    def _restrict_tags(self, tags: frozenset) -> Optional[TestPlan]:
        return self if tags & self.strategy.tags else None


class ExplicitPlan(TestPlan):
    """A fixed script sequence as a plan (e.g. a suite already in
    memory, or a parsed script directory)."""

    def __init__(self, scripts: Sequence[Script],
                 label: str = "explicit") -> None:
        self._scripts = tuple(scripts)
        self._label = label

    def scripts(self) -> Iterator[Script]:
        return iter(self._scripts)

    def estimate(self) -> int:
        return len(self._scripts)

    def describe(self) -> str:
        return f"{self._label}[{len(self._scripts)}]"

    def _restrict_tags(self, tags: frozenset) -> Optional[TestPlan]:
        if self is EMPTY:
            return None
        return super()._restrict_tags(tags)


#: The empty plan (what a tag filter that matches nothing collapses to).
EMPTY = ExplicitPlan((), label="empty")


class UnionPlan(TestPlan):
    """Concatenation of sub-plans, in order."""

    def __init__(self, parts: Sequence[TestPlan],
                 label: Optional[str] = None) -> None:
        self.parts = tuple(parts)
        self.label = label

    def scripts(self) -> Iterator[Script]:
        for part in self.parts:
            yield from part.scripts()

    def estimate(self) -> int:
        return sum(part.estimate() for part in self.parts)

    def cheap_estimate(self) -> Optional[int]:
        counts = [part.cheap_estimate() for part in self.parts]
        return None if None in counts else sum(counts)

    def describe(self) -> str:
        if self.label:
            return self.label
        return "union(" + ",".join(p.describe() for p in self.parts) + ")"

    def seeds(self) -> Tuple[int, ...]:
        return _merge_seeds(part.seeds() for part in self.parts)

    def strategies(self) -> Tuple[Strategy, ...]:
        return tuple(s for part in self.parts
                     for s in part.strategies())

    def _restrict_tags(self, tags: frozenset) -> Optional[TestPlan]:
        kept = [p for p in (part._restrict_tags(tags)
                            for part in self.parts) if p is not None]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return UnionPlan(kept)


class _DerivedPlan(TestPlan):
    """Shared plumbing for single-source combinator nodes."""

    def __init__(self, source: TestPlan) -> None:
        self.source = source

    def seeds(self) -> Tuple[int, ...]:
        return self.source.seeds()

    def strategies(self) -> Tuple[Strategy, ...]:
        return self.source.strategies()

    def _rebuild(self, source: TestPlan) -> TestPlan:
        raise NotImplementedError

    def _restrict_tags(self, tags: frozenset) -> Optional[TestPlan]:
        restricted = self.source._restrict_tags(tags)
        return None if restricted is None else self._rebuild(restricted)


class _FilterPlan(_DerivedPlan):
    """Lazy name-glob selection."""

    def __init__(self, source: TestPlan, include: Tuple[str, ...],
                 exclude: Tuple[str, ...]) -> None:
        super().__init__(source)
        self.include = include
        self.exclude = exclude
        self._count: Optional[int] = None

    def _keep(self, name: str) -> bool:
        if self.include and not any(fnmatch.fnmatchcase(name, pat)
                                    for pat in self.include):
            return False
        return not any(fnmatch.fnmatchcase(name, pat)
                       for pat in self.exclude)

    def scripts(self) -> Iterator[Script]:
        return (s for s in self.source.scripts() if self._keep(s.name))

    def estimate(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self.scripts())
        return self._count

    def cheap_estimate(self) -> Optional[int]:
        return self._count  # only known once something counted

    def describe(self) -> str:
        args = []
        if self.include:
            args.append("include=" + "|".join(self.include))
        if self.exclude:
            args.append("exclude=" + "|".join(self.exclude))
        return f"{self.source.describe()}.filter({','.join(args)})"

    def _rebuild(self, source: TestPlan) -> TestPlan:
        return _FilterPlan(source, self.include, self.exclude)


class _SamplePlan(_DerivedPlan):
    """Seeded reservoir sample: one pass, O(n) memory, and the chosen
    scripts are emitted in their original generation order so a sampled
    plan is still a deterministic stream."""

    def __init__(self, source: TestPlan, n: int, seed: int) -> None:
        super().__init__(source)
        self.n = n
        self.seed = seed

    def scripts(self) -> Iterator[Script]:
        rng = random.Random(self.seed)
        reservoir: List[Tuple[int, Script]] = []
        for i, script in enumerate(self.source.scripts()):
            if i < self.n:
                reservoir.append((i, script))
            else:
                j = rng.randrange(i + 1)
                if j < self.n:
                    reservoir[j] = (i, script)
        for _, script in sorted(reservoir, key=lambda pair: pair[0]):
            yield script

    def estimate(self) -> int:
        return min(self.n, self.source.estimate())

    def cheap_estimate(self) -> Optional[int]:
        src = self.source.cheap_estimate()
        return self.n if src is None else min(self.n, src)

    def describe(self) -> str:
        return f"{self.source.describe()}.sample({self.n},seed={self.seed})"

    def seeds(self) -> Tuple[int, ...]:
        return _merge_seeds([self.source.seeds(), (self.seed,)])

    def _rebuild(self, source: TestPlan) -> TestPlan:
        return _SamplePlan(source, self.n, self.seed)


class _ScalePlan(_DerivedPlan):
    """k renamed copies, streamed copy by copy."""

    def __init__(self, source: TestPlan, k: int) -> None:
        super().__init__(source)
        self.k = k

    def scripts(self) -> Iterator[Script]:
        for copy in range(self.k):
            for script in self.source.scripts():
                if copy == 0:
                    yield script
                else:
                    yield dataclasses.replace(
                        script, name=f"{script.name}__r{copy}")

    def estimate(self) -> int:
        return self.k * self.source.estimate()

    def cheap_estimate(self) -> Optional[int]:
        src = self.source.cheap_estimate()
        return None if src is None else self.k * src

    def describe(self) -> str:
        return f"{self.source.describe()}.scale({self.k})"

    def _rebuild(self, source: TestPlan) -> TestPlan:
        return _ScalePlan(source, self.k)


class _ShufflePlan(_DerivedPlan):
    """Seeded permutation; the one combinator that materialises."""

    def __init__(self, source: TestPlan, seed: int) -> None:
        super().__init__(source)
        self.seed = seed

    def scripts(self) -> Iterator[Script]:
        scripts = list(self.source.scripts())
        random.Random(self.seed).shuffle(scripts)
        return iter(scripts)

    def estimate(self) -> int:
        return self.source.estimate()

    def cheap_estimate(self) -> Optional[int]:
        return self.source.cheap_estimate()

    def describe(self) -> str:
        return f"{self.source.describe()}.shuffle(seed={self.seed})"

    def seeds(self) -> Tuple[int, ...]:
        return _merge_seeds([self.source.seeds(), (self.seed,)])

    def _rebuild(self, source: TestPlan) -> TestPlan:
        return _ShufflePlan(source, self.seed)


class _TakePlan(_DerivedPlan):
    """The first n scripts (the classic ``limit``)."""

    def __init__(self, source: TestPlan, n: int) -> None:
        super().__init__(source)
        self.n = n

    def scripts(self) -> Iterator[Script]:
        for i, script in enumerate(self.source.scripts()):
            if i >= self.n:
                return
            yield script

    def estimate(self) -> int:
        return min(self.n, self.source.estimate())

    def cheap_estimate(self) -> Optional[int]:
        src = self.source.cheap_estimate()
        return self.n if src is None else min(self.n, src)

    def describe(self) -> str:
        return f"{self.source.describe()}.take({self.n})"

    def _rebuild(self, source: TestPlan) -> TestPlan:
        return _TakePlan(source, self.n)


class _MaterializedPlan(_DerivedPlan):
    """The source plan generated once and held, provenance intact —
    what :meth:`TestPlan.materialize` returns for consumers iterating
    the same population many times (surveys)."""

    def __init__(self, source: TestPlan) -> None:
        super().__init__(source)
        self._scripts = tuple(source.scripts())

    def scripts(self) -> Iterator[Script]:
        return iter(self._scripts)

    def estimate(self) -> int:
        return len(self._scripts)

    def describe(self) -> str:
        return self.source.describe()

    def _rebuild(self, source: TestPlan) -> TestPlan:
        return _MaterializedPlan(source)


def _merge_seeds(seed_groups: Iterable[Tuple[int, ...]]
                 ) -> Tuple[int, ...]:
    merged: set = set()
    for group in seed_groups:
        merged.update(group)
    return tuple(sorted(merged))


def as_plan(value) -> TestPlan:
    """Coerce a plan, a strategy, or a script sequence into a plan."""
    if isinstance(value, TestPlan):
        return value
    if isinstance(value, Strategy):
        return StrategyPlan(value)
    return ExplicitPlan(tuple(value))


def union(*parts, label: Optional[str] = None) -> TestPlan:
    """Concatenate plans and/or strategies into one plan."""
    plans = [as_plan(part) for part in parts]
    if len(plans) == 1 and label is None:
        return plans[0]
    return UnionPlan(plans, label=label)


def explicit(scripts: Sequence[Script],
             label: str = "explicit") -> TestPlan:
    """A fixed, already-materialised suite as a plan."""
    return ExplicitPlan(scripts, label=label)
