"""Specification-coverage instrumentation (paper section 7.2).

The paper measures how much of the *model* a test-suite run exercises
(98 % statement coverage), arguing that coverage of the specification is
the right target for a black-box oracle.  We reproduce the metric
mechanically: every specification clause declares a named coverage point
at import time, and records a hit whenever trace checking evaluates it.

Two refinements mirror the paper's caveats:

* clauses that are believed unreachable are declared with
  ``reachable=False`` — they document exhaustiveness but are excluded from
  the denominator ("we have explicitly included annotated lines covering
  these cases as a form of documentation");
* clauses specific to one platform are declared with ``platforms=...`` so
  that coverage of, say, a Linux-only clause is not demanded of an OS X
  run.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, FrozenSet, Iterable, Optional


@dataclasses.dataclass
class _Point:
    name: str
    reachable: bool
    platforms: Optional[FrozenSet[str]]  # None = all platforms
    hits: int = 0


class CoverageRegistry:
    """Registry of declared specification clauses and their hit counts."""

    def __init__(self) -> None:
        self._points: Dict[str, _Point] = {}
        self._lock = threading.Lock()
        #: platform -> clause names proven statically unreachable there
        #: (installed by :func:`repro.analysis.dead.install_dead_clauses`).
        self._static_dead: Dict[str, FrozenSet[str]] = {}

    def declare(self, name: str, *, reachable: bool = True,
                platforms: Iterable[str] | None = None) -> str:
        """Declare a coverage point; returns the name for convenience."""
        with self._lock:
            if name not in self._points:
                self._points[name] = _Point(
                    name=name,
                    reachable=reachable,
                    platforms=frozenset(platforms) if platforms else None,
                )
        return name

    def hit(self, name: str) -> None:
        """Record that the named clause was evaluated.

        The increment (and the auto-registration fallback) run under
        the registry lock: streamed backends check on threads, and an
        unlocked read-modify-write would silently lose hits — exactly
        the counts :meth:`hit_names` ships between processes.
        """
        with self._lock:
            point = self._points.get(name)
            if point is None:
                # Auto-register clauses exercised before declaration
                # (keeps the instrumentation non-fatal if a module
                # forgets to declare).
                point = _Point(name=name, reachable=True, platforms=None)
                self._points[name] = point
            point.hits += 1

    def reset_hits(self) -> None:
        """Zero all hit counts (e.g. before measuring one suite run)."""
        with self._lock:
            for point in self._points.values():
                point.hits = 0

    def hit_names(self) -> FrozenSet[str]:
        """The clauses hit since the last reset.

        This is how per-process coverage travels: a worker resets,
        checks a trace, and ships the hit set back to the parent, which
        unions the sets and reports via :meth:`report_for`.
        """
        return frozenset(name for name, point in self._points.items()
                         if point.hits > 0)

    def install_static_dead(
            self, dead: Dict[str, Iterable[str]]) -> None:
        """Install per-platform statically-dead clause sets.

        Dead clauses leave the coverage denominator and the fuzz
        frontier for their platform; :meth:`report_for` lists them
        separately so reports can annotate rather than silently shrink.
        Idempotent — re-installing the same analysis is a no-op.
        """
        with self._lock:
            self._static_dead = {platform: frozenset(names)
                                 for platform, names in dead.items()}

    def statically_dead(self, platform: str | None = None
                        ) -> FrozenSet[str]:
        """Clauses proven unreachable on ``platform`` (with ``None``:
        on *every* platform the analysis covered)."""
        if platform is not None:
            return self._static_dead.get(platform, frozenset())
        sets = list(self._static_dead.values())
        if not sets:
            return frozenset()
        common = sets[0]
        for other in sets[1:]:
            common = common & other
        return common

    def declarations(self) -> Dict[str, tuple]:
        """Snapshot of declared points as ``name -> (reachable,
        platforms)`` — the linter's clause-consistency input."""
        return {name: (point.reachable, point.platforms)
                for name, point in self._points.items()}

    # -- reporting -----------------------------------------------------------
    def report(self, platform: str | None = None) -> "CoverageReport":
        """Compute coverage, restricted to clauses relevant for a platform."""
        return self.report_for(self.hit_names(), platform)

    def report_for(self, covered: Iterable[str],
                   platform: str | None = None) -> "CoverageReport":
        """Coverage report from an externally collected hit set.

        Unlike :meth:`report` this reads no hit counts, so results
        gathered in worker processes (whose registries are separate)
        can be reported without mutating this registry.
        """
        covered_set = set(covered)
        dead_set = self.statically_dead(platform)
        relevant = []
        dead = []
        for point in self._points.values():
            if not point.reachable:
                continue
            if (platform is not None and point.platforms is not None
                    and platform not in point.platforms):
                continue
            if point.name in dead_set:
                dead.append(point)
                continue
            relevant.append(point)
        return CoverageReport(
            total=len(relevant),
            covered=sorted(p.name for p in relevant
                           if p.name in covered_set),
            uncovered=sorted(p.name for p in relevant
                             if p.name not in covered_set),
            dead=sorted(p.name for p in dead),
        )

    def reachable_names(self, platform: str | None = None
                        ) -> FrozenSet[str]:
        """Every declared clause that is reachable (and relevant for
        ``platform``, when given) — the coverage denominator, and the
        universe the fuzzer's frontier is computed against.

        Clauses proven statically dead for the platform (see
        :meth:`install_static_dead`) are excluded: they are not targets
        a run could ever hit."""
        dead_set = self.statically_dead(platform)
        names = []
        for point in self._points.values():
            if not point.reachable or point.name in dead_set:
                continue
            if (platform is not None and point.platforms is not None
                    and platform not in point.platforms):
                continue
            names.append(point.name)
        return frozenset(names)

    def frontier(self, covered: Iterable[str],
                 platforms: Iterable[str]) -> Dict[str, list]:
        """Per-platform reachable-but-unhit clause lists.

        This is the machine-readable shape behind ``repro coverage
        --uncovered``/``--json`` and the input the coverage-guided
        fuzzer steers toward: for each platform, the clauses a run
        could still hit but has not.
        """
        covered_set = set(covered)
        return {platform: sorted(self.reachable_names(platform)
                                 - covered_set)
                for platform in platforms}

    @property
    def declared(self) -> int:
        return len(self._points)


@dataclasses.dataclass(frozen=True)
class CoverageReport:
    """Result of a coverage measurement."""

    total: int
    covered: list
    uncovered: list
    #: Clauses excluded from ``total`` because static analysis proved
    #: them unreachable on the reported platform.
    dead: list = dataclasses.field(default_factory=list)

    @property
    def fraction(self) -> float:
        if self.total == 0:
            return 1.0
        return len(self.covered) / self.total

    def to_dict(self) -> dict:
        """JSON-ready form (the ``repro coverage --json`` row shape)."""
        return {"total": self.total, "fraction": self.fraction,
                "covered": list(self.covered),
                "uncovered": list(self.uncovered),
                "dead": list(self.dead)}

    def render(self) -> str:
        pct = 100.0 * self.fraction
        lines = [f"model coverage: {len(self.covered)}/{self.total} "
                 f"clauses ({pct:.1f}%)"]
        if self.uncovered:
            lines.append("uncovered clauses:")
            lines.extend(f"  - {name}" for name in self.uncovered)
        if self.dead:
            lines.append("statically dead (excluded from the "
                         "denominator):")
            lines.extend(f"  # {name}" for name in self.dead)
        return "\n".join(lines)


#: The process-wide registry used by the specification modules.
REGISTRY = CoverageRegistry()


def declare(name: str, *, reachable: bool = True,
            platforms: Iterable[str] | None = None) -> str:
    """Module-level shorthand for :meth:`CoverageRegistry.declare`."""
    return REGISTRY.declare(name, reachable=reachable, platforms=platforms)


def cover(name: str) -> None:
    """Module-level shorthand for :meth:`CoverageRegistry.hit`."""
    REGISTRY.hit(name)
