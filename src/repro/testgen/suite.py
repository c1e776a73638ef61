"""Suite summaries.

The paper's suite is 21 070 scripts; the default suite here is a few
thousand (the same generators at a laptop-friendly scale), streamed by
:func:`repro.gen.default_plan`.  :func:`summarize` counts any script
population per targeted libc function.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Mapping

from repro.script.ast import Script


@dataclasses.dataclass(frozen=True)
class SuiteSummary:
    """Script counts per targeted libc function, plus the total."""

    #: Per-function counts — *only* functions, no sentinel keys.
    counts: Mapping[str, int]
    total: int

    @classmethod
    def from_scripts(cls, scripts: Iterable[Script]) -> "SuiteSummary":
        counts: Dict[str, int] = {}
        total = 0
        for script in scripts:
            func = script.name.split("___", 1)[0]
            counts[func] = counts.get(func, 0) + 1
            total += 1
        return cls(counts=counts, total=total)

    def render(self) -> str:
        lines = [f"{func:<14} {count:>6}"
                 for func, count in sorted(self.counts.items())]
        lines.append(f"{'TOTAL':<14} {self.total:>6}")
        return "\n".join(lines)


def summarize(scripts: Iterable[Script]) -> SuiteSummary:
    """Per-function script counts (paper section 6.1 reports e.g.
    2 500 autogenerated scripts for rename alone)."""
    return SuiteSummary.from_scripts(scripts)
