"""Model-aware differential testing (paper section 8).

Plain differential testing cannot be applied to file systems because
the envelope of allowed behaviour is wide: two correct implementations
are *expected* to differ.  "SibylFS instead allows differential testing
of multiple file systems taking this allowable variability into
account": two configurations are compared trace-by-trace, and each
difference is classified by whether each side lies inside the model's
envelope — separating benign variation from genuine deviation.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.labels import OsReturn
from repro.executor.executor import ScriptExecutor
from repro.fsimpl.configs import config_by_name
from repro.fsimpl.quirks import Quirks
from repro.gen.plan import TestPlan
from repro.oracle import get_oracle
from repro.script.ast import Script, Trace


@dataclasses.dataclass(frozen=True)
class Difference:
    """One script on which the two configurations behaved differently."""

    script_name: str
    #: First differing observation (rendered labels from each side).
    left_obs: str
    right_obs: str
    #: Is each side's full trace inside the model envelope?
    left_conformant: bool
    right_conformant: bool

    @property
    def classification(self) -> str:
        """benign (both allowed) / left-bug / right-bug / both-bug."""
        if self.left_conformant and self.right_conformant:
            return "benign-variation"
        if self.left_conformant:
            return "right-deviates"
        if self.right_conformant:
            return "left-deviates"
        return "both-deviate"


@dataclasses.dataclass(frozen=True)
class DifferentialResult:
    """The outcome of a differential run over a suite."""

    left: str
    right: str
    total: int
    differences: Tuple[Difference, ...]

    def by_classification(self) -> dict:
        out: dict = {}
        for diff in self.differences:
            out.setdefault(diff.classification, []).append(diff)
        return out

    def render(self) -> str:
        lines = [f"differential run: {self.left} vs {self.right} "
                 f"({self.total} scripts, "
                 f"{len(self.differences)} differing)"]
        for kind, diffs in sorted(self.by_classification().items()):
            lines.append(f"  {kind}: {len(diffs)}")
            for diff in diffs[:5]:
                lines.append(f"    {diff.script_name}: "
                             f"{diff.left_obs[:40]} vs "
                             f"{diff.right_obs[:40]}")
        return "\n".join(lines)


def _first_difference(left: Trace,
                      right: Trace) -> Optional[Tuple[str, str]]:
    left_rets = [e.label for e in left.events
                 if isinstance(e.label, OsReturn)]
    right_rets = [e.label for e in right.events
                  if isinstance(e.label, OsReturn)]
    for l, r in zip(left_rets, right_rets):
        if l != r:
            return l.render(), r.render()
    if len(left_rets) != len(right_rets):
        return (f"{len(left_rets)} returns",
                f"{len(right_rets)} returns")
    # Process-level events (signal/spin) may differ too.
    if left.labels() != right.labels():
        return "trace shape differs", "trace shape differs"
    return None


def differential_run(left: str | Quirks, right: str | Quirks,
                     scripts: Union[Sequence[Script], TestPlan],
                     model: Optional[str] = None) -> DifferentialResult:
    """Execute every script on both configurations and classify the
    behavioural differences against the model envelope.

    ``scripts`` may be a materialised suite or a
    :class:`repro.gen.TestPlan`, whose generator is streamed once, so
    the suite is never held in memory.  ``model`` is an oracle name
    resolved through :mod:`repro.oracle` — a platform (default: the
    *left* configuration's platform, the typical baseline-vs-port
    comparison), ``"all"``, or any ``"vectored:A+B"`` combination;
    conformance of each side is the oracle's primary verdict.  Both
    sides execute on one :class:`~repro.executor.ScriptExecutor`, and
    only the traces that actually differ are checked.
    """
    left_q = left if isinstance(left, Quirks) else config_by_name(left)
    right_q = right if isinstance(right, Quirks) else \
        config_by_name(right)
    stream = (scripts.scripts() if isinstance(scripts, TestPlan)
              else scripts)
    oracle = get_oracle(model or left_q.platform)
    executor = ScriptExecutor()
    # Each script runs on both sides before the next is pulled: a
    # suite-sized run holds O(differences) records, not O(suite) traces.
    differences: List[Difference] = []
    total = 0
    for script in stream:
        total += 1
        lt = executor.execute(left_q, script)
        rt = executor.execute(right_q, script)
        first = _first_difference(lt, rt)
        if first is not None:
            differences.append(Difference(
                script_name=lt.name,
                left_obs=first[0], right_obs=first[1],
                left_conformant=oracle.check(lt).primary.accepted,
                right_conformant=oracle.check(rt).primary.accepted))
    return DifferentialResult(left=left_q.name, right=right_q.name,
                              total=total,
                              differences=tuple(differences))
