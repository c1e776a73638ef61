"""The specification monad and combinators (paper section 4, Fig. 6).

The model is written as pure functions from states to *finite sets of
outcomes*, where an outcome pairs a successor state with a return value.
Nondeterminism is expressed by returning more than one outcome; looseness
about error codes is expressed by the **parallel combinator**: a command's
precondition checks are conceptually run in parallel, and the resulting
error may be from any failing check — none has priority over the others.

Checks come in two strengths, which is how the model stays both sound and
tight:

* a *mandatory* error from any check means the call must fail — success
  is not an allowed outcome;
* an *optional* error means the platform may either fail with it or
  behave as if the check passed (used for POSIX "may fail" clauses).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, FrozenSet, TypeVar

from repro.core.errors import Errno
from repro.core.values import Err, Ok, ReturnValue, RvNone, Special

S = TypeVar("S")


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One allowed behaviour: a successor state and a return value."""

    state: object
    ret: ReturnValue


Outcomes = FrozenSet[Outcome]


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Result of one precondition check.

    ``mandatory`` — errors that *must* occur (the operation cannot
    succeed); ``optional`` — errors that *may* occur even though the
    operation could also proceed.
    """

    mandatory: FrozenSet[Errno] = frozenset()
    optional: FrozenSet[Errno] = frozenset()

    @property
    def passes(self) -> bool:
        return not self.mandatory


#: A check takes no arguments (closures capture state) and yields a result.
Check = Callable[[], CheckResult]

PASS = CheckResult()


def fails(*errnos: Errno) -> CheckResult:
    """A check result demanding failure with one of the given errors."""
    return CheckResult(mandatory=frozenset(errnos))


def may_fail(*errnos: Errno) -> CheckResult:
    """A check result allowing (not requiring) the given errors."""
    return CheckResult(optional=frozenset(errnos))


def parallel(*checks: Check) -> CheckResult:
    """The ``|||`` combinator of Fig. 6.

    Runs all checks and merges their error sets: the call may fail with
    any error raised by any check, and none has priority.  The merged
    result is mandatory if any individual check mandated failure.
    """
    mandatory: set[Errno] = set()
    optional: set[Errno] = set()
    for check in checks:
        result = check()
        mandatory |= result.mandatory
        optional |= result.optional
    return CheckResult(mandatory=frozenset(mandatory),
                       optional=frozenset(optional))


def error_outcomes(state: S, result: CheckResult) -> Outcomes:
    """Error outcomes from a check result, leaving the state unchanged.

    Leaving the state unchanged on error is the POSIX invariant the paper
    proved as a sanity property of the model (section 1) — it is baked in
    here: error outcomes always carry the *input* state.
    """
    errs = result.mandatory | result.optional
    return frozenset(Outcome(state, Err(e)) for e in errs)


def guarded(state: S, result: CheckResult,
            success: Callable[[], Outcomes]) -> Outcomes:
    """Combine precondition checks with a success continuation.

    If any check mandated failure, only the error outcomes are allowed.
    Otherwise the success outcomes are allowed, plus any optional-error
    outcomes (the "may fail" looseness).
    """
    if not result.passes:
        return error_outcomes(state, result)
    outcomes = set(success())
    outcomes |= error_outcomes(state, result)
    return frozenset(outcomes)


def ok(state: S, value=None) -> Outcomes:
    """A single successful outcome (default value ``RV_none``)."""
    return frozenset({Outcome(state, Ok(value if value is not None
                                        else RvNone()))})


def errors(state: S, *errnos: Errno) -> Outcomes:
    """Outcomes failing with any of the given errors, state unchanged."""
    return frozenset(Outcome(state, Err(e)) for e in errnos)


def special(state: S, kind: str, detail: str = "") -> Outcomes:
    """An undefined / unspecified / implementation-defined outcome."""
    return frozenset({Outcome(state, Special(kind, detail))})


def union(*outcome_sets: Outcomes) -> Outcomes:
    """Nondeterministic choice between alternative behaviours."""
    out: set[Outcome] = set()
    for outcomes in outcome_sets:
        out |= outcomes
    return frozenset(out)
