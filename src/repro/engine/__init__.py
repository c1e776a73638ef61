"""Interned state-set exploration: hash-consed states, memoized moves.

The checker's hot loop (paper sections 3/5) is *state-set* evolution:
apply ``os_trans`` to every member of a finite set, union the results,
take tau closures at returns.  Done naively that hashes and compares
full :class:`~repro.osapi.os_state.OsState` dataclasses at every step,
and re-derives transitions that generated suites repeat thousands of
times (shared ``mkdir``/``open`` scaffolding, repeated trace families).

This package is the engine both checking front ends share:

* :class:`InternTable` hash-conses ``OsStateOrSpecial`` values into
  small integer ids — each distinct state is hashed **once**, at
  interning time; afterwards the exploration manipulates plain ints.
* :class:`TransitionMemo` memoizes, per
  :class:`~repro.core.platform.PlatformSpec`, both ``os_trans``
  applications (``(state_id, label) -> successor id tuple``) and
  single-state tau closures (``state_id -> closed id set``), so a
  transition derived for one trace is free for every later trace that
  reaches the same state (the tau graph consumes pending calls, so
  per-state closures compose soundly into set closures).
* Compact id-set operations (:meth:`TransitionMemo.apply`,
  :meth:`TransitionMemo.closure`, :meth:`TransitionMemo.recover`,
  :meth:`TransitionMemo.prune`) replace frozenset-of-dataclass unions.

Tables and memos live in one process: each checking worker keeps its
own, warm for its whole life.

Layering (``tests/test_architecture.py``): the package sits directly
above ``repro.osapi`` and *below* ``repro.checker``, so both the
reference :class:`~repro.checker.checker.TraceChecker` and the
:mod:`repro.oracle` engines may build on it.  Results are bit-for-bit
identical to uninterned exploration — interning is injective, and the
parity is test-enforced (handwritten suite plus a randomized
interned-vs-uninterned property test).

Coverage caveat: a memo hit does not re-execute the transition body, so
specification-clause ``cover()`` calls fire only on first derivation.
Within one trace this is invisible (clause hits are a set), but a memo
kept warm *across* traces under-reports per-trace coverage — the
coverage-collection path therefore uses fresh tables per check, exactly
as it already runs oracles with prefix caching disabled.
"""

from repro.engine.intern import InternTable
from repro.engine.memo import TransitionMemo, recover_states

__all__ = ["InternTable", "TransitionMemo", "recover_states"]
