"""Interned state-set exploration: hash-consed states, memoized moves.

The checker's hot loop (paper sections 3/5) is *state-set* evolution:
apply ``os_trans`` to every member of a finite set, union the results,
take tau closures at returns.  Done naively that hashes and compares
full :class:`~repro.osapi.os_state.OsState` dataclasses at every step,
and re-derives transitions that generated suites repeat thousands of
times (shared ``mkdir``/``open`` scaffolding, repeated trace families).

This package is the engine the one interned check loop,
:func:`repro.checker.checker.explore`, runs on for ``TraceChecker`` and
every oracle alike:

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
* The memos of one multi-platform oracle share their tau steps: a step
  is evaluated on a :class:`RecordingSpec`, which logs the spec fields
  it reads, and another platform takes its successors if its own spec
  has equal values for every field logged.  The four specs differ only
  in fields most steps never read, so a cold ``all`` check of the
  default plan's slice makes 3,752 ``exec_call`` calls instead of
  6,360.  Single-platform memos record nothing.
* The check loop works per state id (:meth:`TransitionMemo.apply_one`,
  :meth:`TransitionMemo.closure_one`) and carries platform masks
  through; :meth:`TransitionMemo.recover` and
  :meth:`TransitionMemo.prune` are its id-set rules after a deviation.

Tables and memos live in one process: each checking worker keeps its
own, warm for its whole life.

Layering (``tests/test_architecture.py``): the package sits directly
above ``repro.osapi`` and *below* ``repro.checker``, so the check loop
there, and the :mod:`repro.oracle` front ends that own its tables, may
build on it.  Results are bit-for-bit identical to uninterned
exploration — interning is injective, and the parity is test-enforced
(handwritten suite plus a randomized interned-vs-uninterned property
test).

Coverage caveat: a memo hit does not re-execute the transition body, so
specification-clause ``cover()`` calls fire only on first derivation.
Within one trace this is invisible (clause hits are a set), but a memo
kept warm *across* traces under-reports per-trace coverage — the
coverage-collection path therefore uses fresh tables per check, exactly
as it already runs oracles with prefix caching disabled.
"""

from repro.engine.intern import InternTable
from repro.engine.memo import RecordingSpec, TransitionMemo, recover_states

__all__ = ["InternTable", "RecordingSpec", "TransitionMemo",
           "recover_states"]
