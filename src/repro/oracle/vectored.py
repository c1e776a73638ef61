"""Vectored state-set checking: all platforms in one exploration.

The paper's headline analyses — the section 7.3 survey, the merge view
and the section 9 portability analysis — all ask the same question of
several model variants.  Checked naively that costs one full state-set
pass per :class:`~repro.core.platform.PlatformSpec`, although the four
specs agree on the vast majority of transitions.

:class:`VectoredOracle` runs them through **one** exploration,
:func:`repro.checker.checker.explore`, which carries a
platform-membership bitmask on every tracked state.  Label application
never consults the spec (only the internal tau transition does), so it
is done once per state for every platform in the state's mask, and
states common to several platforms are stored, hashed and matched once.
The memos share one tau table (:mod:`repro.engine.memo`): a tau step
is evaluated once for every platform whose spec agrees on each field it
read, so on the slice of the default plan a cold check makes 3,752
``exec_call`` calls instead of 6,360.  Each platform's results stay
*exactly* those of an independent uninterned ``TraceChecker`` pass
(test-enforced parity).

What the oracle adds is the state the loop runs on.  A caching oracle
owns one intern table and its memos for life, and restores the deepest
snapshot a trace shares with its stored path
(:mod:`repro.oracle.cache`), so suites whose scripts share generated
setup scaffolding skip re-exploring common prefixes.  The coverage path
(``cache=False``) gets fresh tables per check instead: memo hits do not
re-fire specification-clause ``cover()`` calls.  Tau sharing is safe on
that path: a reused step's clauses were fired, in the same check, by
the evaluation it reuses.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.checker.checker import TraceChecker, explore
from repro.core.platform import PlatformSpec, spec_by_name
from repro.engine import InternTable, TransitionMemo
from repro.oracle.cache import PrefixCache
from repro.oracle.verdict import ConformanceProfile, Verdict
from repro.script.ast import Trace


class VectoredOracle:
    """One state-set pass over any number of platform variants.

    Parameters mirror :class:`repro.checker.checker.TraceChecker`
    (groups, max_states, default credentials) and apply to every
    platform.  ``cache=True`` resumes each check from the oracle's
    stored path (:class:`PrefixCache`) on warm memos; ``cache=False``
    checks every trace from scratch on fresh tables.
    """

    def __init__(self, platforms: Sequence[Union[str, PlatformSpec]], *,
                 groups: dict | None = None,
                 max_states: int = TraceChecker.DEFAULT_MAX_STATES,
                 default_uid: int = 0, default_gid: int = 0,
                 cache: bool = True) -> None:
        if not platforms:
            raise ValueError("an oracle needs at least one platform")
        self.specs: Tuple[PlatformSpec, ...] = tuple(
            p if isinstance(p, PlatformSpec) else spec_by_name(p)
            for p in platforms)
        self.platforms: Tuple[str, ...] = tuple(
            spec.name for spec in self.specs)
        if len(set(self.platforms)) != len(self.platforms):
            raise ValueError(
                f"duplicate platforms: {', '.join(self.platforms)}")
        self.groups = groups or {}
        self.max_states = max_states
        self.default_uid = default_uid
        self.default_gid = default_gid
        self._cache: Optional[PrefixCache] = None
        if cache:
            # A caching oracle owns its intern table and memos for
            # life: the stored path's snapshots hold this table's ids.
            self._cache = PrefixCache()
            self._memos = self._new_memos()

    @property
    def name(self) -> str:
        if len(self.platforms) == 1:
            return self.platforms[0]
        return "vectored:" + "+".join(self.platforms)

    @property
    def cache(self) -> Optional[PrefixCache]:
        return self._cache

    def _bind_engine(self) -> Tuple[TransitionMemo, ...]:
        """The per-spec memos for one ``check`` call.

        A caching oracle's table and memos persist across checks (and
        a pool worker's life), which is the cross-trace transition
        reuse this engine exists for; its stored path holds their ids.

        Without a cache (the coverage-collection path) everything is
        rebuilt per call: a memo kept warm across traces would skip
        re-executing transition bodies and under-report per-trace
        specification-clause coverage.
        """
        if self._cache is None:
            self._memos = memos = self._new_memos()
            return memos
        return self._memos

    def _new_memos(self) -> Tuple[TransitionMemo, ...]:
        """One memo per spec over one fresh intern table.  With two or
        more specs they share one tau table, so a tau step is evaluated
        once for every platform whose spec agrees on the fields it
        read."""
        table = InternTable()
        shared = {} if len(self.specs) > 1 else None
        return tuple(TransitionMemo(spec, table, shared)
                     for spec in self.specs)

    def check(self, trace: Trace) -> Verdict:
        devs, peaks, pruned = explore(
            self._bind_engine(), trace, groups=self.groups,
            max_states=self.max_states, default_uid=self.default_uid,
            default_gid=self.default_gid, cache=self._cache)
        labels = len(trace.events)
        return Verdict(trace=trace, profiles=tuple(
            ConformanceProfile(platform=platform,
                               deviations=tuple(devs[i]),
                               max_state_set=peaks[i],
                               labels_checked=labels,
                               pruned=pruned[i])
            for i, platform in enumerate(self.platforms)))


class ModelOracle(VectoredOracle):
    """One platform variant of the model as an oracle.

    The single-platform degenerate case of the vectored engine: its
    verdict's one profile is identical to a
    :class:`~repro.checker.checker.TraceChecker` pass (parity is
    test-enforced), plus prefix memoization.
    """

    def __init__(self, platform: Union[str, PlatformSpec], *,
                 groups: dict | None = None,
                 max_states: int = TraceChecker.DEFAULT_MAX_STATES,
                 default_uid: int = 0, default_gid: int = 0,
                 cache: bool = True) -> None:
        super().__init__((platform,), groups=groups,
                         max_states=max_states,
                         default_uid=default_uid,
                         default_gid=default_gid, cache=cache)

    @property
    def platform(self) -> str:
        return self.platforms[0]
