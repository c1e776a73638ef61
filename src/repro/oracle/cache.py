"""Prefix resumption for state-set checking.

Generated suites share setup prefixes by construction, so a caching
oracle resumes each check as :class:`~repro.executor.ScriptExecutor`
resumes each script.  It keeps one *stored path*: a ``(label,
snapshot, peaks)`` entry per label of the clean prefix of the last
trace that extended it, implicit creates first (traces that differ in
process population reach different states).  A snapshot is the sorted
``(state id, platform mask)`` int pairs after the label, ids minted by
the oracle's own intern table; ``peaks`` are the per-platform
max-state-set counters.

An entry is stored only while every platform is deviation-free and
unpruned.  A check that adds no clean entry past the prefix it shares
leaves the path as it was; otherwise the path becomes the shared
entries plus the new ones, so it is never longer than one trace.

A check reads :attr:`PrefixCache.path` once and publishes its
successor in one assignment, so two threads checking on one oracle
each see a consistent path; the last to finish wins.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: ``(label, sorted (state id, mask) pairs, per-platform peaks)``.
PathEntry = Tuple[object, Tuple[Tuple[int, int], ...], Tuple[int, ...]]


class PrefixCache:
    """One oracle's stored path, with hit and miss counters."""

    def __init__(self) -> None:
        self.path: Tuple[PathEntry, ...] = ()
        self.hits = 0        #: labels restored from the stored path
        self.misses = 0      #: labels evaluated while the check was clean

    def resume(self, labels: Sequence[object]
               ) -> Tuple[Tuple[PathEntry, ...], int]:
        """The stored path, read once, and how many leading ``labels``
        it shares.  Labels are compared by identity first (parsed and
        resumed traces share one object per line), then with ``==``."""
        path = self.path
        shared = 0
        for entry, label in zip(path, labels):
            stored = entry[0]
            if stored is not label and stored != label:
                break
            shared += 1
        self.hits += shared
        return path, shared

    def publish(self, path: Tuple[PathEntry, ...], shared: int,
                new: List[PathEntry], clean: bool) -> None:
        """Store ``path[:shared]`` plus ``new``, unless ``new`` is
        empty.  Every new entry was a label evaluated while clean, and
        so was the label that made the check unclean, if one did."""
        self.misses += len(new) + (not clean)
        if new:
            self.path = path[:shared] + tuple(new)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
