"""Prefix memoization for state-set checking.

Generated suites share setup prefixes by construction: most of
``testgen``'s families emit hundreds of scripts that begin with the
same ``mkdir``/``open`` scaffolding before diverging on the operation
under test.  A :class:`PrefixCache` is a trie over label sequences:
each node remembers the checker state reached after a *clean*
(deviation-free, unpruned) prefix, so checking a trace whose opening
labels were seen before resumes from the memoized state set instead of
re-exploring the shared prefix.

The trie is keyed by the labels themselves (frozen dataclasses, so
hashing one label per step — never the whole prefix).  Implicit
process-creation labels are part of the path: two traces that share
their visible prefix but use different process populations snapshot
*different* states, and the path keeps them apart.

Entries are only stored while every platform is still deviation-free
and unpruned; recovery states after a deviation are never memoized.
The node budget bounds memory — once exhausted the cache stops growing
but keeps serving hits.

A cache instance may be shared across oracles: snapshots encode the
producing oracle's platform set, bitmask layout and checking
parameters, so the trie is partitioned by an oracle-supplied
configuration key (:meth:`PrefixCache.root`) and oracles with
different configurations never see each other's snapshots.

Snapshots are *interned*: the state-mask table is stored as a tuple of
``(state_id, mask)`` int pairs, where ids come from the partition's
:class:`~repro.engine.InternTable` (:meth:`PrefixCache.table`).  Id
pairs hash in nanoseconds and are far smaller than item-tuples of full
states, and every oracle sharing a partition shares the table that
minted the ids — which is what makes the snapshots exchangeable in the
first place.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.engine import InternTable


class _Node:
    """One trie node: children by label, plus an optional snapshot."""

    __slots__ = ("children", "snapshot")

    def __init__(self) -> None:
        self.children: Dict[object, "_Node"] = {}
        #: ``(states_items, per_platform_max)`` — the state-mask table
        #: (as a tuple of ``(state_id, mask)`` pairs, ids minted by the
        #: partition's intern table) and the per-platform
        #: max-state-set counters after the prefix ending at this node.
        self.snapshot: Optional[Tuple[tuple, tuple]] = None


class PrefixCache:
    """A bounded label-prefix trie of checker snapshots."""

    def __init__(self, max_nodes: int = 200_000) -> None:
        self.max_nodes = max_nodes
        self._roots: Dict[Hashable, _Node] = {}
        self._tables: Dict[Hashable, InternTable] = {}
        self._nodes = 0
        self.hits = 0        #: labels skipped via a memoized prefix
        self.misses = 0      #: labels processed (and possibly stored)

    def root(self, key: Hashable = ()) -> _Node:
        """The trie root for one oracle configuration.

        ``key`` must capture everything a snapshot depends on besides
        the label path (platform tuple, max_states, credentials,
        groups); distinct keys get disjoint tries within the shared
        node budget.
        """
        root = self._roots.get(key)
        if root is None:
            root = _Node()
            self._roots[key] = root
            self._nodes += 1
        return root

    def table(self, key: Hashable = ()) -> InternTable:
        """The intern table whose ids this partition's snapshots use.

        Every oracle checking against the partition must intern through
        this table (ids from different tables are incomparable).  Like
        roots, tables are created on first use and live until
        :meth:`clear`.
        """
        table = self._tables.get(key)
        if table is None:
            table = InternTable()
            self._tables[key] = table
        return table

    def lookup(self, node: _Node, label: object) -> Optional[_Node]:
        """The child for ``label`` if it holds a snapshot, else None."""
        child = node.children.get(label)
        if child is not None and child.snapshot is not None:
            self.hits += 1
            return child
        self.misses += 1
        return None

    def extend(self, node: _Node, label: object,
               snapshot: Tuple[tuple, tuple]) -> Optional[_Node]:
        """Store ``snapshot`` under ``node -> label``; None when full.

        An existing child (from a racing walk that stopped caching) is
        refreshed rather than duplicated.

        The snapshot is materialised *here*, before anything is
        published: a caller handing over a live view (``dict.items()``
        of a mask table the checking loop keeps updating, while another
        thread checks on the same cache) would otherwise store rows
        whose masks are still being applied.  A fresh child is
        fully built before it is linked into ``children``, so a
        concurrent ``lookup`` can never see a half-initialised node.
        """
        states_items, peaks = snapshot
        if type(states_items) is not tuple:
            # A live view (dict.items()) or other lazy rows: freeze
            # them now.  A tuple is trusted to hold materialised row
            # tuples — the in-repo producer builds exactly that, and
            # re-copying it per stored label would double the hot
            # path's allocation.
            states_items = tuple(tuple(row) for row in states_items)
        snapshot = (states_items, tuple(peaks))
        child = node.children.get(label)
        if child is None:
            if self._nodes >= self.max_nodes:
                return None
            child = _Node()
            child.snapshot = snapshot
            node.children[label] = child
            self._nodes += 1
        else:
            child.snapshot = snapshot
        return child

    def stats(self) -> Dict[str, int]:
        return {"nodes": self._nodes, "hits": self.hits,
                "misses": self.misses}

    def clear(self) -> None:
        self._roots = {}
        self._tables = {}
        self._nodes = 0
        self.hits = 0
        self.misses = 0
