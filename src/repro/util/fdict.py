"""An immutable, hashable finite map (the analogue of Lem's ``fmap``).

Model states must be valid set elements so the checker can deduplicate the
set of possible states after every transition (paper section 3,
"Concurrency nondeterminism via state sets").  Python dicts are unhashable,
so the model uses :class:`fdict`: a thin persistent wrapper whose update
operations return new maps and whose hash is order-insensitive.

Sizes in the model are small (a handful of processes, tens of directory
entries), so copy-on-write dict copies are the simple and fast choice.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class fdict(Mapping[K, V]):
    """Immutable finite map with value-based equality and hashing."""

    __slots__ = ("_d", "_hash")

    def __init__(self, items: Iterable[Tuple[K, V]] | Mapping[K, V] = ()):
        self._d = dict(items)
        self._hash: int | None = None

    @classmethod
    def _wrap(cls, d: dict) -> "fdict[K, V]":
        """Wrap a dict the caller just built and hands over: no copy."""
        new = cls.__new__(cls)
        new._d = d
        new._hash = None
        return new

    # -- Mapping interface -------------------------------------------------
    def __getitem__(self, key: K) -> V:
        return self._d[key]

    def __iter__(self) -> Iterator[K]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, key: object) -> bool:
        return key in self._d

    # -- persistence operations --------------------------------------------
    def set(self, key: K, value: V) -> "fdict[K, V]":
        """Return a new map with ``key`` bound to ``value``."""
        new = dict(self._d)
        new[key] = value
        return fdict._wrap(new)

    def remove(self, key: K) -> "fdict[K, V]":
        """Return a new map without ``key`` (key must be present)."""
        new = dict(self._d)
        del new[key]
        return fdict._wrap(new)

    def discard(self, key: K) -> "fdict[K, V]":
        """Return a new map without ``key`` (no-op if absent)."""
        if key not in self._d:
            return self
        return self.remove(key)

    def update_with(self, other: Mapping[K, V]) -> "fdict[K, V]":
        """Return a new map with all bindings of ``other`` added."""
        new = dict(self._d)
        new.update(other)
        return fdict._wrap(new)

    def map_values(self, fn) -> "fdict[K, V]":
        """Return a new map applying ``fn`` to every value."""
        return fdict._wrap({k: fn(v) for k, v in self._d.items()})

    # -- equality / hashing --------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, fdict):
            return self._d == other._d
        if isinstance(other, Mapping):
            return self._d == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            # Order-insensitive with frozenset-style entropy mixing.
            # A plain XOR of item hashes is GF(2)-linear: any two
            # entry pairs whose item-hashes XOR to the same value
            # collide systematically (state-set dedup then degrades
            # into long equality scans on the checker's hot path).
            # frozenset shuffles each element hash non-linearly
            # before combining, which breaks those cancellations.
            self._hash = hash((len(self._d),
                               hash(frozenset(self._d.items()))))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(
            self._d.items(), key=lambda kv: repr(kv[0])))
        return f"fdict({{{inner}}})"


EMPTY_FDICT: fdict[Any, Any] = fdict()
