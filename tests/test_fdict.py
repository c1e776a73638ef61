"""Unit and property tests for the persistent map underlying all model
state."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.fdict import fdict


class TestBasics:
    def test_empty(self):
        d = fdict()
        assert len(d) == 0
        assert list(d) == []
        assert "x" not in d

    def test_from_mapping(self):
        d = fdict({"a": 1, "b": 2})
        assert d["a"] == 1
        assert d["b"] == 2
        assert len(d) == 2

    def test_from_pairs(self):
        d = fdict([("a", 1), ("b", 2)])
        assert dict(d) == {"a": 1, "b": 2}

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            fdict()["missing"]

    def test_get_default(self):
        assert fdict({"a": 1}).get("b") is None
        assert fdict({"a": 1}).get("b", 7) == 7


class TestPersistence:
    def test_set_returns_new_map(self):
        d0 = fdict({"a": 1})
        d1 = d0.set("b", 2)
        assert "b" not in d0
        assert d1["b"] == 2
        assert d1["a"] == 1

    def test_set_overwrites(self):
        d = fdict({"a": 1}).set("a", 9)
        assert d["a"] == 9

    def test_remove(self):
        d0 = fdict({"a": 1, "b": 2})
        d1 = d0.remove("a")
        assert "a" not in d1
        assert "a" in d0

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            fdict().remove("a")

    def test_discard_missing_is_noop(self):
        d = fdict({"a": 1})
        assert d.discard("zzz") is d

    def test_discard_present(self):
        assert "a" not in fdict({"a": 1}).discard("a")

    def test_update_with(self):
        d = fdict({"a": 1}).update_with({"b": 2, "a": 3})
        assert dict(d) == {"a": 3, "b": 2}

    def test_map_values(self):
        d = fdict({"a": 1, "b": 2}).map_values(lambda v: v * 10)
        assert dict(d) == {"a": 10, "b": 20}

    def test_results_never_alias_their_source(self):
        """Construction copies its input and every update builds its own
        dict, so mutating an input never reaches a map, and no result
        shares storage with the map or the mapping it came from."""
        source = {"a": 1, "b": 2}
        base = fdict(source)
        source["c"] = 3
        assert dict(base) == {"a": 1, "b": 2}
        assert fdict(base)._d is not base._d
        other = {"d": 4}
        results = [base.set("a", 9), base.remove("a"), base.discard("b"),
                   base.update_with(other), base.map_values(str)]
        other["e"] = 5
        assert [dict(r) for r in results] == [
            {"a": 9, "b": 2}, {"b": 2}, {"a": 1}, {"a": 1, "b": 2, "d": 4},
            {"a": "1", "b": "2"}]
        assert dict(base) == {"a": 1, "b": 2}
        storages = [base._d, other] + [r._d for r in results]
        assert len({id(d) for d in storages}) == len(storages)


class TestEqualityHashing:
    def test_equal_regardless_of_insertion_order(self):
        d1 = fdict([("a", 1), ("b", 2)])
        d2 = fdict([("b", 2), ("a", 1)])
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_unequal_values(self):
        assert fdict({"a": 1}) != fdict({"a": 2})

    def test_compare_with_plain_mapping(self):
        assert fdict({"a": 1}) == {"a": 1}
        assert fdict({"a": 1}) != {"a": 2}

    def test_usable_in_sets(self):
        s = {fdict({"a": 1}), fdict({"a": 1}), fdict({"b": 2})}
        assert len(s) == 2

    def test_repr_deterministic(self):
        d1 = fdict([("a", 1), ("b", 2)])
        d2 = fdict([("b", 2), ("a", 1)])
        assert repr(d1) == repr(d2)


class TestHashMixing:
    """Regression for the XOR-fold hash.

    XOR of item hashes is GF(2)-linear: any linear dependency among
    item-hash bit vectors makes *different* maps collide
    systematically, degrading state-set dedup into equality scans.
    The test finds such a dependency among real item hashes by
    Gaussian elimination (int and tuple hashes are deterministic, so
    this is reproducible) and checks the shipped hash separates the
    maps the old fold could not.
    """

    @staticmethod
    def _xor_fold(d):
        """The pre-fix fdict hash."""
        h = 0
        for item in d.items():
            h ^= hash(item)
        return hash((len(d), h))

    @staticmethod
    def _even_xor_dependency(n=256):
        """Two disjoint, equal-size sets of (int, 0) items whose
        item-hash XORs are equal (a dependency the old fold cannot
        see).  Guaranteed to exist: >64 vectors over GF(2)^64 are
        linearly dependent."""
        mask = (1 << 64) - 1
        basis = {}  # msb -> (vector, contributing index set)
        deps = []
        for idx in range(n):
            vec = hash((idx, 0)) & mask
            used = {idx}
            while vec:
                msb = vec.bit_length() - 1
                if msb not in basis:
                    basis[msb] = (vec, used)
                    break
                bvec, bused = basis[msb]
                vec ^= bvec
                used = used ^ bused
            else:
                deps.append(used)
        # An even-size dependency of >= 4 items, directly or as the
        # symmetric difference of two odd ones (sizes 2 are genuine
        # item-hash collisions, not XOR cancellations — skip them).
        evens = [s for s in deps if len(s) % 2 == 0 and len(s) >= 4]
        if not evens:
            odds = [s for s in deps if len(s) % 2 == 1]
            assert len(odds) >= 2, "no usable dependency found"
            evens = [odds[0] ^ odds[1]]
        subset = sorted(evens[0])
        half = len(subset) // 2
        left = [(k, 0) for k in subset[:half]]
        right = [(k, 0) for k in subset[half:]]
        return left, right

    def test_xor_cancellation_pairs_no_longer_collide(self):
        left, right = self._even_xor_dependency()
        d_left, d_right = fdict(left), fdict(right)
        assert d_left != d_right
        # The old fold collides on these by construction...
        assert self._xor_fold(d_left) == self._xor_fold(d_right)
        # ...the frozenset-mixed hash must not.
        assert hash(d_left) != hash(d_right)

    def test_swapped_value_pair_distinct_hash(self):
        # The simplest interesting shape: same keys, values swapped.
        d1 = fdict({1: 2, 2: 1})
        d2 = fdict({1: 1, 2: 2})
        assert d1 != d2
        assert hash(d1) != hash(d2)


@given(st.dictionaries(st.text(max_size=8), st.integers()))
def test_roundtrip_via_dict(items):
    assert dict(fdict(items)) == items


@given(st.dictionaries(st.text(max_size=8), st.integers()),
       st.text(max_size=8), st.integers())
def test_set_then_get(items, key, value):
    d = fdict(items).set(key, value)
    assert d[key] == value
    assert len(d) == len(items) + (0 if key in items else 1)


@given(st.dictionaries(st.text(max_size=8), st.integers(), min_size=1))
def test_remove_then_absent(items):
    key = sorted(items)[0]
    d = fdict(items).remove(key)
    assert key not in d
    assert len(d) == len(items) - 1


@given(st.dictionaries(st.text(max_size=8), st.integers()))
def test_hash_equals_for_equal_maps(items):
    d1 = fdict(items)
    d2 = fdict(list(reversed(list(items.items()))))
    assert d1 == d2 and hash(d1) == hash(d2)
