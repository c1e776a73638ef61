"""Direct tests for :class:`repro.oracle.PrefixCache`.

Covers the budget-exhaustion behaviour (``extend`` returning ``None``
at ``max_nodes``), snapshot refresh of an existing child, disjoint
``root(key)`` partitions (tries *and* intern tables), and interned
snapshot round-trips through real oracles.
"""

from repro.core.labels import OsCall, OsCreate
from repro.core import commands as C
from repro.oracle import ModelOracle, PrefixCache, VectoredOracle
from repro.script import parse_trace

L1 = OsCreate(1, 0, 0)
L2 = OsCall(1, C.Mkdir("a", 0o755))
L3 = OsCall(1, C.Rmdir("a"))

SNAP_A = (((0, 1),), (1,))
SNAP_B = (((1, 1),), (2,))

TRACE = parse_trace("@type trace\n# Test t\n"
                    '1: mkdir "a" 0o755\nRV_none\n'
                    '2: stat "a"\n'
                    'RV_stat({kind=S_IFDIR; size=0; nlink=2; uid=0; '
                    'gid=0; mode=0o755})\n')


class TestBudget:
    def test_extend_returns_none_at_max_nodes(self):
        cache = PrefixCache(max_nodes=2)
        root = cache.root()                       # node 1
        child = cache.extend(root, L1, SNAP_A)    # node 2 — at budget
        assert child is not None
        assert cache.extend(child, L2, SNAP_B) is None
        assert cache.stats()["nodes"] == 2

    def test_exhausted_cache_keeps_serving_hits(self):
        cache = PrefixCache(max_nodes=2)
        root = cache.root()
        cache.extend(root, L1, SNAP_A)
        assert cache.extend(root.children[L1], L2, SNAP_B) is None
        hit = cache.lookup(root, L1)
        assert hit is not None and hit.snapshot == SNAP_A

    def test_refresh_does_not_consume_budget(self):
        cache = PrefixCache(max_nodes=2)
        root = cache.root()
        cache.extend(root, L1, SNAP_A)
        # Refreshing the existing child succeeds even at the budget.
        again = cache.extend(root, L1, SNAP_B)
        assert again is not None
        assert cache.stats()["nodes"] == 2

    def test_oracle_with_tiny_budget_still_checks_correctly(self):
        tiny = ModelOracle("linux", cache=PrefixCache(max_nodes=2))
        uncached = ModelOracle("linux", cache=False)
        assert (tiny.check(TRACE).profiles
                == uncached.check(TRACE).profiles)


class TestRefresh:
    def test_existing_child_snapshot_is_refreshed(self):
        cache = PrefixCache()
        root = cache.root()
        first = cache.extend(root, L1, SNAP_A)
        second = cache.extend(root, L1, SNAP_B)
        assert second is first                    # no duplicate node
        assert first.snapshot == SNAP_B

    def test_lookup_skips_snapshotless_children(self):
        cache = PrefixCache()
        root = cache.root()
        child = cache.extend(root, L1, SNAP_A)
        child.snapshot = None                     # a stopped-caching walk
        assert cache.lookup(root, L1) is None
        assert cache.misses == 1


class TestPartitions:
    def test_roots_are_disjoint_per_key(self):
        cache = PrefixCache()
        ra, rb = cache.root(("a",)), cache.root(("b",))
        assert ra is not rb
        cache.extend(ra, L1, SNAP_A)
        assert cache.lookup(rb, L1) is None
        assert cache.root(("a",)) is ra           # stable on re-ask

    def test_tables_are_disjoint_per_key(self):
        cache = PrefixCache()
        ta, tb = cache.table(("a",)), cache.table(("b",))
        assert ta is not tb
        assert cache.table(("a",)) is ta

    def test_oracle_configs_never_trade_snapshots(self):
        cache = PrefixCache()
        linux = ModelOracle("linux", cache=cache)
        osx = ModelOracle("osx", cache=cache)
        linux.check(TRACE)
        hits_before = cache.hits
        osx.check(TRACE)                          # different partition
        assert cache.hits == hits_before
        assert linux._table is not osx._table

    def test_clear_resets_everything(self):
        cache = PrefixCache()
        oracle = ModelOracle("linux", cache=cache)
        oracle.check(TRACE)
        cache.clear()
        assert cache.stats() == {"nodes": 0, "hits": 0, "misses": 0}
        # And the partition's table is re-minted.
        assert cache.table(oracle._cache_key) is not oracle._table


class TestInternedSnapshots:
    def test_snapshots_store_id_mask_int_pairs(self):
        cache = PrefixCache()
        oracle = VectoredOracle(("linux", "osx"), cache=cache)
        oracle.check(TRACE)
        root = cache.root(oracle._cache_key)
        node = root
        seen = 0
        while node.children:
            node = next(iter(node.children.values()))
            if node.snapshot is None:
                break
            items, maxs = node.snapshot
            seen += 1
            assert all(isinstance(sid, int) and isinstance(mask, int)
                       for sid, mask in items)
            assert len(maxs) == 2
        assert seen > 0

    def test_interned_snapshot_round_trip(self):
        """A second oracle on the same shared partition restores the
        snapshot (ids resolved through the shared table) and produces
        the identical verdict."""
        cache = PrefixCache()
        first = VectoredOracle(("linux", "osx"), cache=cache)
        v1 = first.check(TRACE)
        hits_before = cache.hits
        second = VectoredOracle(("linux", "osx"), cache=cache)
        v2 = second.check(TRACE)
        assert cache.hits > hits_before
        assert v1.profiles == v2.profiles

    def test_round_trip_equals_uncached_on_shared_prefix(self):
        # Two traces sharing a prefix: the cached continuation after a
        # restored snapshot must equal a from-scratch check.
        other = parse_trace("@type trace\n# Test t2\n"
                            '1: mkdir "a" 0o755\nRV_none\n'
                            '2: rmdir "a"\nRV_none\n')
        cached = ModelOracle("linux")     # private cache
        uncached = ModelOracle("linux", cache=False)
        cached.check(TRACE)
        assert (cached.check(other).profiles
                == uncached.check(other).profiles)
        assert cached.cache.hits > 0


class TestExtendSnapshotInterleaving:
    """Regression: a snapshot handed to ``extend`` as a *live view* of
    a mask table the checking loop keeps updating (observable when
    another thread checks on the same cache) must be materialised at
    store time — a later mask update may never leak into the stored
    snapshot."""

    def test_extend_materialises_live_views(self):
        cache = PrefixCache()
        root = cache.root()
        states = {0: 1, 1: 3}
        child = cache.extend(root, L1, (states.items(), (2,)))
        # The writer keeps applying masks after the store...
        states[1] = 7
        states[2] = 1
        # ...but the stored snapshot froze at extend() time.
        assert child.snapshot == (((0, 1), (1, 3)), (2,))
        hit = cache.lookup(root, L1)
        assert hit is not None and hit.snapshot == (((0, 1), (1, 3)),
                                                    (2,))

    def test_refreshed_snapshot_is_also_materialised(self):
        cache = PrefixCache()
        root = cache.root()
        cache.extend(root, L1, SNAP_A)
        states = {5: 2}
        child = cache.extend(root, L1, (states.items(), (1,)))
        states[5] = 6
        assert child.snapshot == (((5, 2),), (1,))

    def test_interleaved_extend_and_snapshot_threads(self):
        """A writer thread mutating masks while a checker thread
        extends: every stored snapshot is a fully-materialised tuple
        of int pairs (never a live view, never a half-built node)."""
        import threading

        cache = PrefixCache()
        root = cache.root()
        states = {i: 1 for i in range(8)}
        stop = threading.Event()

        def writer():
            mask = 1
            while not stop.is_set():
                mask = (mask << 1) % 255 or 1
                for sid in states:
                    states[sid] = mask

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for step in range(200):
                label = OsCall(1, C.Mkdir(f"d{step}", 0o755))
                child = cache.extend(root, label,
                                     (states.items(), (step,)))
                assert child is not None
                items, peaks = child.snapshot
                assert isinstance(items, tuple)
                assert all(isinstance(row, tuple) and len(row) == 2
                           for row in items)
                # A materialised row can never change underneath us.
                frozen = child.snapshot
                for sid in states:
                    states[sid] ^= 0xFF
                assert child.snapshot == frozen
        finally:
            stop.set()
            thread.join()

    def test_fresh_children_publish_fully_built(self):
        """``lookup`` can never observe a snapshotless child created
        by ``extend`` (children are linked only after their snapshot
        is set); snapshotless children exist only for walks that
        stopped caching."""
        cache = PrefixCache()
        root = cache.root()
        child = cache.extend(root, L1, SNAP_A)
        assert root.children[L1] is child
        assert child.snapshot is not None
