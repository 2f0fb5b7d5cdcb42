"""Marked-set table patching: byte-identity with fresh sweeps.

The incremental solver's exact profile rests on one invariant: a table
patched through an edit is **byte-identical** (``_by_size`` order,
offsets, dtypes) to a table swept fresh on the post-edit graph.  These
tests pin that invariant for every edit kind, plus the cache-level
bookkeeping around it.
"""

import numpy as np
import pytest

from repro.dynamic import DynamicGraph
from repro.graphs import Graph, gnm_random_graph
from repro.perf import (
    MarkedSetCache,
    MarkedSetTable,
    kplex_mask_status,
    kplex_masks,
    kplex_masks_containing,
)
from repro.perf.cache import _masks_containing


def assert_tables_identical(patched: MarkedSetTable, fresh: MarkedSetTable):
    assert patched.num_vertices == fresh.num_vertices
    assert np.array_equal(patched._by_size, fresh._by_size)
    assert patched._by_size.dtype == fresh._by_size.dtype
    assert np.array_equal(patched._offsets, fresh._offsets)
    assert np.array_equal(patched.size_histogram(), fresh.size_histogram())


class TestMaskStatus:
    def test_matches_full_sweep(self):
        graph = gnm_random_graph(8, 14, seed=1)
        masks = np.arange(1 << 8, dtype=np.uint64)
        status = kplex_mask_status(graph, 2, masks)
        marked, _ = kplex_masks(graph, 2)
        assert np.array_equal(masks[status].astype(np.int64), marked)

    def test_subset_of_masks(self):
        graph = gnm_random_graph(7, 10, seed=4)
        some = np.array([0, 3, 5, 97, 127], dtype=np.uint64)
        status = kplex_mask_status(graph, 3, some)
        full, _ = kplex_masks(graph, 3)
        full_set = set(int(m) for m in full)
        assert [bool(s) for s in status] == [int(m) in full_set for m in some]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kplex_mask_status(Graph(3, []), 0, np.array([1], dtype=np.uint64))


class TestMasksContaining:
    @pytest.mark.parametrize("n,u,v", [(4, 0, 1), (6, 2, 5), (8, 0, 7)])
    def test_exact_candidate_set(self, n, u, v):
        got = _masks_containing(n, u, v)
        want = np.array(
            [m for m in range(1 << n) if (m >> u) & 1 and (m >> v) & 1],
            dtype=np.uint64,
        )
        assert np.array_equal(got, want)  # ascending, complete
        assert got.size == 1 << (n - 2)


class TestMarkedMasksContaining:
    """The kernel-tiered subspace enumerator behind edge/vertex patches."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("pinned", [(0, 1), (2, 6), (0, 7), (7,), (3,)])
    def test_equals_filtered_full_sweep(self, k, pinned):
        graph = gnm_random_graph(8, 14, seed=3)
        got = kplex_masks_containing(graph, k, *pinned)
        full, _ = kplex_masks(graph, k)
        want = np.uint64(sum(1 << w for w in pinned))
        expected = full[(full.astype(np.uint64) & want) == want]
        assert np.array_equal(got, expected)  # ascending, byte-identical
        assert got.dtype == expected.dtype

    def test_kernel_tiers_agree(self, monkeypatch):
        from repro.perf import available_backends

        graph = gnm_random_graph(9, 20, seed=4)
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        reference = kplex_masks_containing(graph, 2, 1, 5)
        for name in available_backends():
            monkeypatch.setenv("REPRO_KERNEL", name)
            assert np.array_equal(
                kplex_masks_containing(graph, 2, 1, 5), reference
            ), name

    def test_validation(self):
        graph = gnm_random_graph(5, 5, seed=5)
        with pytest.raises(ValueError):
            kplex_masks_containing(graph, 0, 1)
        with pytest.raises(ValueError):
            kplex_masks_containing(graph, 2)  # no pinned vertices
        with pytest.raises(ValueError):
            kplex_masks_containing(graph, 2, 1, 1)  # duplicate
        with pytest.raises(ValueError):
            kplex_masks_containing(graph, 2, 9)  # out of range


class TestTablePatch:
    def _table(self, graph, k):
        return MarkedSetTable(graph.num_vertices, *kplex_masks(graph, k))

    def test_ascending_roundtrip(self):
        graph = gnm_random_graph(7, 12, seed=5)
        masks, sizes = kplex_masks(graph, 2)
        table = MarkedSetTable(7, masks, sizes)
        got_masks, got_sizes = table.ascending()
        assert np.array_equal(got_masks, masks)
        assert np.array_equal(got_sizes, sizes)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_edge_patch_byte_identical(self, k, seed):
        rng = np.random.default_rng(seed)
        dg = DynamicGraph(gnm_random_graph(8, 14, seed=seed))
        old_graph = dg.snapshot()
        u, v = 0, 0
        while u == v:
            u, v = map(int, rng.integers(0, 8, 2))
        op = "remove_edge" if dg.has_edge(u, v) else "add_edge"
        getattr(dg, op)(u, v)
        new_graph = dg.snapshot()

        old = self._table(old_graph, k)
        both = np.uint64((1 << u) | (1 << v))
        old_masks, _ = old.ascending()
        touched = (old_masks.astype(np.uint64) & both) == both
        if op == "add_edge":
            candidates = _masks_containing(8, u, v)
        else:
            candidates = old_masks[touched].astype(np.uint64)
        status = kplex_mask_status(new_graph, k, candidates)
        patched = old.patch(~touched, candidates[status].astype(np.int64))
        assert_tables_identical(patched, self._table(new_graph, k))

    def test_vertex_patch_byte_identical(self):
        dg = DynamicGraph(gnm_random_graph(7, 11, seed=6))
        old = self._table(dg.snapshot(), 2)
        dg.add_vertex()
        new_graph = dg.snapshot()
        n = new_graph.num_vertices
        candidates = (
            np.arange(1 << (n - 1), dtype=np.uint64) | np.uint64(1 << (n - 1))
        )
        status = kplex_mask_status(new_graph, 2, candidates)
        patched = old.patch(
            np.ones(old.num_marked, dtype=bool),
            candidates[status].astype(np.int64),
            num_vertices=n,
        )
        assert_tables_identical(patched, self._table(new_graph, 2))

    def test_retain_is_patch_with_no_additions(self):
        table = self._table(gnm_random_graph(6, 8, seed=7), 2)
        keep = np.zeros(table.num_marked, dtype=bool)
        keep[::2] = True
        kept = table.retain(keep)
        masks, _ = table.ascending()
        want, _ = kept.ascending()
        assert np.array_equal(want, masks[keep])

    def test_keep_shape_mismatch_rejected(self):
        table = self._table(gnm_random_graph(5, 6, seed=8), 2)
        with pytest.raises(ValueError):
            table.retain(np.ones(table.num_marked + 1, dtype=bool))


class TestCachePatch:
    def test_patch_equals_fresh_sweep(self):
        cache = MarkedSetCache()
        dg = DynamicGraph(gnm_random_graph(8, 15, seed=9))
        cache.table(dg.snapshot(), 2)
        old_graph = dg.snapshot()
        dg.add_edge(*next(
            (u, v) for u in range(8) for v in range(u + 1, 8)
            if not dg.has_edge(u, v)
        ))
        edit = dg.journal[-1]
        patched = cache.patch(old_graph, dg.snapshot(), 2, edit.op, edit.u, edit.v)
        fresh = MarkedSetCache().table(dg.snapshot(), 2)
        assert_tables_identical(patched, fresh)
        stats = cache.stats()
        assert stats["patches"] == 1
        assert stats["misses"] == 1  # no second sweep
        assert stats["reused_partitions"] == patched.num_marked - int(
            kplex_mask_status(
                dg.snapshot(), 2, _masks_containing(8, edit.u, edit.v)
            ).sum()
        )

    def test_patch_without_old_table_returns_none(self):
        cache = MarkedSetCache()
        dg = DynamicGraph(gnm_random_graph(6, 8, seed=10))
        old_graph = dg.snapshot()
        dg.remove_edge(*sorted(old_graph.edges)[0])
        edit = dg.journal[-1]
        assert cache.patch(old_graph, dg.snapshot(), 2, edit.op, edit.u, edit.v) is None
        assert cache.stats()["patches"] == 0

    def test_patch_to_known_graph_reuses_entry(self):
        # Toggling an edge back lands on an already-cached key: the
        # existing table is returned, no work is re-done.
        cache = MarkedSetCache()
        dg = DynamicGraph(gnm_random_graph(6, 8, seed=11))
        g0 = dg.snapshot()
        t0 = cache.table(g0, 2)
        u, v = sorted(g0.edges)[0]
        dg.remove_edge(u, v)
        g1 = dg.snapshot()
        cache.patch(g0, g1, 2, "remove_edge", u, v)
        dg.add_edge(u, v)
        back = cache.patch(g1, dg.snapshot(), 2, "add_edge", u, v)
        assert back is t0
        assert cache.stats()["patches"] == 1

    def test_patch_validates_op_and_endpoints(self):
        cache = MarkedSetCache()
        dg = DynamicGraph(gnm_random_graph(5, 5, seed=12))
        g = dg.snapshot()
        with pytest.raises(ValueError):
            cache.patch(g, g, 2, "recolor")
        cache.table(g, 2)
        dg.add_edge(*next(
            (u, v) for u in range(5) for v in range(u + 1, 5)
            if not dg.has_edge(u, v)
        ))
        # Endpoint validation fires once past the cached-target shortcut.
        with pytest.raises(ValueError):
            cache.patch(g, dg.snapshot(), 2, "add_edge", 1, 1)

    def test_vertex_patch_requires_growth_by_one(self):
        cache = MarkedSetCache()
        g = gnm_random_graph(5, 5, seed=13)
        cache.table(g, 2)
        bigger = Graph(7, list(g.edges))
        with pytest.raises(ValueError):
            cache.patch(g, bigger, 2, "add_vertex")


class TestBatchPatch:
    """Fused multi-edge patching: one re-sweep, byte-identical."""

    def _absent_edges(self, graph):
        n = graph.num_vertices
        return [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not graph.has_edge(u, v)
        ]

    def test_fused_equals_sequential_and_fresh(self):
        fused_cache = MarkedSetCache()
        seq_cache = MarkedSetCache()
        dg = DynamicGraph(gnm_random_graph(8, 12, seed=21))
        g0 = dg.snapshot()
        fused_cache.table(g0, 2)
        seq_cache.table(g0, 2)
        edges = self._absent_edges(g0)[:3]
        snapshots = [g0]
        for u, v in edges:
            dg.add_edge(u, v)
            snapshots.append(dg.snapshot())
        fused = fused_cache.patch_batch(g0, snapshots[-1], 2, edges)
        for i, (u, v) in enumerate(edges):
            seq = seq_cache.patch(
                snapshots[i], snapshots[i + 1], 2, "add_edge", u, v
            )
        fresh = MarkedSetCache().table(snapshots[-1], 2)
        assert_tables_identical(fused, fresh)
        assert_tables_identical(seq, fresh)
        # The whole batch charges exactly one patch, vs one per edit.
        assert fused_cache.stats()["patches"] == 1
        assert seq_cache.stats()["patches"] == len(edges)

    @pytest.mark.parametrize("k,seed,batch", [(1, 31, 2), (2, 32, 4), (3, 33, 3)])
    def test_fused_byte_identical_across_params(self, k, seed, batch):
        cache = MarkedSetCache()
        dg = DynamicGraph(gnm_random_graph(7, 9, seed=seed))
        g0 = dg.snapshot()
        cache.table(g0, k)
        edges = self._absent_edges(g0)[:batch]
        for u, v in edges:
            dg.add_edge(u, v)
        fused = cache.patch_batch(g0, dg.snapshot(), k, edges)
        assert_tables_identical(fused, MarkedSetCache().table(dg.snapshot(), k))

    def test_overlapping_subspaces_deduplicated(self):
        # Edges sharing an endpoint pin overlapping 2^(n-2) subspaces;
        # the union sweep must not double-count the intersection.
        cache = MarkedSetCache()
        dg = DynamicGraph(Graph(6, [(0, 1), (2, 3)]))
        g0 = dg.snapshot()
        cache.table(g0, 2)
        edges = [(0, 4), (0, 5), (4, 5)]
        for u, v in edges:
            dg.add_edge(u, v)
        fused = cache.patch_batch(g0, dg.snapshot(), 2, edges)
        assert_tables_identical(fused, MarkedSetCache().table(dg.snapshot(), 2))

    def test_validation(self):
        cache = MarkedSetCache()
        g = gnm_random_graph(6, 8, seed=34)
        cache.table(g, 2)
        with pytest.raises(ValueError):
            cache.patch_batch(g, g, 2, [])
        with pytest.raises(ValueError):
            cache.patch_batch(g, g, 2, [(1, 1)])
        bigger = Graph(7, list(g.edges))
        with pytest.raises(ValueError):
            cache.patch_batch(g, bigger, 2, [(0, 1)])

    def test_without_old_table_returns_none(self):
        cache = MarkedSetCache()
        dg = DynamicGraph(gnm_random_graph(6, 8, seed=35))
        g0 = dg.snapshot()
        u, v = self._absent_edges(g0)[0]
        dg.add_edge(u, v)
        assert cache.patch_batch(g0, dg.snapshot(), 2, [(u, v)]) is None
        assert cache.stats()["patches"] == 0

    def test_cached_target_shortcut(self):
        cache = MarkedSetCache()
        dg = DynamicGraph(gnm_random_graph(6, 8, seed=36))
        g0 = dg.snapshot()
        u, v = self._absent_edges(g0)[0]
        dg.add_edge(u, v)
        g1 = dg.snapshot()
        target = cache.table(g1, 2)
        cache.table(g0, 2)
        assert cache.patch_batch(g0, g1, 2, [(u, v)]) is target
        assert cache.stats()["patches"] == 0
