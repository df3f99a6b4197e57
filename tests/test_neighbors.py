import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from dgcn.errors import DimensionMismatch, EmptyDataset, InvalidSetting
from dgcn.neighbors import NeighborIndex, _first_k


def brute_reference(points, x, k):
    """The k nearest points by (distance, index), in that rank order."""
    d = np.sqrt(((points - x) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(len(points)), d))
    return order[: min(k, len(points))]


class TestBuildIndex:
    def test_singleton(self):
        idx = NeighborIndex(np.array([[1.0, 2.0]]))
        assert idx.n == 1
        np.testing.assert_array_equal(idx.query([0.0, 0.0], 3), [0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            NeighborIndex(np.empty((0, 2)))

    def test_bad_strategy_rejected(self):
        with pytest.raises(InvalidSetting, match="strategy"):
            NeighborIndex(np.ones((2, 2)), strategy="ann")
        assert issubclass(InvalidSetting, ValueError)

    def test_duplicates_keep_distinct_indices(self):
        pts = np.array([[1.0], [1.0], [1.0]])
        idx = NeighborIndex(pts)
        np.testing.assert_array_equal(idx.query([1.0], 3), [0, 1, 2])


class TestQuery:
    def test_hand_distances_1d(self):
        pts = np.array([[0.0], [1.0], [2.0], [10.0]])
        idx = NeighborIndex(pts)
        want = np.sort(brute_reference(pts, [9.5], 2))
        np.testing.assert_array_equal(want, [2, 3])
        np.testing.assert_array_equal(idx.query([9.5], 2), want)

    def test_k_at_least_n_returns_all_sorted(self):
        pts = np.array([[0.0], [5.0], [2.0]])
        idx = NeighborIndex(pts)
        want = np.sort(brute_reference(pts, [0.1], 10))
        np.testing.assert_array_equal(want, [0, 1, 2])
        np.testing.assert_array_equal(idx.query([0.1], 10), want)

    def test_equidistant_tie_prefers_lower_index(self):
        pts = np.array([[-1.0], [1.0], [3.0]])
        idx = NeighborIndex(pts)
        np.testing.assert_array_equal(idx.query([0.0], 1), [0])
        kd = NeighborIndex(pts, strategy="kdtree")
        np.testing.assert_array_equal(kd.query([0.0], 1), [0])

    def test_k_must_be_positive(self):
        idx = NeighborIndex(np.ones((3, 1)))
        with pytest.raises(InvalidSetting, match="k must be >= 1"):
            idx.query([1.0], 0)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 3))
        idx = NeighborIndex(pts)
        q = rng.standard_normal(3)
        np.testing.assert_array_equal(idx.query(q, 7), idx.query(q, 7))


class TestStrategyEquivalence:
    def test_brute_vs_kdtree_on_200_points(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((200, 4))
        brute = NeighborIndex(pts, "brute")
        tree = NeighborIndex(pts, "kdtree")
        for _ in range(50):
            q = rng.standard_normal(4)
            k = int(rng.integers(1, 20))
            np.testing.assert_array_equal(brute.query(q, k), tree.query(q, k))

    def test_thousand_queries_match_reference(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((300, 2))
        # Inject exact duplicates so the tie rule is exercised.
        pts[50] = pts[10]
        pts[200] = pts[10]
        brute = NeighborIndex(pts, "brute")
        tree = NeighborIndex(pts, "kdtree")
        for i in range(1000):
            if i % 5 == 0:
                q = pts[int(rng.integers(0, 300))]  # on-point queries hit ties
            else:
                q = rng.standard_normal(2)
            k = int(rng.integers(1, 12))
            want = np.sort(brute_reference(pts, q, k))
            np.testing.assert_array_equal(brute.query(q, k), want)
            np.testing.assert_array_equal(tree.query(q, k), want)


@st.composite
def point_sets(draw):
    """Points and query rows, with ties: integer lattices or duplicated rows.

    Lattice coordinates make many distances exactly equal; on continuous
    points a few rows are copied onto others, and some queries sit on
    training points.  k ranges past N.
    """
    n = draw(st.integers(1, 40))
    n_v = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        pts = rng.integers(-2, 3, (n, n_v)).astype(np.float64)
        queries = rng.integers(-4, 5, (m, n_v)) / 2.0
    else:
        pts = rng.standard_normal((n, n_v))
        copies = rng.integers(0, n, n // 3)
        pts[rng.integers(0, n, copies.size)] = pts[copies]
        queries = rng.standard_normal((m, n_v))
        on_point = rng.random(m) < 0.3
        queries[on_point] = pts[rng.integers(0, n, on_point.sum())]
    k = draw(st.integers(1, n + 5))
    return pts, queries, k


class TestBatchedQuery:
    @given(point_sets())
    @settings(max_examples=150, deadline=None)
    def test_block_equals_rows_and_strategies_agree(self, case):
        pts, queries, k = case
        brute = NeighborIndex(pts, "brute")
        tree = NeighborIndex(pts, "kdtree")
        block = brute.query(queries, k)
        assert block.shape == (len(queries), min(k, len(pts)))
        np.testing.assert_array_equal(tree.query(queries, k), block)
        for q, row in zip(queries, block):
            np.testing.assert_array_equal(brute.query(q, k), row)
            np.testing.assert_array_equal(tree.query(q, k), row)
            np.testing.assert_array_equal(np.sort(brute_reference(pts, q, k)), row)

    def test_blocks_larger_than_one_distance_block(self):
        rng = np.random.default_rng(8)
        pts = rng.integers(-3, 4, (120, 2)).astype(np.float64)
        queries = rng.integers(-6, 7, (700, 2)) / 2.0
        brute = NeighborIndex(pts, "brute")
        tree = NeighborIndex(pts, "kdtree")
        block = brute.query(queries, 9)
        np.testing.assert_array_equal(tree.query(queries, 9), block)
        for q, row in zip(queries, block):
            np.testing.assert_array_equal(np.sort(brute_reference(pts, q, 9)), row)

    @given(point_sets(), st.sampled_from([None, 1e308, np.inf]))
    @settings(max_examples=150, deadline=None)
    def test_exact_rows_equal_the_ranked_fallback(self, case, overflow):
        # Rows whose k-th distance is untied take their set from the mask
        # of points at or below it; tied rows (and an overflowed row, all
        # of whose distances are inf) rank their candidates with _first_k.
        # Sending every row through _first_k must give the same sets.
        pts, queries, k = case
        if overflow:
            queries = np.vstack([queries, np.full(pts.shape[1], overflow)])
        k = min(k, len(pts))
        dist = cdist(queries, pts)
        assert not overflow or np.isinf(dist[-1]).all()
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        row, cand = np.nonzero(~(dist > kth))
        want = np.sort(_first_k(row, cand, dist[row, cand], len(queries), k),
                       axis=1)
        for strategy in ("brute", "kdtree"):
            np.testing.assert_array_equal(
                NeighborIndex(pts, strategy).query(queries, k), want)

    @pytest.mark.parametrize("strategy", ["brute", "kdtree"])
    def test_empty_block_and_width_mismatch(self, strategy):
        idx = NeighborIndex(np.ones((4, 2)), strategy)
        assert idx.query(np.empty((0, 2)), 3).shape == (0, 3)
        with pytest.raises(DimensionMismatch):
            idx.query(np.ones((3, 3)), 2)
