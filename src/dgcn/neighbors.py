"""Exact nearest-neighbor lookup over standardized training inputs.

Both strategies return identical results: the k smallest Euclidean
distances, ascending, with ties broken by ascending point index.  A query
is one point or a block of points, answered in one call.  The kd-tree path
exists purely as a speedup for large training sets; it re-ranks candidate
points with the same distance arithmetic (scipy's cdist, whose every entry
is computed alone, whatever block it sits in) that the brute-force path
uses, so the tie rule holds there too.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
# Reached through its module so that neighbour search never shares a
# binding with the kernel layer's cdist.
from scipy.spatial import distance as _distance

from .errors import DimensionMismatch, EmptyDataset, InvalidSetting

STRATEGIES = ("brute", "kdtree")

# Query rows per brute-force distance block: 256 x N float64 distances.
_BLOCK_ROWS = 256


class NeighborIndex:
    """Immutable index over a fixed point set; safe for concurrent queries."""

    def __init__(self, points, strategy: str = "brute"):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise EmptyDataset("neighbor index needs at least one point")
        if strategy not in STRATEGIES:
            raise InvalidSetting(f"strategy must be one of {STRATEGIES}")
        self.points = points
        self.strategy = strategy
        self._tree = cKDTree(points) if strategy == "kdtree" else None

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def query(self, x_star, k: int) -> np.ndarray:
        """Indices of the min(k, N) nearest points, by (distance, index).

        One point (n_v,) gives a (min(k, N),) vector; a block of points
        (m, n_v) gives an (m, min(k, N)) matrix, row i for point i.
        """
        if k < 1:
            raise InvalidSetting("k must be >= 1")
        x_star = np.asarray(x_star, dtype=np.float64)
        single = x_star.ndim < 2
        block = x_star.reshape(1, -1) if single else x_star
        if block.ndim != 2 or block.shape[1] != self.points.shape[1]:
            raise DimensionMismatch(
                f"query points {x_star.shape} do not have "
                f"{self.points.shape[1]} columns"
            )
        k = min(k, self.n)
        if self._tree is None:
            nearest = self._brute(block, k)
        else:
            nearest = self._kdtree(block, k)
        return nearest[0] if single else nearest

    def _brute(self, block, k):
        out = np.empty((block.shape[0], k), dtype=np.intp)
        for start in range(0, block.shape[0], _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            dist = _distance.cdist(block[rows], self.points)
            kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
            # Every point at or below the k-th distance; "not above" keeps
            # whole rows of NaN distances, which then rank by index.
            row, cand = np.nonzero(~(dist > kth))
            out[rows] = _first_k(row, cand, dist[row, cand], dist.shape[0], k)
        return out

    def _kdtree(self, block, k):
        dd, _ = self._tree.query(block, k=k)
        radius = dd.reshape(block.shape[0], k)[:, -1]
        # Tiny inflation so candidates on the radius are never lost to
        # last-ulp disagreement between tree and cdist distance sums.
        balls = self._tree.query_ball_point(
            block, radius * (1.0 + 1e-12) + 1e-300
        )
        out = np.empty((block.shape[0], k), dtype=np.intp)
        for i, ball in enumerate(balls):
            cand = np.asarray(ball, dtype=np.intp)
            dist = _distance.cdist(block[i : i + 1], self.points[cand])[0]
            out[i] = cand[np.lexsort((cand, dist))[:k]]
        return out


def _first_k(row, cand, dist, m, k):
    """The k first candidates of each of m rows, by (distance, index).

    Every row must own at least k of the (row, cand, dist) triples.
    """
    order = np.lexsort((cand, dist, row))
    starts = np.zeros(m, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=m)[:-1], out=starts[1:])
    return cand[order][starts[:, None] + np.arange(k)]
