"""Exact nearest-neighbor lookup over standardized training inputs.

Both strategies return identical results: the points at the k smallest
Euclidean distances, ties at the k-th going to the lower point index, in
ascending index order (the order neighbour-batched prediction groups them
in).  A query is one point or a block of points, answered in one call.
Brute force answers a row whose k-th distance is not tied from the mask
of points at or below it; rows with ties rank their candidates by
(distance, index).  The kd-tree path
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
    """Immutable index over a fixed point set."""

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
        """Indices of the min(k, N) nearest points, in ascending order.

        Points are chosen by (distance, index): of points tied at the k-th
        distance, the lower indices are kept.  One point (n_v,) gives a
        (min(k, N),) vector; a block of points (m, n_v) gives an
        (m, min(k, N)) matrix, row i for point i.
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
            part = out[start : start + _BLOCK_ROWS]
            dist = _distance.cdist(block[start : start + _BLOCK_ROWS], self.points)
            kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
            # Every point at or below the k-th distance; "not above" keeps
            # whole rows of NaN distances, which then rank by index.  A row
            # with exactly k such points is its set, in index order.
            near = ~(dist > kth)
            exact = np.count_nonzero(near, axis=1) == k
            part[exact] = np.nonzero(near[exact])[1].reshape(-1, k)
            if not exact.all():  # ties at the k-th distance, or inf or NaN
                tied = ~exact
                row, cand = np.nonzero(near[tied])
                part[tied] = np.sort(_first_k(row, cand, dist[tied][row, cand],
                                              np.count_nonzero(tied), k), axis=1)
        return out

    def _kdtree(self, block, k):
        # A row with an inf or NaN coordinate, which the tree refuses, or
        # whose distances overflow (an inf radius) takes every point.
        radius = np.full(block.shape[0], np.inf)
        finite = np.isfinite(block).all(axis=1)
        dd, _ = self._tree.query(block[finite], k=k)
        radius[finite] = dd.reshape(-1, k)[:, -1]
        # Tiny inflation so candidates on the radius are never lost to
        # last-ulp disagreement between tree and cdist distance sums.
        finite = np.isfinite(radius)
        balls = iter(self._tree.query_ball_point(
            block[finite], radius[finite] * (1.0 + 1e-12) + 1e-300
        ))
        out = np.empty((block.shape[0], k), dtype=np.intp)
        for i in range(block.shape[0]):
            cand = (np.asarray(next(balls), dtype=np.intp) if finite[i]
                    else np.arange(self.n))
            dist = _distance.cdist(block[i : i + 1], self.points[cand])[0]
            out[i] = cand[np.lexsort((cand, dist))[:k]]
        out.sort(axis=1)
        return out


def _first_k(row, cand, dist, m, k):
    """The k first candidates of each of m rows, by (distance, index).

    Every row must own at least k of the (row, cand, dist) triples.
    """
    order = np.lexsort((cand, dist, row))
    starts = np.zeros(m, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=m)[:-1], out=starts[1:])
    return cand[order][starts[:, None] + np.arange(k)]
