"""Dense symmetric-positive-definite helpers.

Matrices are plain float64 numpy arrays (C order).  The only non-trivial
piece is the jitter ladder: covariance matrices built from strongly
correlated kernels are routinely singular to machine precision, so the
factorization retries with growing diagonal inflation and reports how much
was needed instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky as _cholesky
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotri as _dpotri

from .errors import DimensionMismatch, NotPositiveDefinite

DEFAULT_JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T = A + jitter_used * I."""

    lower: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def cholesky_jittered(a, jitter_ladder=DEFAULT_JITTER_LADDER) -> CholeskyFactor:
    """Factor a symmetric matrix, escalating diagonal jitter on failure.

    Tries each ladder entry in order and returns the factor for the first
    one that succeeds, together with the jitter that was actually added.

    Raises
    ------
    NotPositiveDefinite
        If the factorization still fails at the top of the ladder.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    # max() propagates NaN, so this one scan rejects NaN as well as inf and
    # scipy's own finiteness check can be skipped below.
    scale = np.abs(a).max() if a.size else 0.0
    if not np.isfinite(scale):
        raise NotPositiveDefinite("matrix contains non-finite entries")
    if a.size and np.abs(a - a.T).max() > 1e-10 * max(scale, 1.0):
        raise DimensionMismatch("matrix is not symmetric")
    for jitter in jitter_ladder:
        shifted = a
        if jitter:
            shifted = a.copy()
            shifted[np.diag_indices_from(shifted)] += jitter
        try:
            lower = _cholesky(shifted, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        return CholeskyFactor(lower=lower, jitter_used=float(jitter))
    raise NotPositiveDefinite(
        f"factorization failed with jitter up to {jitter_ladder[-1]:g}"
    )


def solve_spd(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve (L @ L.T) x = b via a forward then a backward triangular solve."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != factor.n:
        raise DimensionMismatch(
            f"rhs has {b.shape[0]} rows, factor side is {factor.n}"
        )
    y = solve_triangular(factor.lower, b, lower=True)
    return solve_triangular(factor.lower, y, lower=True, trans="T")


def solve_lower(factor: CholeskyFactor, b) -> np.ndarray:
    """Forward solve L y = b (half of solve_spd; used for variance terms)."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != factor.n:
        raise DimensionMismatch(
            f"rhs has {b.shape[0]} rows, factor side is {factor.n}"
        )
    return solve_triangular(factor.lower, b, lower=True)


def inverse_spd(factor: CholeskyFactor) -> np.ndarray:
    """Dense inverse of the factored matrix (symmetrized)."""
    inv, info = _dpotri(factor.lower, lower=1)
    if info != 0:  # pragma: no cover - factor invariant guarantees success
        inv = solve_spd(factor, np.eye(factor.n))
        return 0.5 * (inv + inv.T)
    # dpotri fills one triangle only.
    return inv + np.tril(inv, -1).T


def logdet(factor: CholeskyFactor) -> float:
    """log det(A + jitter_used * I) = 2 * sum(log(diag(L)))."""
    return float(2.0 * np.sum(np.log(np.diag(factor.lower))))
