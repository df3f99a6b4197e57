"""Dense symmetric-positive-definite helpers.

Matrices are plain float64 numpy arrays; factors come out of LAPACK in
Fortran order and are handed back to it without a copy.  The only
non-trivial piece is the jitter ladder: covariance matrices built from
strongly correlated kernels are routinely singular to machine precision,
so one ladder, cholesky_in_place, retries with growing diagonal inflation
on a fresh copy and reports how much was needed instead of crashing.

LAPACK is called directly (dpotrf, dtrtrs, dpotri): the same routines
scipy.linalg's cholesky and solve_triangular call for a Fortran-ordered
factor, so the results are the same bit for bit, without scipy's
finiteness scan of every operand.  No matrix is scanned either: a NaN
or inf that dpotrf reads fails a pivot or leaves a non-finite factor
diagonal, which the ladder tests.

A Workspace holds float64 buffers that a sequence of calls can reuse
instead of allocating their large arrays afresh, such as a training
step's covariance and slopes.  Every function that takes one accepts
``workspace=None`` and then allocates new arrays, as without workspaces;
a call gives the same result bit for bit with or without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.linalg.lapack import dpotri as _dpotri
from scipy.linalg.lapack import dtrtrs as _dtrtrs

from .errors import DimensionMismatch, NotPositiveDefinite

DEFAULT_JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
_MIRROR_ENTRIES = 1 << 17  # inverse_spd's temporaries stay at about 1 MiB


class Workspace:
    """Reusable float64 buffers, one per role, for calls of varying size.

    ``array(role, shape, order)`` returns a contiguous array of that shape
    whose contents are arbitrary: a view of the first entries of the
    role's buffer, which grows to the largest size asked for and never
    shrinks.  A smaller call after a larger one (a full batch after a
    merged tail) therefore neither evicts nor duplicates the buffer.  Two
    arrays alive at the same time need two roles; a role is any hashable
    key, such as ("slopes", b, i) for block b's kernel i.  A workspace is
    not thread-safe: concurrent calls must not share one.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers = {}

    def array(self, role, shape, order: str = "C") -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or buf.size < size:
            buf = self._buffers[role] = np.empty(size)
        return buf[:size].reshape(shape, order=order)


def work_array(workspace: Workspace | None, role, shape,
               order: str = "C") -> np.ndarray:
    """workspace.array(role, shape, order), or a new array without one."""
    if workspace is None:
        return np.empty(shape, order=order)
    return workspace.array(role, shape, order)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T = A + jitter_used * I."""

    lower: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


def cholesky_jittered(a) -> CholeskyFactor:
    """Factor a symmetric matrix, escalating diagonal jitter on failure.

    Only the lower triangle of ``a`` is read, and ``a`` is left intact: each
    rung copies it into a new Fortran-ordered array, where
    cholesky_in_place's ladder factors it.

    Raises
    ------
    NotPositiveDefinite
        If the factorization still fails at the top of the ladder, or if
        the lower triangle holds a NaN or inf.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    lower = np.array(a, order="F")
    return cholesky_in_place(lower.T, lambda: np.copyto(lower, a) or lower.T)


def cholesky_in_place(a, regather) -> CholeskyFactor:
    """cholesky_jittered(a.T), a C-ordered a's factor if it is exactly
    symmetric: a.T is a in Fortran order, factored there with no copy.
    Tries each rung of DEFAULT_JITTER_LADDER in order and returns the first
    factor that succeeds: rung 0 factors a itself, each later rung adds its
    jitter to the diagonal of regather(), a fresh copy of a, and factors it.
    """
    for jitter in DEFAULT_JITTER_LADDER:
        if jitter:
            a = regather()
            a[np.diag_indices_from(a)] += jitter
        lower, info = _dpotrf(a.T, lower=1, clean=1, overwrite_a=1)
        if info <= 0:  # else a leading minor is not positive definite
            return _checked_factor(lower, info, jitter)
    raise NotPositiveDefinite(
        f"factorization failed with jitter up to {DEFAULT_JITTER_LADDER[-1]:g}"
    )


def _checked_factor(lower, info: int, jitter) -> CholeskyFactor:
    """dpotrf's factor at this jitter; a non-finite diagonal (from a NaN
    or inf that no jitter repairs) raises NotPositiveDefinite at once."""
    _check_info("dpotrf", info)
    if not np.isfinite(np.diagonal(lower)).all():
        raise NotPositiveDefinite("matrix contains non-finite entries")
    return CholeskyFactor(lower=lower, jitter_used=float(jitter))


def row_blocks(n: int, entries: int) -> list:
    """[r0, r1) ranges over n rows, each of at most ``entries`` // n rows.

    Rows of an n-wide array in one range then hold about ``entries``
    values; every range has the same length but the last, and there is
    at least one row per range.
    """
    rows = max(1, entries // max(n, 1))
    return [(r0, min(r0 + rows, n)) for r0 in range(0, n, rows)]


def _check_info(routine: str, info: int) -> None:
    if info < 0:  # pragma: no cover - the wrappers pass valid arguments
        raise ValueError(f"{routine}: illegal value in argument {-info}")
    if info > 0:
        raise NotPositiveDefinite(f"{routine}: singular factor (pivot {info})")


def _checked_rhs(factor: CholeskyFactor, b) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != factor.n:
        raise DimensionMismatch(
            f"rhs has shape {b.shape}, factor side is {factor.n}"
        )
    return b


def _triangular(factor: CholeskyFactor, b, trans: int, overwrite: int):
    """L x = b (trans 0) or L^T x = b (trans 1) by dtrtrs; b is 1-D or 2-D."""
    if b.size == 0:  # dtrtrs rejects an empty right-hand side
        return np.empty_like(b)
    x, info = _dtrtrs(factor.lower, b, lower=1, trans=trans,
                      overwrite_b=overwrite)
    _check_info("dtrtrs", info)
    return x


def solve_spd(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve (L @ L.T) x = b via a forward then a backward triangular solve."""
    y = _triangular(factor, _checked_rhs(factor, b), 0, 0)
    return _triangular(factor, y, 1, 1)


def solve_lower(factor: CholeskyFactor, b) -> np.ndarray:
    """Forward solve L y = b (half of solve_spd; used for variance terms),
    in place over a Fortran-ordered float64 b, else in dtrtrs's copy."""
    return _triangular(factor, _checked_rhs(factor, b), 0, 1)


def inverse_spd(factor: CholeskyFactor) -> np.ndarray:
    """Dense inverse of the factored matrix, written over factor.lower.

    dpotri fills the lower triangle in place; the upper one, zero in every
    factor dpotrf returns, gets the lower one's transpose added in blocks
    of about _MIRROR_ENTRIES entries.  The result is that exactly
    symmetric, Fortran-ordered array; the factor is spent.
    """
    inv, info = _dpotri(factor.lower, lower=1, overwrite_c=1)
    _check_info("dpotri", info)
    for r0, r1 in row_blocks(factor.n, _MIRROR_ENTRIES):
        inv[:r1, r0:r1] += np.tril(inv[r0:r1, :r1], r0 - 1).T
    return inv


def logdet(factor: CholeskyFactor) -> float:
    """log det(A + jitter_used * I) = 2 * sum(log(diag(L)))."""
    return float(2.0 * np.sum(np.log(np.diag(factor.lower))))
