"""Correlation functions with per-point length-scales.

Every correlation here is a function of the Euclidean distance between
*warped* inputs: row p of the input matrix is scaled elementwise by its own
length-scale vector before distances are taken,

    d(p, q) = || theta_p * x_p - theta_q * x_q ||_2.

Because the warp is a deterministic map applied to the points themselves,
each correlation stays a valid (positive semidefinite) kernel for any
length-scale field, including negative entries.  Several kernels are
evaluated on the same points and their matrices summed; every correlation
equals 1 at zero distance, so the summed matrix has diagonal exactly n_k.

Length-scale fields are stored as an (N, n_v * n_k) block matrix: columns
[i*n_v, (i+1)*n_v) hold the per-dimension scales for kernel i.

Each kernel is one function in a table.  Prediction asks it for the value
k(d) alone.  The likelihood gradient, whose chain rule through
d = ||z_p - z_q|| needs the slope over distance k'(d) / d, gets both from
one exp:

    squared_exp         e = exp(-d^2 / 2),  k = e,  k'/d = -e
    matern32            e = exp(-sqrt3 d),  k = (1 + sqrt3 d) e,  k'/d = -3 e
    matern52            e = exp(-sqrt5 d),  k = (1 + sqrt5 d + 5/3 d^2) e,
                        k'/d = -5/3 (1 + sqrt5 d) e
    abs_exp             k = exp(-d),  k'/d = -k / d
    rational_quadratic  k = (1 + d/4)^-2,  k'/d = -k / (2 (1 + d/4) d)

The last two divide by d.  For every kernel k'(d) / d is set to exactly 0
where d == 0: a zero distance joins identical warped points, whose
correlation is the constant 1, so no gradient flows through it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


class KernelId(enum.Enum):
    """The five supported correlation functions."""

    SQUARED_EXP = "squared_exp"
    ABS_EXP = "abs_exp"
    MATERN32 = "matern32"
    MATERN52 = "matern52"
    RATIONAL_QUADRATIC = "rational_quadratic"


ALL_KERNELS = (
    KernelId.SQUARED_EXP,
    KernelId.ABS_EXP,
    KernelId.MATERN32,
    KernelId.MATERN52,
    KernelId.RATIONAL_QUADRATIC,
)


@dataclass(frozen=True)
class KernelSet:
    """Ordered collection of active correlation functions."""

    kernels: tuple = ALL_KERNELS

    def __post_init__(self):
        if not self.kernels:
            raise ValueError("kernel set must not be empty")
        object.__setattr__(self, "kernels", tuple(self.kernels))

    @property
    def n_k(self) -> int:
        return len(self.kernels)

    def names(self) -> list[str]:
        return [k.value for k in self.kernels]

    @classmethod
    def from_names(cls, names) -> "KernelSet":
        return cls(tuple(KernelId(n) for n in names))


def _squared_exp(d, slope):
    e = d * -0.5
    e *= d
    np.exp(e, out=e)
    return (e, -e) if slope else e


def _abs_exp(d, slope):
    e = np.negative(d)
    np.exp(e, out=e)
    if not slope:
        return e
    with np.errstate(divide="ignore"):
        s = np.divide(e, d)  # d == 0 gives inf here, cleared by the caller
    np.negative(s, out=s)
    return e, s


def _matern32(d, slope):
    e = d * -_SQRT3
    np.exp(e, out=e)
    value = d * _SQRT3
    value += 1.0
    value *= e
    if not slope:
        return value
    e *= -3.0
    return value, e


def _matern52(d, slope):
    e = d * -_SQRT5
    np.exp(e, out=e)
    p = d * _SQRT5
    p += 1.0
    value = d * (5.0 / 3.0)
    value *= d
    value += p
    value *= e
    if not slope:
        return value
    p *= e
    p *= -5.0 / 3.0
    return value, p


def _rational_quadratic(d, slope):
    # Linear distance term by design; see README notes.
    b = d * 0.25
    b += 1.0
    value = b ** -2.0
    if not slope:
        return value
    b *= d
    with np.errstate(divide="ignore"):
        np.divide(value, b, out=b)  # k'/d = -0.5 k / ((1 + d/4) d)
    b *= -0.5
    return value, b


# form(d, slope) on an array d returns k(d), or (k(d), k'(d) / d) when slope
# is true; the value takes the same operations either way.
_FORMS = {
    KernelId.SQUARED_EXP: _squared_exp,
    KernelId.ABS_EXP: _abs_exp,
    KernelId.MATERN32: _matern32,
    KernelId.MATERN52: _matern52,
    KernelId.RATIONAL_QUADRATIC: _rational_quadratic,
}


def kernel_value(kernel: KernelId, d):
    """Correlation at distance d >= 0 (scalar or array, vectorized)."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim:
        return _FORMS[kernel](d, False)
    return float(_FORMS[kernel](d.reshape(1), False)[0])


def kernel_value_slope(kernel: KernelId, d):
    """Correlation and slope over distance, k(d) and k'(d) / d, in one pass.

    d is an array of distances (ndim >= 1) and is not modified.  The value
    equals kernel_value(kernel, d) bit for bit.  k'(d) / d is exactly 0
    wherever d == 0, for every kernel; besides removing the divide by zero
    of abs_exp and rational_quadratic, this keeps the terms
    w_pp * z_p - w_pp * z_p of the length-scale gradient out of its sums,
    where on a near-singular covariance they need not cancel exactly.
    """
    d = np.asarray(d, dtype=np.float64)
    value, slope_over_d = _FORMS[kernel](d, True)
    slope_over_d[d == 0.0] = 0.0
    return value, slope_over_d


def kernel_deriv(kernel: KernelId, d):
    """Derivative of kernel_value with respect to the distance.

    Defined as 0 at d == 0 for every kernel (see kernel_value_slope).
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim:
        return kernel_value_slope(kernel, d)[1] * d
    return float(kernel_value_slope(kernel, d.reshape(1))[1][0] * d)


def scale_points(x, theta) -> np.ndarray:
    """Warp inputs by their per-point length-scales: z[p, v] = theta[p, v] * x[p, v]."""
    x = np.asarray(x, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if x.shape != theta.shape:
        raise DimensionMismatch(
            f"points {x.shape} and length-scales {theta.shape} differ in shape"
        )
    return x * theta


def theta_block(theta, n_v: int, kernel_index: int) -> np.ndarray:
    """Slice the columns of the block matrix belonging to one kernel."""
    return theta[:, kernel_index * n_v : (kernel_index + 1) * n_v]


def cov_matrix(kset: KernelSet, xa, xb, theta_a, theta_b) -> np.ndarray:
    """Summed covariance between two point sets under their length-scale fields.

    Entry (p, q) is sum_i k_i(||theta_i_p * x_p - theta_i_q * x_q||).
    Distances are computed pairwise and exactly, so identical rows yield a
    distance of exactly 0 and the same-points diagonal is exactly n_k.
    """
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    theta_a = np.asarray(theta_a, dtype=np.float64)
    theta_b = np.asarray(theta_b, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2 or xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(
            f"point sets {xa.shape} and {xb.shape} are not compatible"
        )
    n_v = xa.shape[1]
    want = n_v * kset.n_k
    if theta_a.shape != (xa.shape[0], want) or theta_b.shape != (xb.shape[0], want):
        raise DimensionMismatch(
            "length-scale blocks must be (N, n_v * n_k) = "
            f"(*, {want}), got {theta_a.shape} and {theta_b.shape}"
        )
    out = np.zeros((xa.shape[0], xb.shape[0]))
    for i, kern in enumerate(kset.kernels):
        za = xa * theta_block(theta_a, n_v, i)
        zb = xb * theta_block(theta_b, n_v, i)
        out += kernel_value(kern, cdist(za, zb))
    return out
