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
gp assembles every such matrix that training and prediction factor;
cov_matrix here is their two-set reference.

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

An overflowed distance (inf, or one whose square overflows) gives every
kernel its d -> inf limits, value 0 and slope 0, never NaN.  The Matérn
forms clip d at _FAR first: beyond it their exp factor is already exactly
0, so the clip changes no finite result, and the polynomial in front of it
stays finite instead of meeting that 0 as inf * 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch, InvalidSetting

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
# exp(-sqrt3 * d) underflows to exactly 0 from d = 431 on.
_FAR = 1e3


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
            raise InvalidSetting("kernel set must not be empty")
        object.__setattr__(self, "kernels", tuple(self.kernels))

    @property
    def n_k(self) -> int:
        return len(self.kernels)

    def names(self) -> list[str]:
        return [k.value for k in self.kernels]

    @classmethod
    def from_names(cls, names) -> "KernelSet":
        """InvalidSetting unless names is a list of KernelId values."""
        known = [k.value for k in KernelId]
        if not isinstance(names, (list, tuple)) or not all(
                isinstance(n, str) and n in known for n in names):
            raise InvalidSetting(f"kernels must be a list of {known}, "
                                 f"got {names!r}")
        return cls(tuple(KernelId(n) for n in names))


def _squared_exp(d, slope):
    e = d * -0.5
    e *= d
    np.exp(e, out=e)
    if slope is not None:
        np.negative(e, out=slope)
    return e


def _abs_exp(d, slope):
    e = np.negative(d)
    np.exp(e, out=e)
    if slope is not None:
        with np.errstate(divide="ignore"):
            np.divide(e, d, out=slope)  # d == 0 gives inf, cleared by the caller
        np.negative(slope, out=slope)
    return e


def _matern32(d, slope):
    value = np.minimum(d, _FAR)
    e = np.multiply(value, -_SQRT3, out=slope)
    np.exp(e, out=e)
    value *= _SQRT3
    value += 1.0
    value *= e
    if slope is not None:
        e *= -3.0
    return value


def _matern52(d, slope):
    p = np.minimum(d, _FAR, out=slope)
    e = p * -_SQRT5
    np.exp(e, out=e)
    value = p * (5.0 / 3.0)
    value *= p
    p *= _SQRT5
    p += 1.0
    value += p
    value *= e
    if slope is not None:
        p *= e
        p *= -5.0 / 3.0
    return value


def _rational_quadratic(d, slope):
    # Linear distance term by design; see README notes.
    b = np.multiply(d, 0.25, out=slope)
    b += 1.0
    value = b ** -2.0
    if slope is not None:
        b *= d
        with np.errstate(divide="ignore"):
            np.divide(value, b, out=b)  # k'/d = -0.5 k / ((1 + d/4) d)
        b *= -0.5
    return value


# form(d, slope) on an array d returns k(d); given an array shaped like d as
# ``slope`` (None for the value alone), it also writes k'(d) / d there.  The
# value takes the same operations either way.
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
        return _FORMS[kernel](d, None)
    return float(_FORMS[kernel](d.reshape(1), None)[0])


def kernel_value_slope(kernel: KernelId, d, *, out=None):
    """Correlation and slope over distance, k(d) and k'(d) / d, in one pass.

    d is an array of distances (ndim >= 1) and is not modified; ``out``, a
    float64 array shaped like d that does not overlap it, receives the
    slope (a new array if None).  The value equals kernel_value(kernel, d)
    bit for bit.  k'(d) / d is exactly 0
    wherever d == 0, for every kernel; besides removing the divide by zero
    of abs_exp and rational_quadratic, this keeps the terms
    w_pp * z_p - w_pp * z_p of the length-scale gradient out of its sums,
    where on a near-singular covariance they need not cancel exactly.
    """
    d = np.asarray(d, dtype=np.float64)
    slope_over_d = np.empty_like(d) if out is None else out
    value = _FORMS[kernel](d, slope_over_d)
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


def _checked_set(kset: KernelSet, x, theta):
    x = np.asarray(x, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"point set {x.shape} is not (N, n_v)")
    want = x.shape[1] * kset.n_k
    if theta.shape != (x.shape[0], want):
        raise DimensionMismatch(
            "length-scale blocks must be (N, n_v * n_k) = "
            f"({x.shape[0]}, {want}), got {theta.shape}"
        )
    return x, theta


def cov_matrix(kset: KernelSet, xa, xb, theta_a, theta_b) -> np.ndarray:
    """Summed covariance between two point sets under their length-scale fields.

    Entry (p, q) is sum_i k_i(||theta_i_p * x_p - theta_i_q * x_q||).
    Distances are computed pairwise and exactly, so identical rows yield a
    distance of exactly 0.  No package path calls it: gp's builders equal
    it bit for bit, and tests and the benchmark's tracer read it.
    """
    xa, theta_a = _checked_set(kset, xa, theta_a)
    xb, theta_b = _checked_set(kset, xb, theta_b)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(
            f"point sets {xa.shape} and {xb.shape} are not compatible"
        )
    n_v = xa.shape[1]
    out = np.zeros((xa.shape[0], xb.shape[0]))
    for i, kern in enumerate(kset.kernels):
        cols = slice(i * n_v, (i + 1) * n_v)  # kernel i's length-scales
        out += kernel_value(kern, cdist(xa * theta_a[:, cols],
                                        xb * theta_b[:, cols]))
    return out
