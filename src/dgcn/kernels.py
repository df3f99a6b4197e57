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
from scipy.spatial.distance import cdist, pdist, squareform

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
    value = np.minimum(d, _FAR)
    e = value * -_SQRT3
    np.exp(e, out=e)
    value *= _SQRT3
    value += 1.0
    value *= e
    if not slope:
        return value
    e *= -3.0
    return value, e


def _matern52(d, slope):
    p = np.minimum(d, _FAR)
    e = p * -_SQRT5
    np.exp(e, out=e)
    value = p * (5.0 / 3.0)
    value *= p
    p *= _SQRT5
    p += 1.0
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


def theta_block(theta, n_v: int, kernel_index: int) -> np.ndarray:
    """Slice the columns of the block matrix belonging to one kernel."""
    return theta[:, kernel_index * n_v : (kernel_index + 1) * n_v]


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


def cov_matrix(kset: KernelSet, xa, *rest) -> np.ndarray:
    """Summed covariance between two point sets under their length-scale fields.

    Called as cov_matrix(kset, xa, xb, theta_a, theta_b), entry (p, q) is
    sum_i k_i(||theta_i_p * x_p - theta_i_q * x_q||).  Distances are
    computed pairwise and exactly, so identical rows yield a distance of
    exactly 0.

    Called as cov_matrix(kset, x, theta), it is the set against itself:
    each pair's distance and kernel values are taken once (pdist, which
    equals cdist entry for entry), summed in condensed form and mirrored,
    and the diagonal is exactly n_k.  The result equals
    cov_matrix(kset, x, x, theta, theta) bit for bit.
    """
    if len(rest) == 1:
        x, theta = _checked_set(kset, xa, rest[0])
        n_v = x.shape[1]
        return one_set_cov(
            kset, [x * theta_block(theta, n_v, i) for i in range(kset.n_k)])[0]
    if len(rest) != 3:
        raise TypeError("cov_matrix takes (kset, x, theta) or "
                        "(kset, xa, xb, theta_a, theta_b)")
    xb, theta_a, theta_b = rest
    xa, theta_a = _checked_set(kset, xa, theta_a)
    xb, theta_b = _checked_set(kset, xb, theta_b)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(
            f"point sets {xa.shape} and {xb.shape} are not compatible"
        )
    n_v = xa.shape[1]
    out = np.zeros((xa.shape[0], xb.shape[0]))
    for i, kern in enumerate(kset.kernels):
        za = xa * theta_block(theta_a, n_v, i)
        zb = xb * theta_block(theta_b, n_v, i)
        out += kernel_value(kern, cdist(za, zb))
    return out


def one_set_cov(kset: KernelSet, warped, slopes: bool = False):
    """Summed covariance of one point set with itself, from condensed pairs.

    warped[i] is the set scaled by kernel i's length-scales.  Each pair's
    distance is taken once (pdist, which equals cdist entry for entry) and
    its kernel values are summed condensed in kernel order; squareform then
    rebuilds the square, whose diagonal is set to exactly n_k.  Returns
    (K, S): with ``slopes`` true, S lists each kernel's k'(d) / d as a
    square with diagonal 0, its value at d == 0; otherwise S is empty.
    cov_matrix(kset, x, theta) and the diagonal blocks of gp's row-blocked
    covariance (training steps and prediction) are assembled here.
    """
    m = warped[0].shape[0]
    if m == 0:  # squareform would read an empty vector as one point
        return np.zeros((0, 0)), [np.zeros((0, 0)) for _ in warped] if slopes else []
    condensed = np.zeros(m * (m - 1) // 2)
    slope_squares = []
    for kern, z in zip(kset.kernels, warped):
        d = pdist(z)
        if slopes:
            value, slope_over_d = kernel_value_slope(kern, d)
            slope_squares.append(squareform(slope_over_d, checks=False))
        else:
            value = kernel_value(kern, d)
        condensed += value
    out = squareform(condensed, checks=False)
    np.fill_diagonal(out, float(kset.n_k))
    return out, slope_squares
