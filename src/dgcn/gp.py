"""Gaussian-process layer with per-point hyperparameters.

The working covariance of a batch is

    K = sum_i K_i(warped distances) + diag(noise_var),

where the length-scale field and the noise-variance vector come from the
two hypernetworks.  This module provides the negative marginal
log-likelihood, its exact gradient chained back into both networks, and
the predictive distribution with confidence intervals: predict solves one
group's system, and predictive turns a call's solves into a Prediction.
The training step takes plain arrays: the field being differentiated
first, then the kernel set and the batch's inputs x and responses y.

The interval rule is intentionally literal: half-width is the Student-t
quantile times sqrt(variance) / sqrt(N), with N the number of training
points used for the prediction.  A conventional z * sqrt(variance)
interval is available via ``interval="z"``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger as _dger
from scipy.spatial.distance import cdist, pdist, squareform
from scipy.stats import norm as _norm
from scipy.stats import t as _student_t

from . import linalg
from .errors import DimensionMismatch, InvalidAlpha, InvalidSetting, StaleMask
# cov_matrix and kernel_deriv go unused but stay: benchmarks/ pins gp's aliases.
from .kernels import (  # noqa: F401
    KernelSet,
    cov_matrix,
    kernel_deriv,
    kernel_value,
    kernel_value_slope,
)

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class HyperField:
    """Per-point hyperparameters: length-scale block and noise variances."""

    theta: np.ndarray  # (N, n_v * n_k)
    sigma2: np.ndarray  # (N,)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.sigma2 = np.asarray(self.sigma2, dtype=np.float64)
        if self.theta.ndim != 2 or self.sigma2.ndim != 1:
            raise DimensionMismatch("theta must be 2-D and sigma2 1-D")
        if self.theta.shape[0] != self.sigma2.shape[0]:
            raise DimensionMismatch("theta and sigma2 row counts differ")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("length-scales contain non-finite values")
        if not np.all(self.sigma2 > 0.0):
            raise ValueError("noise variances must be strictly positive")

    @property
    def n(self) -> int:
        return self.sigma2.shape[0]


@dataclass
class Prediction:
    mean: np.ndarray
    variance: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    alpha_level: float
    clamped: int = 0  # variances clipped to 0 by round-off
    jitter_events: int = 0  # factorizations that needed diagonal jitter
    jitter_max: float = 0.0  # highest jitter level any of them used
    whole_groups: int = 0  # systems over the whole set (k >= N)
    cached_groups: int = 0  # systems over a block of the cached K
    built_groups: int = 0  # systems over a covariance built for them


@dataclass
class HyperGradients:
    """NLL value and its gradient with respect to the hyperparameter field."""

    value: float
    theta: np.ndarray  # (N, n_v * n_k)
    sigma2: np.ndarray  # (N,)
    jitter_used: float


# Entries per row block of the training step: one block array (distances,
# kernel values, slopes, a slice of G) holds about 1 MiB of float64, so the
# arrays a block works on at one time stay in L2.
_BLOCK_ENTRIES = 1 << 17
# Sets below this many points take train_cov's full square.  Each of its
# cdist calls does twice the condensed pairs' work, but pdist's wrapper
# costs about 16 us more per call: the square took 0.3-0.4 of the condensed
# build's time at 16 points, 0.6-0.7 at 50, about 1 at 100 and 1.5-1.9 at
# 200 (README, prediction).
_SQUARE_BELOW = 96


def _blocked_cov(kset: KernelSet, warped, sigma2, blocks, slopes: bool,
                 ws: linalg.Workspace | None):
    """Pass 1 of the training step: K + diag(sigma2) over row blocks.

    Per block b = R = [r0, r1): the diagonal block from condensed pairs
    (_diag_block), then, per kernel, cdist(z_R, z_<r0), its kernel values
    summed into K[R, :r0] and mirrored into K[:r0, R].  K equals
    kernels.cov_matrix's plus the noise bit for bit, whatever the blocks.
    With ``slopes`` the second result lists per block the diagonal block's
    condensed slopes and the left part's, k'(d) / d per kernel i, kept in
    roles ("pair_slopes", b, i) and ("slopes", b, i); otherwise its lists
    are empty.  With more than one block, K and the left parts' distances
    are workspace arrays too; with one block, K is the diagonal block.
    """
    n = warped[0].shape[0]
    k = linalg.work_array(ws, "cov", (n, n)) if len(blocks) != 1 else None
    per_block = []
    for b, (r0, r1) in enumerate(blocks):
        k_diag, diag_slopes = _diag_block(kset, warped[:, r0:r1], b,
                                          slopes, ws)
        if k is None:
            k = k_diag  # one block: the diagonal block is all of K
        else:
            k[r0:r1, r0:r1] = k_diag
        left_slopes = []
        if r0:
            k_left = k[r0:r1, :r0]
            d = linalg.work_array(ws, "distances", (r1 - r0, r0))
            for i, (kern, z) in enumerate(zip(kset.kernels, warped)):
                cdist(z[r0:r1], z[:r0], out=d)
                if slopes:
                    value, slope_over_d = kernel_value_slope(
                        kern, d, out=linalg.work_array(ws, ("slopes", b, i),
                                                       d.shape))
                    left_slopes.append(slope_over_d)
                else:
                    value = kernel_value(kern, d)
                if i:
                    k_left += value
                else:
                    k_left[...] = value
            k[:r0, r0:r1] = k_left.T
        per_block.append((diag_slopes, left_slopes))
    k[np.diag_indices_from(k)] += sigma2
    return k, per_block


def _diag_block(kset: KernelSet, warped, b: int, slopes: bool,
                ws: linalg.Workspace | None):
    """Block b's K without noise, from condensed pairs: per kernel one
    pdist (equal to cdist entry for entry) of the block's rows ``warped``,
    its values summed condensed in kernel order, then squareform's new
    square with diagonal n_k.  With ``slopes``, also each kernel i's
    k'(d) / d on the pairs, in role ("pair_slopes", b, i): its
    squareform(s, checks=False) has diagonal 0, the value at d == 0."""
    m = warped.shape[1]
    condensed = np.zeros(m * (m - 1) // 2)
    pair_slopes = []
    for i, (kern, z) in enumerate(zip(kset.kernels, warped)):
        d = pdist(z)
        if slopes:
            value, slope_over_d = kernel_value_slope(
                kern, d, out=linalg.work_array(ws, ("pair_slopes", b, i),
                                               d.shape))
            pair_slopes.append(slope_over_d)
        else:
            value = kernel_value(kern, d)
        condensed += value
        del value  # freed before the next kernel's arrays and K
    out = squareform(condensed, checks=False)
    np.fill_diagonal(out, float(kset.n_k))
    return out, pair_slopes


def train_cov(kset: KernelSet, warped, sigma2) -> np.ndarray:
    """Noise-added covariance K + diag(sigma2) of a stored point set.

    ``warped`` is the set's warped_rows, (n_k, m, n_v), and sigma2 its noise
    variances.  Below _SQUARE_BELOW points each kernel's values are taken
    over cdist(z, z)'s full square and summed in kernel order, and the
    diagonal is written as n_k + sigma2.  From it on, K is built like the
    training step's, over row blocks of about 1 MiB per block array, so a
    large set needs no condensed temporaries of its size.  Either way K
    equals cov_matrix with that diagonal bit for bit.
    """
    m = warped.shape[1]
    if m >= _SQUARE_BELOW:
        blocks = linalg.row_blocks(m, _BLOCK_ENTRIES)
        return _blocked_cov(kset, warped, sigma2, blocks, False, None)[0]
    out = np.zeros((m, m))
    for kern, z in zip(kset.kernels, warped):
        out += kernel_value(kern, cdist(z, z))
    out[np.diag_indices(m)] = float(kset.n_k) + sigma2
    return out


def warped_rows(x, theta, n_k: int) -> np.ndarray:
    """x warped by each kernel, C-ordered (n_k, N, n_v): [i, p] is
    x_p * theta_i,p, so [i] is the (N, n_v) point set kernel i sees."""
    if x.ndim != 2 or theta.shape != (len(x), x.shape[1] * n_k):
        raise DimensionMismatch(f"length-scales {theta.shape} for points {x.shape}")
    n, n_v = x.shape
    with np.errstate(over="ignore"):  # an overflowed query warps to inf
        warped = np.tile(x, n_k) * theta
    return np.ascontiguousarray(warped.reshape(n, n_k, n_v).transpose(1, 0, 2))


def cross_cov(kset: KernelSet, train, star, rows=None) -> np.ndarray:
    """(n_star, m) covariances of test points with training points, as
    cov_matrix's entries bit for bit.  ``train`` and ``star`` are warped_rows;
    ``rows`` (n_star, m) holds each test point's training points, None all.
    Per block of about _BLOCK_ENTRIES: one gather of training rows along
    axis 1, one difference of them and the queries, squared in place, the
    squares summed over the last axis (the inputs) in cdist's order (from
    input 0: the squares are >= +0, so this equals a sum from zeros), one
    square root, the kernel values summed in place."""
    n_k, n_star, n_v = star.shape
    m = train.shape[1] if rows is None else rows.shape[1]
    out = np.empty((n_star, m))
    step = max(1, _BLOCK_ENTRIES // max(m * n_k * n_v, 1))
    with np.errstate(over="ignore"):
        for j in range(0, n_star, step):
            near = train[:, None] if rows is None else train.take(rows[j:j + step], 1)
            d = near - star[:, j:j + step, None]  # (n_k, rows, m, n_v)
            d *= d
            # Summed into a new contiguous array: summing into d's strided
            # view of input 0 measured 12-20% slower at k = 50 and 200.
            dist = d[..., 0] if n_v == 1 else d[..., 0] + d[..., 1]
            for v in range(2, n_v):
                dist += d[..., v]
            np.sqrt(dist, out=dist)
            part = out[j:j + step]
            part[...] = kernel_value(kset.kernels[0], dist[0])
            for i in range(1, n_k):
                part += kernel_value(kset.kernels[i], dist[i])
    return out


def solve_built(build, y) -> tuple:
    """The factor of a noise-added covariance K and alpha = K^-1 y: build()
    returns a new, exactly symmetric K, factored in its own memory and built
    again for each jitter rung past 0 (linalg.cholesky_in_place)."""
    factor = linalg.cholesky_in_place(build(), build)
    return factor, linalg.solve_spd(factor, y)


def nll_hyper_grad(hyper: HyperField, kset: KernelSet, x, y, *,
                   workspace: linalg.Workspace | None = None) -> HyperGradients:
    """Exact dNLL/dtheta and dNLL/dsigma2 at every point of the batch (x, y),
    (N, n_v) and (N,) float64 arrays, under the field ``hyper``.

    Uses dNLL/dK = 0.5 G with G = K^-1 - alpha alpha^T and alpha = K^-1 y.
    Per kernel, the warped distances give the value k(d) and the slope over
    distance k'(d) / d (kernels.kernel_value_slope, which is exactly 0 at
    d == 0).  Entry (p, q) of the covariance depends on the length-scales
    of both p and q, and the two halves of 0.5 G contribute equally, so the
    chain rule needs only W = G * k'(d) / d, elementwise:

        dNLL/dtheta_p = x_p * (z_p * sum_q W_pq - sum_q W_pq z_q).

    Everything is symmetric, so the work runs over the lower triangle in
    row blocks R = [r0, r1) of about 1 MiB per block array:

    - pass 1 (_blocked_cov), per block: the diagonal block R x R from
      condensed pairs (one pdist and one kernel_value_slope per kernel,
      the slopes kept condensed), then the part left of it, K[R, :r0]
      from cdist(z_R, z_<r0), mirrored into K[:r0, R], its slopes S kept
      (empty when r0 = 0);
    - on the whole matrix, in K's own memory: the factorization (each
      jitter rung past 0 rebuilds K's values, not its slopes), alpha, the
      log-determinant, and G = K^-1 - alpha alpha^T over the factor;
    - pass 2, per block and kernel: W = S * G, in a square rebuilt from the
      condensed slopes for the diagonal block (one at a time) and in each
      slope's array for the left part.  The row sums of W and W @ z give
      rows R their sums over the diagonal block and then over the columns
      left of it; the column sums of the left part and its W^T @ z_R add
      the mirrored half to rows below r0.

    Besides K (later its factor, then G), memory goes to the slopes: about
    n^2 / 2 entries per kernel; each kernel is evaluated on the n (n - 1)
    / 2 pairs once.  K, the NLL and the sigma2 gradient are the same bit
    for bit whatever the block size; the theta gradient sums in block
    order, and with a single block (n <= 362) it is the full-square sum.

    ``workspace`` keeps the step's large arrays for the next call (a fit
    passes one to all its steps; with None the arrays are new, and the
    result is the same bit for bit): each block b's slopes per kernel i,
    in roles ("pair_slopes", b, i) and ("slopes", b, i) (about n^2 / 2
    entries per kernel), and with more than one block K and the left
    parts' distances.  On a call with a used workspace the large new
    arrays are K with one block, the diagonal blocks' slope squares, one
    at a time, and the condensed distances and kernel values; no array of
    the result lives in the workspace.
    """
    warped = warped_rows(x, hyper.theta, kset.n_k)
    n, n_v = x.shape
    blocks = linalg.row_blocks(n, _BLOCK_ENTRIES)
    k, slopes = _blocked_cov(kset, warped, hyper.sigma2, blocks, True, workspace)
    factor = linalg.cholesky_in_place(k, lambda: _blocked_cov(
        kset, warped, hyper.sigma2, blocks, False, workspace)[0])
    alpha = linalg.solve_spd(factor, y)
    value = float(
        0.5 * y @ alpha + 0.5 * linalg.logdet(factor) + 0.5 * n * LOG_2PI
    )
    # The inverse is written over the factor, in K's memory in Fortran
    # order, and dger subtracts alpha alpha^T from it in place.  G is
    # symmetric, so its transpose is G in C order, like the slope arrays.
    inv = linalg.inverse_spd(factor)
    g = _dger(-1.0, alpha, alpha, a=inv, overwrite_a=True).T

    # Per kernel, w_sum[p] = sum_q W_pq and wz_sum[p] = sum_q W_pq z_q.  Rows
    # R get nothing before their own block, which assigns them from the
    # diagonal block, so with one block the sums are the full-square ones.
    w_sum = linalg.work_array(workspace, "w_sum", (kset.n_k, n))
    wz_sum = linalg.work_array(workspace, "wz_sum", (kset.n_k, n, n_v))
    for (r0, r1), (diag_slopes, left_slopes) in zip(blocks, slopes):
        g_diag = g[r0:r1, r0:r1]
        for i, (pair_slopes, z) in enumerate(zip(diag_slopes, warped)):
            w = squareform(pair_slopes, checks=False)
            w *= g_diag
            w_sum[i, r0:r1] = w.sum(axis=1)
            wz_sum[i, r0:r1] = w @ z[r0:r1]
            del w  # one square at a time
        g_left = g[r0:r1, :r0]
        for i, (w, z) in enumerate(zip(left_slopes, warped)):
            w *= g_left
            w_sum[i, r0:r1] += w.sum(axis=1)
            wz_sum[i, r0:r1] += w @ z[:r0]
            w_sum[i, :r0] += w.sum(axis=0)
            wz_sum[i, :r0] += w.T @ z[r0:r1]
    grad_theta = np.empty_like(hyper.theta)
    for i, z in enumerate(warped):
        grad_theta[:, i * n_v : (i + 1) * n_v] = x * (
            z * w_sum[i, :, None] - wz_sum[i]
        )
    return HyperGradients(
        value=value,
        theta=grad_theta,
        sigma2=0.5 * np.diag(g),
        jitter_used=factor.jitter_used,
    )


@dataclass
class NetworkGradients:
    """NLL value plus parameter gradients for both hypernetworks."""

    value: float
    theta_net: object  # MlpGrads
    sigma_net: object  # MlpGrads
    jitter_used: float


def nll_grad(hyper: HyperField, kset: KernelSet, x, y, theta_net, sigma_net,
             *, workspace: linalg.Workspace | None = None) -> NetworkGradients:
    """Backpropagate the NLL of the batch (x, y) into both hypernetworks'
    weights; ``hyper`` is their training-mode field over x.

    Both networks must have just run a training-mode forward on x (their
    caches are replayed); otherwise StaleMask is raised by the networks
    themselves.  ``workspace`` is passed to nll_hyper_grad.
    """
    for net in (theta_net, sigma_net):
        cached = net.cached_input()
        if cached is not None and not (cached is x or np.array_equal(cached, x)):
            raise StaleMask("cached forward does not correspond to this batch")
    hg = nll_hyper_grad(hyper, kset, x, y, workspace=workspace)
    return NetworkGradients(
        value=hg.value,
        theta_net=theta_net.backward(hg.theta),
        sigma_net=sigma_net.backward(hg.sigma2[:, None]),
        jitter_used=hg.jitter_used,
    )


def predict(factor, alpha, rows, n_k: int) -> tuple:
    """Mean and unclamped latent variance at one group's test points, from
    solve_built's factor and alpha and the group's C-ordered (n_q, m)
    cross_cov rows, which it overwrites: the mean reads them in Fortran
    order, then rows.T is solved in place; n_k kernels give the prior n_k."""
    mean = np.asfortranarray(rows) @ alpha
    half = linalg.solve_lower(factor, rows.T)
    return mean, float(n_k) - np.einsum("ij,ij->j", half, half)


def predictive(mean, variance, noise, n_train: int, alpha_level: float,
               interval: str, jitters) -> Prediction:
    """The Prediction of posterior means and latent variances: the
    variances clamped at 0 and counted, ``noise`` (None for none) added,
    the interval over n_train points; ``jitters`` lists each system's
    factor.jitter_used."""
    clamped = int(np.count_nonzero(variance < 0.0))
    variance = np.maximum(variance, 0.0)
    if noise is not None:
        variance = variance + noise
    if interval == "t":
        low, high = confidence_interval(mean, variance, n_train, alpha_level)
    elif interval == "z":
        low, high = normal_interval(mean, variance, alpha_level)
    else:
        raise InvalidSetting("interval must be 't' or 'z'")
    return Prediction(mean, variance, low, high, alpha_level, clamped,
                      sum(j > 0.0 for j in jitters), max(jitters))


def join_predictions(preds, alpha_level: float) -> Prediction:
    """One Prediction of ``preds``' rows in order, all at alpha_level: the
    fields concatenated, clamped, jitter_events and the group counts
    summed, jitter_max the highest (0.0 for an empty list)."""
    rows = (np.concatenate([np.empty(0)] + [getattr(p, name) for p in preds])
            for name in ("mean", "variance", "ci_low", "ci_high"))
    sums = {name: sum(getattr(p, name) for p in preds) for name in (
        "clamped", "jitter_events", "whole_groups", "cached_groups",
        "built_groups")}
    return Prediction(*rows, alpha_level, **sums,
                      jitter_max=max((p.jitter_max for p in preds), default=0.0))


# Prediction asks for the same few quantiles on every call; scipy's ppf
# costs far more than the interval arithmetic around it.
@functools.lru_cache(maxsize=256)
def _t_quantile(alpha_level: float, n_train: int) -> float:
    return _student_t.ppf(1.0 - alpha_level / 2.0, df=n_train - 1)


@functools.lru_cache(maxsize=64)
def _z_quantile(alpha_level: float) -> float:
    return _norm.ppf(1.0 - alpha_level / 2.0)


def confidence_interval(mean, variance, n_train: int, alpha_level: float):
    """mean +- t(1 - alpha/2, N-1) * sqrt(variance) / sqrt(N).

    The quantile is computed once per (alpha, N) and cached.
    """
    if not 0.0 < alpha_level < 1.0:
        raise InvalidAlpha(f"alpha_level must lie in (0, 1), got {alpha_level}")
    if n_train < 2:
        raise InvalidSetting(
            f"need at least 2 training points for an interval, got {n_train}")
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    half = _t_quantile(alpha_level, n_train) * np.sqrt(variance) / math.sqrt(n_train)
    return mean - half, mean + half


def normal_interval(mean, variance, alpha_level: float):
    """Conventional mean +- z(1 - alpha/2) * sqrt(variance) interval.

    The quantile is computed once per alpha and cached.
    """
    if not 0.0 < alpha_level < 1.0:
        raise InvalidAlpha(f"alpha_level must lie in (0, 1), got {alpha_level}")
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    half = _z_quantile(alpha_level) * np.sqrt(variance)
    return mean - half, mean + half
