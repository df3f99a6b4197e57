"""Gaussian-process layer with per-point hyperparameters.

The working covariance of a batch is

    K = sum_i K_i(warped distances) + diag(noise_var),

where the length-scale field and the noise-variance vector come from the
two hypernetworks.  This module provides the negative marginal
log-likelihood, its exact gradient chained back into both networks, and
the predictive distribution with confidence intervals.

The interval rule is intentionally literal: half-width is the Student-t
quantile times sqrt(variance) / sqrt(N), with N the number of training
points used for the prediction.  A conventional z * sqrt(variance)
interval is available via ``interval="z"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger as _dger
from scipy.spatial.distance import cdist
from scipy.stats import norm as _norm
from scipy.stats import t as _student_t

from . import linalg
from .errors import DimensionMismatch, InvalidAlpha, StaleMask
# kernel_value/kernel_deriv go unused but stay: benchmarks/ pins gp's aliases.
from .kernels import (  # noqa: F401
    KernelSet,
    cov_matrix,
    kernel_deriv,
    kernel_value,
    kernel_value_slope,
    theta_block,
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

    def take(self, idx) -> "HyperField":
        return HyperField(self.theta[idx], self.sigma2[idx])


@dataclass
class GpBatch:
    """Training points with their responses and hyperparameter field."""

    x: np.ndarray  # (N, n_v)
    y: np.ndarray  # (N,)
    hyper: HyperField

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.ndim != 1:
            raise DimensionMismatch("x must be (N, n_v) and y (N,)")
        if not (self.x.shape[0] == self.y.shape[0] == self.hyper.theta.shape[0]):
            raise DimensionMismatch("x, y and hyperparameters disagree on N")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass
class Prediction:
    mean: np.ndarray
    variance: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    alpha_level: float
    clamped: int = 0  # variances clipped to 0 by round-off


def _system(batch: GpBatch, kset: KernelSet):
    k = cov_matrix(kset, batch.x, batch.x, batch.hyper.theta, batch.hyper.theta)
    k[np.diag_indices_from(k)] += batch.hyper.sigma2
    factor = linalg.cholesky_jittered(k)
    alpha = linalg.solve_spd(factor, batch.y)
    return factor, alpha


def nll(batch: GpBatch, kset: KernelSet) -> float:
    """Negative marginal log-likelihood of the batch."""
    factor, alpha = _system(batch, kset)
    return float(
        0.5 * batch.y @ alpha
        + 0.5 * linalg.logdet(factor)
        + 0.5 * batch.n * LOG_2PI
    )


@dataclass
class HyperGradients:
    """NLL value and its gradient with respect to the hyperparameter field."""

    value: float
    theta: np.ndarray  # (N, n_v * n_k)
    sigma2: np.ndarray  # (N,)
    jitter_used: float


def nll_hyper_grad(batch: GpBatch, kset: KernelSet) -> HyperGradients:
    """Exact dNLL/dtheta and dNLL/dsigma2 for every point of the batch.

    Uses dNLL/dK = 0.5 G with G = K^-1 - alpha alpha^T and alpha = K^-1 y.
    One pass per kernel over the warped distances gives its value k(d) and
    its slope over distance k'(d) / d (kernels.kernel_value_slope, which is
    exactly 0 at d == 0).  Entry (p, q) of the covariance depends on the
    length-scales of both p and q, and the two halves of 0.5 G contribute
    equally, so the chain rule needs only W = G * k'(d) / d, elementwise:

        dNLL/dtheta_p = x_p * (z_p * sum_q W_pq - sum_q W_pq z_q).

    G is built in the inverse's buffer and each W in its slope's buffer,
    so the chain from the inverse to the gradient allocates no n x n array.
    """
    x = batch.x
    theta = batch.hyper.theta
    n, n_v = x.shape
    warped = []
    k = None
    for i, kern in enumerate(kset.kernels):
        z = x * theta_block(theta, n_v, i)
        value, slope_over_d = kernel_value_slope(kern, cdist(z, z))
        if k is None:
            k = value
        else:
            k += value
        warped.append((z, slope_over_d))
    k[np.diag_indices_from(k)] += batch.hyper.sigma2
    factor = linalg.cholesky_jittered(k)
    alpha = linalg.solve_spd(factor, batch.y)
    value = float(
        0.5 * batch.y @ alpha + 0.5 * linalg.logdet(factor) + 0.5 * n * LOG_2PI
    )
    # dger subtracts alpha alpha^T in place from a Fortran-ordered array,
    # which inverse_spd returns (any other layout gets an updated copy).  G
    # is symmetric, so its transpose is G in C order, like the slope arrays.
    g = _dger(-1.0, alpha, alpha, a=linalg.inverse_spd(factor), overwrite_a=True).T

    grad_theta = np.empty_like(theta)
    for i, (z, w) in enumerate(warped):
        w *= g
        grad_theta[:, i * n_v : (i + 1) * n_v] = x * (
            z * w.sum(axis=1)[:, None] - w @ z
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


def nll_grad(batch: GpBatch, kset: KernelSet, theta_net, sigma_net) -> NetworkGradients:
    """Backpropagate the batch NLL into both hypernetworks' weights.

    Both networks must have just run a training-mode forward on the batch
    inputs (their caches are replayed); otherwise StaleMask is raised by
    the networks themselves.
    """
    for net in (theta_net, sigma_net):
        cached = net.cached_input()
        if cached is not None and not (
            cached is batch.x or np.array_equal(cached, batch.x)
        ):
            raise StaleMask("cached forward does not correspond to this batch")
    hg = nll_hyper_grad(batch, kset)
    return NetworkGradients(
        value=hg.value,
        theta_net=theta_net.backward(hg.theta),
        sigma_net=sigma_net.backward(hg.sigma2[:, None]),
        jitter_used=hg.jitter_used,
    )


def predict(train: GpBatch, x_star, hyper_star: HyperField, kset: KernelSet,
            alpha_level: float = 0.05, include_noise: bool = False,
            interval: str = "t") -> Prediction:
    """Predictive mean/variance at new points, with confidence bounds.

    The latent variance is the diagonal of the posterior covariance,
    clamped at 0; ``include_noise`` adds the predicted per-point noise
    variance on top.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.ndim != 2 or x_star.shape[1] != train.x.shape[1]:
        raise DimensionMismatch(
            f"test points must be (*, {train.x.shape[1]}), got {x_star.shape}"
        )
    if x_star.shape[0] != hyper_star.theta.shape[0]:
        raise DimensionMismatch("test points and their hyperparameters disagree")
    factor, alpha = _system(train, kset)
    k_star = cov_matrix(kset, train.x, x_star, train.hyper.theta, hyper_star.theta)
    mean = k_star.T @ alpha
    half = linalg.solve_lower(factor, k_star)
    variance = float(kset.n_k) - np.einsum("ij,ij->j", half, half)
    clamped = int(np.count_nonzero(variance < 0.0))
    variance = np.maximum(variance, 0.0)
    if include_noise:
        variance = variance + hyper_star.sigma2
    if interval == "t":
        low, high = confidence_interval(mean, variance, train.n, alpha_level)
    elif interval == "z":
        low, high = normal_interval(mean, variance, alpha_level)
    else:
        raise ValueError("interval must be 't' or 'z'")
    return Prediction(
        mean=mean,
        variance=variance,
        ci_low=low,
        ci_high=high,
        alpha_level=alpha_level,
        clamped=clamped,
    )


def confidence_interval(mean, variance, n_train: int, alpha_level: float):
    """mean +- t(1 - alpha/2, N-1) * sqrt(variance) / sqrt(N)."""
    if not 0.0 < alpha_level < 1.0:
        raise InvalidAlpha(f"alpha_level must lie in (0, 1), got {alpha_level}")
    if n_train < 2:
        raise ValueError("need at least 2 training points for an interval")
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    quantile = _student_t.ppf(1.0 - alpha_level / 2.0, df=n_train - 1)
    half = quantile * np.sqrt(variance) / math.sqrt(n_train)
    return mean - half, mean + half


def normal_interval(mean, variance, alpha_level: float):
    """Conventional mean +- z(1 - alpha/2) * sqrt(variance) interval."""
    if not 0.0 < alpha_level < 1.0:
        raise InvalidAlpha(f"alpha_level must lie in (0, 1), got {alpha_level}")
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    half = _norm.ppf(1.0 - alpha_level / 2.0) * np.sqrt(variance)
    return mean - half, mean + half
