"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, explicit way (dense
inverses, double loops) and never imports the package's own linear-algebra
or covariance code paths, so it can serve as an oracle for them.  The
exceptions are :func:`full_square_hyper_grad`, a bit-for-bit reference that
takes the package's kernel forms, :func:`stationary_fit`, a training loop
over the package's likelihood gradient, :func:`full_prediction` and
:func:`neighbour_prediction`, which build each system's covariances with
``kernels.cov_matrix`` (not the prediction path's ``gp.train_cov`` and
``gp.cross_cov``), factor it with the package's ``linalg``, solve it with
scipy's ``solve_triangular`` and finish with ``gp.predictive``, and the
network helpers
:func:`param_arrays` and :func:`loss_sq` (see their docstrings).
"""

import dataclasses
import math

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dpotri
from scipy.spatial.distance import cdist
from scipy.special import expit

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)


def scalar_kernel(name, d):
    """Closed-form correlations, written independently of the package."""
    d = np.asarray(d, dtype=float)
    if name == "squared_exp":
        return np.exp(-0.5 * d**2)
    if name == "abs_exp":
        return np.exp(-d)
    if name == "matern32":
        return (1 + SQRT3 * d) * np.exp(-SQRT3 * d)
    if name == "matern52":
        return (1 + SQRT5 * d + 5.0 * d**2 / 3.0) * np.exp(-SQRT5 * d)
    if name == "rational_quadratic":
        return (1 + d / 4.0) ** -2
    raise KeyError(name)


def warped_cov(names, xa, xb, theta_a, theta_b):
    """Brute-force double-loop covariance for per-point length-scales."""
    n_v = xa.shape[1]
    out = np.zeros((xa.shape[0], xb.shape[0]))
    for ki, name in enumerate(names):
        ta = theta_a[:, ki * n_v : (ki + 1) * n_v]
        tb = theta_b[:, ki * n_v : (ki + 1) * n_v]
        for p in range(xa.shape[0]):
            for q in range(xb.shape[0]):
                d = np.linalg.norm(ta[p] * xa[p] - tb[q] * xb[q])
                out[p, q] += float(scalar_kernel(name, d))
    return out


def stationary_gp(name, x, y, theta, sigma2, x_star):
    """Textbook single-kernel GP with a shared ARD length-scale vector.

    Returns (mean, variance, nll) computed with explicit inverses and
    slogdet; the kernel argument is the distance between theta-scaled
    points.
    """

    def k(a, b):
        d = np.sqrt((((a * theta)[:, None, :] - (b * theta)[None, :, :]) ** 2).sum(-1))
        return scalar_kernel(name, d)

    n = x.shape[0]
    kxx = k(x, x) + sigma2 * np.eye(n)
    k_inv = np.linalg.inv(kxx)
    ks = k(x, x_star)
    mean = ks.T @ k_inv @ y
    variance = 1.0 - np.einsum("ij,ij->j", ks, k_inv @ ks)
    _, logdet = np.linalg.slogdet(kxx)
    nll = 0.5 * y @ k_inv @ y + 0.5 * logdet + 0.5 * n * np.log(2 * np.pi)
    return mean, variance, float(nll)


def stationary_nll(name, x, y, theta, sigma2):
    return stationary_gp(name, x, y, theta, sigma2, x[:1])[2]


# Frozen Student-t quantiles (two-sided), cross-checked against published
# distribution tables to 4+ significant digits.
STUDENT_T_TABLE = {
    # (upper tail probability complement, degrees of freedom): quantile
    (0.975, 100): 1.9839715184496334,
    (0.975, 10): 2.2281388519649385,
    (0.95, 5): 2.0150483733330233,
    (0.995, 29): 2.756385903670335,
}


def scalar_kernel_deriv(name, d):
    """Closed-form dk/dd, defined as 0 at d == 0 like the package's."""
    d = np.asarray(d, dtype=float)
    if name == "squared_exp":
        out = -d * np.exp(-0.5 * d**2)
    elif name == "abs_exp":
        out = -np.exp(-d)
    elif name == "matern32":
        out = -3.0 * d * np.exp(-SQRT3 * d)
    elif name == "matern52":
        out = -5.0 * d * (1 + SQRT5 * d) * np.exp(-SQRT5 * d) / 3.0
    elif name == "rational_quadratic":
        out = -0.5 * (1 + d / 4.0) ** -3
    else:
        raise KeyError(name)
    return np.where(d == 0.0, 0.0, out)


def masked_divide_hyper_grad(names, x, y, theta, sigma2):
    """dNLL/dtheta and dNLL/dsigma2 the direct way, for per-point fields.

    dNLL/dK = 0.5 (K^-1 - alpha alpha^T) from an explicit inverse, then the
    distance chain rule with the derivative divided by the distance and
    masked to 0 where the distance is 0.
    """
    n, n_v = x.shape
    k = np.diag(np.asarray(sigma2, dtype=float))
    parts = []
    for ki, name in enumerate(names):
        z = x * theta[:, ki * n_v : (ki + 1) * n_v]
        d = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(-1))
        k = k + scalar_kernel(name, d)
        parts.append((z, d, scalar_kernel_deriv(name, d)))
    k_inv = np.linalg.inv(k)
    alpha = k_inv @ y
    g = 0.5 * (k_inv - np.outer(alpha, alpha))
    grad = np.empty_like(theta)
    for ki, (z, d, slope) in enumerate(parts):
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(d > 0.0, 2.0 * g * slope / d, 0.0)
        grad[:, ki * n_v : (ki + 1) * n_v] = x * (
            z * w.sum(axis=1)[:, None] - w @ z
        )
    return grad, np.diag(g).copy()


def full_square_hyper_grad(kset, x, y, theta, sigma2, jitter_ladder):
    """The training step's NLL and gradient on the full square, in one piece.

    The length-scale gradient as the training step computed it before its
    diagonal blocks moved to condensed pairs: every kernel on cdist(z, z),
    values summed into K in kernel order, W = k'(d)/d * G on the whole
    square, and its row sums and W @ z.  Kernel values and slopes come from
    the package's kernel_value_slope, and the linear algebra from scipy's
    cholesky (with the same jitter ladder), solve_triangular, dpotri and
    dger, so a single-block step must match it bit for bit.

    Returns (value, theta gradient, sigma2 gradient, jitter used).
    """
    from dgcn.kernels import kernel_value_slope

    n, n_v = x.shape
    warped, slopes = [], []
    k = np.empty((n, n))
    for i, kern in enumerate(kset.kernels):
        z = x * theta[:, i * n_v : (i + 1) * n_v]
        value, slope_over_d = kernel_value_slope(kern, cdist(z, z))
        if i:
            k += value
        else:
            k[...] = value
        warped.append(z)
        slopes.append(slope_over_d)
    k[np.diag_indices_from(k)] += sigma2
    for jitter in jitter_ladder:
        shifted = k.copy()
        shifted[np.diag_indices_from(shifted)] += jitter
        try:
            lower = cholesky(shifted, lower=True, check_finite=False)
        except LinAlgError:
            continue
        break
    else:
        raise LinAlgError("not positive definite at the top of the ladder")
    alpha = solve_triangular(
        lower, solve_triangular(lower, y, lower=True), lower=True, trans="T")
    logdet = float(2.0 * np.sum(np.log(np.diag(lower))))
    value = float(0.5 * y @ alpha + 0.5 * logdet
                  + 0.5 * n * math.log(2.0 * math.pi))
    inv, _ = dpotri(lower, lower=1)
    inv = np.add(inv, inv.T, order="F")
    inv[np.diag_indices_from(inv)] *= 0.5
    g = dger(-1.0, alpha, alpha, a=inv, overwrite_a=True).T
    grad = np.empty_like(theta)
    for i, (z, w) in enumerate(zip(warped, slopes)):
        w *= g
        grad[:, i * n_v : (i + 1) * n_v] = x * (
            z * w.sum(axis=1)[:, None] - w @ z)
    return value, grad, 0.5 * np.diag(g), float(jitter)


def stationary_fit(data, config):
    """The stationary control model trained by hand; returns (theta, sigma2).

    One length-scale block and one noise variance are shared by every
    point.  Each batch of trainer.make_batches gets gp.nll_hyper_grad's
    gradient for that constant field, and one Adam step each for theta
    and raw applies the chain rule directly: the length-scale gradient
    summed over the rows, and sigma2 = softplus(raw) + floor giving
    sum(dNLL/dsigma2) * sigmoid(raw).  The field starts at theta_output_bias and sigma2_init.
    A config with zero-width hidden layers and no regularizers must train
    the same field through the hypernetworks.
    """
    from dgcn import gp, trainer
    from dgcn.mlp import OptimizerState, softplus_inv

    rng = np.random.default_rng(config.seed)
    scaler = trainer.Scaler.fit(data.x, data.y, config.standardize_y)
    x = scaler.transform_x(data.x)
    y = scaler.transform_y(data.y)
    n, n_v = x.shape
    theta = np.full(n_v * config.kernels.n_k, config.theta_output_bias)
    raw = np.array([softplus_inv(config.sigma2_init - config.sigma2_floor)])
    opt_theta = OptimizerState(theta, config.optimizer)
    opt_raw = OptimizerState(raw, config.optimizer)

    def sigma2():
        return float(np.logaddexp(0.0, raw[0]) + config.sigma2_floor)

    for _ in range(config.max_epochs):
        for idx in trainer.make_batches(n, config.batch_size, n_v, rng):
            hyper = gp.HyperField(np.tile(theta, (len(idx), 1)),
                                  np.full(len(idx), sigma2()))
            grads = gp.nll_hyper_grad(gp.GpBatch(x[idx], y[idx], hyper),
                                      config.kernels)
            grad_raw = np.array([grads.sigma2.sum() * expit(raw[0])])
            opt_theta.step(theta, grads.theta.sum(axis=0))
            opt_raw.step(raw, grad_raw)
    return theta, sigma2()


def _queries(model, x_star):
    """Standardized queries and their inference-mode hyperparameters."""
    from dgcn import trainer

    xs = model.scaler.transform_x(np.asarray(x_star, dtype=np.float64))
    return xs, trainer.hyper_for(model.theta_net, model.sigma_net, xs,
                                 model.config.sigma2_floor)


def _one_system(model, sel, xs, theta_star, noise, alpha_level, interval):
    """The Prediction of one GP system, in standardized units.

    K + diag(sigma2) of the stored points ``sel`` and their covariances with
    the queries come from kernels.cov_matrix, never from the product's
    builders; the system is factored by linalg.cholesky_jittered and
    alpha taken by solve_spd.  The mean and variance are computed here,
    in the (m, n_q) layout of the cross-covariances, not by gp.predict:
    the mean first, as k_star.T @ alpha, then the forward solve by scipy's
    solve_triangular, which leaves k_star intact.  gp.predictive gives the
    Prediction (``noise`` is added to the variances unless None).
    """
    from dgcn import gp, linalg
    from dgcn.kernels import cov_matrix

    kset = model.kernel_set
    x, theta = model.x[sel], model.hyper.theta[sel]
    with np.errstate(over="ignore"):  # an overflowed query warps to inf
        k = cov_matrix(kset, x, x, theta, theta)
        k_star = cov_matrix(kset, x, xs, theta, theta_star)
    k[np.diag_indices_from(k)] = kset.n_k + model.hyper.sigma2[sel]
    factor = linalg.cholesky_jittered(k)
    alpha = linalg.solve_spd(factor, model.y[sel])
    mean = k_star.T @ alpha
    half = solve_triangular(factor.lower, k_star, lower=True,
                            check_finite=False)
    variance = float(kset.n_k) - np.einsum("ij,ij->j", half, half)
    return gp.predictive(mean, variance, noise, factor.n, alpha_level,
                         interval, [factor.jitter_used])


def full_prediction(model, x_star, alpha_level=0.05, include_noise=False,
                    interval="t"):
    """Unbatched prediction: one GP system over the whole stored training set.

    The query is standardized and its hyperparameters drawn as in
    prediction, the system is built and solved by _one_system, and the
    result is taken back to the response's units by hand.  It is the
    reference that neighbour-batched prediction at k >= N must equal bit
    for bit.
    """
    from dataclasses import replace

    xs, hyper_star = _queries(model, x_star)
    pred = _one_system(model, slice(None), xs, hyper_star.theta,
                       hyper_star.sigma2 if include_noise else None,
                       alpha_level, interval)
    mean, std = model.scaler.y_mean, model.scaler.y_std
    return replace(pred, mean=pred.mean * std + mean,
                   variance=pred.variance * std**2,
                   ci_low=pred.ci_low * std + mean,
                   ci_high=pred.ci_high * std + mean, whole_groups=1)


def neighbour_prediction(model, x_star, k, alpha_level=0.05,
                         include_noise=False, interval="t"):
    """Neighbour-batched prediction at k < N, one GP system per set.

    Each query's k nearest stored points are ranked by (distance, index)
    over cdist of the standardized inputs and put in ascending index
    order, as predict_batched orders them.  Queries with the same set
    share one _one_system over those stored points; the diagnostics are
    summed (maximum for jitter_max) over the sets, each set counts as a
    built group, and the result is taken back to the response's units by
    hand.  It is the reference that
    neighbour-batched prediction at k < N must equal bit for bit.
    """
    from dgcn import gp

    xs, hyper_star = _queries(model, x_star)
    nearest = np.argsort(cdist(xs, model.x), axis=1, kind="stable")[:, :k]
    groups = {}
    for i, row in enumerate(np.sort(nearest, axis=1)):
        groups.setdefault(tuple(row), []).append(i)
    out = np.empty((4, xs.shape[0]))
    clamped = jitter_events = 0
    jitter_max = 0.0
    for sel, ids in groups.items():
        sel, ids = list(sel), np.array(ids)
        pred = _one_system(model, sel, xs[ids], hyper_star.theta[ids],
                           hyper_star.sigma2[ids] if include_noise else None,
                           alpha_level, interval)
        out[:, ids] = pred.mean, pred.variance, pred.ci_low, pred.ci_high
        clamped += pred.clamped
        jitter_events += pred.jitter_events
        jitter_max = max(jitter_max, pred.jitter_max)
    mean, std = model.scaler.y_mean, model.scaler.y_std
    return gp.Prediction(out[0] * std + mean, out[1] * std**2,
                         out[2] * std + mean, out[3] * std + mean,
                         alpha_level, clamped=clamped,
                         jitter_events=jitter_events, jitter_max=jitter_max,
                         built_groups=len(groups))


GROUP_COUNTS = ("whole_groups", "cached_groups", "built_groups")


def assert_same_prediction(got, want):
    """Every field of ``got`` equals ``want``'s bit for bit, except the
    group counts, whose totals must be equal: the same systems are solved
    whether a group's factor comes from a cache or a new build."""
    for f in dataclasses.fields(want):
        if f.name not in GROUP_COUNTS:
            np.testing.assert_array_equal(getattr(got, f.name),
                                          getattr(want, f.name),
                                          err_msg=f.name)
    assert (sum(getattr(got, name) for name in GROUP_COUNTS)
            == sum(getattr(want, name) for name in GROUP_COUNTS))


def param_arrays(p):
    """[W_0..W_L, b_0..b_L] of an MlpParams or MlpGrads, shared, not copied."""
    return list(p.weights) + list(p.biases)


def loss_sq(net, x, y):
    """One-half squared error of an inference-mode forward pass."""
    pred = net.forward(x)
    y = np.asarray(y, dtype=np.float64).reshape(pred.shape)
    return float(0.5 * np.sum((pred - y) ** 2))
