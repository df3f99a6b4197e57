"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, explicit way (dense
inverses, double loops) and never imports the package's own linear-algebra
or covariance code paths, so it can serve as an oracle for them.
"""

import numpy as np

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
