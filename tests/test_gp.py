import zlib

import numpy as np
import pytest

from dgcn import gp, trainer
from dgcn.errors import DimensionMismatch, InvalidAlpha, StaleMask
from dgcn.kernels import ALL_KERNELS, KernelId, KernelSet
from dgcn.mlp import Mlp, OptimizerConfig, OptimizerState, RegularizerSpec

from oracles import STUDENT_T_TABLE, masked_divide_hyper_grad, stationary_gp

NO_REG = RegularizerSpec(0.0, 0.0)


def constant_field(theta_vec, sigma2, n):
    theta_vec = np.asarray(theta_vec, dtype=float)
    return gp.HyperField(np.tile(theta_vec, (n, 1)), np.full(n, float(sigma2)))


def make_nets(rng, n_v, n_k, hidden=(7, 6, 5)):
    theta_net = Mlp(trainer._build_specs(n_v, hidden, n_v * n_k, "linear"),
                    regularizer=NO_REG, rng=rng, output_bias=1.0)
    sigma_net = Mlp(trainer._build_specs(n_v, hidden, 1, "softplus"),
                    regularizer=NO_REG, rng=rng, output_bias=-4.6)
    return theta_net, sigma_net


def net_nll(theta_net, sigma_net, x, y, kset, floor=1e-6):
    theta = theta_net.forward(x, training=True)
    sigma2 = sigma_net.forward(x, training=True)[:, 0] + floor
    return gp.nll(gp.GpBatch(x, y, gp.HyperField(theta, sigma2)), kset)


class TestNll:
    def test_single_point_zero_response(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        batch = gp.GpBatch(np.zeros((1, 1)), np.zeros(1),
                           constant_field([1.0], 1e-6, 1))
        assert gp.nll(batch, kset) == pytest.approx(0.9189385, abs=1e-4)

    def test_single_point_response_two(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        batch = gp.GpBatch(np.zeros((1, 1)), np.full(1, 2.0),
                           constant_field([1.0], 1e-6, 1))
        assert gp.nll(batch, kset) == pytest.approx(2.9189385, abs=1e-4)

    def test_explicit_inverse_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        theta = rng.uniform(0.4, 1.8, 2)
        sigma2 = 0.05
        for kern in ALL_KERNELS:
            kset = KernelSet((kern,))
            batch = gp.GpBatch(x, y, constant_field(np.tile(theta, 1), sigma2, 8))
            want = stationary_gp(kern.value, x, y, theta, sigma2, x[:1])[2]
            assert gp.nll(batch, kset) == pytest.approx(want, abs=1e-8)


class TestNllHyperGrad:
    def test_zero_response_leaves_logdet_gradient(self):
        rng = np.random.default_rng(13)
        kset = KernelSet()
        x = rng.standard_normal((6, 2))
        y = np.zeros(6)
        hyper = gp.HyperField(rng.uniform(0.5, 1.5, (6, 10)),
                              rng.uniform(0.01, 0.1, 6))
        res = gp.nll_hyper_grad(gp.GpBatch(x, y, hyper), kset)
        # With y = 0 the quadratic term is identically zero, so the value
        # and the gradient are those of the log-determinant term alone.
        assert res.value == pytest.approx(
            gp.nll(gp.GpBatch(x, y, hyper), kset), abs=1e-12
        )
        for i in range(hyper.theta.shape[1]):
            h = 1e-6
            up = hyper.theta.copy()
            up[:, i] += h
            down = hyper.theta.copy()
            down[:, i] -= h
            fd = (
                gp.nll(gp.GpBatch(x, y, gp.HyperField(up, hyper.sigma2)), kset)
                - gp.nll(gp.GpBatch(x, y, gp.HyperField(down, hyper.sigma2)), kset)
            ) / (2 * h)
            got = res.theta[:, i].sum()
            assert got == pytest.approx(fd, abs=1e-6)

    def test_sigma_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        kset = KernelSet()
        x = rng.standard_normal((7, 2))
        y = rng.standard_normal(7)
        hyper = gp.HyperField(rng.uniform(0.5, 1.5, (7, 10)),
                              rng.uniform(0.05, 0.2, 7))
        res = gp.nll_hyper_grad(gp.GpBatch(x, y, hyper), kset)
        for i in range(7):
            h = 1e-7
            up = hyper.sigma2.copy()
            up[i] += h
            down = hyper.sigma2.copy()
            down[i] -= h
            fd = (
                gp.nll(gp.GpBatch(x, y, gp.HyperField(hyper.theta, up)), kset)
                - gp.nll(gp.GpBatch(x, y, gp.HyperField(hyper.theta, down)), kset)
            ) / (2 * h)
            assert res.sigma2[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_constant_networks_match_stationary_gradient(self):
        # Zero hidden weights make the length-scale output exactly the
        # final bias; its gradient must match the classic stationary-GP
        # likelihood gradient evaluated by finite differences on the
        # textbook oracle.
        rng = np.random.default_rng(15)
        kern = KernelId.SQUARED_EXP
        kset = KernelSet((kern,))
        n, n_v = 9, 2
        x = rng.standard_normal((n, n_v))
        y = rng.standard_normal(n)
        theta0 = np.array([0.9, 1.3])
        sigma2 = 0.1
        theta_net, sigma_net = make_nets(rng, n_v, 1)
        theta_net.params.weights[-1][:] = 0.0
        theta_net.params.biases[-1][:] = theta0
        theta = theta_net.forward(x, training=True)
        sigma_net.forward(x, training=True)
        np.testing.assert_array_equal(theta, np.tile(theta0, (n, 1)))
        batch = gp.GpBatch(x, y, gp.HyperField(theta, np.full(n, sigma2)))
        res = gp.nll_grad(batch, kset, theta_net, sigma_net)
        bias_grad = res.theta_net.biases[-1]
        h = 1e-6
        from oracles import stationary_nll

        for v in range(n_v):
            up = theta0.copy()
            up[v] += h
            down = theta0.copy()
            down[v] -= h
            fd = (stationary_nll(kern.value, x, y, up, sigma2)
                  - stationary_nll(kern.value, x, y, down, sigma2)) / (2 * h)
            assert bias_grad[v] == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("kernels", [(k,) for k in ALL_KERNELS] + [ALL_KERNELS])
    def test_network_gradients_match_finite_differences(self, kernels):
        # A stable per-combination seed: hash() of the enum tuple is salted
        # per process, so it drew different data on every run.
        rng = np.random.default_rng(
            zlib.crc32(",".join(k.value for k in kernels).encode()))
        kset = KernelSet(kernels)
        n, n_v = 10, 2
        x = rng.standard_normal((n, n_v))
        y = rng.standard_normal(n)
        theta_net, sigma_net = make_nets(rng, n_v, kset.n_k, hidden=(5, 4))
        theta = theta_net.forward(x, training=True)
        sigma2 = sigma_net.forward(x, training=True)[:, 0] + 1e-6
        batch = gp.GpBatch(x, y, gp.HyperField(theta, sigma2))
        res = gp.nll_grad(batch, kset, theta_net, sigma_net)
        for net, grads in ((theta_net, res.theta_net), (sigma_net, res.sigma_net)):
            for arr, g in zip(net.params.arrays(), grads.arrays()):
                flat = arr.ravel()
                gflat = np.asarray(g).ravel()
                for i in range(flat.size):
                    h = 1e-5 * max(1.0, abs(flat[i]))
                    orig = flat[i]
                    flat[i] = orig + h
                    up = net_nll(theta_net, sigma_net, x, y, kset)
                    flat[i] = orig - h
                    down = net_nll(theta_net, sigma_net, x, y, kset)
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    if abs(fd) > 1e-8:
                        assert abs(gflat[i] - fd) / abs(fd) < 1e-4

    @pytest.mark.parametrize("kernels", [(k,) for k in ALL_KERNELS] + [ALL_KERNELS])
    def test_duplicated_rows_near_singular(self, kernels):
        # Repeated inputs carry repeated hyperparameters, as a hypernetwork
        # gives them, so several off-diagonal distances are exactly 0, and
        # with sigma2 = 1e-6 the covariance is close to singular.
        rng = np.random.default_rng(21)
        kset = KernelSet(kernels)
        n0, n_v = 8, 2
        x0 = rng.uniform(-1.0, 1.0, (n0, n_v))
        theta0 = rng.uniform(0.5, 1.5, (n0, n_v * kset.n_k))
        rows = np.r_[np.arange(n0), [1, 4, 4, 6]]
        x = x0[rows]
        y = np.sin(2.0 * x0[:, 0] + x0[:, 1])[rows]
        sigma2 = np.full(rows.size, 1e-6)
        res = gp.nll_hyper_grad(
            gp.GpBatch(x, y, gp.HyperField(theta0[rows], sigma2)), kset)

        want_theta, want_sigma2 = masked_divide_hyper_grad(
            kset.names(), x, y, theta0[rows], sigma2)
        assert np.all(np.isfinite(res.theta))
        assert (np.abs(res.theta - want_theta).max()
                < 1e-8 * np.abs(want_theta).max())
        assert (np.abs(res.sigma2 - want_sigma2).max()
                < 1e-8 * np.abs(want_sigma2).max())

        # Finite differences move each distinct point's scales together
        # with its copies', so zero distances stay zero; apart, they would
        # cross the kink of abs_exp and rational_quadratic at 0.
        tied = np.zeros_like(theta0)
        np.add.at(tied, rows, res.theta)

        def nll_at(theta):
            return gp.nll(gp.GpBatch(x, y, gp.HyperField(theta[rows], sigma2)),
                          kset)

        h = 1e-5
        fd = np.empty_like(theta0)
        for p in range(n0):
            for c in range(theta0.shape[1]):
                up, down = theta0.copy(), theta0.copy()
                up[p, c] += h
                down[p, c] -= h
                fd[p, c] = (nll_at(up) - nll_at(down)) / (2 * h)
        assert np.abs(tied - fd).max() < 1e-3 * np.abs(tied).max()

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(16)
        kset = KernelSet((KernelId.SQUARED_EXP,))
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal(5)
        theta_net, sigma_net = make_nets(rng, 2, 1)
        other = rng.standard_normal((5, 2))
        theta = theta_net.forward(other, training=True)
        sigma2 = sigma_net.forward(other, training=True)[:, 0] + 1e-6
        batch = gp.GpBatch(x, y, gp.HyperField(theta, sigma2))
        with pytest.raises(StaleMask):
            gp.nll_grad(batch, kset, theta_net, sigma_net)


class TestPredict:
    def test_hand_evaluated_single_point(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        train = gp.GpBatch(np.zeros((1, 1)), np.full(1, 2.0),
                           constant_field([1.0], 1e-9, 1))
        pred = gp.predict(train, np.array([[1.0]]), constant_field([1.0], 1e-9, 1),
                          kset, interval="z")
        assert pred.mean[0] == pytest.approx(2 * np.exp(-0.5), abs=1e-6)
        assert pred.variance[0] == pytest.approx(1 - np.exp(-1.0), abs=1e-6)

    def test_interpolates_training_point_without_noise(self):
        rng = np.random.default_rng(17)
        kset = KernelSet()
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        hyper = constant_field(np.ones(10), 1e-9, 10)
        pred = gp.predict(gp.GpBatch(x, y, hyper), x[3:4], hyper.take([3]), kset)
        assert pred.mean[0] == pytest.approx(y[3], abs=1e-5)
        assert pred.variance[0] < 1e-5

    def test_far_point_reverts_to_prior(self):
        kset = KernelSet()
        x = np.zeros((4, 1))
        x[:, 0] = [0.0, 0.1, 0.2, 0.3]
        y = np.array([1.0, 2.0, 1.5, 0.5])
        hyper = constant_field(np.ones(5 * 1), 1e-4, 4)
        far = np.array([[1e6]])
        pred = gp.predict(gp.GpBatch(x, y, hyper), far,
                          gp.HyperField(np.ones((1, 5)), np.array([1e-4])), kset)
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-8)
        assert pred.variance[0] == pytest.approx(5.0, abs=1e-8)

    def test_include_noise_adds_predicted_variance(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        train = gp.GpBatch(np.zeros((2, 1)), np.zeros(2),
                           constant_field([1.0], 0.3, 2))
        xs = np.array([[0.5]])
        hs = constant_field([1.0], 0.3, 1)
        without = gp.predict(train, xs, hs, kset, include_noise=False)
        with_noise = gp.predict(train, xs, hs, kset, include_noise=True)
        assert with_noise.variance[0] == pytest.approx(
            without.variance[0] + 0.3, abs=1e-12
        )

    def test_variance_bounds(self):
        rng = np.random.default_rng(18)
        kset = KernelSet()
        x = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        hyper = gp.HyperField(rng.uniform(-1.5, 1.5, (15, 15)),
                              rng.uniform(1e-4, 0.5, 15))
        xs = rng.standard_normal((30, 3))
        hs = gp.HyperField(rng.uniform(-1.5, 1.5, (30, 15)),
                           rng.uniform(1e-4, 0.5, 30))
        pred = gp.predict(gp.GpBatch(x, y, hyper), xs, hs, kset)
        assert np.all(pred.variance >= 0.0)
        assert np.all(pred.variance <= kset.n_k + 1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        kset = KernelSet()
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        hyper = gp.HyperField(rng.uniform(0.5, 1.5, (12, 10)),
                              rng.uniform(0.01, 0.2, 12))
        xs = rng.standard_normal((4, 2))
        hs = gp.HyperField(rng.uniform(0.5, 1.5, (4, 10)),
                           rng.uniform(0.01, 0.2, 4))
        base = gp.predict(gp.GpBatch(x, y, hyper), xs, hs, kset)
        perm = rng.permutation(12)
        shuffled = gp.predict(
            gp.GpBatch(x[perm], y[perm], hyper.take(perm)), xs, hs, kset
        )
        np.testing.assert_allclose(shuffled.mean, base.mean, atol=1e-12)
        np.testing.assert_allclose(shuffled.variance, base.variance, atol=1e-12)

    def test_dimension_checks(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        train = gp.GpBatch(np.zeros((2, 2)), np.zeros(2),
                           constant_field([1.0, 1.0], 0.1, 2))
        with pytest.raises(DimensionMismatch):
            gp.predict(train, np.zeros((1, 3)), constant_field([1.0, 1.0], 0.1, 1),
                       kset)


class TestConfidenceInterval:
    def test_zero_variance_degenerates(self):
        low, high = gp.confidence_interval(np.array([2.0]), np.array([0.0]),
                                           50, 0.05)
        assert low[0] == high[0] == 2.0

    def test_frozen_quantile_oracle(self):
        low, high = gp.confidence_interval(np.array([0.0]), np.array([1.0]),
                                           101, 0.05)
        want = STUDENT_T_TABLE[(0.975, 100)] / np.sqrt(101)
        assert high[0] == pytest.approx(want, abs=1e-6)
        assert low[0] == pytest.approx(-want, abs=1e-6)

    def test_width_shrinks_with_more_points(self):
        widths = []
        for n in (2, 5, 20, 100, 1000):
            low, high = gp.confidence_interval(np.array([0.0]), np.array([1.0]),
                                               n, 0.05)
            widths.append(high[0] - low[0])
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_alpha_validation(self):
        with pytest.raises(InvalidAlpha):
            gp.confidence_interval(np.zeros(1), np.ones(1), 10, 0.0)
        with pytest.raises(InvalidAlpha):
            gp.confidence_interval(np.zeros(1), np.ones(1), 10, 1.5)

    def test_normal_interval_narrower_at_larger_alpha(self):
        lo1, hi1 = gp.normal_interval(np.zeros(1), np.ones(1), 0.05)
        lo2, hi2 = gp.normal_interval(np.zeros(1), np.ones(1), 0.5)
        assert (hi2 - lo2)[0] < (hi1 - lo1)[0]


class TestTrainingSanity:
    def test_one_adam_step_decreases_nll(self):
        kset = KernelSet()
        wins = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            n, n_v = 8, 2
            x = rng.standard_normal((n, n_v))
            y = rng.standard_normal(n)
            theta_net, sigma_net = make_nets(rng, n_v, kset.n_k, hidden=(6, 5))
            theta = theta_net.forward(x, training=True)
            sigma2 = sigma_net.forward(x, training=True)[:, 0] + 1e-6
            batch = gp.GpBatch(x, y, gp.HyperField(theta, sigma2))
            res = gp.nll_grad(batch, kset, theta_net, sigma_net)
            cfg = OptimizerConfig("adam", learning_rate=1e-3)
            OptimizerState(theta_net.params.arrays(), cfg).step(
                theta_net.params.arrays(), res.theta_net.arrays())
            OptimizerState(sigma_net.params.arrays(), cfg).step(
                sigma_net.params.arrays(), res.sigma_net.arrays())
            if net_nll(theta_net, sigma_net, x, y, kset) < res.value:
                wins += 1
        assert wins >= 95
