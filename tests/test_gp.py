import functools
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist, squareform
from scipy.stats import norm
from scipy.stats import t as student_t

from dgcn import gp, linalg, trainer
from dgcn.errors import (
    DimensionMismatch,
    InvalidAlpha,
    InvalidSetting,
    NotPositiveDefinite,
    StaleMask,
)
from dgcn.kernels import (
    ALL_KERNELS,
    KernelId,
    KernelSet,
    cov_matrix,
    kernel_value_slope,
)
from dgcn.mlp import Mlp, OptimizerConfig, OptimizerState, RegularizerSpec

from oracles import (
    STUDENT_T_TABLE,
    full_square_hyper_grad,
    masked_divide_hyper_grad,
    param_arrays,
    stationary_gp,
)

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


def nll(batch, kset):
    return gp.nll_hyper_grad(batch, kset).value


def net_nll(theta_net, sigma_net, x, y, kset, floor=1e-6):
    theta = theta_net.forward(x, training=True)
    sigma2 = sigma_net.forward(x, training=True)[:, 0] + floor
    return nll(gp.GpBatch(x, y, gp.HyperField(theta, sigma2)), kset)


class TestNll:
    def test_single_point_zero_response(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        batch = gp.GpBatch(np.zeros((1, 1)), np.zeros(1),
                           constant_field([1.0], 1e-6, 1))
        assert nll(batch, kset) == pytest.approx(0.9189385, abs=1e-4)

    def test_single_point_response_two(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        batch = gp.GpBatch(np.zeros((1, 1)), np.full(1, 2.0),
                           constant_field([1.0], 1e-6, 1))
        assert nll(batch, kset) == pytest.approx(2.9189385, abs=1e-4)

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
            assert nll(batch, kset) == pytest.approx(want, abs=1e-8)


    @pytest.mark.parametrize("n", [1, 17, 200, 400])
    def test_value_is_the_direct_formula_bit_for_bit(self, n):
        # nll_hyper_grad's value must equal the NLL of the directly built
        # covariance, its factor and alpha, also when the step assembles K
        # in two row blocks (n = 400).
        kset = KernelSet()
        batch = duplicated_batch(np.random.default_rng(n), n, 3, kset, 1e-2)
        k = cov_matrix(kset, batch.x, batch.x, batch.hyper.theta,
                       batch.hyper.theta)
        k[np.diag_indices_from(k)] += batch.hyper.sigma2
        factor = linalg.cholesky_jittered(k)
        alpha = linalg.solve_spd(factor, batch.y)
        want = float(0.5 * batch.y @ alpha + 0.5 * linalg.logdet(factor)
                     + 0.5 * n * gp.LOG_2PI)
        assert len(linalg.row_blocks(n, gp._BLOCK_ENTRIES)) == 1 + (n == 400)
        assert nll(batch, kset) == want


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
            nll(gp.GpBatch(x, y, hyper), kset), abs=1e-12
        )
        for i in range(hyper.theta.shape[1]):
            h = 1e-6
            up = hyper.theta.copy()
            up[:, i] += h
            down = hyper.theta.copy()
            down[:, i] -= h
            fd = (
                nll(gp.GpBatch(x, y, gp.HyperField(up, hyper.sigma2)), kset)
                - nll(gp.GpBatch(x, y, gp.HyperField(down, hyper.sigma2)), kset)
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
                nll(gp.GpBatch(x, y, gp.HyperField(hyper.theta, up)), kset)
                - nll(gp.GpBatch(x, y, gp.HyperField(hyper.theta, down)), kset)
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
            for arr, g in zip(param_arrays(net.params), param_arrays(grads)):
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
            return nll(gp.GpBatch(x, y, gp.HyperField(theta[rows], sigma2)),
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


def one_block(batch, kset, monkeypatch):
    """nll_hyper_grad with every row in a single block."""
    with monkeypatch.context() as m:
        m.setattr(gp, "_BLOCK_ENTRIES", batch.n * batch.n)
        assert len(linalg.row_blocks(batch.n, gp._BLOCK_ENTRIES)) == 1
        return gp.nll_hyper_grad(batch, kset)


def duplicated_batch(rng, n, n_v, kset, sigma2):
    """n points whose copies of a row share its inputs and length-scales.

    Copies sit at positions spread over the whole batch, so with small row
    blocks they fall on both sides of block boundaries.
    """
    n0 = max(1, (2 * n) // 3)
    rows = np.r_[np.arange(n0), rng.integers(0, n0, n - n0)]
    rows = rows[rng.permutation(n)]
    x0 = rng.uniform(-1.0, 1.0, (n0, n_v))
    theta0 = rng.uniform(0.5, 1.5, (n0, n_v * kset.n_k))
    y = np.sin(2.0 * x0[:, 0] + x0[:, -1])[rows]
    return gp.GpBatch(x0[rows], y, gp.HyperField(theta0[rows],
                                                 np.full(n, sigma2)))


class TestBlockedHyperGrad:
    """nll_hyper_grad over the lower triangle in row blocks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("rows", [1, 2, 5, 16])
    @pytest.mark.parametrize("kernels", [(k,) for k in ALL_KERNELS] + [ALL_KERNELS])
    def test_blocks_match_one_block(self, n, rows, kernels, monkeypatch):
        kset = KernelSet(kernels)
        rng = np.random.default_rng([n, rows, kset.n_k])
        batch = duplicated_batch(rng, n, 2, kset, sigma2=1e-3)
        want = one_block(batch, kset, monkeypatch)
        monkeypatch.setattr(gp, "_BLOCK_ENTRIES", rows * n)
        blocks = linalg.row_blocks(n, gp._BLOCK_ENTRIES)
        assert len(blocks) == -(-n // rows)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        got = gp.nll_hyper_grad(batch, kset)
        assert got.value == want.value
        np.testing.assert_array_equal(got.sigma2, want.sigma2)
        assert got.jitter_used == want.jitter_used
        scale = np.abs(want.theta).max()
        assert np.abs(got.theta - want.theta).max() <= 1e-12 * scale
        if n > 1:
            oracle, oracle_sigma2 = masked_divide_hyper_grad(
                kset.names(), batch.x, batch.y, batch.hyper.theta,
                batch.hyper.sigma2)
            # n = 2 holds one point twice: every distance is 0, so is theta.
            assert (np.abs(got.theta - oracle).max()
                    <= 1e-8 * np.abs(oracle).max())
            assert (np.abs(got.sigma2 - oracle_sigma2).max()
                    <= 1e-8 * np.abs(oracle_sigma2).max())

    @pytest.mark.parametrize("n", [1, 2, 17, 200])
    def test_one_block_is_the_full_square_sum(self, n):
        # Minibatch steps fit in one block; their gradient must be the
        # full-square sum bit for bit, or training trajectories drift.
        kset = KernelSet()
        assert len(linalg.row_blocks(n, gp._BLOCK_ENTRIES)) == 1
        batch = duplicated_batch(np.random.default_rng(n), n, 3, kset, 1e-2)
        got = gp.nll_hyper_grad(batch, kset)
        want = reference(batch, kset)[1]
        np.testing.assert_array_equal(got.theta.view(np.uint64),
                                      want.view(np.uint64))

    @pytest.mark.parametrize("n, rows", [(1, 1), (17, 1), (17, 5), (64, 7),
                                         (64, 64)])
    def test_covariance_is_cov_matrix_plus_noise(self, n, rows, monkeypatch):
        # The factored matrix equals cov_matrix plus the noise diagonal bit
        # for bit, mirrored halves and duplicated rows included.
        kset = KernelSet()
        batch = duplicated_batch(np.random.default_rng(n), n, 3, kset, 1e-2)
        seen = []
        factor = linalg.cholesky_in_place
        monkeypatch.setattr(linalg, "cholesky_in_place",
                            lambda a, regather: seen.append(a.copy())
                            or factor(a, regather))
        monkeypatch.setattr(gp, "_BLOCK_ENTRIES", rows * n)
        gp.nll_hyper_grad(batch, kset)
        want = cov_matrix(kset, batch.x, batch.x, batch.hyper.theta,
                          batch.hyper.theta)
        want[np.diag_indices_from(want)] += batch.hyper.sigma2
        np.testing.assert_array_equal(seen[0], want)


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def reference(batch, kset):
    return full_square_hyper_grad(kset, batch.x, batch.y, batch.hyper.theta,
                                  batch.hyper.sigma2,
                                  linalg.DEFAULT_JITTER_LADDER)


@st.composite
def one_block_cases(draw):
    """A kernel set and a duplicated-row batch that fits in one row block."""
    kset = KernelSet(draw(st.sampled_from(
        [(k,) for k in ALL_KERNELS] + [ALL_KERNELS])))
    n = draw(st.sampled_from([1, 2, 3, 17, 64, 200]))
    n_v = draw(st.integers(1, 4))
    # 1e-20 vanishes next to the diagonal n_k: copies make K singular, and
    # the factorization climbs the jitter ladder.
    sigma2 = draw(st.sampled_from([1e-20, 1e-6, 1e-3, 1e-1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return kset, duplicated_batch(rng, n, n_v, kset, sigma2)


class TestCondensedDiagonalBlocks:
    """Diagonal blocks on condensed pairs against the full-square step."""

    @given(one_block_cases())
    @settings(max_examples=80, deadline=None)
    def test_one_block_equals_full_square_reference(self, case):
        kset, batch = case
        assert len(linalg.row_blocks(batch.n, gp._BLOCK_ENTRIES)) == 1
        got = gp.nll_hyper_grad(batch, kset)
        value, theta, sigma2, jitter = reference(batch, kset)
        assert_bits_equal(got.value, value)
        assert_bits_equal(got.theta, theta)
        assert_bits_equal(got.sigma2, sigma2)
        assert got.jitter_used == jitter

    @pytest.mark.parametrize("rows", [None, 20])
    @pytest.mark.parametrize("shared", [False, True])
    def test_each_rung_rebuilds_values_only(self, rows, shared, monkeypatch):
        # A stiff batch climbs the ladder: K is built once with its slopes
        # and once more, values only, per rung past 0, in one block or in
        # four.  The rebuilds leave the slopes intact, so the result is the
        # full-square reference's (its theta up to block-order sums).
        kset = KernelSet()
        n = 64
        batch = duplicated_batch(np.random.default_rng(5), n, 2, kset, 1e-20)
        if rows:
            monkeypatch.setattr(gp, "_BLOCK_ENTRIES", rows * n)
        assert len(linalg.row_blocks(n, gp._BLOCK_ENTRIES)) == (4 if rows else 1)
        calls = []
        build = gp._blocked_cov
        monkeypatch.setattr(gp, "_blocked_cov", lambda *args: calls.append(
            args[4]) or build(*args))
        got = gp.nll_hyper_grad(batch, kset,
                                workspace=linalg.Workspace() if shared else None)
        value, theta, sigma2, jitter = reference(batch, kset)
        rung = linalg.DEFAULT_JITTER_LADDER.index(got.jitter_used)
        assert got.jitter_used == jitter and rung > 0
        assert calls == [True] + [False] * rung
        assert_bits_equal(got.value, value)
        assert_bits_equal(got.sigma2, sigma2)
        if rows:
            assert np.abs(got.theta - theta).max() <= 1e-12 * np.abs(theta).max()
        else:
            assert_bits_equal(got.theta, theta)

    def test_reference_sees_jitter(self):
        # Duplicated rows whose noise vanishes next to n_k need the ladder.
        kset = KernelSet()
        batch = duplicated_batch(np.random.default_rng(5), 64, 2, kset, 1e-20)
        got = gp.nll_hyper_grad(batch, kset)
        assert got.jitter_used > 0.0
        assert got.jitter_used == reference(batch, kset)[3]

    @pytest.mark.parametrize("rows", [2, 3, 5])
    @pytest.mark.parametrize("kernels", [(k,) for k in ALL_KERNELS] + [ALL_KERNELS])
    def test_duplicates_inside_and_across_diagonal_blocks(self, rows, kernels,
                                                           monkeypatch):
        kset = KernelSet(kernels)
        rng = np.random.default_rng([rows, kset.n_k])
        n, n_v = 23, 2
        x0 = rng.uniform(-1.0, 1.0, (n, n_v))
        theta0 = rng.uniform(0.5, 1.5, (n, n_v * kset.n_k))
        idx = np.arange(n)
        idx[1] = 0  # rows 0 and 1 share a diagonal block
        idx[rows + 1] = rows  # so do rows and rows + 1, one block further
        idx[n - 1] = 2  # and row n - 1 copies a row several blocks back
        batch = gp.GpBatch(x0[idx], np.sin(3.0 * x0[idx, 0]),
                           gp.HyperField(theta0[idx], np.full(n, 1e-4)))
        want = one_block(batch, kset, monkeypatch)
        value, theta, sigma2, jitter = reference(batch, kset)
        assert_bits_equal(want.value, value)
        assert_bits_equal(want.theta, theta)
        monkeypatch.setattr(gp, "_BLOCK_ENTRIES", rows * n)
        blocks = linalg.row_blocks(n, gp._BLOCK_ENTRIES)
        block_of = np.searchsorted([r1 for _, r1 in blocks], np.arange(n),
                                   side="right")
        assert block_of[0] == block_of[1] and block_of[rows] == block_of[rows + 1]
        assert block_of[rows] > block_of[0] and block_of[n - 1] > block_of[2] + 1
        got = gp.nll_hyper_grad(batch, kset)
        assert_bits_equal(got.value, want.value)
        assert_bits_equal(got.sigma2, want.sigma2)
        assert got.jitter_used == want.jitter_used
        assert (np.abs(got.theta - want.theta).max()
                <= 1e-12 * np.abs(want.theta).max())
        oracle, _ = masked_divide_hyper_grad(kset.names(), batch.x, batch.y,
                                             batch.hyper.theta, batch.hyper.sigma2)
        assert np.abs(got.theta - oracle).max() <= 1e-8 * np.abs(oracle).max()


@st.composite
def symmetric_cases(draw):
    """A kernel set, a point set of 0 to 30 rows with its field (some rows
    may be duplicated), noise variances, and row blocks: one, or several."""
    names = [k.value for k in ALL_KERNELS]
    kernels = draw(st.one_of(
        st.sampled_from([[name] for name in names]),
        st.just(names),
    ))
    kset = KernelSet.from_names(kernels)
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 30)))
    n_v = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, n_v))
    theta = rng.uniform(-3.0, 3.0, (n, n_v * kset.n_k))
    if n > 2 and draw(st.booleans()):
        src = rng.integers(0, n, n // 3 + 1)
        dst = rng.integers(0, n, src.size)
        x[dst], theta[dst] = x[src], theta[src]  # exact zero distances
    sigma2 = rng.uniform(1e-6, 1e-1, n)
    rows = draw(st.one_of(st.just(max(n, 1)), st.integers(1, max(n, 1))))
    return kset, x, theta, sigma2, linalg.row_blocks(n, rows * n)


def noisy_cov_matrix(kset, x, theta, sigma2):
    want = cov_matrix(kset, x, x, theta, theta)
    want[np.diag_indices_from(want)] += sigma2
    return want


class TestBlockedCovariance:
    """gp._blocked_cov, which builds the training step's K and every stored
    set's of _SQUARE_BELOW points or more, against the two-set forms."""

    @given(symmetric_cases())
    @settings(max_examples=200, deadline=None)
    def test_blocked_equals_two_set_bit_for_bit(self, case):
        kset, x, theta, sigma2, blocks = case
        warped = gp.warped_rows(x, theta, kset.n_k)
        got = gp._blocked_cov(kset, warped, sigma2, blocks, False, None)[0]
        assert_bits_equal(got, noisy_cov_matrix(kset, x, theta, sigma2))
        assert_bits_equal(np.diag(got), float(kset.n_k) + sigma2)

    @given(symmetric_cases())
    @settings(max_examples=200, deadline=None)
    def test_block_slopes_equal_two_set_forms(self, case):
        # Pass 2 of the training step reads each block's condensed slopes
        # as squares and its left part's slopes as they are: both must be
        # the full-square ones, every block's still intact once all are
        # built into one workspace.
        kset, x, theta, sigma2, blocks = case
        warped = gp.warped_rows(x, theta, kset.n_k)
        k, per_block = gp._blocked_cov(kset, warped, sigma2, blocks, True,
                                       linalg.Workspace())
        assert_bits_equal(k, noisy_cov_matrix(kset, x, theta, sigma2))
        assert len(per_block) == len(blocks)
        for (r0, r1), (pair_slopes, left_slopes) in zip(blocks, per_block):
            assert len(pair_slopes) == kset.n_k
            assert len(left_slopes) == (kset.n_k if r0 else 0)
            for kern, z, pairs in zip(kset.kernels, warped, pair_slopes):
                got = squareform(pairs, checks=False)
                full = kernel_value_slope(kern, cdist(z[r0:r1], z[r0:r1]))[1]
                assert_bits_equal(got, full)
                assert np.all(np.diag(got) == 0.0)
            for kern, z, left in zip(kset.kernels, warped, left_slopes):
                full = kernel_value_slope(kern, cdist(z[r0:r1], z[:r0]))[1]
                assert_bits_equal(left, full)
        value_only, none = gp._blocked_cov(kset, warped, sigma2, blocks,
                                           False, None)
        assert_bits_equal(value_only, k)
        assert none == [([], [])] * len(blocks)


def workspace_batch(kind, seed, kset, n_v):
    """A batch of n = kind points, or of a named kind (workspace_sequences)."""
    rng = np.random.default_rng(seed)
    if kind == "jitter":
        return duplicated_batch(rng, 64, n_v, kset, 1e-20)
    if kind == "not_pd":  # a NaN input makes K non-finite
        batch = duplicated_batch(rng, 30, n_v, kset, 1e-3)
        batch.x[3, 0] = np.nan
        return batch
    return duplicated_batch(rng, kind, n_v, kset, 1e-3)


@st.composite
def workspace_sequences(draw):
    """A kernel set, n_v and the batches one workspace sees, in order.

    Each sequence holds, in a drawn order: a full batch of 200, a merged
    tail of 207 and 200 again; a multi-block batch; n = 1; n = 2; the
    duplicated-row batch that climbs the jitter ladder; and a batch that
    raises NotPositiveDefinite followed by a normal one.
    """
    kset = KernelSet(draw(st.sampled_from([(KernelId.MATERN52,), ALL_KERNELS])))
    n_v = draw(st.integers(1, 4))
    parts = draw(st.permutations([
        [200, 207, 200], [draw(st.sampled_from([363, 400]))], [1], [2],
        ["jitter"], ["not_pd", 17]]))
    kinds = [kind for part in parts for kind in part]
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(kinds),
                          max_size=len(kinds)))
    return kset, n_v, list(zip(kinds, seeds))


def traced_peak(fn) -> int:
    """tracemalloc peak of fn() above what was traced before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWorkspace:
    """nll_hyper_grad calls sharing one workspace, as a fit's steps do."""

    @given(workspace_sequences())
    @settings(max_examples=12, deadline=None)
    def test_shared_workspace_equals_fresh_calls(self, case):
        kset, n_v, steps = case
        assert len(linalg.row_blocks(363, gp._BLOCK_ENTRIES)) == 2
        ws = linalg.Workspace()
        results = []
        for kind, seed in steps:
            batch = workspace_batch(kind, seed, kset, n_v)
            if kind == "not_pd":
                with pytest.raises(NotPositiveDefinite):
                    gp.nll_hyper_grad(batch, kset, workspace=ws)
                continue
            results.append((kind, batch,
                            gp.nll_hyper_grad(batch, kset, workspace=ws)))
        # Compared only after the whole sequence: a result that lived in
        # the workspace would have been overwritten by the later calls.
        for kind, batch, got in results:
            want = gp.nll_hyper_grad(batch, kset)
            assert_bits_equal(got.value, want.value)
            assert_bits_equal(got.theta, want.theta)
            assert_bits_equal(got.sigma2, want.sigma2)
            assert_bits_equal(got.jitter_used, want.jitter_used)
            if kind == "jitter":
                assert got.jitter_used > 0.0

    def test_warm_call_peaks_below_three_squares(self):
        # A warm one-block call allocates K, one slope square at a time and
        # the condensed temporaries: 2.71 n^2 floats at n = 200.
        kset = KernelSet()
        n = 200
        batch = duplicated_batch(np.random.default_rng(0), n, 8, kset, 1e-3)
        ws = linalg.Workspace()
        gp.nll_hyper_grad(batch, kset, workspace=ws)
        warm = traced_peak(lambda: gp.nll_hyper_grad(batch, kset, workspace=ws))
        assert warm <= 2.9 * 8 * n**2

    def test_cold_call_factors_and_inverts_in_place(self):
        # Three row blocks, no workspace: K, about n^2 / 2 slopes per kernel
        # and block-sized temporaries, no factor or inverse beside K
        # (4.26 n^2 floats at n = 600; 5.59 when the step copied K twice).
        kset = KernelSet()
        n = 600
        batch = duplicated_batch(np.random.default_rng(0), n, 8, kset, 1e-3)
        assert len(linalg.row_blocks(n, gp._BLOCK_ENTRIES)) == 3
        assert traced_peak(lambda: gp.nll_hyper_grad(batch, kset)) <= 4.5 * 8 * n**2


class TestHyperFieldChecks:
    @pytest.mark.parametrize("theta, sigma2", [
        ([[np.nan, 1.0]], [0.1]), ([[np.inf, 1.0]], [0.1]),
        ([[1.0, 1.0]], [0.0]), ([[1.0, 1.0]], [-1e-3]), ([[1.0, 1.0]], [np.nan]),
    ])
    def test_constructor_still_checks(self, theta, sigma2):
        with pytest.raises(ValueError):
            gp.HyperField(np.array(theta), np.array(sigma2))

    def test_constructor_still_checks_shapes(self):
        with pytest.raises(DimensionMismatch):
            gp.HyperField(np.ones((3, 2)), np.ones(2))
        with pytest.raises(DimensionMismatch):
            gp.HyperField(np.ones(3), np.ones(3))


def predict_one_system(train, x_star, hyper_star, kset, alpha_level=0.05,
                       include_noise=False, interval="t"):
    """One GP system over all of ``train`` at x_star, composed from the
    parts predict_batched runs: warped_rows, solve_built over train_cov,
    cross_cov, gp.predict and gp.predictive."""
    warped = gp.warped_rows(train.x, train.hyper.theta, kset.n_k)
    star = gp.warped_rows(np.asarray(x_star, dtype=np.float64),
                          hyper_star.theta, kset.n_k)
    factor, alpha = gp.solve_built(
        functools.partial(gp.train_cov, kset, warped, train.hyper.sigma2),
        train.y)
    mean, variance = gp.predict(factor, alpha,
                                gp.cross_cov(kset, warped, star), kset.n_k)
    return gp.predictive(mean, variance,
                         hyper_star.sigma2 if include_noise else None,
                         factor.n, alpha_level, interval,
                         [factor.jitter_used])


class TestPredict:
    def test_hand_evaluated_single_point(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        train = gp.GpBatch(np.zeros((1, 1)), np.full(1, 2.0),
                           constant_field([1.0], 1e-9, 1))
        pred = predict_one_system(train, np.array([[1.0]]),
                                  constant_field([1.0], 1e-9, 1), kset,
                                  interval="z")
        assert pred.mean[0] == pytest.approx(2 * np.exp(-0.5), abs=1e-6)
        assert pred.variance[0] == pytest.approx(1 - np.exp(-1.0), abs=1e-6)

    def test_interpolates_training_point_without_noise(self):
        rng = np.random.default_rng(17)
        kset = KernelSet()
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        hyper = constant_field(np.ones(10), 1e-9, 10)
        pred = predict_one_system(
            gp.GpBatch(x, y, hyper), x[3:4],
            gp.HyperField(hyper.theta[3:4], hyper.sigma2[3:4]), kset)
        assert pred.mean[0] == pytest.approx(y[3], abs=1e-5)
        assert pred.variance[0] < 1e-5

    def test_far_point_reverts_to_prior(self):
        kset = KernelSet()
        x = np.zeros((4, 1))
        x[:, 0] = [0.0, 0.1, 0.2, 0.3]
        y = np.array([1.0, 2.0, 1.5, 0.5])
        hyper = constant_field(np.ones(5 * 1), 1e-4, 4)
        far = np.array([[1e6]])
        pred = predict_one_system(
            gp.GpBatch(x, y, hyper), far,
            gp.HyperField(np.ones((1, 5)), np.array([1e-4])), kset)
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-8)
        assert pred.variance[0] == pytest.approx(5.0, abs=1e-8)

    def test_include_noise_adds_predicted_variance(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        train = gp.GpBatch(np.zeros((2, 1)), np.zeros(2),
                           constant_field([1.0], 0.3, 2))
        xs = np.array([[0.5]])
        hs = constant_field([1.0], 0.3, 1)
        without = predict_one_system(train, xs, hs, kset, include_noise=False)
        with_noise = predict_one_system(train, xs, hs, kset, include_noise=True)
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
        pred = predict_one_system(gp.GpBatch(x, y, hyper), xs, hs, kset)
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
        base = predict_one_system(gp.GpBatch(x, y, hyper), xs, hs, kset)
        perm = rng.permutation(12)
        shuffled = predict_one_system(
            gp.GpBatch(x[perm], y[perm],
                       gp.HyperField(hyper.theta[perm], hyper.sigma2[perm])),
            xs, hs, kset
        )
        np.testing.assert_allclose(shuffled.mean, base.mean, atol=1e-12)
        np.testing.assert_allclose(shuffled.variance, base.variance, atol=1e-12)

    @pytest.mark.parametrize("n_q", [1, 6])
    def test_solves_the_rows_in_place(self, n_q):
        # The mean comes from the rows before the forward solve overwrites
        # them; the variance from the solved rows, as solve_triangular's.
        rng = np.random.default_rng([20, n_q])
        kset = KernelSet()
        x = rng.standard_normal((9, 2))
        y = rng.standard_normal(9)
        hyper = gp.HyperField(rng.uniform(0.5, 1.5, (9, 10)),
                              rng.uniform(0.01, 0.2, 9))
        warped = gp.warped_rows(x, hyper.theta, kset.n_k)
        factor, alpha = gp.solve_built(
            functools.partial(gp.train_cov, kset, warped, hyper.sigma2), y)
        rows = gp.cross_cov(kset, warped, gp.warped_rows(
            rng.standard_normal((n_q, 2)), rng.uniform(0.5, 1.5, (n_q, 10)),
            kset.n_k))
        want_mean = rows @ alpha
        half = solve_triangular(factor.lower, rows.T, lower=True)
        mean, variance = gp.predict(factor, alpha, rows, kset.n_k)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(rows.T, half)
        np.testing.assert_array_equal(
            variance, kset.n_k - np.einsum("ij,ij->j", half, half))


class TestWarpedRows:
    def test_length_scales_must_match_the_points(self):
        with pytest.raises(DimensionMismatch):
            gp.warped_rows(np.zeros((1, 3)), np.ones((1, 2)), 1)
        with pytest.raises(DimensionMismatch):
            gp.warped_rows(np.zeros((2, 2)), np.ones((1, 2)), 1)


class TestJoinPredictions:
    def test_rows_concatenate_counts_sum_and_jitter_takes_the_max(self):
        parts = [gp.Prediction(np.array([float(i), i + 0.5]), np.full(2, i),
                               np.full(2, -i), np.full(2, 2 * i), 0.1,
                               clamped=i, jitter_events=i % 2,
                               jitter_max=[0.0, 1e-6, 1e-8][i],
                               whole_groups=i // 2, cached_groups=i,
                               built_groups=2 * i)
                 for i in range(3)]
        got = gp.join_predictions(parts, 0.1)
        for name in ("mean", "variance", "ci_low", "ci_high"):
            np.testing.assert_array_equal(
                getattr(got, name),
                np.concatenate([getattr(p, name) for p in parts]))
        assert (got.alpha_level, got.clamped, got.jitter_events,
                got.jitter_max) == (0.1, 3, 1, 1e-6)
        assert (got.whole_groups, got.cached_groups,
                got.built_groups) == (1, 3, 6)

    def test_no_parts_give_zero_rows(self):
        got = gp.join_predictions([], 0.05)
        fields = (got.mean, got.variance, got.ci_low, got.ci_high)
        assert all(a.shape == (0,) and a.dtype == np.float64 for a in fields)
        assert len({id(a) for a in fields}) == 4
        assert (got.alpha_level, got.clamped, got.jitter_events,
                got.jitter_max) == (0.05, 0, 0, 0.0)
        assert (got.whole_groups, got.cached_groups, got.built_groups) == (0, 0, 0)


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

    @pytest.mark.parametrize("n_train", [1, 0])
    def test_fewer_than_two_points_is_invalid_setting(self, n_train):
        with pytest.raises(InvalidSetting, match=r"^need at least 2 training "
                           rf"points for an interval, got {n_train}$") as info:
            gp.confidence_interval(np.zeros(1), np.ones(1), n_train, 0.05)
        assert isinstance(info.value, ValueError)

    def test_normal_interval_narrower_at_larger_alpha(self):
        lo1, hi1 = gp.normal_interval(np.zeros(1), np.ones(1), 0.05)
        lo2, hi2 = gp.normal_interval(np.zeros(1), np.ones(1), 0.5)
        assert (hi2 - lo2)[0] < (hi1 - lo1)[0]


    @pytest.mark.parametrize("alpha, n", [(0.05, 200), (0.05, 50), (0.2, 200),
                                          (np.float64(0.05), 200)])
    def test_cached_quantiles_equal_fresh_ppf(self, alpha, n):
        mean, variance = np.array([0.5, -1.0]), np.array([2.0, 0.3])
        t_half = (student_t.ppf(1.0 - alpha / 2.0, df=n - 1)
                  * np.sqrt(variance) / np.sqrt(n))
        z_half = norm.ppf(1.0 - alpha / 2.0) * np.sqrt(variance)
        for _ in range(2):  # the second call is answered from the cache
            low, high = gp.confidence_interval(mean, variance, n, alpha)
            np.testing.assert_array_equal(low, mean - t_half)
            np.testing.assert_array_equal(high, mean + t_half)
            low, high = gp.normal_interval(mean, variance, alpha)
            np.testing.assert_array_equal(low, mean - z_half)
            np.testing.assert_array_equal(high, mean + z_half)


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
            for net, grads in ((theta_net, res.theta_net),
                               (sigma_net, res.sigma_net)):
                for p, g in zip(param_arrays(net.params), param_arrays(grads)):
                    OptimizerState(p, cfg).step(p, g)
            if net_nll(theta_net, sigma_net, x, y, kset) < res.value:
                wins += 1
        assert wins >= 95
