import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcn import linalg
from dgcn.errors import DimensionMismatch
from scipy.spatial.distance import cdist, squareform

from dgcn.kernels import (
    ALL_KERNELS,
    KernelId,
    KernelSet,
    cov_matrix,
    kernel_deriv,
    kernel_value,
    kernel_value_slope,
    one_set_cov,
    theta_block,
)

from oracles import scalar_kernel_deriv, warped_cov


def distance_grid():
    """Distances with exact zeros, tiny and large values, as a 2-D array."""
    rng = np.random.default_rng(5)
    d = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6, 0.5, 1.0, 40.0],
                        rng.uniform(0.0, 6.0, 993)])
    d[rng.integers(0, d.size, 50)] = 0.0
    return d.reshape(40, 25)


class TestScalePoints:
    """The warp z = x * theta that cov_matrix applies before distances."""

    def test_unit_scaling(self):
        np.testing.assert_array_equal(
            np.array([[1.0, 2.0]]) * np.array([[1.0, 1.0]]), [[1.0, 2.0]]
        )

    def test_elementwise_product(self):
        np.testing.assert_array_equal(
            np.array([[1.0, 2.0]]) * np.array([[2.0, 1.0]]), [[2.0, 2.0]]
        )

    def test_zero_scales_collapse_everything(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        z = x * np.zeros_like(x)
        np.testing.assert_array_equal(z, np.zeros_like(x))
        kset = KernelSet((KernelId.MATERN32,))
        theta = np.zeros_like(x)
        np.testing.assert_array_equal(cov_matrix(kset, x, x, theta, theta), 1.0)

    def test_covariance_is_taken_on_warped_points(self):
        rng = np.random.default_rng(1)
        kset = KernelSet((KernelId.MATERN52,))
        x = rng.standard_normal((6, 3))
        theta = rng.uniform(-2.0, 2.0, (6, 3))
        ones = np.ones_like(x)
        np.testing.assert_array_equal(
            cov_matrix(kset, x, x, theta, theta),
            cov_matrix(kset, x * theta, x * theta, ones, ones),
        )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cov_matrix(KernelSet((KernelId.SQUARED_EXP,)), np.ones((2, 3)),
                       np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2)))


class TestKernelValue:
    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_unit_correlation_at_zero(self, kern):
        assert kernel_value(kern, 0.0) == 1.0

    def test_closed_forms_at_one(self):
        assert kernel_value(KernelId.SQUARED_EXP, 1.0) == pytest.approx(
            np.exp(-0.5), abs=1e-12
        )
        assert kernel_value(KernelId.ABS_EXP, 1.0) == pytest.approx(
            np.exp(-1.0), abs=1e-12
        )
        assert kernel_value(KernelId.RATIONAL_QUADRATIC, 1.0) == pytest.approx(
            0.64, abs=1e-12
        )
        # Frozen from an independent scalar evaluation of the closed forms.
        assert kernel_value(KernelId.MATERN32, 1.0) == pytest.approx(
            0.4833577245965077, abs=1e-12
        )
        assert kernel_value(KernelId.MATERN52, 1.0) == pytest.approx(
            0.5239941088318203, abs=1e-12
        )

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_monotone_decay(self, kern):
        d = np.linspace(1e-6, 10.0, 2000)
        v = kernel_value(kern, d)
        assert np.all(np.diff(v) < 0.0)
        assert np.all(v > 0.0) and np.all(v <= 1.0)

    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_in_unit_interval(self, d):
        for kern in ALL_KERNELS:
            v = kernel_value(kern, d)
            assert 0.0 < v <= 1.0


class TestKernelDeriv:
    def test_squared_exp_at_one(self):
        assert kernel_deriv(KernelId.SQUARED_EXP, 1.0) == pytest.approx(
            -np.exp(-0.5), abs=1e-12
        )

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_zero_at_origin_by_convention(self, kern):
        assert kernel_deriv(kern, 0.0) == 0.0

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_matches_finite_differences(self, kern):
        rng = np.random.default_rng(11)
        d = rng.uniform(0.01, 5.0, size=50)
        h = 1e-7
        fd = (kernel_value(kern, d + h) - kernel_value(kern, d - h)) / (2 * h)
        got = kernel_deriv(kern, d)
        rel = np.abs(got - fd) / np.maximum(np.abs(fd), 1e-12)
        assert rel.max() < 1e-6


class TestKernelValueSlope:
    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_value_is_kernel_value_bit_for_bit(self, kern):
        d = distance_grid()
        value, _ = kernel_value_slope(kern, d)
        np.testing.assert_array_equal(value, kernel_value(kern, d))

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_slope_over_distance_times_distance_is_the_derivative(self, kern):
        d = distance_grid()
        _, slope_over_d = kernel_value_slope(kern, d)
        got = slope_over_d * d
        for want in (kernel_deriv(kern, d), scalar_kernel_deriv(kern.value, d)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_slope_over_distance_is_zero_exactly_at_zero(self, kern):
        d = distance_grid()
        _, slope_over_d = kernel_value_slope(kern, d)
        assert np.all(slope_over_d[d == 0.0] == 0.0)
        assert np.all(np.isfinite(slope_over_d)) and np.all(slope_over_d <= 0.0)

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_input_is_not_modified(self, kern):
        d = distance_grid()
        before = d.copy()
        kernel_value_slope(kern, d)
        kernel_value(kern, d)
        np.testing.assert_array_equal(d, before)


def previous_matern(kern, d):
    """The Matérn forms as they were before distances were clipped, with
    kernel_value_slope's exact 0 slope at d == 0."""
    with np.errstate(all="ignore"):
        if kern is KernelId.MATERN32:
            e = np.exp(d * -np.sqrt(3.0))
            value, slope_over_d = (d * np.sqrt(3.0) + 1.0) * e, e * -3.0
        else:
            e = np.exp(d * -np.sqrt(5.0))
            p = d * np.sqrt(5.0) + 1.0
            value = (d * (5.0 / 3.0) * d + p) * e
            slope_over_d = p * e * (-5.0 / 3.0)
    slope_over_d[d == 0.0] = 0.0
    return value, slope_over_d


class TestOverflowedDistance:
    FAR = np.array([np.inf, np.finfo(float).max, 1e308, 1e200])

    @pytest.mark.parametrize("kern", ALL_KERNELS)
    def test_limits_are_zero_not_nan(self, kern):
        with np.errstate(over="ignore"):
            value, slope_over_d = kernel_value_slope(kern, self.FAR)
            scalar = kernel_value(kern, np.inf)
        assert np.all(value == 0.0) and np.all(slope_over_d == 0.0)
        assert scalar == 0.0

    @given(st.lists(st.one_of(st.floats(0.0, np.finfo(float).max),
                              st.just(np.inf)), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matern_forms_unchanged_where_they_were_finite(self, ds):
        d = np.array(ds + [0.0, 1e-300, 0.5, 3.0, 333.0, 431.0, 1e3, 2e3])
        for kern in (KernelId.MATERN32, KernelId.MATERN52):
            old_value, old_slope = previous_matern(kern, d)
            value, slope_over_d = kernel_value_slope(kern, d)
            np.testing.assert_array_equal(kernel_value(kern, d), value)
            for old, new in ((old_value, value), (old_slope, slope_over_d)):
                finite = np.isfinite(old)
                # Bit for bit, the sign of zero included.
                np.testing.assert_array_equal(old[finite].view(np.uint64),
                                              new[finite].view(np.uint64))
                assert np.all(new[~finite] == 0.0)

    def test_far_points_have_zero_covariance(self):
        kset = KernelSet()
        x = np.array([[0.0, 1.0], [1e308, 1.0], [0.5, -1e308]])
        with np.errstate(over="ignore"):
            theta = np.ones((3, 2 * kset.n_k))
            k = cov_matrix(kset, x, x, theta, theta)
        np.testing.assert_array_equal(k, np.diag([5.0, 5.0, 5.0]))


class TestCovMatrix:
    def test_single_point_diagonal_is_nk(self):
        kset = KernelSet()
        x = np.array([[0.3, -1.2]])
        theta = np.random.default_rng(0).standard_normal((1, 2 * kset.n_k))
        k = cov_matrix(kset, x, x, theta, theta)
        assert k.shape == (1, 1)
        assert k[0, 0] == float(kset.n_k)

    def test_one_dimensional_unit_distance(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        k = cov_matrix(kset, [[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert k[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-14)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        kset = KernelSet()
        x = rng.standard_normal((4, 3))
        theta = np.tile(rng.uniform(0.5, 1.5, 3 * kset.n_k), (4, 1))
        got = cov_matrix(kset, x, x, theta, theta)
        want = warped_cov(kset.names(), x, x, theta, theta)
        assert np.abs(got - want).max() < 1e-12

    def test_varying_field_brute_force_oracle(self):
        rng = np.random.default_rng(43)
        kset = KernelSet()
        xa = rng.standard_normal((5, 2))
        xb = rng.standard_normal((3, 2))
        ta = rng.uniform(-1.5, 1.5, (5, 2 * kset.n_k))
        tb = rng.uniform(-1.5, 1.5, (3, 2 * kset.n_k))
        got = cov_matrix(kset, xa, xb, ta, tb)
        want = warped_cov(kset.names(), xa, xb, ta, tb)
        assert np.abs(got - want).max() < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        kset = KernelSet()
        x = rng.standard_normal((15, 3))
        theta = rng.standard_normal((15, 3 * kset.n_k))
        k = cov_matrix(kset, x, x, theta, theta)
        assert np.abs(k - k.T).max() < 1e-12

    def test_diagonal_exactly_nk_for_any_field(self):
        rng = np.random.default_rng(2)
        kset = KernelSet()
        x = rng.standard_normal((12, 4))
        theta = 10.0 * rng.standard_normal((12, 4 * kset.n_k))
        k = cov_matrix(kset, x, x, theta, theta)
        np.testing.assert_array_equal(np.diag(k), float(kset.n_k))

    def test_positive_semidefinite_over_random_fields(self):
        rng = np.random.default_rng(3)
        kset = KernelSet()
        for _ in range(500):
            n = int(rng.integers(2, 21))
            n_v = int(rng.integers(1, 4))
            x = rng.standard_normal((n, n_v))
            theta = rng.uniform(-2.0, 2.0, (n, n_v * kset.n_k))
            k = cov_matrix(kset, x, x, theta, theta)
            f = linalg.cholesky_jittered(k + 1e-8 * np.eye(n))
            assert f.jitter_used == 0.0

    def test_diagonal_invariant_under_row_sign_flips(self):
        rng = np.random.default_rng(4)
        kset = KernelSet()
        x = rng.standard_normal((8, 2))
        theta = rng.uniform(0.5, 1.5, (8, 2 * kset.n_k))
        flip = rng.choice([-1.0, 1.0], size=(8, 1))
        base = cov_matrix(kset, x, x, theta, theta)
        flipped = cov_matrix(kset, x, x, theta * flip, theta * flip)
        np.testing.assert_array_equal(np.diag(base), np.diag(flipped))

    def test_dimension_checks(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        with pytest.raises(DimensionMismatch):
            cov_matrix(kset, np.ones((2, 2)), np.ones((2, 3)),
                       np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            cov_matrix(kset, np.ones((2, 2)), np.ones((2, 2)),
                       np.ones((2, 3)), np.ones((2, 2)))


    def test_one_set_form_checks_shapes(self):
        kset = KernelSet((KernelId.SQUARED_EXP,))
        with pytest.raises(DimensionMismatch):
            cov_matrix(kset, np.ones(3), np.ones(3), np.ones(3), np.ones(3))
        with pytest.raises(TypeError):  # the one-set form (kset, x, theta)
            cov_matrix(kset, np.ones((2, 2)), np.ones((2, 2)))


@st.composite
def symmetric_cases(draw):
    """A kernel set and a point set of 0 to 30 rows with its field; some rows
    may be duplicated."""
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
    return kset, x, theta


class TestSymmetricCovMatrix:
    @given(symmetric_cases())
    @settings(max_examples=200, deadline=None)
    def test_one_set_equals_two_set_bit_for_bit(self, case):
        kset, x, theta = case
        n_v = x.shape[1]
        got = one_set_cov(
            kset, [x * theta_block(theta, n_v, i) for i in range(kset.n_k)])[0]
        np.testing.assert_array_equal(got, cov_matrix(kset, x, x, theta, theta))
        np.testing.assert_array_equal(np.diag(got), float(kset.n_k))

    @given(symmetric_cases())
    @settings(max_examples=200, deadline=None)
    def test_shared_helper_equals_two_set_forms(self, case):
        # one_set_cov serves prediction and the training step's diagonal
        # blocks: its K and the squares of its condensed slopes must be the
        # full-square ones.
        kset, x, theta = case
        n_v = x.shape[1]
        warped = [x * theta_block(theta, n_v, i) for i in range(kset.n_k)]
        k, slopes = one_set_cov(kset, warped, slopes=True)
        want = cov_matrix(kset, x, x, theta, theta)
        np.testing.assert_array_equal(k.view(np.uint64), want.view(np.uint64))
        assert len(slopes) == kset.n_k
        for kern, z, pairs in zip(kset.kernels, warped, slopes):
            # squareform reads no pairs as one point: trim to n for n = 0.
            got = squareform(pairs, checks=False)[: len(x), : len(x)]
            full = kernel_value_slope(kern, cdist(z, z))[1]
            np.testing.assert_array_equal(got.view(np.uint64),
                                          full.view(np.uint64))
            assert np.all(np.diag(got) == 0.0)
        value_only, none = one_set_cov(kset, warped)
        np.testing.assert_array_equal(value_only, k)
        assert none == []


class TestKernelSet:
    def test_default_order_and_size(self):
        kset = KernelSet()
        assert kset.n_k == 5
        assert kset.names() == [
            "squared_exp", "abs_exp", "matern32", "matern52",
            "rational_quadratic",
        ]

    def test_roundtrip_from_names(self):
        kset = KernelSet.from_names(["matern52", "abs_exp"])
        assert kset.kernels == (KernelId.MATERN52, KernelId.ABS_EXP)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KernelSet(())
