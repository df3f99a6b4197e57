import numpy as np
import pytest

from dgcn import linalg
from dgcn.errors import DimensionMismatch, NotPositiveDefinite


def random_spd(rng, n, cond_boost=0.0):
    b = rng.standard_normal((n, n))
    return b @ b.T + (1.0 + cond_boost) * np.eye(n)


class TestCholeskyJittered:
    def test_hand_2x2(self):
        f = linalg.cholesky_jittered(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_allclose(f.lower, expected, atol=1e-15)
        assert f.jitter_used == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_identity(self, n):
        f = linalg.cholesky_jittered(np.eye(n))
        np.testing.assert_array_equal(f.lower, np.eye(n))
        assert f.jitter_used == 0.0

    def test_singular_succeeds_with_jitter(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        f = linalg.cholesky_jittered(a)
        assert f.jitter_used > 0.0
        recon = f.lower @ f.lower.T
        # Only the diagonal may deviate, and exactly by the jitter used.
        off = recon - a
        np.testing.assert_allclose(np.diag(off), f.jitter_used, rtol=1e-6)
        off[np.diag_indices(2)] = 0.0
        assert np.abs(off).max() < 1e-12

    def test_jitter_leaves_input_untouched(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        f = linalg.cholesky_jittered(a)
        np.testing.assert_array_equal(a, np.ones((2, 2)))
        want = linalg.cholesky_jittered(a + f.jitter_used * np.eye(2), (0.0,))
        np.testing.assert_array_equal(f.lower, want.lower)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # scipy's own finiteness check is off; the max-abs scan must catch
        # NaN too, on or off the diagonal.
        for where in ((0, 0), (0, 1)):
            a = np.eye(3)
            a[where] = a[where[::-1]] = bad
            with pytest.raises(NotPositiveDefinite):
                linalg.cholesky_jittered(a)

    def test_hopeless_matrix_raises(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky_jittered(np.array([[1.0, 0.0], [0.0, -5.0]]))

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            linalg.cholesky_jittered(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            linalg.cholesky_jittered(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            a = random_spd(rng, n)
            f = linalg.cholesky_jittered(a)
            err = np.abs(f.lower @ f.lower.T - (a + f.jitter_used * np.eye(n)))
            assert err.max() < 1e-9 * np.abs(a).max()


class TestSolveSpd:
    def test_identity_factor(self):
        rng = np.random.default_rng(1)
        f = linalg.cholesky_jittered(np.eye(4))
        b = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(linalg.solve_spd(f, b), b)

    def test_hand_2x2(self):
        f = linalg.cholesky_jittered(np.array([[4.0, 2.0], [2.0, 3.0]]))
        x = linalg.solve_spd(f, np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(x, [[0.375], [-0.25]], atol=1e-14)

    def test_residual_random_6x6(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 6)
        b = rng.standard_normal(6)
        x = linalg.solve_spd(linalg.cholesky_jittered(a), b)
        assert np.abs(a @ x - b).max() < 1e-10

    def test_dimension_mismatch(self):
        f = linalg.cholesky_jittered(np.eye(3))
        with pytest.raises(DimensionMismatch):
            linalg.solve_spd(f, np.ones(4))

    def test_roundtrip_moderate_conditioning(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            a = random_spd(rng, n)
            # Push the condition number up but keep it below ~1e8.
            a[0, 0] += 1e6
            b = rng.standard_normal((n, 2))
            x = linalg.solve_spd(linalg.cholesky_jittered(a), b)
            rel = np.abs(a @ x - b).max() / max(np.abs(b).max(), 1.0)
            assert rel < 1e-9


class TestLogdet:
    def test_identity_is_zero(self):
        assert linalg.logdet(linalg.cholesky_jittered(np.eye(7))) == 0.0

    def test_hand_2x2(self):
        f = linalg.cholesky_jittered(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert linalg.logdet(f) == pytest.approx(np.log(8.0), abs=1e-12)

    def test_eigenvalue_oracle_5x5(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 5)
        got = linalg.logdet(linalg.cholesky_jittered(a))
        want = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        assert got == pytest.approx(want, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 8)
        base = linalg.logdet(linalg.cholesky_jittered(a))
        for _ in range(10):
            p = rng.permutation(8)
            permuted = a[np.ix_(p, p)]
            assert linalg.logdet(linalg.cholesky_jittered(permuted)) == pytest.approx(
                base, abs=1e-9
            )


class TestInverseSpd:
    def test_matches_identity_product(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 9)
        inv = linalg.inverse_spd(linalg.cholesky_jittered(a))
        np.testing.assert_allclose(inv @ a, np.eye(9), atol=1e-10)
        np.testing.assert_array_equal(inv, inv.T)
