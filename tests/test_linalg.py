import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri

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

    @pytest.mark.parametrize("copies", [0, 4])
    def test_input_in_either_order_is_left_intact(self, copies):
        # Every rung copies the matrix into a new Fortran-ordered factor
        # array, so the input is never written, whatever its memory order,
        # and both orders give the same factor.
        rng = np.random.default_rng([copies, len(linalg.DEFAULT_JITTER_LADDER)])
        n = 30
        b = rng.standard_normal((n - copies, n - copies))
        idx = np.r_[np.arange(n - copies), rng.integers(0, n - copies, copies)]
        factors = []
        for order in "CF":
            a = np.array((b @ b.T)[np.ix_(idx, idx)], order=order)
            before = a.copy()
            factors.append(linalg.cholesky_jittered(a))
            assert factors[-1].lower.flags.f_contiguous
            np.testing.assert_array_equal(bits(a), bits(before))
        c, f = factors
        assert c.jitter_used == f.jitter_used
        assert (c.jitter_used > 0.0) == (copies > 0)
        np.testing.assert_array_equal(bits(c.lower), bits(f.lower))

    def test_jitter_leaves_input_untouched(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        f = linalg.cholesky_jittered(a)
        np.testing.assert_array_equal(a, np.ones((2, 2)))
        want = linalg.cholesky_jittered(a + f.jitter_used * np.eye(2))
        assert want.jitter_used == 0.0
        np.testing.assert_array_equal(f.lower, want.lower)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # LAPACK gets no finiteness check of its own; the factor's diagonal
        # check must catch NaN too, on or off the diagonal.
        for where in ((0, 0), (0, 1)):
            a = np.eye(3)
            a[where] = a[where[::-1]] = bad
            with pytest.raises(NotPositiveDefinite):
                linalg.cholesky_jittered(a)

    def test_hopeless_matrix_raises(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky_jittered(np.array([[1.0, 0.0], [0.0, -5.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            linalg.cholesky_jittered(np.ones((2, 3)))

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            a = random_spd(rng, n)
            f = linalg.cholesky_jittered(a)
            err = np.abs(f.lower @ f.lower.T - (a + f.jitter_used * np.eye(n)))
            assert err.max() < 1e-9 * np.abs(a).max()


def exactly_symmetric(a):
    return np.tril(a) + np.tril(a, -1).T


def factor_read(entry, a):
    """Factor a with entry, keeping a; returns it and the square LAPACK
    reads the lower triangle of: a itself, or for cholesky_in_place a.T."""
    if entry == "jittered":
        return lambda: linalg.cholesky_jittered(a), a
    return lambda: linalg.cholesky_in_place(a.copy(), a.copy), a.T


class TestCholeskyChecks:
    """Both entry points check the factor, not the matrix: what LAPACK
    reads (the lower triangle) must be finite, the rest is never read."""

    @pytest.mark.parametrize("entry", ["jittered", "in_place"])
    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_anywhere(self, entry, mirrored, bad):
        n = 5
        for p in range(n):
            for q in range(p + 1):
                a = 2.0 * np.eye(n)
                factor, read = factor_read(entry, a)
                read[p, q] = bad
                if mirrored:
                    read[q, p] = bad
                with pytest.raises(NotPositiveDefinite):
                    factor()

    @pytest.mark.parametrize("entry", ["jittered", "in_place"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e-3])
    def test_an_entry_above_the_diagonal_is_not_read(self, entry, bad):
        n = 6
        base = random_spd(np.random.default_rng(11), n)
        for p in range(n):
            for q in range(p + 1, n):
                a = base.copy()
                factor, read = factor_read(entry, a)
                read[p, q] += bad
                got = factor()
                want = linalg.cholesky_jittered(exactly_symmetric(read))
                assert got.jitter_used == want.jitter_used == 0.0
                np.testing.assert_array_equal(bits(got.lower), bits(want.lower))


def scipy_ladder(a, ladder=linalg.DEFAULT_JITTER_LADDER):
    """scipy.linalg.cholesky climbing the jitter ladder, as the package did."""
    for jitter in ladder:
        shifted = a.copy()
        shifted[np.diag_indices_from(shifted)] += jitter
        try:
            return cholesky(shifted, lower=True, check_finite=False), jitter
        except LinAlgError:
            continue
    raise LinAlgError("ladder exhausted")


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestDirectLapack:
    """dpotrf and dtrtrs called directly equal scipy's wrappers bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 201])
    def test_factor_equals_scipy_cholesky(self, n):
        a = random_spd(np.random.default_rng(n), n)
        f = linalg.cholesky_jittered(a)
        want, jitter = scipy_ladder(a)
        assert f.jitter_used == jitter == 0.0
        np.testing.assert_array_equal(bits(f.lower), bits(want))
        assert f.lower.flags.f_contiguous

    @pytest.mark.parametrize("n, copies", [(3, 1), (9, 3), (60, 20)])
    @pytest.mark.parametrize("shift", [0.0, 5e-8, 5e-6, 5e-4])
    def test_factor_equals_scipy_cholesky_after_jitter_retries(self, n, copies,
                                                               shift):
        # Exact copies of rows and columns make a singular matrix, and a
        # negative diagonal shift sends the ladder further up.
        rng = np.random.default_rng(n)
        b = rng.standard_normal((n - copies, n - copies))
        idx = np.r_[np.arange(n - copies), rng.integers(0, n - copies, copies)]
        a = (b @ b.T)[np.ix_(idx, idx)] - shift * np.eye(n)
        before = a.copy()
        f = linalg.cholesky_jittered(a)
        want, jitter = scipy_ladder(a)
        assert f.jitter_used == jitter > shift
        np.testing.assert_array_equal(bits(f.lower), bits(want))
        assert f.lower.flags.f_contiguous
        np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("cols", [None, 1, 3, 40])
    def test_solves_equal_solve_triangular(self, n, cols):
        rng = np.random.default_rng([n, cols or 0])
        f = linalg.cholesky_jittered(random_spd(rng, n))
        b = rng.standard_normal(n if cols is None else (n, cols))
        before = b.copy()
        half = solve_triangular(f.lower, b, lower=True)
        full = solve_triangular(f.lower, half, lower=True, trans="T")
        # solve_lower may overwrite its b (a 1-D or one-column b is in
        # Fortran order), so it gets a copy; solve_spd leaves b intact.
        got_half = linalg.solve_lower(f, b.copy())
        got_full = linalg.solve_spd(f, b)
        assert got_half.shape == got_full.shape == b.shape
        np.testing.assert_array_equal(bits(got_half), bits(half))
        np.testing.assert_array_equal(bits(got_full), bits(full))
        np.testing.assert_array_equal(b, before)

    @pytest.mark.parametrize("n, cols", [(2, 3), (5, 3), (64, 40)])
    def test_solve_lower_overwrites_only_a_fortran_ordered_b(self, n, cols):
        rng = np.random.default_rng([n, cols, 1])
        f = linalg.cholesky_jittered(random_spd(rng, n))
        b = rng.standard_normal((n, cols))
        half = solve_triangular(f.lower, b, lower=True)
        in_c = b.copy()
        got = linalg.solve_lower(f, in_c)
        np.testing.assert_array_equal(bits(got), bits(half))
        assert not np.shares_memory(got, in_c)
        np.testing.assert_array_equal(in_c, b)
        in_f = np.asfortranarray(b)
        got = linalg.solve_lower(f, in_f)
        assert np.shares_memory(got, in_f)
        np.testing.assert_array_equal(bits(in_f), bits(half))

    def test_empty_right_hand_side(self):
        f = linalg.cholesky_jittered(2.0 * np.eye(3))
        assert linalg.solve_spd(f, np.empty((3, 0))).shape == (3, 0)
        assert linalg.solve_lower(f, np.empty((3, 0))).shape == (3, 0)

    def test_singular_factor_raises(self):
        f = linalg.CholeskyFactor(lower=np.asfortranarray(np.diag([1.0, 0.0])),
                                  jitter_used=0.0)
        with pytest.raises(NotPositiveDefinite):
            linalg.solve_spd(f, np.ones(2))


class TestCholeskyInPlace:
    """An exactly symmetric matrix factored in its own memory."""

    @pytest.mark.parametrize("n", [1, 2, 7, 201])
    def test_equals_cholesky_jittered_in_the_given_array(self, n):
        a = exactly_symmetric(random_spd(np.random.default_rng(n), n))
        want = linalg.cholesky_jittered(a)
        buf = a.copy()
        got = linalg.cholesky_in_place(buf, regather=None)
        assert got.jitter_used == want.jitter_used == 0.0
        assert np.shares_memory(got.lower, buf) and got.lower.flags.f_contiguous
        np.testing.assert_array_equal(bits(got.lower), bits(want.lower))

    @pytest.mark.parametrize("shift", [0.0, 5e-8, 5e-6])
    def test_each_rung_past_0_factors_one_fresh_copy(self, shift,
                                                      monkeypatch):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((6, 6))
        idx = np.r_[np.arange(6), 0, 2]  # two repeated rows: singular
        a = exactly_symmetric((b @ b.T)[np.ix_(idx, idx)]) - shift * np.eye(8)
        want = linalg.cholesky_jittered(a)
        rungs = linalg.DEFAULT_JITTER_LADDER.index(want.jitter_used)
        assert rungs > 0
        copies, factored = [], []

        def regather():
            copies.append(a.copy())
            return copies[-1]

        real = linalg._dpotrf
        monkeypatch.setattr(linalg, "_dpotrf", lambda *args, **kwargs:
                            factored.append(args) or real(*args, **kwargs))
        got = linalg.cholesky_in_place(a.copy(), regather)
        assert len(copies) == rungs and len(factored) == rungs + 1
        assert got.jitter_used == want.jitter_used > 0.0
        np.testing.assert_array_equal(bits(got.lower), bits(want.lower))


def test_row_blocks_from_the_entry_budget():
    assert linalg.row_blocks(30, 100) == [(r, r + 3) for r in range(0, 30, 3)]
    assert linalg.row_blocks(30, 140) == [(0, 4), (4, 8), (8, 12), (12, 16),
                                          (16, 20), (20, 24), (24, 28),
                                          (28, 30)]
    assert linalg.row_blocks(7, 100) == [(0, 7)]
    assert linalg.row_blocks(101, 100) == [(r, r + 1) for r in range(101)]
    assert linalg.row_blocks(0, 100) == []


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

    @pytest.mark.parametrize("n", [1, 2, 200])
    @pytest.mark.parametrize("jitter", [False, True])
    def test_bit_equal_to_mirrored_lower_triangle(self, n, jitter):
        rng = np.random.default_rng(n)
        if jitter:
            # Rank n // 2 (rank 0 for n = 1): singular until jitter is added.
            b = rng.standard_normal((n, n // 2))
            a = b @ b.T
        else:
            a = random_spd(rng, n)
        f = linalg.cholesky_jittered(a)
        assert (f.jitter_used > 0.0) == jitter
        lower, info = dpotri(f.lower.copy(order="F"), lower=1)
        assert info == 0
        want = lower + np.tril(lower, -1).T
        got = linalg.inverse_spd(f)
        assert got.flags.f_contiguous and np.shares_memory(got, f.lower)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [3, 50])
    def test_mirrors_the_lower_triangle_block_by_block(self, n, monkeypatch):
        # Blocks of 1, 2 and 7 rows (and the last block's remainder) give
        # the one-block result bit for bit.
        a = random_spd(np.random.default_rng(n), n)
        want = linalg.inverse_spd(linalg.cholesky_jittered(a))
        for rows in (1, 2, 7):
            monkeypatch.setattr(linalg, "_MIRROR_ENTRIES", rows * n)
            got = linalg.inverse_spd(linalg.cholesky_jittered(a))
            np.testing.assert_array_equal(bits(got), bits(want))


class TestWorkspace:
    def test_role_buffer_is_reused_and_grows_to_the_largest_shape(self):
        ws = linalg.Workspace()
        a = ws.array("r", (4, 5))
        assert ws.array("r", (4, 5)).base is a.base
        smaller = ws.array("r", (3, 3))
        assert smaller.flags.c_contiguous and smaller.base is a.base
        larger = ws.array("r", (6, 6))
        assert larger.shape == (6, 6) and larger.flags.c_contiguous
        assert not np.shares_memory(larger, a)
        assert ws.array("r", (4, 5)).base is larger.base
        assert not np.shares_memory(ws.array("other", (4, 5)), larger)
