"""The prediction cache of a model's training covariance.

A model builds K + diag(sigma2) of its stored set, in kd-tree leaf order,
once its k < N prediction calls have built N (N - 1) / 2 training pairs,
and keeps only the full set's factor and alpha from its first k >= N call.
Every prediction must be the same bit for bit with and without the cache,
and it must never reach a model file.
"""

import dataclasses
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcn import gp, linalg, trainer
from dgcn.errors import NotPositiveDefinite
from dgcn.kernels import ALL_KERNELS, KernelSet, cov_matrix
from dgcn.trainer import Dataset

from oracles import GROUP_COUNTS, assert_same_prediction
from test_trainer import quiet_config


def make_data(n, n_v, seed, duplicates=True):
    rng = np.random.default_rng([seed, n, n_v])
    x = rng.uniform(-2.0, 2.0, (n, n_v))
    if duplicates:
        x[-1] = x[0]
    return Dataset(x, np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(n))


def make_model(n=60, n_v=2, seed=0, kernels=ALL_KERNELS, epochs=2):
    return trainer.fit(make_data(n, n_v, seed), quiet_config(
        batch_size=max(2, n // 2), max_epochs=epochs, seed=seed,
        kernels=KernelSet(tuple(kernels))))


def uncached(model):
    """The same model with a fresh, empty cache."""
    return dataclasses.replace(model)


def warm(model, n_v, k, limit=500):
    """Predict at k until the model has built its cache; return the calls."""
    rng = np.random.default_rng(99)
    for calls in range(1, limit + 1):
        trainer.predict_batched(model, rng.uniform(-2.0, 2.0, (8, n_v)), k=k)
        if model._cache.k is not None:
            return calls
    raise AssertionError(f"no cache after {limit} calls at k={k}")


def model_bytes(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        trainer.save(model, f"{tmp}/m.dgcn")
        with open(f"{tmp}/m.dgcn", "rb") as fh:
            return fh.read()


class TestCachedEqualsUncached:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(6, 70), n_v=st.integers(1, 3),
           kernels=st.lists(st.sampled_from(ALL_KERNELS), min_size=1,
                            max_size=5, unique=True),
           seed=st.integers(0, 2**16), k_over=st.integers(-60, 8),
           variant=st.sampled_from(["fitted", "update0", "update1", "loaded"]),
           include_noise=st.booleans(), interval=st.sampled_from(["t", "z"]))
    def test_every_prediction_field_is_identical(
            self, n, n_v, kernels, seed, k_over, variant, include_noise,
            interval):
        k = max(2, n + k_over)  # k < N and k >= N
        base = make_model(n, n_v, seed, kernels)
        warm(base, n_v, max(2, n // 3))
        if variant == "fitted":
            model = base
        elif variant == "loaded":
            with tempfile.TemporaryDirectory() as tmp:
                trainer.save(base, f"{tmp}/m.dgcn")
                model = trainer.load(f"{tmp}/m.dgcn")
        else:
            model = trainer.update(base, make_data(5, n_v, seed + 1, False),
                                   int(variant[-1]))
        if variant != "fitted":
            assert model._cache == trainer._CovCache()  # starts empty
        probe = np.random.default_rng(seed).uniform(-2.5, 2.5, (9, n_v))

        def predict(m):
            return trainer.predict_batched(m, probe, k=k,
                                           include_noise=include_noise,
                                           interval=interval)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_CACHE_ENTRIES", 0)
            reference = predict(uncached(model))
        if model._cache.k is None:
            warm(model, n_v, max(2, model.n // 3))
        first, second = predict(model), predict(model)
        assert model._cache.k is not None
        assert (model._cache.full is not None) == (k >= model.n)
        assert_same_prediction(reference, first)
        assert_same_prediction(reference, second)


class TestWhenBuilt:
    def test_one_small_call_does_not_build(self):
        model = make_model(n=80)
        trainer.predict_batched(model, np.zeros((3, 2)), k=10)
        assert model._cache.k is None and model._cache.full is None
        assert 0 < model._cache.pairs <= 3 * 45

    def test_built_on_the_call_whose_pairs_reach_one_full_build(self):
        model = make_model(n=80)
        threshold = 80 * 79 // 2
        rng = np.random.default_rng(1)
        while model._cache.k is None:
            before = model._cache.pairs
            assert before < threshold
            trainer.predict_batched(model, rng.uniform(-2, 2, (4, 2)), k=12)
            assert model._cache.pairs > before
        assert model._cache.pairs >= threshold
        assert model._cache.full is None  # no k >= N call yet

    def test_one_call_with_enough_groups_builds(self):
        # 66 pairs per k = 12 group: 48 distinct sets reach 80 * 79 / 2.
        model = make_model(n=80)
        x = np.random.default_rng(6).uniform(-2, 2, (300, 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_CACHE_ENTRIES", 0)
            expected = trainer.predict_batched(uncached(model), x, k=12)
        got = trainer.predict_batched(model, x, k=12)
        assert model._cache.pairs >= 80 * 79 // 2
        assert model._cache.k is not None
        assert_same_prediction(expected, got)

    def test_k_at_least_n_builds_at_once_and_reuses_the_factor(self, monkeypatch):
        model = make_model(n=50)
        calls = {"train_cov": 0, "solve_built": 0}
        for name in calls:
            real = getattr(gp, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(gp, name, counted)
        x = np.random.default_rng(2).uniform(-2, 2, (30, 2))
        first = trainer.predict_batched(model, x, k=50)
        assert model._cache.full is not None and model._cache.k is None
        assert calls == {"train_cov": 1, "solve_built": 1}
        second = trainer.predict_batched(model, x, k=57)
        assert calls == {"train_cov": 1, "solve_built": 1}
        assert_same_prediction(first, second)

    def test_first_k_at_least_n_call_holds_one_n_square(self):
        # The whole set's factor is made in the memory its K was built in,
        # so the call's peak stays well below K and a copy (2 x 8 N^2).
        n = 1500
        model = trainer.fit(make_data(n, 2, 0), quiet_config(
            batch_size=150, max_epochs=1))
        x = np.random.default_rng(3).uniform(-2, 2, (10, 2))
        tracemalloc.start()
        try:
            trainer.predict_batched(model, x, k=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model._cache.full is not None
        assert peak < 1.5 * 8 * n * n

    def test_k_at_least_n_keeps_only_the_factor(self):
        model = make_model(n=50)
        trainer.predict_batched(model, np.zeros((3, 2)), k=50)
        cache = model._cache
        assert cache.k is None and cache.order is None and cache.pos is None
        assert cache.pairs == 0
        factor, alpha = cache.full
        assert factor.lower.shape == (50, 50) and alpha.shape == (50,)

    @pytest.mark.parametrize("square_below", [gp._SQUARE_BELOW, 0])
    def test_cached_groups_evaluate_no_kernels(self, monkeypatch, square_below):
        # An uncached group's K comes from train_cov's full square (cdist)
        # or, with the constant at 0, from its one row block (pdist).
        monkeypatch.setattr(gp, "_SQUARE_BELOW", square_below)
        model = make_model(n=50)
        x = np.random.default_rng(3).uniform(-2, 2, (12, 2))
        warm(model, 2, 20)
        seen = []
        for name in ("cdist", "pdist"):
            real = getattr(gp, name)

            def recorded(*args, _real=real, _name=name, **kwargs):
                seen.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(gp, name, recorded)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_CACHE_ENTRIES", 0)
            expected = trainer.predict_batched(uncached(model), x, k=20)
        assert set(seen) == {"cdist" if square_below else "pdist"}
        seen.clear()
        assert_same_prediction(expected,
                               trainer.predict_batched(model, x, k=20))
        assert seen == []

    def test_model_above_the_cap_never_builds(self, monkeypatch):
        model = make_model(n=40)
        x = np.random.default_rng(4).uniform(-2, 2, (10, 2))
        cached = uncached(model)
        expected = [trainer.predict_batched(cached, x, k=k) for k in (40, 8)]
        monkeypatch.setattr(trainer, "_CACHE_ENTRIES", 40 * 40 - 1)
        for _ in range(30):
            for k, want in zip((40, 8), expected):
                assert_same_prediction(want,
                                       trainer.predict_batched(model, x, k=k))
        assert model._cache == trainer._CovCache()
        assert cached._cache.full is not None

    def test_model_file_bytes_do_not_change(self):
        model = make_model(n=40)
        before = model_bytes(model)
        trainer.predict_batched(model, np.zeros((2, 2)), k=40)
        assert model._cache.full is not None
        assert model_bytes(model) == before

    def test_not_part_of_equality_or_repr(self):
        model = make_model(n=30)
        fresh = uncached(model)
        trainer.predict_batched(model, np.zeros((2, 2)), k=30)
        assert "_cache" not in repr(model)
        assert model == fresh


class TestOneSolvePerGroup:
    """Each group's system is solved by one gp.predict call (the benchmark
    tracer's queries per call), and the Prediction counts the groups by
    where their factor came from."""

    @pytest.mark.parametrize("k, kind", [(12, "built_groups"),
                                         (12, "cached_groups"),
                                         (80, "whole_groups")])
    def test_one_gp_predict_call_per_group(self, monkeypatch, k, kind):
        model = make_model(n=80)
        if kind == "cached_groups":
            model._cache.build(model)
        rows = []
        real = gp.predict
        monkeypatch.setattr(gp, "predict", lambda factor, alpha, r, n_k:
                            rows.append(r.shape[0])
                            or real(factor, alpha, r, n_k))
        x = np.random.default_rng(7).uniform(-2, 2, (30, 2))
        x[20:] = x[:10]  # repeated queries share their group
        nearest = model.index.query(model.scaler.transform_x(x), k)
        groups = len(np.unique(nearest, axis=0)) if k < model.n else 1
        for _ in range(2):  # the second k = N call reads the cached factor
            rows.clear()
            pred = trainer.predict_batched(model, x, k=k)
            assert len(rows) == groups and sum(rows) == 30
            assert max(rows) > 1
            counts = {name: getattr(pred, name) for name in GROUP_COUNTS}
            assert counts == {name: len(rows) if name == kind else 0
                              for name in GROUP_COUNTS}
        # 20 fresh 12-point groups build fewer pairs than one K of 80.
        assert (model._cache.k is None) == (kind != "cached_groups")

    def test_repeat_k_at_least_n_call_holds_two_query_by_n_arrays(self):
        # The call's cross-covariance is solved in place, so besides it the
        # call holds only gp.predict's Fortran-ordered copy for the mean.
        n, q = 1500, 500
        model = trainer.fit(make_data(n, 2, 0), quiet_config(
            batch_size=150, max_epochs=1))
        x = np.random.default_rng(8).uniform(-2, 2, (q, 2))
        first = trainer.predict_batched(model, x, k=n)
        tracemalloc.start()
        try:
            second = trainer.predict_batched(model, x, k=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_prediction(second, first)
        assert peak <= 2.3 * 8 * q * n


class TestWarpedOncePerModel:
    """A model warps its stored set when it is built; its prediction calls
    warp only their queries, whether the cache is built, empty or capped."""

    @pytest.mark.parametrize("capped", [False, True])
    def test_calls_warp_only_their_queries(self, monkeypatch, capped):
        model = make_model(n=40)
        stored = model.warped
        np.testing.assert_array_equal(
            bits(stored), bits(gp.warped_rows(model.x, model.hyper.theta,
                                              model.kernel_set.n_k)))
        if capped:
            monkeypatch.setattr(trainer, "_CACHE_ENTRIES", 0)
        sizes = []
        real = gp.warped_rows

        def recorded(x, theta, n_k):
            sizes.append(x.shape[0])
            return real(x, theta, n_k)

        monkeypatch.setattr(gp, "warped_rows", recorded)
        x = np.random.default_rng(8).uniform(-2, 2, (7, 2))
        for k in (5, 40, 12, 40):
            trainer.predict_batched(model, x, k=k)
        calls = 4
        if not capped:
            calls += warm(model, 2, 12)
            trainer.predict_batched(model, x, k=12)
            calls += 1
        assert len(sizes) == calls and set(sizes) <= {7, 8}
        assert model.warped is stored


class TestTrainingCovariance:
    """gp.train_cov's full square and its row blocks against cov_matrix."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 40), n_v=st.integers(1, 3),
           kernels=st.lists(st.sampled_from(ALL_KERNELS), min_size=1,
                            max_size=5, unique=True),
           square_below=st.sampled_from([0, gp._SQUARE_BELOW]),
           entries=st.sampled_from([1, 7, 64, 1 << 17]),
           overflow=st.booleans(), seed=st.integers(0, 2**16))
    def test_both_builds_equal_cov_matrix(self, n, n_v, kernels, square_below,
                                          entries, overflow, seed):
        # square_below 0 forces the row blocks, the constant the full
        # square.  The last row copies the first (off-diagonal d = 0); with
        # ``overflow`` row 1 warps to inf, whose diagonal cdist makes NaN.
        rng = np.random.default_rng(seed)
        kset = KernelSet(tuple(kernels))
        x = rng.uniform(-2.0, 2.0, (n, n_v))
        if n > 1:
            x[-1] = x[0]
        theta = rng.uniform(-2.0, 2.0, (n, n_v * kset.n_k))
        if overflow and n > 2:
            x[1, 0], theta[1, 0] = 1e10, 1e300
        sigma2 = rng.uniform(1e-4, 1.0, n)
        with np.errstate(over="ignore"):
            expected = cov_matrix(kset, x, x, theta, theta)
        expected[np.diag_indices_from(expected)] = kset.n_k + sigma2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "_SQUARE_BELOW", square_below)
            mp.setattr(gp, "_BLOCK_ENTRIES", entries)
            got = gp.train_cov(kset, gp.warped_rows(x, theta, kset.n_k), sigma2)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(bits(got), bits(expected))


class TestEveryBuilderIsExactlySymmetric:
    """No factorization compares K with its transpose: LAPACK reads one
    triangle, so every builder must make K exactly symmetric."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 2, 17, 95, 96, 200, 363]),
           n_v=st.sampled_from([1, 3, 8]),
           kernels=st.lists(st.sampled_from(ALL_KERNELS), min_size=1,
                            max_size=5, unique=True),
           entries=st.sampled_from([1 << 17, 1 << 11]),
           copies=st.integers(0, 3), seed=st.integers(0, 2**16))
    def test_k_equals_its_transpose(self, n, n_v, kernels, entries, copies,
                                    seed):
        # 95 and 96 straddle train_cov's full square and its row blocks;
        # 363 takes two default blocks, and 2^11 entries many.  The last
        # ``copies`` rows repeat earlier ones.
        rng = np.random.default_rng(seed)
        kset = KernelSet(tuple(kernels))
        x = rng.uniform(-2.0, 2.0, (n, n_v))
        x[n - min(copies, n - 1):] = x[:min(copies, n - 1)]
        hyper = gp.HyperField(rng.uniform(-2.0, 2.0, (n, n_v * kset.n_k)),
                              rng.uniform(1e-4, 1.0, n))
        built = []
        warped = gp.warped_rows(x, hyper.theta, kset.n_k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "_BLOCK_ENTRIES", entries)
            built.append(gp.train_cov(kset, warped, hyper.sigma2))
            for blocks in ([(0, n)], linalg.row_blocks(n, entries)):
                for slopes, ws in ((False, None), (True, linalg.Workspace())):
                    built.append(gp._blocked_cov(kset, warped, hyper.sigma2,
                                                 blocks, slopes, ws)[0])
            cache = trainer._CovCache()
            cache.build(types.SimpleNamespace(x=x, hyper=hyper, warped=warped,
                                              kernel_set=kset))
            built.append(cache.k)
        for k in built:
            assert np.array_equal(k, k.T)


def stored_cov(model, rows=slice(None)):
    """K + diag(sigma2) of the model's stored points ``rows``."""
    return gp.train_cov(model.kernel_set,
                        gp.warped_rows(model.x[rows], model.hyper.theta[rows],
                                       model.kernel_set.n_k),
                        model.hyper.sigma2[rows])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def with_strategy(model, strategy):
    """The same model searching its neighbours by ``strategy``."""
    return dataclasses.replace(
        model, index=trainer.NeighborIndex(model.x, strategy),
        config=dataclasses.replace(model.config, neighbor_strategy=strategy))


class TestLeafOrderLayout:
    """The cache keeps K in kd-tree leaf order and gathers by one flat take."""

    @pytest.mark.parametrize("strategy", ["brute", "kdtree"])
    def test_order_is_a_permutation_and_the_layout_is_k_permuted(self, strategy):
        model = with_strategy(make_model(n=70, n_v=3), strategy)
        cache = model._cache
        warm(model, 3, 12)
        np.testing.assert_array_equal(np.sort(cache.order), np.arange(70))
        np.testing.assert_array_equal(cache.pos[cache.order], np.arange(70))
        want = stored_cov(model)[np.ix_(cache.order, cache.order)]
        np.testing.assert_array_equal(bits(cache.k), bits(want))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 60), n_v=st.integers(1, 3),
           kernels=st.lists(st.sampled_from(ALL_KERNELS), min_size=1,
                            max_size=5, unique=True),
           seed=st.integers(0, 2**16),
           strategy=st.sampled_from(["brute", "kdtree"]))
    def test_gathered_block_equals_the_built_block(self, n, n_v, kernels, seed,
                                                   strategy):
        # make_data repeats the first point as the last, so a neighbour set
        # may hold both copies of one row.
        model = with_strategy(make_model(n, n_v, seed, kernels, epochs=1),
                              strategy)
        model._cache.build(model)
        rng = np.random.default_rng(seed)
        queries = rng.uniform(-2.5, 2.5, (6, n_v))
        sets = [np.sort(row) for row in model.index.query(queries, max(1, n // 2))]
        sets += [np.sort(rng.choice(n, size, replace=False))
                 for size in (1, 2, n - 1, n)]
        sets.append(np.array([0, n - 1]))  # the two copies of one point
        for sel in sets:
            got = model._cache.block(sel)
            assert got.flags.c_contiguous and got.shape == (sel.size,) * 2
            np.testing.assert_array_equal(bits(got), bits(stored_cov(model, sel)))

    @pytest.mark.parametrize("first_k, then_k", [(15, 60), (60, 15), (60, 60)])
    @pytest.mark.parametrize("strategy", ["brute", "kdtree"])
    def test_switching_between_k_below_and_at_least_n(self, first_k, then_k,
                                                      strategy):
        model = with_strategy(make_model(n=60, n_v=2, seed=3), strategy)
        reference = uncached(model)
        probe = np.random.default_rng(5).uniform(-2.5, 2.5, (11, 2))
        if first_k < 60:
            warm(model, 2, first_k)
        else:
            trainer.predict_batched(model, probe, k=first_k)
        cache = model._cache
        assert (cache.k if first_k < 60 else cache.full) is not None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_CACHE_ENTRIES", 0)
            want = [trainer.predict_batched(reference, probe, k=k)
                    for k in (then_k, first_k)]
        got = [trainer.predict_batched(model, probe, k=k)
               for k in (then_k, first_k)]
        assert reference._cache == trainer._CovCache()
        for w, g in zip(want, got):
            assert_same_prediction(w, g)


class TestOnePassCrossCovariance:
    """gp.cross_cov builds every query's cross-covariance of a call at once."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), n_star=st.integers(1, 12),
           n_v=st.integers(1, 11),
           kernels=st.lists(st.sampled_from(ALL_KERNELS), min_size=1,
                            max_size=5, unique=True),
           m=st.integers(1, 40), entries=st.sampled_from([1, 50, 1 << 17]),
           seed=st.integers(0, 2**16))
    def test_equals_cov_matrix_bit_for_bit(self, n, n_star, n_v, kernels, m,
                                           entries, seed):
        # Duplicated rows, and queries on training points, give d = 0; a
        # small block budget splits the queries into several blocks.
        rng = np.random.default_rng(seed)
        kset = KernelSet(tuple(kernels))
        x = rng.uniform(-2.0, 2.0, (n, n_v))
        x[-1] = x[0]
        theta = rng.uniform(-3.0, 3.0, (n, n_v * kset.n_k))
        x_star = rng.uniform(-2.5, 2.5, (n_star, n_v))
        x_star[0] = x[0]
        theta_star = rng.uniform(-3.0, 3.0, (n_star, n_v * kset.n_k))
        theta_star[0] = theta[0]
        rows = rng.integers(0, n, (n_star, m))
        train = gp.warped_rows(x, theta, kset.n_k)
        star = gp.warped_rows(x_star, theta_star, kset.n_k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "_BLOCK_ENTRIES", entries)
            every = gp.cross_cov(kset, train, star)
            some = gp.cross_cov(kset, train, star, rows)
        want = cov_matrix(kset, x, x_star, theta, theta_star).T
        assert every.shape == (n_star, n)
        np.testing.assert_array_equal(bits(every), bits(want))
        np.testing.assert_array_equal(
            bits(some), bits(np.take_along_axis(want, rows, axis=1)))

    @pytest.mark.parametrize("k", [5, 40])
    def test_overflowed_query_gets_the_prior_without_a_warning(self, k):
        model = make_model(n=40)
        warm(model, 2, 8)
        probe = np.array([[1e300, -1e300], [-1e200, 1e200], [0.1, 0.2]])
        for m in (uncached(model), model):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                pred = trainer.predict_batched(m, probe, k=k, interval="z")
            scaler = m.scaler
            np.testing.assert_array_equal(pred.mean[:2], scaler.y_mean)
            np.testing.assert_array_equal(pred.variance[:2],
                                          m.kernel_set.n_k * scaler.y_std**2)
            assert np.all(pred.variance[2] < pred.variance[:2])


class TestBadKSurfacesAtTheFactor:
    """The cache stores K as built, with no scan; a NaN or inf in it
    surfaces when a gathered block that reads it is factored."""

    @pytest.mark.parametrize("where", [(1, 1), (2, 0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_bad_k_is_stored_and_raises_where_read(self, monkeypatch,
                                                     where, bad):
        model = make_model(n=30)
        real = gp.train_cov

        def broken(*args):
            k = real(*args)
            k[where] = k[where[::-1]] = bad
            return k

        with monkeypatch.context() as mp:
            mp.setattr(gp, "train_cov", broken)
            model._cache.build(model)
        cache = model._cache
        np.testing.assert_array_equal(cache.k[where], bad)
        read = np.unique(cache.order[list(where)])  # the entry's points
        unread = np.setdiff1d(np.arange(model.n), read)
        for sel in (unread, unread[::2]):
            factor, _ = gp.solve_built(partial(cache.block, sel), model.y[sel])
            assert np.isfinite(factor.lower).all()
        with pytest.raises(NotPositiveDefinite):
            sel = np.r_[unread[:4], read]
            gp.solve_built(partial(cache.block, sel), model.y[sel])


class TestProbeScript:
    """scripts/cov_cache_probe.py reads the cache's arrays; it must run."""

    def test_small_run_exits_0_with_identical_calls(self):
        script = (Path(__file__).resolve().parent.parent / "scripts"
                  / "cov_cache_probe.py")
        done = subprocess.run(
            [sys.executable, str(script), "--n", "300", "--n-above", "400"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        assert done.returncode == 0, done.stderr
        assert "identical: True" in done.stdout
        # The second model runs with the cap below its N^2.
        capped = [line for line in done.stdout.splitlines()
                  if line.startswith("N=400:")]
        assert "cache cap lowered to 159999 entries" in capped[0]
        assert "cache built: False" in capped[-1]
        assert not any("cache built: True" in line for line in capped)
