"""The prediction cache of a model's training covariance.

A model builds K + diag(sigma2) of its stored set once its prediction calls
have built N (N - 1) / 2 training pairs, and the full-set factor at its
first k >= N call.  Every prediction must be the same bit for bit with and
without it, and it must never reach a model file.
"""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcn import gp, trainer
from dgcn.kernels import ALL_KERNELS, KernelSet, cov_matrix
from dgcn.trainer import Dataset

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


def assert_same_prediction(a, b):
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(b, f.name), getattr(a, f.name),
                                      err_msg=f.name)


class TestCachedEqualsUncached:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(6, 70), n_v=st.integers(1, 3),
           kernels=st.lists(st.sampled_from(ALL_KERNELS), min_size=1,
                            max_size=5, unique=True),
           seed=st.integers(0, 2**16), k_over=st.integers(-60, 8),
           variant=st.sampled_from(["fitted", "update0", "update1", "loaded"]),
           include_noise=st.booleans(), interval=st.sampled_from(["t", "z"]),
           threads=st.sampled_from(["1", "2"]))
    def test_every_prediction_field_is_identical(
            self, n, n_v, kernels, seed, k_over, variant, include_noise,
            interval, threads):
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
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("DGCN_THREADS", threads)
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

    def test_k_at_least_n_builds_at_once_and_reuses_the_factor(self, monkeypatch):
        model = make_model(n=50)
        calls = {"train_cov": 0, "solve_train": 0}
        for name in calls:
            real = getattr(gp, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(gp, name, counted)
        x = np.random.default_rng(2).uniform(-2, 2, (30, 2))
        first = trainer.predict_batched(model, x, k=50)
        assert model._cache.k is not None and model._cache.full is not None
        assert calls == {"train_cov": 1, "solve_train": 1}
        second = trainer.predict_batched(model, x, k=57)
        assert calls == {"train_cov": 1, "solve_train": 1}
        assert_same_prediction(first, second)

    def test_cached_groups_evaluate_no_kernels(self, monkeypatch):
        model = make_model(n=50)
        x = np.random.default_rng(3).uniform(-2, 2, (12, 2))
        trainer.predict_batched(model, x, k=50)
        expected = trainer.predict_batched(uncached(model), x, k=20)
        seen = []
        monkeypatch.setattr(gp, "one_set_cov",
                            lambda *args, **kwargs: seen.append(args))
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
        assert cached._cache.k is not None

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


class TestTrainingCovariance:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 40), n_v=st.integers(1, 3),
           entries=st.sampled_from([1, 7, 64, 1 << 17]),
           seed=st.integers(0, 2**16))
    def test_row_blocks_equal_the_one_set_build(self, n, n_v, entries, seed):
        rng = np.random.default_rng(seed)
        kset = KernelSet()
        x = rng.uniform(-2.0, 2.0, (n, n_v))
        if n > 1:
            x[-1] = x[0]
        hyper = gp.HyperField(rng.uniform(-2.0, 2.0, (n, n_v * kset.n_k)),
                              rng.uniform(1e-4, 1.0, n))
        expected = cov_matrix(kset, x, hyper.theta)
        expected[np.diag_indices_from(expected)] += hyper.sigma2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gp, "_BLOCK_ENTRIES", entries)
            got = gp.train_cov(gp.GpBatch(x, np.zeros(n), hyper), kset)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, expected)


def full_train_cov(model):
    return gp.train_cov(gp.GpBatch(model.x, model.y, model.hyper),
                        model.kernel_set)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def with_strategy(model, strategy):
    """The same model searching its neighbours by ``strategy``."""
    return dataclasses.replace(
        model, index=trainer.NeighborIndex(model.x, strategy),
        config=dataclasses.replace(model.config, neighbor_strategy=strategy))


class TestLeafOrderLayout:
    """The cache keeps K in kd-tree leaf order and gathers by one flat take."""

    @pytest.mark.parametrize("first_k", [12, 70])
    @pytest.mark.parametrize("strategy", ["brute", "kdtree"])
    def test_order_is_a_permutation_and_the_layout_is_k_permuted(self, strategy,
                                                                 first_k):
        model = with_strategy(make_model(n=70, n_v=3), strategy)
        cache = model._cache
        if first_k == 70:
            # A k >= N call builds K in row order; the next k < N call
            # moves it into leaf order.
            trainer.predict_batched(model, np.zeros((1, 3)), k=first_k)
            assert cache.order is None and cache.pos is None
            np.testing.assert_array_equal(bits(cache.k),
                                          bits(full_train_cov(model)))
            trainer.predict_batched(model, np.zeros((1, 3)), k=12)
        else:
            warm(model, 3, first_k)
        np.testing.assert_array_equal(np.sort(cache.order), np.arange(70))
        np.testing.assert_array_equal(cache.pos[cache.order], np.arange(70))
        want = full_train_cov(model)[np.ix_(cache.order, cache.order)]
        np.testing.assert_array_equal(bits(cache.k), bits(want))
        np.testing.assert_array_equal(bits(cache.in_row_order()),
                                      bits(full_train_cov(model)))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 60), n_v=st.integers(1, 3),
           kernels=st.lists(st.sampled_from(ALL_KERNELS), min_size=1,
                            max_size=5, unique=True),
           seed=st.integers(0, 2**16),
           strategy=st.sampled_from(["brute", "kdtree"]),
           moved=st.booleans())
    def test_gathered_block_equals_the_built_block(self, n, n_v, kernels, seed,
                                                   strategy, moved):
        # make_data repeats the first point as the last, so a neighbour set
        # may hold both copies of one row.  ``moved`` builds K in row order
        # and then moves it into leaf order, as after a k >= N call.
        model = with_strategy(make_model(n, n_v, seed, kernels, epochs=1),
                              strategy)
        model._cache.build(model, leaf_order=not moved)
        if moved:
            model._cache.to_leaf_order(model)
        rng = np.random.default_rng(seed)
        queries = rng.uniform(-2.5, 2.5, (6, n_v))
        sets = [np.sort(row) for row in model.index.query(queries, max(1, n // 2))]
        sets += [np.sort(rng.choice(n, size, replace=False))
                 for size in (1, 2, n - 1, n)]
        sets.append(np.array([0, n - 1]))  # the two copies of one point
        for sel in sets:
            sub = gp.GpBatch(model.x[sel], model.y[sel], model.hyper.take(sel))
            got = model._cache.block(sel)
            assert got.flags.c_contiguous and got.shape == (sel.size,) * 2
            np.testing.assert_array_equal(
                bits(got), bits(gp.train_cov(sub, model.kernel_set)))

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
        assert model._cache.k is not None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_CACHE_ENTRIES", 0)
            want = [trainer.predict_batched(reference, probe, k=k)
                    for k in (then_k, first_k)]
        got = [trainer.predict_batched(model, probe, k=k)
               for k in (then_k, first_k)]
        assert reference._cache == trainer._CovCache()
        for w, g in zip(want, got):
            assert_same_prediction(w, g)
