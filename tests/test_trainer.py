import collections
import dataclasses
import json
import re
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from dgcn import gp, linalg, trainer
from dgcn.errors import (
    ChecksumMismatch,
    DimensionMismatch,
    EmptyDataset,
    FormatVersionMismatch,
    InvalidAlpha,
    InvalidSetting,
    InvalidTarget,
    NonFiniteLoss,
    SchemaMismatch,
)
from dgcn.kernels import ALL_KERNELS, KernelSet, cov_matrix
from dgcn.mlp import OptimizerConfig
from dgcn.neighbors import STRATEGIES, NeighborIndex
from dgcn.trainer import Dataset, Scaler, TrainConfig

from oracles import (
    assert_same_prediction,
    full_prediction,
    neighbour_prediction,
    param_arrays,
)


def sine_dataset(n=30, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2 * np.pi, n)[:, None]
    y = np.sin(3 * x[:, 0]) + noise * rng.standard_normal(n)
    return Dataset(x, y, columns=["x"])


def quiet_config(**kwargs):
    """Deterministic training config without regularizer noise."""
    defaults = dict(
        batch_size=64,
        max_epochs=100,
        seed=0,
        dropout_rate=0.0,
        input_noise_std=0.0,
        optimizer=OptimizerConfig(learning_rate=1e-2),
        early_stop_patience=1000,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestDatasetAndScaler:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            Dataset(np.ones((3, 2)), np.ones(3), columns=["a"])

    def test_non_finite_entry_is_invalid_target(self):
        x, y = np.ones((5, 2)), np.ones(5)
        x[3, 1] = x[4, 0] = np.inf
        with pytest.raises(InvalidTarget, match=r"^dataset x has non-finite "
                           r"entries, the first in row 3$") as info:
            Dataset(x, y)
        assert isinstance(info.value, ValueError)
        y[[1, 2]] = np.nan
        with pytest.raises(InvalidTarget, match=r"^dataset y has non-finite "
                           r"entries, the first in row 1$"):
            Dataset(np.ones((5, 2)), y)

    def test_fit_needs_two_points(self):
        tiny = Dataset(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            trainer.fit(tiny, quiet_config(max_epochs=1))

    def test_too_few_points_are_empty_dataset_errors(self):
        with pytest.raises(EmptyDataset, match="got 1"):
            trainer.fit(Dataset(np.array([[1.0]]), np.array([1.0])),
                        quiet_config(max_epochs=1))
        with pytest.raises(EmptyDataset):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    def test_zero_input_columns_are_empty_dataset_errors(self):
        # fit, update and crossval take a Dataset: none trains on such data.
        y = np.sin(np.arange(30.0))
        with pytest.raises(EmptyDataset, match=r"at least 1 point and 1 "
                           r"input column, got x of shape \(30, 0\)$") as info:
            Dataset(np.empty((30, 0)), y)
        assert info.value.exit_code == 3
        with pytest.raises(EmptyDataset):
            Dataset(np.empty((0, 0)), np.empty(0))

    @pytest.mark.parametrize("n, batch_size", [(407, 200), (805, 400)])
    def test_step_workspace_changes_no_model_byte(self, n, batch_size,
                                                  monkeypatch, tmp_path):
        # Merged tails of 207 and 405 points follow full batches; 400 and
        # 405 points are multi-block steps.  Without its workspace every
        # step builds its arrays afresh.
        data = sine_dataset(n=n, noise=0.1)
        new = sine_dataset(n=30, seed=1, noise=0.1)
        config = quiet_config(batch_size=batch_size, max_epochs=2)

        def model_bytes(name):
            model = trainer.fit(data, config)
            model = trainer.update(model, new, epochs=1)
            trainer.save(model, tmp_path / name)
            return (tmp_path / name).read_bytes()

        want = model_bytes("shared.dgcn")
        nll_grad = gp.nll_grad
        monkeypatch.setattr(gp, "nll_grad", lambda *args, workspace: nll_grad(*args))
        assert model_bytes("fresh.dgcn") == want

    def test_standardization_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, (40, 3)) * np.array([1.0, 10.0, 0.01])
        y = rng.uniform(100, 200, 40)
        scaler = Scaler.fit(x, y)
        np.testing.assert_allclose(scaler.inverse_y(scaler.transform_y(y)), y,
                                   atol=1e-12)
        xs = scaler.transform_x(x)
        np.testing.assert_allclose(xs.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(xs.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_floored(self):
        x = np.ones((10, 2))
        y = np.ones(10)
        scaler = Scaler.fit(x, y)
        assert np.all(np.isfinite(scaler.transform_x(x)))

    @pytest.mark.parametrize("value", [3.203125e199, 9e307, -1.5e308])
    def test_constant_column_of_any_magnitude_is_exact(self, value):
        # Twelve copies of the value sum, or square their mean's rounding
        # error, past float64; the column's exact statistics are the value
        # and no spread.
        x = np.column_stack([np.linspace(-1.0, 1.0, 12), np.full(12, value)])
        scaler = Scaler.fit(x, np.full(12, value))
        assert scaler.x_mean[1] == scaler.y_mean == value
        assert scaler.x_std[1] == scaler.y_std == trainer._STD_FLOOR
        np.testing.assert_array_equal(scaler.transform_x(x)[:, 1], 0.0)
        assert scaler.x_std[0] == np.linspace(-1.0, 1.0, 12).std()

    @pytest.mark.parametrize("standardize_y", [True, False])
    def test_overflowing_input_column_is_invalid(self, standardize_y):
        # The standard deviation of a column near 1e155 overflows float64.
        x = np.array([[0.5, 1e155], [-0.5, -1e155], [0.25, 1e155],
                      [0.75, -1e155]])
        with pytest.raises(InvalidTarget, match="input column 1 .* deviation inf"):
            Scaler.fit(x, np.arange(4.0), standardize_y)


class TestBatchPartition:
    def test_every_index_exactly_once(self):
        rng = np.random.default_rng(2)
        for n, nb in ((10, 3), (100, 32), (64, 64), (65, 64), (7, 100)):
            parts = trainer.make_batches(n, nb, 2, rng)
            seen = np.sort(np.concatenate(parts))
            np.testing.assert_array_equal(seen, np.arange(n))

    def test_tiny_tail_merges(self):
        rng = np.random.default_rng(3)
        parts = trainer.make_batches(65, 64, 2, rng)
        assert len(parts) == 1 and len(parts[0]) == 65

    def test_large_tail_kept(self):
        rng = np.random.default_rng(4)
        parts = trainer.make_batches(100, 60, 2, rng)
        assert [len(p) for p in parts] == [60, 40]

    def test_full_batch_single_part(self):
        rng = np.random.default_rng(5)
        parts = trainer.make_batches(30, 30, 1, rng)
        assert len(parts) == 1


finite = dict(allow_nan=False, allow_infinity=False)

optimizer_configs = st.builds(
    OptimizerConfig,
    algorithm=st.sampled_from(["sgd", "adam", "nadam"]),
    learning_rate=st.floats(1e-6, 10.0), beta1=st.floats(0.01, 0.99),
    beta2=st.floats(0.01, 0.9999), epsilon=st.floats(1e-12, 1e-3))


@st.composite
def train_configs(draw):
    """Any valid TrainConfig: every field drawn from its whole range."""
    floor = draw(st.floats(1e-12, 1.0, exclude_max=True))
    return TrainConfig(
        kernels=KernelSet(tuple(draw(st.lists(st.sampled_from(ALL_KERNELS),
                                              min_size=1, max_size=5)))),
        theta_hidden=tuple(draw(st.lists(st.integers(0, 64), max_size=4))),
        sigma_hidden=tuple(draw(st.lists(st.integers(0, 64), max_size=4))),
        optimizer=draw(optimizer_configs),
        sigma_optimizer=draw(st.none() | optimizer_configs),
        batch_size=draw(st.integers(1, 10**9)),
        max_epochs=draw(st.integers(1, 10**9)),
        early_stop_tol=draw(st.floats(**finite)),
        early_stop_patience=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**64)),
        standardize_y=draw(st.booleans()),
        dropout_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
        input_noise_std=draw(st.floats(0.0, 1e6)),
        sigma2_floor=floor,
        sigma2_init=draw(st.floats(floor, 1e6, exclude_min=True)),
        theta_output_bias=draw(st.floats(**finite)),
        prediction_k=draw(st.none() | st.integers(1, 10**9)),
        neighbor_strategy=draw(st.sampled_from(STRATEGIES)),
    )


class TestTrainConfig:
    @pytest.mark.parametrize("fields", [
        dict(theta_hidden="x"), dict(sigma_hidden=5), dict(theta_hidden=(2.5,)),
        dict(theta_hidden=(-1,)), dict(sigma_hidden=(True,)),
        dict(batch_size="abc"), dict(batch_size=0), dict(max_epochs=1.0),
        dict(early_stop_patience=0), dict(seed=1.5), dict(seed=-1),
        dict(prediction_k=0), dict(prediction_k="all"),
        dict(dropout_rate=1.5), dict(dropout_rate=1.0), dict(dropout_rate="x"),
        dict(dropout_rate=float("nan")), dict(input_noise_std=-0.1),
        dict(early_stop_tol="small"), dict(sigma2_floor=0.0),
        dict(sigma2_init=1e-7), dict(theta_output_bias=float("inf")),
        dict(standardize_y="yes"), dict(kernels=["squared_exp"]),
        dict(optimizer={"learning_rate": 0.1}), dict(sigma_optimizer="adam"),
        dict(neighbor_strategy="ball"),
    ])
    def test_bad_field_rejected_at_construction(self, fields):
        with pytest.raises((TypeError, ValueError)):
            TrainConfig(**fields)

    @pytest.mark.parametrize("d, message", [
        (5, "config must be a JSON object"),
        ([], "config must be a JSON object"),
        ({"learning_rate": 0.1}, "unknown config keys: ['learning_rate']"),
        ({"optimizer": {"lr": 0.1}}, "unknown optimizer keys: ['lr']"),
        ({"sigma_optimizer": {"lr": 0.1}}, "unknown optimizer keys: ['lr']"),
        ({"optimizer": "adam"}, "optimizer must be a JSON object"),
        ({"optimizer": None}, "optimizer must be a OptimizerConfig"),
        ({"kernels": "squared_exp"}, "kernels must be a list"),
        ({"kernels": [1]}, "kernels must be a list"),
        ({"kernels": []}, "kernel set must not be empty"),
    ])
    def test_from_dict_rejects_by_name(self, d, message):
        with pytest.raises(InvalidSetting, match=re.escape(message)):
            TrainConfig.from_dict(d)

    def test_from_dict_fills_defaults(self):
        cfg = TrainConfig.from_dict({"batch_size": 60,
                                     "sigma_optimizer": {"algorithm": "sgd"},
                                     "optimizer": {"learning_rate": 0.01}})
        assert cfg == TrainConfig(batch_size=60,
                                  sigma_optimizer=OptimizerConfig("sgd"),
                                  optimizer=OptimizerConfig(learning_rate=0.01))
        assert TrainConfig.from_dict({}) == TrainConfig()

    def test_readme_lists_every_key_with_its_default(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text().split("All keys, with defaults", 1)[1]
        block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
        assert json.loads(block) == TrainConfig().to_dict()

    @settings(max_examples=100, deadline=None)
    @given(cfg=train_configs())
    def test_dict_round_trip(self, cfg):
        d = cfg.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(TrainConfig)]
        assert TrainConfig.from_dict(d) == cfg
        assert TrainConfig.from_dict(json.loads(json.dumps(d))) == cfg

    def test_integer_fields_stored_as_python_ints(self):
        cfg = TrainConfig(theta_hidden=[np.int64(4)], batch_size=np.int32(50),
                          seed=np.uint64(7), prediction_k=np.int64(9))
        assert cfg.theta_hidden == (4,)
        assert [type(v) for v in (cfg.theta_hidden[0], cfg.batch_size,
                                  cfg.seed, cfg.prediction_k)] == [int] * 4
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("hidden, hidden_acts", [
        ((), []), ((0,), ["relu"]), ((4,), ["relu"]),
        ((5, 4, 3), ["sigmoid", "sigmoid", "relu"]),
    ])
    def test_output_layers_are_linear_and_softplus(self, hidden, hidden_acts):
        theta_net, sigma_net = trainer.build_networks(
            2, TrainConfig(theta_hidden=hidden, sigma_hidden=hidden),
            np.random.default_rng(0))
        for net, out_units, act in ((theta_net, 10, "linear"),
                                    (sigma_net, 1, "softplus")):
            assert [s.out_units for s in net.specs] == [*hidden, out_units]
            assert [s.activation for s in net.specs] == [*hidden_acts, act]

    def test_zero_width_networks_output_their_biases(self):
        cfg = TrainConfig(theta_hidden=(0,), sigma_hidden=(0,), sigma2_init=0.05)
        theta_net, sigma_net = trainer.build_networks(
            3, cfg, np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(6, 3))
        field = trainer.hyper_for(theta_net, sigma_net, x, cfg.sigma2_floor)
        np.testing.assert_array_equal(field.theta, np.ones((6, 15)))
        np.testing.assert_allclose(field.sigma2, 0.05, rtol=1e-15)


class TestFit:
    def test_learns_noise_free_sine(self):
        data = sine_dataset()
        model = trainer.fit(data, quiet_config(batch_size=30))
        pred = trainer.predict_batched(model, data.x, k=model.n)
        err = np.abs(model.scaler.transform_y(pred.mean)
                     - model.scaler.transform_y(data.y))
        assert err.max() < 1e-2

    def test_full_batch_is_one_step_per_epoch(self):
        data = sine_dataset()
        model = trainer.fit(data, quiet_config(batch_size=30, max_epochs=17))
        assert model.log.optimizer_steps == model.log.epochs_run == 17

    def test_seed_determinism_bitwise(self, tmp_path):
        data = sine_dataset(noise=0.1)
        cfg = quiet_config(dropout_rate=0.1, input_noise_std=0.01,
                           max_epochs=10, batch_size=8)
        a = trainer.fit(data, cfg)
        b = trainer.fit(data, cfg)
        trainer.save(a, tmp_path / "a.dgcn")
        trainer.save(b, tmp_path / "b.dgcn")
        assert (tmp_path / "a.dgcn").read_bytes() == (tmp_path / "b.dgcn").read_bytes()

    def test_epoch_nll_trend_on_sine(self):
        drops = 0
        for seed in range(10):
            model = trainer.fit(sine_dataset(seed=seed, noise=0.05),
                                quiet_config(batch_size=30, max_epochs=40,
                                             seed=seed))
            if model.log.epoch_nll[-1] < model.log.epoch_nll[0]:
                drops += 1
        assert drops >= 9

    def test_early_stopping_triggers(self):
        data = sine_dataset()
        cfg = quiet_config(batch_size=30, max_epochs=5000,
                           early_stop_tol=1e-4, early_stop_patience=10)
        model = trainer.fit(data, cfg)
        assert model.log.stopped_early
        assert model.log.epochs_run < 5000

    def test_multioutput_target_rejected(self):
        data = Dataset(np.ones((4, 1)), np.ones((4, 2)))
        with pytest.raises(DimensionMismatch):
            trainer.fit(data, quiet_config(max_epochs=1))


class TestPredictBatched:
    @staticmethod
    def sine_model():
        data = sine_dataset(noise=0.1)
        model = trainer.fit(data, quiet_config(batch_size=10, max_epochs=10))
        return model, np.random.default_rng(7).uniform(0, 2 * np.pi, (25, 1))

    @staticmethod
    def query_blocks(calls, probe):
        """The probe in one call, or each row in a call of its own."""
        if calls == "whole":
            return [probe]
        return [probe[i:i + 1] for i in range(len(probe))]

    @pytest.mark.parametrize("calls", ["whole", "rows"])
    @pytest.mark.parametrize("include_noise", [False, True])
    @pytest.mark.parametrize("interval", ["t", "z"])
    @pytest.mark.parametrize("extra", [0, 7])
    @pytest.mark.parametrize("which", ["sine", "jitter"])
    def test_k_equals_n_matches_full_prediction(self, which, extra, interval,
                                                include_noise, calls):
        model, probe = (self.sine_model() if which == "sine"
                        else self.jitter_model())
        jitter_events = 0
        for block in self.query_blocks(calls, probe):
            full = full_prediction(model, block, include_noise=include_noise,
                                   interval=interval)
            batched = trainer.predict_batched(model, block, k=model.n + extra,
                                              include_noise=include_noise,
                                              interval=interval)
            assert_same_prediction(batched, full)
            jitter_events += full.jitter_events
        if which == "jitter":
            assert jitter_events == len(self.query_blocks(calls, probe))

    @pytest.mark.parametrize("calls", ["whole", "rows"])
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("include_noise", [False, True])
    @pytest.mark.parametrize("interval", ["t", "z"])
    @pytest.mark.parametrize("which", ["sine", "clamping", "jitter", "wide"])
    def test_k_below_n_matches_neighbour_prediction(
            self, monkeypatch, which, interval, include_noise, cached, calls):
        # Uncached groups build their own covariance, below gp._SQUARE_BELOW
        # points from the full square and from it on in row blocks; cached
        # groups gather from the model's leaf-order K.
        model, probe = getattr(self, f"{which}_model")()
        if cached:
            model._cache.build(model)
        else:
            monkeypatch.setattr(trainer, "_CACHE_ENTRIES", 0)
        diagnostics = 0
        square_below = gp._SQUARE_BELOW
        for k in (6, square_below - 1, square_below, model.n - 1):
            if k >= model.n:
                continue
            for block in self.query_blocks(calls, probe):
                want = neighbour_prediction(model, block, k,
                                            include_noise=include_noise,
                                            interval=interval)
                got = trainer.predict_batched(model, block, k=k,
                                              include_noise=include_noise,
                                              interval=interval)
                assert_same_prediction(got, want)
                diagnostics += want.clamped + want.jitter_events
        assert (model._cache.k is not None) == cached
        assert (diagnostics > 0) == (which not in ("sine", "wide"))

    @staticmethod
    def lattice_model(strategy):
        """Integer-lattice inputs, a third of them duplicated rows, and
        queries on and between the lattice points: most queries' k-th
        nearest distance is shared by more than one training point."""
        rng = np.random.default_rng(11)
        x = rng.integers(-2, 3, (60, 2)).astype(np.float64)
        x[40:] = x[:20]
        data = Dataset(x, np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(60))
        model = trainer.fit(data, quiet_config(batch_size=30, max_epochs=3,
                                               neighbor_strategy=strategy))
        return model, np.vstack([x[:10], rng.integers(-4, 5, (15, 2)) / 2.0])

    @pytest.mark.parametrize("calls", ["whole", "rows"])
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tied_neighbour_sets_match_neighbour_prediction(
            self, monkeypatch, strategy, cached, calls):
        model, probe = self.lattice_model(strategy)
        if cached:
            model._cache.build(model)
        else:
            monkeypatch.setattr(trainer, "_CACHE_ENTRIES", 0)
        dist = np.sort(cdist(model.scaler.transform_x(probe), model.x), axis=1)
        for k in (5, 12, 37):
            # Rows where the k-th and (k+1)-th distances tie.
            assert np.count_nonzero(dist[:, k - 1] == dist[:, k]) >= 5
            for block in self.query_blocks(calls, probe):
                want = neighbour_prediction(model, block, k)
                got = trainer.predict_batched(model, block, k=k)
                assert_same_prediction(got, want)
        assert (model._cache.k is not None) == cached

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_overflowed_query_rows_with_either_strategy(self, strategy):
        # Every distance from these rows is inf (1e308 warps past float64),
        # so their neighbour sets are the k lowest indices, as brute force
        # ranks them; the kd-tree cannot bound such rows and takes every
        # point as a candidate.
        model, _ = self.lattice_model(strategy)
        probe = np.array([[1e308, 0.0], [0.0, -1e308], [0.5, 0.5]])
        with np.errstate(over="ignore"):
            want = neighbour_prediction(model, probe, 5)
            got = trainer.predict_batched(model, probe, k=5)
        assert_same_prediction(got, want)
        assert np.isfinite(got.mean).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_query_that_overflows_once_warped_gets_the_prior(self):
        # 1e308 standardizes to a finite value that overflows when scaled
        # by a length-scale of 50: it is far from every training point.
        data = sine_dataset(n=40)
        model = trainer.fit(data, quiet_config(batch_size=20, max_epochs=2))
        theta_net = model.theta_net
        theta_net.params.weights[-1][:] = 0.0
        theta_net.params.biases[-1][:] = 50.0
        model = trainer._assemble(theta_net, model.sigma_net, model.scaler,
                                  model.config, model.x, model.y,
                                  model.columns, model.log)
        s = model.scaler
        probe = np.array([[1e308], [-1e308]])
        assert np.isfinite(s.transform_x(probe)).all()
        for k in (5, model.n):
            pred = trainer.predict_batched(model, probe, k=k)
            np.testing.assert_array_equal(pred.mean, [s.y_mean] * 2)
            np.testing.assert_array_equal(
                pred.variance, [model.kernel_set.n_k * s.y_std**2] * 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_query_that_overflows_when_standardized_warns_nothing(self):
        # Unit-box inputs have standard deviations below 1, so 1e308
        # standardizes to inf, which warps to inf and gets the prior.
        x = np.random.default_rng(4).uniform(size=(40, 2))
        model = trainer.fit(Dataset(x, np.sin(3 * x.sum(axis=1))),
                            quiet_config(batch_size=20, max_epochs=2))
        probe = np.array([[1e308, 0.5]])
        assert np.isinf(model.scaler.transform_x(probe)[0, 0])
        for k in (5, model.n):
            pred = trainer.predict_batched(model, probe, k=k)
            np.testing.assert_array_equal(pred.mean, [model.scaler.y_mean])

    @pytest.mark.parametrize("extra, calls", [(-1, 1), (0, 0), (7, 0)])
    def test_neighbour_search_only_below_n(self, monkeypatch, extra, calls):
        model, probe = self.sine_model()
        seen = []
        query = NeighborIndex.query

        def spy(self, points, k):
            seen.append(k)
            return query(self, points, k)

        monkeypatch.setattr(NeighborIndex, "query", spy)
        trainer.predict_batched(model, probe, k=model.n + extra)
        assert seen == [model.n + extra] * calls

    @pytest.mark.parametrize("k, interval", [(1, "t"), (0, "t"), (-2, "t"),
                                             (0, "z")])
    def test_unusable_k_rejected_before_search(self, monkeypatch, k, interval):
        model, probe = self.sine_model()
        monkeypatch.setattr(NeighborIndex, "query", None)
        with pytest.raises(InvalidSetting, match=f"at least .* got {k}"):
            trainer.predict_batched(model, probe, k=k, interval=interval)

    @pytest.mark.parametrize("kwargs, error", [
        (dict(alpha_level=2.0), InvalidAlpha), (dict(alpha_level=0.0), InvalidAlpha),
        (dict(alpha_level=float("nan")), InvalidAlpha),
        (dict(interval="q"), InvalidSetting),
    ])
    def test_unusable_alpha_or_interval_rejected_before_search(
            self, monkeypatch, kwargs, error):
        model, probe = self.sine_model()
        monkeypatch.setattr(NeighborIndex, "query", None)
        for k in (5, model.n):  # neighbour groups, and the one full group
            with pytest.raises(error):
                trainer.predict_batched(model, probe, k=k, **kwargs)
        assert issubclass(InvalidAlpha, InvalidSetting)

    def test_unusable_k_from_the_config_rejected(self):
        model, probe = self.sine_model()
        model = dataclasses.replace(
            model, config=dataclasses.replace(model.config, prediction_k=1))
        with pytest.raises(InvalidSetting):
            trainer.predict_batched(model, probe)
        pred = trainer.predict_batched(model, probe, interval="z")
        assert pred.mean.shape == (25,)

    def test_small_k_groups_by_neighborhood(self):
        data = sine_dataset(n=40)
        model = trainer.fit(data, quiet_config(batch_size=40, max_epochs=20))
        probe = np.linspace(0.2, 6.0, 10)[:, None]
        pred = trainer.predict_batched(model, probe, k=8)
        truth = np.sin(3 * probe[:, 0])
        assert np.sqrt(np.mean((pred.mean - truth) ** 2)) < 0.2

    def test_empty_query_returns_empty_prediction(self):
        data = sine_dataset()
        model = trainer.fit(data, quiet_config(batch_size=30, max_epochs=2))
        pred = trainer.predict_batched(model, np.empty((0, 1)))
        assert pred.mean.size == 0

    def test_schema_mismatch_rejected(self):
        data = sine_dataset()
        model = trainer.fit(data, quiet_config(batch_size=30, max_epochs=2))
        with pytest.raises(SchemaMismatch):
            trainer.predict_batched(model, np.ones((3, 2)))

    @staticmethod
    def wide_model():
        """The sine model over more points than gp._SQUARE_BELOW."""
        data = sine_dataset(n=gp._SQUARE_BELOW + 24, noise=0.1)
        model = trainer.fit(data, quiet_config(batch_size=40, max_epochs=4))
        return model, np.random.default_rng(7).uniform(0, 2 * np.pi, (25, 1))

    @staticmethod
    def clamping_model():
        """A model whose near-singular solves clamp many variances to 0."""
        data = sine_dataset(n=40)
        model = trainer.fit(data, quiet_config(batch_size=20, max_epochs=2,
                                               sigma2_floor=1e-20))
        # Constant networks: huge length-scales decorrelate the points, and
        # a noise variance of ~1e-20 leaves n_k - k*^T K^-1 k* at round-off.
        theta_net, sigma_net = model.theta_net, model.sigma_net
        theta_net.params.weights[-1][:] = 0.0
        theta_net.params.biases[-1][:] = 50.0
        sigma_net.params.weights[-1][:] = 0.0
        sigma_net.params.biases[-1][:] = -60.0
        model = trainer._assemble(theta_net, sigma_net, model.scaler,
                                  model.config, model.x, model.y,
                                  model.columns, model.log)
        return model, np.concatenate([data.x, data.x + 1e-3])

    @staticmethod
    def jitter_model():
        """A model whose duplicated training rows and ~1e-20 noise need jitter."""
        data = sine_dataset(n=40)
        x = np.concatenate([data.x, data.x[:12:3]])
        y = np.concatenate([data.y, data.y[:12:3]])
        model = trainer.fit(Dataset(x, y), quiet_config(
            batch_size=22, max_epochs=2, sigma2_floor=1e-20))
        # Constant networks: every copy of a row is the same warped point,
        # so K has equal rows that a noise variance of ~1e-20 cannot part.
        theta_net, sigma_net = model.theta_net, model.sigma_net
        theta_net.params.weights[-1][:] = 0.0
        theta_net.params.biases[-1][:] = 30.0
        sigma_net.params.weights[-1][:] = 0.0
        sigma_net.params.biases[-1][:] = -60.0
        model = trainer._assemble(theta_net, sigma_net, model.scaler,
                                  model.config, model.x, model.y,
                                  model.columns, model.log)
        # Three probes per training row: neighbour sets are shared.
        return model, np.linspace(-0.1, 2 * np.pi + 0.1, 90)[:, None]

    @staticmethod
    def group_jitter(model, sel):
        """Jitter the ladder needs for one neighbour set, factored directly."""
        x, theta = model.x[sel], model.hyper.theta[sel]
        k = cov_matrix(model.kernel_set, x, x, theta, theta)
        k[np.diag_indices_from(k)] += model.hyper.sigma2[sel]
        return linalg.cholesky_jittered(k).jitter_used

    def test_jitter_reported_for_the_full_set(self):
        model, probe = self.jitter_model()
        want = self.group_jitter(model, np.arange(model.n))
        assert want > 0.0
        for pred in (full_prediction(model, probe),
                     trainer.predict_batched(model, probe, k=model.n)):
            assert (pred.jitter_events, pred.jitter_max) == (1, want)

    def test_jitter_counted_per_group(self):
        model, probe = self.jitter_model()
        pred = trainer.predict_batched(model, probe, k=6)
        xs = model.scaler.transform_x(probe)
        sets = {tuple(np.sort(model.index.query(q, 6))) for q in xs}
        assert len(sets) < len(probe)
        levels = [self.group_jitter(model, list(sel)) for sel in sets]
        needed = [level for level in levels if level > 0.0]
        assert 0 < len(needed) < len(levels)
        assert pred.jitter_events == len(needed)
        assert pred.jitter_max == max(needed)

    def test_cached_jitter_groups_equal_uncached(self, monkeypatch):
        # A cached group factors its gathered block in place; a block that
        # needs jitter is gathered again for each rung past 0.
        model, probe = self.jitter_model()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_CACHE_ENTRIES", 0)
            want = trainer.predict_batched(model, probe, k=6)
        model._cache.build(model)
        gathers = collections.Counter()
        real = trainer._CovCache.block
        monkeypatch.setattr(trainer._CovCache, "block", lambda cache, sel:
                            gathers.update([tuple(sel)]) or real(cache, sel))
        got = trainer.predict_batched(model, probe, k=6)
        assert want.jitter_events > 0
        regathers = {sel: n - 1 for sel, n in gathers.items() if n > 1}
        assert len(regathers) == got.jitter_events
        ladder = linalg.DEFAULT_JITTER_LADDER
        for sel, n in regathers.items():
            assert n == ladder.index(self.group_jitter(model, list(sel)))
        assert_same_prediction(got, want)

    def test_a_jittered_cached_block_factors_rung_0_once(self, monkeypatch):
        # Rung 0 fails in the gathered block itself; rung 1 factors one
        # fresh gather, and no rung is factored twice.
        model, probe = self.jitter_model()
        model._cache.build(model)
        nearest = model.index.query(model.scaler.transform_x(probe), 6)
        row = next(i for i, sel in enumerate(nearest)
                   if self.group_jitter(model, sel) == 1e-8)
        calls = []
        real = linalg._dpotrf
        monkeypatch.setattr(linalg, "_dpotrf", lambda *args, **kwargs:
                            calls.append(args) or real(*args, **kwargs))
        pred = trainer.predict_batched(model, probe[row:row + 1], k=6)
        assert (pred.jitter_events, pred.jitter_max) == (1, 1e-8)
        assert len(calls) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_query_the_networks_cannot_map_is_a_numeric_failure(self):
        model, probe = self.sine_model()
        probe[3] = np.nan
        with pytest.raises(NonFiniteLoss, match="for the query points"):
            trainer.predict_batched(model, probe, k=5)


class TestUpdate:
    def test_zero_epochs_keeps_weights_and_grows_index(self):
        data = sine_dataset(n=20)
        model = trainer.fit(data, quiet_config(batch_size=20, max_epochs=5))
        extra = Dataset(np.array([[1.0], [2.0]]), np.array([0.1, -0.3]),
                        columns=["x"])
        updated = trainer.update(model, extra, epochs=0)
        for a, b in zip(param_arrays(model.theta_net.params),
                        param_arrays(updated.theta_net.params)):
            np.testing.assert_array_equal(a, b)
        assert updated.n == model.n + 2
        assert updated.index.n == model.n + 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("epochs", [0, 1])
    @pytest.mark.parametrize("x, y, error, match", [
        ([[0.2, 0.4]] * 3, np.ones((3, 2)), DimensionMismatch,
         "update needs a single response vector"),
        ([[0.2, 0.4], [1e308, 0.5]], [0.1, 0.2], InvalidTarget,
         "new input row 1, column 0 overflows"),
        ([[0.2, 0.4], [0.3, 1e308]], [0.1, 0.2], InvalidTarget,
         "new input row 1, column 1 overflows"),
        ([[0.2, 0.4], [0.3, 0.5]], [0.1, 1.7e308], InvalidTarget,
         "new response row 1 overflows"),
    ])
    def test_new_data_is_checked_before_training(self, monkeypatch, tmp_path,
                                                 epochs, x, y, error, match):
        # Unit-box inputs have standard deviations below 1, so 1e308
        # standardizes past float64, and so does 1.7e308 in the response,
        # whose standard deviation is below 0.9.
        x0 = np.random.default_rng(4).uniform(size=(40, 2))
        model = trainer.fit(Dataset(x0, np.sin(3 * x0.sum(axis=1))),
                            quiet_config(batch_size=20, max_epochs=2))
        trainer.save(model, tmp_path / "before")

        def train(*args):
            raise AssertionError("update trained on unchecked data")

        monkeypatch.setattr(trainer, "_run_epochs", train)
        with pytest.raises(error, match=match):
            trainer.update(model, Dataset(np.array(x), np.array(y)), epochs)
        trainer.save(model, tmp_path / "after")
        assert ((tmp_path / "after").read_bytes()
                == (tmp_path / "before").read_bytes())

    @pytest.mark.parametrize("epochs", [-1, True, 2.5, "1", None])
    def test_epoch_count_must_be_a_non_negative_integer(self, epochs):
        data = sine_dataset(n=20)
        model = trainer.fit(data, quiet_config(batch_size=20, max_epochs=1))
        with pytest.raises(InvalidSetting, match="epochs"):
            trainer.update(model, data, epochs)

    def test_update_on_known_subset_does_not_degrade(self):
        data = sine_dataset(n=40, noise=0.05)
        hold = sine_dataset(n=15, seed=5, noise=0.05)
        # Default config: regularizers on, modest learning rate, so the
        # noise variance stays calibrated rather than collapsing.
        model = trainer.fit(data, TrainConfig(batch_size=40, max_epochs=60))

        def heldout_nll(m):
            pred = trainer.predict_batched(m, hold.x, include_noise=True)
            var = np.maximum(pred.variance, 1e-10)
            return float(np.mean(
                0.5 * np.log(2 * np.pi * var)
                + 0.5 * (hold.y - pred.mean) ** 2 / var
            ))

        base = heldout_nll(model)
        resub = Dataset(data.x[:10], data.y[:10], columns=["x"])
        updated = trainer.update(model, resub, epochs=3)
        assert heldout_nll(updated) <= base + 0.1 * abs(base) + 1e-6

    def test_update_with_new_region_improves_rmse(self):
        x = np.linspace(0.0, 2 * np.pi, 60)[:, None]
        y = np.sin(3 * x[:, 0])
        first = Dataset(x[:30], y[:30], columns=["x"])
        second = Dataset(x[30:], y[30:], columns=["x"])
        model = trainer.fit(first, quiet_config(batch_size=30, max_epochs=60))
        grid = np.linspace(0.0, 2 * np.pi, 100)[:, None]
        truth = np.sin(3 * grid[:, 0])

        def rmse(m):
            pred = trainer.predict_batched(m, grid)
            return float(np.sqrt(np.mean((pred.mean - truth) ** 2)))

        before = rmse(model)
        updated = trainer.update(model, second, epochs=30)
        assert rmse(updated) < before

    def test_schema_mismatch(self):
        model = trainer.fit(sine_dataset(), quiet_config(batch_size=30,
                                                         max_epochs=2))
        bad = Dataset(np.ones((3, 2)), np.ones(3))
        with pytest.raises(SchemaMismatch):
            trainer.update(model, bad, epochs=1)
        renamed = Dataset(np.ones((3, 1)), np.ones(3), columns=["other"])
        with pytest.raises(SchemaMismatch):
            trainer.update(model, renamed, epochs=1)


class TestPersistence:
    def make_model(self):
        return trainer.fit(sine_dataset(noise=0.05),
                           quiet_config(batch_size=10, max_epochs=8,
                                        dropout_rate=0.1,
                                        input_noise_std=0.01))

    def test_roundtrip_identical_predictions(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.dgcn"
        trainer.save(model, path)
        loaded = trainer.load(path)
        rng = np.random.default_rng(8)
        probe = rng.uniform(-1, 7, (30, 1))
        a = trainer.predict_batched(model, probe, k=12)
        b = trainer.predict_batched(loaded, probe, k=12)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.variance, b.variance)
        np.testing.assert_array_equal(a.ci_low, b.ci_low)
        np.testing.assert_array_equal(a.ci_high, b.ci_high)

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(3, 40), n_v=st.integers(1, 3),
           kernels=st.lists(st.sampled_from(ALL_KERNELS), min_size=1,
                            max_size=5, unique=True),
           seed=st.integers(0, 2**16), k=st.integers(2, 45),
           strategy=st.sampled_from(["brute", "kdtree"]),
           hidden=st.sampled_from([(20, 20, 20), (0,), (3,), ()]))
    def test_roundtrip_keeps_every_array_and_prediction_field(
            self, n, n_v, kernels, seed, k, strategy, hidden):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, (n, n_v))
        x[-1] = x[0]  # a duplicated row
        data = Dataset(x, np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(n),
                       columns=[f"c{v}" for v in range(n_v)])
        model = trainer.fit(data, quiet_config(
            batch_size=max(2, n // 2), max_epochs=2, seed=seed,
            kernels=KernelSet(tuple(kernels)), neighbor_strategy=strategy,
            theta_hidden=hidden, sigma_hidden=hidden))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/m.dgcn"
            trainer.save(model, path)
            loaded = trainer.load(path)
        pairs = [(model.x, loaded.x), (model.y, loaded.y),
                 (model.hyper.theta, loaded.hyper.theta),
                 (model.hyper.sigma2, loaded.hyper.sigma2),
                 (model.index.points, loaded.index.points),
                 (model.scaler.x_mean, loaded.scaler.x_mean),
                 (model.scaler.x_std, loaded.scaler.x_std)]
        for net, back in ((model.theta_net, loaded.theta_net),
                          (model.sigma_net, loaded.sigma_net)):
            assert net.specs == back.specs
            pairs += list(zip(param_arrays(net.params), param_arrays(back.params)))
        for a, b in pairs:
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert (loaded.scaler.y_mean, loaded.scaler.y_std) == (
            model.scaler.y_mean, model.scaler.y_std)
        assert loaded.config == model.config
        assert loaded.columns == model.columns
        assert loaded.log == model.log
        assert loaded.index.strategy == model.index.strategy
        probe = rng.uniform(-2.5, 2.5, (7, n_v))
        for predict in (lambda m: trainer.predict_batched(m, probe, k=k),
                        lambda m: trainer.predict_batched(m, probe, k=m.n)):
            a, b = predict(model), predict(loaded)
            assert_same_prediction(b, a)

    def test_truncated_file_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.dgcn"
        trainer.save(model, path)
        blob = path.read_bytes()
        for cut in (len(blob) - 1, len(blob) // 2, 10):
            clipped = tmp_path / "clipped.dgcn"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(ChecksumMismatch):
                trainer.load(clipped)

    def test_corrupted_payload_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.dgcn"
        trainer.save(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            trainer.load(path)

    def test_future_version_rejected_before_anything_else(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.dgcn"
        trainer.save(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch):
            trainer.load(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.dgcn"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(FormatVersionMismatch):
            trainer.load(path)

    @pytest.mark.parametrize("edit", [
        lambda m: b"{not json",
        lambda m: b"\xff\xfe",
        lambda m: b"[]",
    ], ids=["bad-json", "bad-utf8", "not-an-object"])
    def test_undecodable_manifest_rejected(self, tmp_path, edit):
        path = tmp_path / "model.dgcn"
        trainer.save(self.make_model(), path)
        rewrite_manifest(path, edit)
        with pytest.raises(FormatVersionMismatch):
            trainer.load(path)

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("scaler"),
        lambda m: m.pop("config"),
        lambda m: m.pop("log"),
        lambda m: m.pop("sigma_specs"),
        lambda m: m["arrays"][0].pop("shape"),
        lambda m: m["scaler"].pop("x_std"),
        lambda m: m["scaler"].update(y_std="wide"),
        lambda m: m["scaler"].update(x_mean=[0.0, 1.0]),
        lambda m: m["config"].update(kernels=["no_such_kernel"]),
        lambda m: m["config"].update(batch_size="big"),
        # Only config files may leave keys to their defaults.
        lambda m: m["config"].pop("batch_size"),
        lambda m: m["config"].pop("optimizer"),
        lambda m: m["config"]["optimizer"].pop("beta2"),
        lambda m: m["theta_specs"][0].__setitem__(2, "tanh"),
        lambda m: m.update(theta_specs=[]),
        lambda m: m.update(columns=["x", "z"]),
        lambda m: array_entry(m, "train_y").update(shape=["30"]),
        lambda m: array_entry(m, "train_y").update(shape=30),
        lambda m: array_entry(m, "train_y").update(shape=[-30]),
        # Same byte count as the payload, wrong layout for the networks.
        lambda m: array_entry(m, "theta_w0").update(
            shape=array_entry(m, "theta_w0")["shape"][::-1]),
        lambda m: array_entry(m, "train_x").update(shape=[15, 2]),
        lambda m: array_entry(m, "train_y").update(shape=[30, 1]),
    ], ids=[
        "no-scaler", "no-config", "no-log", "no-sigma-specs", "no-shape",
        "no-x-std", "y-std-text", "x-mean-width", "unknown-kernel",
        "batch-size-text", "no-config-batch-size", "no-config-optimizer",
        "no-optimizer-beta2", "unknown-activation", "no-theta-layers",
        "columns-width", "shape-text", "shape-scalar", "shape-negative",
        "weights-transposed", "train-x-reshaped", "train-y-2d",
    ])
    def test_malformed_manifest_rejected(self, tmp_path, edit):
        path = tmp_path / "model.dgcn"
        trainer.save(self.make_model(), path)

        def apply(raw):
            manifest = json.loads(raw)
            edit(manifest)
            return json.dumps(manifest).encode()

        rewrite_manifest(path, apply)
        with pytest.raises(FormatVersionMismatch):
            trainer.load(path)

    def test_zero_input_model_rejected(self, tmp_path):
        # A well-formed file with a valid CRC whose networks take no input,
        # as a fit on a zero-column dataset once wrote.
        model = self.make_model()
        theta_net, sigma_net = trainer.build_networks(
            0, model.config, np.random.default_rng(0))
        x = np.empty((model.n, 0))
        scaler = dataclasses.replace(model.scaler, x_mean=np.zeros(0),
                                     x_std=np.ones(0))
        zero = dataclasses.replace(
            model, theta_net=theta_net, sigma_net=sigma_net, x=x, columns=[],
            scaler=scaler, hyper=trainer.hyper_for(theta_net, sigma_net, x,
                                    model.config.sigma2_floor))
        path = tmp_path / "model.dgcn"
        trainer.save(zero, path)
        with pytest.raises(FormatVersionMismatch, match="take 0 inputs"):
            trainer.load(path)

    def test_declared_shapes_must_cover_payload(self, tmp_path):
        path = tmp_path / "model.dgcn"
        trainer.save(self.make_model(), path)

        def apply(raw):
            manifest = json.loads(raw)
            array_entry(manifest, "train_y").update(shape=[29])
            return json.dumps(manifest).encode()

        rewrite_manifest(path, apply)
        with pytest.raises(ChecksumMismatch):
            trainer.load(path)


def array_entry(manifest, name):
    return next(e for e in manifest["arrays"] if e["name"] == name)


def rewrite_manifest(path, edit):
    """Replace a model file's manifest by edit(manifest bytes), with a valid CRC."""
    blob = path.read_bytes()
    head = len(trainer.MODEL_MAGIC) + 1
    (size,) = struct.unpack("<I", blob[head : head + 4])
    manifest = edit(blob[head + 4 : head + 4 + size])
    out = (blob[:head] + struct.pack("<I", len(manifest)) + manifest
           + blob[head + 4 + size : -4])
    path.write_bytes(out + struct.pack("<I", zlib.crc32(out)))
