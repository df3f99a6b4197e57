import dataclasses
import json
import struct
import sys
import zlib

import numpy as np
import pytest

from dgcn import trainer
from dgcn.errors import (
    ChecksumMismatch,
    DimensionMismatch,
    FormatVersionMismatch,
    InvalidSetting,
    SchemaMismatch,
)
from dgcn.mlp import OptimizerConfig
from dgcn.trainer import Dataset, Scaler, TrainConfig


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

    def test_fit_needs_two_points(self):
        tiny = Dataset(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            trainer.fit(tiny, quiet_config(max_epochs=1))

    def test_standardization_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, (40, 3)) * np.array([1.0, 10.0, 0.01])
        y = rng.uniform(100, 200, 40)
        scaler = Scaler.fit(x, y)
        np.testing.assert_allclose(scaler.inverse_x(scaler.transform_x(x)), x,
                                   atol=1e-12)
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


class TestFit:
    def test_learns_noise_free_sine(self):
        data = sine_dataset()
        model = trainer.fit(data, quiet_config(batch_size=30))
        pred = trainer.predict_full(model, data.x)
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
    def test_k_equals_n_matches_full_prediction(self):
        data = sine_dataset(noise=0.1)
        model = trainer.fit(data, quiet_config(batch_size=10, max_epochs=10))
        rng = np.random.default_rng(7)
        probe = rng.uniform(0, 2 * np.pi, (25, 1))
        full = trainer.predict_full(model, probe)
        batched = trainer.predict_batched(model, probe, k=model.n)
        assert np.abs(full.mean - batched.mean).max() < 1e-12
        assert np.abs(full.variance - batched.variance).max() < 1e-12
        assert np.abs(full.ci_low - batched.ci_low).max() < 1e-12

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

    def test_threaded_prediction_matches_serial(self, monkeypatch):
        data = sine_dataset(n=50, noise=0.05)
        model = trainer.fit(data, quiet_config(batch_size=25, max_epochs=5))
        probe = np.linspace(-0.3, 6.5, 40)[:, None]
        serial = trainer.predict_batched(model, probe, k=10)
        monkeypatch.setenv("DGCN_THREADS", "4")
        threaded = trainer.predict_batched(model, probe, k=10)
        np.testing.assert_array_equal(serial.mean, threaded.mean)
        np.testing.assert_array_equal(serial.variance, threaded.variance)

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

    @pytest.mark.parametrize("threads", ["2", "8"])
    def test_threaded_prediction_equals_serial_with_clamp_count(
            self, monkeypatch, threads):
        model, probe = self.clamping_model()
        serial = trainer.predict_batched(model, probe, k=10)
        assert serial.clamped > 0
        monkeypatch.setenv("DGCN_THREADS", threads)
        # More workers than cores and frequent thread switches: a lost
        # update to a shared counter would show up as a smaller count.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                threaded = trainer.predict_batched(model, probe, k=10)
                for f in dataclasses.fields(serial):
                    np.testing.assert_array_equal(getattr(threaded, f.name),
                                                  getattr(serial, f.name))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("value, want", [(None, 1), ("", 1), ("1", 1),
                                             ("3", 3), (" 2 ", 2)])
    def test_worker_count_accepts_positive_integers(self, monkeypatch, value,
                                                    want):
        if value is None:
            monkeypatch.delenv("DGCN_THREADS", raising=False)
        else:
            monkeypatch.setenv("DGCN_THREADS", value)
        assert trainer.worker_count() == want

    @pytest.mark.parametrize("value", ["banana", "0", "-1", "2.5", "1e3"])
    def test_worker_count_rejects_other_values(self, monkeypatch, value):
        monkeypatch.setenv("DGCN_THREADS", value)
        with pytest.raises(InvalidSetting):
            trainer.worker_count()


class TestUpdate:
    def test_zero_epochs_keeps_weights_and_grows_index(self):
        data = sine_dataset(n=20)
        model = trainer.fit(data, quiet_config(batch_size=20, max_epochs=5))
        extra = Dataset(np.array([[1.0], [2.0]]), np.array([0.1, -0.3]),
                        columns=["x"])
        updated = trainer.update(model, extra, epochs=0)
        for a, b in zip(model.theta_net.params.arrays(),
                        updated.theta_net.params.arrays()):
            np.testing.assert_array_equal(a, b)
        assert updated.n == model.n + 2
        assert updated.index.n == model.n + 2

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
        "batch-size-text", "unknown-activation", "no-theta-layers",
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
