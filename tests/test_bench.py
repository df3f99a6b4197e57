import json
import warnings

import numpy as np
import pytest

from dgcn import bench, trainer
from dgcn.errors import MissingColumn, ParseError
from dgcn.kernels import KernelId, KernelSet
from dgcn.mlp import OptimizerConfig
from dgcn.trainer import Dataset, TrainConfig

from oracles import stationary_fit, stationary_gp


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def quick_config(**kwargs):
    defaults = dict(
        batch_size=256,
        max_epochs=60,
        dropout_rate=0.0,
        input_noise_std=0.0,
        optimizer=OptimizerConfig(learning_rate=1e-2),
        early_stop_patience=1000,
        seed=0,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestLoadCsv:
    def test_two_row_file_roundtrips_exactly(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["a", "b", "target"],
                  [[1.25, -3.5, 10.0], [0.125, 7.0, -2.5]])
        data = bench.load_csv(path, "target")
        np.testing.assert_array_equal(data.x, [[1.25, -3.5], [0.125, 7.0]])
        np.testing.assert_array_equal(data.y, [10.0, -2.5])
        assert data.columns == ["a", "b"]

    def test_last_column_default(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4], [5, 6]])
        data = bench.load_csv(path)
        np.testing.assert_array_equal(data.y, [2.0, 4.0, 6.0])

    def test_text_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["a", "b"], [[1, 2], ["oops", 4]])
        with pytest.raises(ParseError) as err:
            bench.load_csv(path)
        assert err.value.row == 3
        assert err.value.col == 1

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        with pytest.raises(MissingColumn):
            bench.load_csv(path, "price")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError):
            bench.load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_reports_position(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1,2\n\n3,{cell}\n")
        with pytest.raises(ParseError) as err:
            bench.load_csv(path)
        # The blank line is not counted.
        assert (err.value.row, err.value.col) == (3, 2)

    def test_only_selected_columns_are_parsed(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("id,x,note\n7,0.5,first\n8,-1.5,second\n")
        header, rows = bench.read_csv_rows(path)
        assert header == ["id", "x", "note"]
        np.testing.assert_array_equal(bench.parse_columns(rows, [1, 0]),
                                      [[0.5, 7.0], [-1.5, 8.0]])
        with pytest.raises(ParseError) as err:
            bench.parse_columns(rows, [2])
        assert (err.value.row, err.value.col) == (2, 3)

    def test_missing_cell_reports_position(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b,c\n1,2,3\n4\n")
        _, rows = bench.read_csv_rows(path)
        with pytest.raises(ParseError) as err:
            bench.parse_columns(rows, [0, 2])
        assert (err.value.row, err.value.col) == (3, 3)


class TestWritePredictionCsv:
    @pytest.mark.parametrize("names, start, head", [
        ((), 0, "row,mean"),
        (("index", "prediction"), 120, "index,prediction"),
    ])
    def test_exact_bytes(self, tmp_path, names, start, head):
        from dgcn.gp import Prediction

        pred = Prediction(np.array([0.1, -2.0]), np.array([1e-300, 0.0]),
                          np.array([-0.3, -2.5]), np.array([0.5, -1.5]), 0.05)
        out = tmp_path / "pred.csv"
        bench.write_prediction_csv(out, pred, *names, start=start)
        assert out.read_bytes() == (
            f"{head},variance,ci_low,ci_high\n"
            f"{start},0.1,1e-300,-0.3,0.5\n"
            f"{start + 1},-2.0,0.0,-2.5,-1.5\n"
        ).encode()


class TestReportFileBytes:
    def test_bench_report_csv_and_summary(self, tmp_path):
        report = bench.BenchReport(
            protocol=bench.Protocol(folds=2, repeats=1, metric="mse"),
            records=[bench.RunRecord(0, 0, 0, 0.25, 1.5),
                     bench.RunRecord(1, 0, 1, 1e-300, 0.1)],
            wall_clock=2.0, config_fingerprint="abc")
        report.write_csv(tmp_path / "runs.csv")
        bench.write_json(tmp_path / "summary.json", report.summary())
        assert (tmp_path / "runs.csv").read_bytes() == (
            b"run_id,repeat,fold,metric_value,seconds\n"
            b"0,0,0,0.25,1.5\n"
            b"1,0,1,1e-300,0.1\n")
        assert (tmp_path / "summary.json").read_bytes() == (
            b'{\n  "config_fingerprint": "abc",\n  "max": 0.25,\n'
            b'  "mean": 0.125,\n  "metric": "mse",\n  "min": 1e-300,\n'
            b'  "runs": 2,\n  "std": 0.125,\n  "wall_clock_seconds": 2.0\n}\n')

    def test_timing_report_csv(self, tmp_path):
        report = bench.TimingReport(rows=[bench.TimingRow(128, 64, 0.5, 0.25),
                                          bench.TimingRow(256, 256, 3.0, 1.5)])
        report.write_csv(tmp_path / "timing.csv")
        assert (tmp_path / "timing.csv").read_bytes() == (
            b"N,N_b,seconds,sec_per_epoch\n128,64,0.5,0.25\n256,256,3.0,1.5\n")

    def test_write_json(self, tmp_path):
        bench.write_json(tmp_path / "x.json", {"b": [1, 2.5], "a": None})
        assert (tmp_path / "x.json").read_bytes() == (
            b'{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n')


class TestSplits:
    def test_fold_sizes_506_into_10(self):
        protocol = bench.Protocol(folds=10, repeats=1)
        sizes = [len(test) for _, _, _, test in bench._splits(506, protocol)]
        assert sorted(sizes, reverse=True) == [51] * 6 + [50] * 4

    def test_folds_partition_index_set(self):
        protocol = bench.Protocol(folds=7, repeats=3, seed=11)
        for r in range(protocol.repeats):
            tests = [t for rr, _, _, t in bench._splits(100, protocol) if rr == r]
            all_idx = np.sort(np.concatenate(tests))
            np.testing.assert_array_equal(all_idx, np.arange(100))

    def test_train_and_test_disjoint(self):
        protocol = bench.Protocol(folds=5, repeats=2)
        for _, _, train, test in bench._splits(50, protocol):
            assert not set(train) & set(test)
            assert len(train) + len(test) == 50

    def test_repeat_shuffle_depends_only_on_base_seed_and_repeat(self):
        p1 = bench.Protocol(folds=5, repeats=3, seed=42)
        p2 = bench.Protocol(folds=5, repeats=5, seed=42)
        folds1 = [t for r, _, _, t in bench._splits(60, p1) if r == 2]
        folds2 = [t for r, _, _, t in bench._splits(60, p2) if r == 2]
        for a, b in zip(folds1, folds2):
            np.testing.assert_array_equal(a, b)

    def test_split_protocol_head_tail(self):
        protocol = bench.Protocol(kind="split", repeats=2, train_size=40,
                                  test_size=10)
        rows = list(bench._splits(50, protocol))
        assert len(rows) == 2
        for _, _, train, test in rows:
            assert len(train) == 40 and len(test) == 10
            assert not set(train) & set(test)


class TestRunProtocol:
    def test_leave_one_out_linear_fixture(self):
        x = np.linspace(0.0, 1.0, 10)[:, None]
        y = 2.0 * x[:, 0] + 1.0
        data = Dataset(x, y, columns=["x"])
        protocol = bench.Protocol(folds=10, repeats=1, seed=0)
        report = bench.run_protocol(data, protocol,
                                    quick_config(max_epochs=120))
        assert report.summary()["mean"] < 0.05

    def test_identical_seeds_identical_reports(self):
        data = bench.synthetic_dataset(24, 2, seed=3)
        protocol = bench.Protocol(folds=3, repeats=2, seed=5)
        cfg = quick_config(max_epochs=5)
        a = bench.run_protocol(data, protocol, cfg)
        b = bench.run_protocol(data, protocol, cfg)
        np.testing.assert_array_equal(a.values(), b.values())
        assert a.config_fingerprint == b.config_fingerprint

    def test_rmse_squared_equals_mse(self):
        data = bench.synthetic_dataset(24, 2, seed=4)
        cfg = quick_config(max_epochs=5)
        rmse = bench.run_protocol(
            data, bench.Protocol(folds=3, repeats=1, metric="rmse"), cfg)
        mse = bench.run_protocol(
            data, bench.Protocol(folds=3, repeats=1, metric="mse"), cfg)
        np.testing.assert_allclose(rmse.values() ** 2, mse.values(), atol=1e-12)

    @pytest.mark.parametrize("errors", [[1e200, -3e200, 2e200],
                                        [1.7e308, 0.0, -1.7e308, 1e-300]])
    def test_rmse_of_errors_whose_squares_overflow(self, errors):
        err = np.array(errors)
        scale = np.abs(err).max()
        want = scale * np.sqrt(np.mean((err / scale) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert bench._score(err, np.zeros_like(err), "rmse") == want
            assert bench._score(err, np.zeros_like(err), "mse") == np.inf
        assert np.isfinite(want) and want > 1e200

    def test_score_arithmetic_without_overflow_is_unchanged(self):
        rng = np.random.default_rng(10)
        truth, pred = rng.standard_normal(50), rng.standard_normal(50)
        mse = float(np.mean((truth - pred) ** 2))
        assert bench._score(truth, pred, "mse") == mse
        assert bench._score(truth, pred, "rmse") == float(np.sqrt(mse))

    def test_log_transform_scores_in_log_space(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, (30, 1))
        y = np.exp(3.0 * x[:, 0])  # huge raw spread, tame in log space
        data = Dataset(x, y, columns=["x"])
        cfg = quick_config(max_epochs=40)
        log_report = bench.run_protocol(
            data, bench.Protocol(folds=3, repeats=1, transform="log"), cfg)
        raw_report = bench.run_protocol(
            data, bench.Protocol(folds=3, repeats=1, transform="none"), cfg)
        # Log-space residuals of a decent fit stay well below 1; raw
        # residuals on exp(3x) do not collapse the same way.
        assert log_report.summary()["mean"] < 0.5
        assert log_report.summary()["mean"] != raw_report.summary()["mean"]

    def test_none_transform_matches_hand_rmse(self):
        data = bench.synthetic_dataset(20, 1, seed=7)
        protocol = bench.Protocol(folds=2, repeats=1, seed=9)
        cfg = quick_config(max_epochs=5)
        report = bench.run_protocol(data, protocol, cfg)
        # Recompute one fold by hand with the same derived seed.
        (r, f, train, test) = next(iter(bench._splits(data.n, protocol)))
        from dataclasses import replace

        model = trainer.fit(Dataset(data.x[train], data.y[train], data.columns),
                            replace(cfg, seed=trainer.derived_seed(9, r, f)))
        pred = trainer.predict_batched(model, data.x[test]).mean
        hand = float(np.sqrt(np.mean((data.y[test] - pred) ** 2)))
        assert report.records[0].metric_value == pytest.approx(hand, rel=1e-12)

    def test_report_files(self, tmp_path):
        data = bench.synthetic_dataset(24, 2, seed=8)
        report = bench.run_protocol(
            data, bench.Protocol(folds=3, repeats=1), quick_config(max_epochs=3))
        csv_path = tmp_path / "runs.csv"
        json_path = tmp_path / "summary.json"
        report.write_csv(csv_path)
        bench.write_json(json_path, report.summary())
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "run_id,repeat,fold,metric_value,seconds"
        assert len(lines) == 4
        summary = json.loads(json_path.read_text())
        assert summary["runs"] == 3
        assert summary["min"] <= summary["mean"] <= summary["max"]


def stationary_config(**kwargs):
    """The stationary control model as the main model's config.

    Zero-width hidden layers make each hypernetwork output its final bias
    for every point; one squared-exponential kernel, no regularizers and no
    early stopping, like the control model's defaults.
    """
    defaults = dict(
        kernels=KernelSet((KernelId.SQUARED_EXP,)),
        theta_hidden=(0,),
        sigma_hidden=(0,),
        dropout_rate=0.0,
        input_noise_std=0.0,
        max_epochs=100,
    )
    defaults.update(kwargs)
    defaults.setdefault("early_stop_patience", defaults["max_epochs"] + 1)
    return TrainConfig(**defaults)


class TestStationaryBaseline:
    def test_recovers_synthetic_stationary_gp(self):
        # Data drawn from a known stationary squared-exponential GP; the
        # trained baseline must come close to the generating model's own
        # predictive accuracy.
        rng = np.random.default_rng(10)
        n, n_v = 90, 1
        theta_true = np.array([2.0])
        sigma2_true = 1e-4
        x = rng.uniform(-2, 2, (n, n_v))
        d = np.sqrt((((x * theta_true)[:, None, :]
                      - (x * theta_true)[None, :, :]) ** 2).sum(-1))
        cov = np.exp(-0.5 * d**2) + sigma2_true * np.eye(n)
        y = np.linalg.cholesky(cov) @ rng.standard_normal(n)
        train, test = np.arange(60), np.arange(60, 90)

        oracle_mean, _, _ = stationary_gp(
            "squared_exp", x[train], y[train], theta_true, sigma2_true, x[test])
        oracle_rmse = float(np.sqrt(np.mean((oracle_mean - y[test]) ** 2)))

        cfg = stationary_config(
            optimizer=OptimizerConfig(learning_rate=3e-2),
            batch_size=60, max_epochs=200, seed=0)
        model = trainer.fit(Dataset(x[train], y[train], columns=["x"]), cfg)
        pred = trainer.predict_batched(model, x[test], k=model.n)
        rmse = float(np.sqrt(np.mean((pred.mean - y[test]) ** 2)))
        assert rmse <= 1.2 * oracle_rmse + 1e-4

    def test_constant_target_fits_exactly(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (20, 2))
        data = Dataset(x, np.full(20, 3.3), columns=["a", "b"])
        model = trainer.fit(data, stationary_config(batch_size=20, max_epochs=10))
        pred = trainer.predict_batched(model, x, k=model.n)
        np.testing.assert_allclose(pred.mean, 3.3, atol=1e-8)

    def test_report_shape_matches_run_protocol(self):
        data = bench.synthetic_dataset(24, 2, seed=12)
        protocol = bench.Protocol(folds=3, repeats=2)
        main = bench.run_protocol(data, protocol, quick_config(max_epochs=3))
        base = bench.run_protocol(
            data, protocol, stationary_config(batch_size=24, max_epochs=3))
        assert len(main.records) == len(base.records) == 6
        assert set(main.summary()) == set(base.summary())

    def test_other_kernel_choices_accepted(self):
        data = bench.synthetic_dataset(20, 1, seed=13)
        cfg = stationary_config(kernels=KernelSet((KernelId.MATERN52,)),
                                batch_size=20, max_epochs=5)
        model = trainer.fit(data, cfg)
        pred = trainer.predict_batched(model, data.x, k=model.n)
        assert np.all(np.isfinite(pred.mean))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch_size", [120, 40])
    def test_fit_matches_hand_written_loop(self, seed, batch_size):
        # The oracle steps one Adam over (theta, raw sigma) with the chain
        # rule written out; the zero-width networks must learn the same
        # field through their output biases.  Without regularizers neither
        # side draws anything but the batch permutations.
        data = bench.synthetic_dataset(120, 2, seed=14)
        cfg = stationary_config(
            optimizer=OptimizerConfig(learning_rate=1e-2),
            batch_size=batch_size, max_epochs=30, seed=seed)
        model = trainer.fit(data, cfg)
        theta, sigma2 = stationary_fit(data, cfg)
        np.testing.assert_allclose(model.hyper.theta,
                                   np.tile(theta, (data.n, 1)), rtol=1e-12)
        np.testing.assert_allclose(model.hyper.sigma2, sigma2, rtol=1e-12)

    def test_regularizers_cannot_reach_the_field(self):
        data = bench.synthetic_dataset(60, 2, seed=15)
        model = trainer.fit(data, stationary_config(
            batch_size=20, max_epochs=5, dropout_rate=0.1, input_noise_std=0.01))
        assert np.ptp(model.hyper.theta, axis=0).max() == 0.0
        assert np.ptp(model.hyper.sigma2) == 0.0
        assert model.log.epochs_run == 5


class TestTimingBenchmark:
    def test_smoke_rows_and_memory_cap(self, tmp_path):
        report = bench.timing_benchmark(
            sizes=[128, 256], batch_sizes=[64, None], epochs=2,
            synthetic_dims=3, memory_cap_bytes=6 * 8 * 200**2)
        # 128 full-batch fits under the cap, 256 does not.
        combos = {(r.n, r.batch_size) for r in report.rows}
        assert (128, 64) in combos and (256, 64) in combos
        assert (128, 128) in combos
        assert all(r.seconds > 0 for r in report.rows)
        assert [s[:2] for s in report.skipped] == [(256, 256)]
        out = tmp_path / "timing.csv"
        report.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,N_b,seconds,sec_per_epoch"
        assert len(lines) == 4

    def test_memory_cap_applies_to_a_batch_above_n(self, monkeypatch):
        # N_b = 300 >= N = 256 is a full batch: the cap skips it, and only
        # the untimed 64-point warm-up fit runs.
        fitted = []
        fit = trainer.fit
        monkeypatch.setattr(bench.trainer, "fit",
                            lambda data, cfg: fitted.append(data.n)
                            or fit(data, cfg))
        report = bench.timing_benchmark(
            sizes=[256], batch_sizes=[300], epochs=2, synthetic_dims=3,
            memory_cap_bytes=6 * 8 * 256**2 - 1)
        assert report.rows == []
        assert [s[:2] for s in report.skipped] == [(256, 300)]
        assert fitted == [64]

    def test_time_grows_with_n_at_fixed_batch(self):
        report = bench.timing_benchmark(
            sizes=[200, 1600], batch_sizes=[100], epochs=3, synthetic_dims=3)
        assert report.rows[0].seconds < report.rows[1].seconds
