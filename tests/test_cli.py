import csv
import json

import numpy as np
import pytest

from dgcn import cli, trainer

from test_trainer import rewrite_manifest


@pytest.fixture()
def sine_csv(tmp_path):
    path = tmp_path / "train.csv"
    x = np.linspace(0.0, 2 * np.pi, 40)
    y = np.sin(3 * x)
    rows = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture()
def fast_config_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "batch_size": 40,
        "max_epochs": 30,
        "dropout_rate": 0.0,
        "input_noise_std": 0.0,
        "optimizer": {"learning_rate": 0.01},
        "early_stop_patience": 100,
    }))
    return path


def run(args):
    return cli.main([str(a) for a in args])


class TestTrain:
    def test_end_to_end_writes_model_and_log(self, tmp_path, sine_csv,
                                             fast_config_json):
        out = tmp_path / "model.dgcn"
        code = run(["train", "--data", sine_csv, "--target", "y",
                    "--config", fast_config_json, "--out", out, "--seed", 3])
        assert code == 0
        assert out.exists()
        log = json.loads((tmp_path / "model.dgcn.log.json").read_text())
        assert log["epochs_run"] >= 1
        assert log["final_nll"] < log["initial_nll"]
        assert log["config"]["seed"] == 3
        model = trainer.load(out)
        assert model.n == 40

    def test_missing_data_flag_is_usage_error(self, capsys):
        assert run(["train"]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, sine_csv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": 0.1}))
        assert run(["train", "--data", sine_csv, "--config", bad]) == 2

    def test_nonexistent_data_file_is_data_error(self, tmp_path):
        assert run(["train", "--data", tmp_path / "nope.csv"]) == 3

    def test_seed_determinism_byte_identical_models(self, tmp_path, sine_csv,
                                                    fast_config_json):
        a = tmp_path / "a.dgcn"
        b = tmp_path / "b.dgcn"
        for out in (a, b):
            assert run(["train", "--data", sine_csv, "--target", "y",
                        "--config", fast_config_json, "--out", out,
                        "--seed", 7]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPredict:
    def fit_model(self, tmp_path, sine_csv, config, seed=0):
        out = tmp_path / "model.dgcn"
        assert run(["train", "--data", sine_csv, "--target", "y",
                    "--config", config, "--out", out, "--seed", seed]) == 0
        return out

    def test_predictions_near_targets_on_training_file(self, tmp_path, sine_csv,
                                                       fast_config_json):
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", model, "--data", sine_csv,
                    "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        x = np.linspace(0.0, 2 * np.pi, 40)
        got = np.array([float(r["mean"]) for r in rows])
        assert np.abs(got - np.sin(3 * x)).max() < 0.05

    def test_interval_width_monotone_in_alpha(self, tmp_path, sine_csv,
                                              fast_config_json):
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        widths = {}
        for alpha in ("0.5", "0.05"):
            out = tmp_path / f"pred{alpha}.csv"
            assert run(["predict", "--model", model, "--data", sine_csv,
                        "--alpha", alpha, "--out", out]) == 0
            with open(out) as fh:
                rows = list(csv.DictReader(fh))
            widths[alpha] = np.array(
                [float(r["ci_high"]) - float(r["ci_low"]) for r in rows])
        assert np.all(widths["0.5"] <= widths["0.05"])
        assert widths["0.5"].max() < widths["0.05"].max()

    def test_wrong_column_count_is_data_error(self, tmp_path, sine_csv,
                                              fast_config_json):
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert run(["predict", "--model", model, "--data", bad]) == 3

    def test_missing_model_file_is_data_error(self, tmp_path, sine_csv):
        assert run(["predict", "--model", tmp_path / "none.dgcn",
                    "--data", sine_csv]) == 3

    def test_malformed_manifest_is_data_error(self, tmp_path, sine_csv,
                                              fast_config_json, capsys):
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)

        def drop_scaler(raw):
            manifest = json.loads(raw)
            del manifest["scaler"]
            return json.dumps(manifest).encode()

        rewrite_manifest(model, drop_scaler)
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", sine_csv,
                    "--out", tmp_path / "pred.csv"]) == 3
        assert "malformed model manifest" in capsys.readouterr().err

    def test_bad_thread_setting_is_usage_error(self, tmp_path, sine_csv,
                                               fast_config_json, monkeypatch):
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        monkeypatch.setenv("DGCN_THREADS", "banana")
        assert run(["predict", "--model", model, "--data", sine_csv,
                    "--out", tmp_path / "pred.csv"]) == 2


class TestCrossval:
    def test_smoke_writes_reports(self, tmp_path, sine_csv, fast_config_json):
        code = run(["crossval", "--data", sine_csv, "--target", "y",
                    "--preset", "table3-raw", "--folds", 3, "--repeats", 1,
                    "--config", fast_config_json, "--out-dir", tmp_path,
                    "--seed", 1])
        assert code == 0
        summary = json.loads((tmp_path / "crossval_summary.json").read_text())
        assert summary["runs"] == 3
        assert summary["metric"] == "rmse"
        with open(tmp_path / "crossval_runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        values = [float(r["metric_value"]) for r in rows]
        assert summary["mean"] == pytest.approx(float(np.mean(values)))

    def test_baseline_flag(self, tmp_path, sine_csv):
        code = run(["crossval", "--data", sine_csv, "--target", "y",
                    "--baseline", "--folds", 3, "--repeats", 1,
                    "--out-dir", tmp_path, "--seed", 1])
        assert code == 0
        assert (tmp_path / "baseline_summary.json").exists()


class TestForecastAndGapFilling:
    def test_forecast_csv(self, tmp_path, fast_config_json):
        series_path = tmp_path / "series.csv"
        t = np.arange(120)
        series_path.write_text(
            "value\n" + "\n".join(repr(float(v)) for v in np.sin(2 * np.pi * t / 20.0))
            + "\n")
        out = tmp_path / "forecast.csv"
        code = run(["forecast", "--series", series_path, "--steps", 10,
                    "--lags", 8, "--config", fast_config_json, "--out", out,
                    "--seed", 0])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert rows[0]["index"] == "120"

    @pytest.mark.slow
    def test_gap_filling_consistency(self, tmp_path, capsys):
        t = np.arange(5000, dtype=float)
        series = 30 * np.sin(2 * np.pi * t / 240.0) + 10 * np.sin(
            2 * np.pi * t / 55.0)
        truth = []
        masked = series.copy()
        from dgcn.timeseries import CATS_BLOCKS

        for start, end in CATS_BLOCKS.blocks:
            truth.append(series[start - 1 : end])
            masked[start - 1 : end] = np.nan
        series_path = tmp_path / "series.csv"
        series_path.write_text("value\n" + "\n".join(
            "" if np.isnan(v) else repr(float(v)) for v in masked) + "\n")
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("value\n" + "\n".join(
            repr(float(v)) for v in np.concatenate(truth)) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "batch_size": 256, "max_epochs": 15, "dropout_rate": 0.0,
            "input_noise_std": 0.0, "optimizer": {"learning_rate": 0.01},
        }))
        code = run(["cats", "--series", series_path, "--truth", truth_path,
                    "--lags", "10,10,10,10,10", "--config", cfg,
                    "--out-dir", tmp_path, "--seed", 0])
        assert code == 0
        printed = capsys.readouterr().out
        assert "E1 =" in printed
        summary = json.loads((tmp_path / "cats_summary.json").read_text())
        with open(tmp_path / "cats_predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        preds = np.array([float(r["prediction"]) for r in rows])
        from dgcn.timeseries import e1_score

        assert summary["e1"] == pytest.approx(
            e1_score(np.concatenate(truth), preds), rel=1e-9)


class TestBenchTime:
    def test_smoke(self, tmp_path):
        out = tmp_path / "timing.csv"
        code = run(["bench-time", "--sizes", "128,256", "--batch", "64",
                    "--epochs", 2, "--dims", 2, "--out", out, "--seed", 0])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(float(r["seconds"]) > 0 for r in rows)
