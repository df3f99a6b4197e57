import csv
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dgcn import bench, cli, errors, timeseries, trainer

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


def run_subprocess(args, preexec_fn=None, **env):
    """``python -m dgcn.cli`` with ``args`` in a new process, the package's
    source on its path and ``env`` added to its environment; ``preexec_fn``
    runs in the child before it starts."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "dgcn.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=preexec_fn)


def assert_usage_error(capsys, args):
    """Exit 2 with a one-line message on stderr and no traceback."""
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def assert_data_error(capsys, args):
    """Exit 3 with a one-line message on stderr and no traceback."""
    capsys.readouterr()
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


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

    def test_one_row_is_data_error(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("x,y\n0.5,1.0\n")
        err = assert_data_error(capsys, ["train", "--data", one, "--target", "y",
                                         "--out", tmp_path / "m.dgcn"])
        assert "at least 2 points" in err

    def test_target_only_csv_is_data_error(self, tmp_path, capsys):
        # No input column: nothing to warp, so training never starts.
        data = tmp_path / "target.csv"
        data.write_text("y\n" + "".join(f"{i / 7.0!r}\n" for i in range(40)))
        out = tmp_path / "m.dgcn"
        err = assert_data_error(capsys, ["train", "--data", data,
                                         "--out", out])
        assert "at least 1 point and 1 input column" in err
        assert not out.exists() and not (tmp_path / "m.dgcn.log.json").exists()
        err = assert_data_error(capsys, [
            "crossval", "--data", data, "--folds", 3, "--repeats", 1,
            "--out-dir", tmp_path])
        assert "1 input column" in err
        assert not (tmp_path / "crossval_summary.json").exists()

    def test_overflowing_response_statistics_are_data_errors(self, tmp_path,
                                                             fast_config_json,
                                                             capsys):
        # The standard deviation of responses near 1e200 overflows float64.
        x = np.linspace(0.0, 2 * np.pi, 40)
        data = tmp_path / "huge.csv"
        data.write_text("x,y\n" + "".join(
            f"{float(a)!r},{float(b) * 1e200!r}\n"
            for a, b in zip(x, np.sin(3 * x))))
        model = tmp_path / "model.dgcn"
        err = assert_data_error(capsys, ["train", "--data", data, "--target",
                                         "y", "--config", fast_config_json,
                                         "--out", model])
        assert "standard deviation inf" in err and not model.exists()

    def test_seed_determinism_byte_identical_models(self, tmp_path, sine_csv,
                                                    fast_config_json):
        a = tmp_path / "a.dgcn"
        b = tmp_path / "b.dgcn"
        for out in (a, b):
            assert run(["train", "--data", sine_csv, "--target", "y",
                        "--config", fast_config_json, "--out", out,
                        "--seed", 7]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_determinism_across_processes(self, tmp_path, sine_csv,
                                               fast_config_json):
        # The bytes depend on the BLAS thread count, so both runs pin it.
        outs = [tmp_path / "a.dgcn", tmp_path / "b.dgcn"]
        for out in outs:
            done = run_subprocess(["train", "--data", sine_csv, "--target",
                                   "y", "--config", fast_config_json, "--out",
                                   out, "--seed", 7], OPENBLAS_NUM_THREADS="1")
            assert done.returncode == 0, done.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestBadInputs:
    @pytest.mark.parametrize("key, value", [
        ("theta_hidden", "x"), ("theta_hidden", [-1]), ("sigma_hidden", [1.5]),
        ("dropout_rate", 1.5), ("input_noise_std", -0.1), ("seed", 1.5),
        ("seed", -2), ("batch_size", "abc"), ("max_epochs", 0),
        ("prediction_k", 0), ("standardize_y", "yes"),
        ("neighbor_strategy", "ball"), ("kernels", ["no_such_kernel"]),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, sine_csv, capsys,
                                             key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        err = assert_usage_error(capsys, ["train", "--data", sine_csv,
                                          "--config", config,
                                          "--out", tmp_path / "m.dgcn"])
        assert not (tmp_path / "m.dgcn").exists()
        if key != "kernels":
            assert key in err

    @pytest.mark.parametrize("block", ["optimizer", "sigma_optimizer"])
    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "abc"), ("learning_rate", 0), ("beta1", "0.9"),
        ("beta2", 1.0), ("epsilon", 0), ("epsilon", -1e-8), ("epsilon", "x"),
        ("epsilon", float("inf")), ("learning_rate", float("nan")),
    ])
    def test_bad_optimizer_value_is_usage_error(self, tmp_path, sine_csv,
                                                capsys, block, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({block: {key: value}}))
        err = assert_usage_error(capsys, ["train", "--data", sine_csv,
                                          "--config", config,
                                          "--out", tmp_path / "m.dgcn"])
        assert not (tmp_path / "m.dgcn").exists()
        assert key in err or (key.startswith("beta") and "betas" in err)

    @pytest.mark.parametrize("command", ["forecast", "cats"])
    @pytest.mark.parametrize("cell, row", [("abc", 4), ("inf", 3), ("-inf", 5),
                                           ("1.0.0", 2)])
    def test_bad_series_cell_is_data_error(self, tmp_path, fast_config_json,
                                           capsys, command, cell, row):
        values = [str(v) for v in range(60)]
        values[row - 2] = cell
        series = tmp_path / "series.csv"
        series.write_text("value\n" + "\n".join(values) + "\n")
        if command == "forecast":
            args = ["forecast", "--series", series, "--steps", 3, "--lags", 4,
                    "--config", fast_config_json, "--out", tmp_path / "f.csv"]
        else:
            args = ["cats", "--series", series, "--config", fast_config_json,
                    "--out-dir", tmp_path]
        err = assert_data_error(capsys, args)
        assert f"row {row}, column 1" in err

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell_is_data_error(self, tmp_path, sine_csv,
                                               fast_config_json, capsys,
                                               command, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y\n0.5,1.0\n{cell},{cell}\n")
        if command == "train":
            args = ["train", "--data", bad, "--target", "y",
                    "--out", tmp_path / "m.dgcn"]
        else:
            model = TestPredict().fit_model(tmp_path, sine_csv, fast_config_json)
            args = ["predict", "--model", model, "--data", bad,
                    "--out", tmp_path / "pred.csv"]
        err = assert_data_error(capsys, args)
        assert "row 3, column 1" in err

    def test_prediction_file_may_carry_text_columns(self, tmp_path, sine_csv,
                                                    fast_config_json):
        model = TestPredict().fit_model(tmp_path, sine_csv, fast_config_json)
        data = tmp_path / "query.csv"
        data.write_text("label,x\nfirst,0.5\nsecond,1.5\n")
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", model, "--data", data,
                    "--out", out]) == 0
        assert out.read_text().splitlines()[0] == "row,mean,variance,ci_low,ci_high"


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

    @pytest.mark.parametrize("k, kind", [(None, "whole-set"), (5, "built")])
    def test_prints_the_group_counts_and_diagnostics(self, tmp_path, capsys,
                                                     sine_csv,
                                                     fast_config_json, k,
                                                     kind):
        # batch_size 40 is the whole set; 40 queries at k = 5 make fewer
        # than the 780 pairs of one K, so every group builds its own.
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        capsys.readouterr()
        flags = [] if k is None else ["--k", k]
        assert run(["predict", "--model", model, "--data", sine_csv,
                    "--out", tmp_path / "pred.csv", *flags]) == 0
        x = np.linspace(0.0, 2 * np.pi, 40)
        pred = trainer.predict_batched(trainer.load(model), x, k=k)
        groups = {"whole-set": pred.whole_groups, "built": pred.built_groups}
        assert groups[kind] > 0 and pred.cached_groups == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            f"groups: {pred.whole_groups} whole-set, 0 cached, "
            f"{pred.built_groups} built; clamped {pred.clamped}, jitter "
            f"events {pred.jitter_events} (max {pred.jitter_max:g})")

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

    def test_overflowed_query_row_gets_the_prior(self, tmp_path, sine_csv,
                                                 fast_config_json):
        # 1e308 standardizes to inf: it is far from every training point,
        # so its covariance with them is 0, not NaN.
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        data = tmp_path / "far.csv"
        data.write_text("x\n1e308\n-1e308\n0.5\n")
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", model, "--data", data,
                    "--out", out]) == 0
        with open(out) as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        assert all(np.isfinite(list(r.values())).all() for r in rows)
        scaler = trainer.load(model).scaler
        for r in rows[:2]:
            assert r["mean"] == pytest.approx(scaler.y_mean, abs=1e-12)
            assert r["variance"] == pytest.approx(5 * scaler.y_std**2)
        assert rows[2]["mean"] == pytest.approx(np.sin(1.5), abs=0.05)

    def test_non_finite_prediction_is_a_numeric_failure(self, tmp_path,
                                                        sine_csv,
                                                        fast_config_json,
                                                        capsys):
        # A model whose response scale is infinite de-standardizes every
        # prediction to NaN.
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        fitted = trainer.load(model)
        trainer.save(replace(fitted, scaler=replace(
            fitted.scaler, y_std=float("inf"))), model)
        capsys.readouterr()
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", model, "--data", sine_csv,
                    "--out", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite prediction")
        assert err.count("\n") == 1 and not out.exists()

    def test_wrong_column_count_is_data_error(self, tmp_path, sine_csv,
                                              fast_config_json):
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert run(["predict", "--model", model, "--data", bad]) == 3

    def test_missing_model_file_is_data_error(self, tmp_path, sine_csv):
        assert run(["predict", "--model", tmp_path / "none.dgcn",
                    "--data", sine_csv]) == 3

    def test_model_with_one_stored_point_is_data_error(self, tmp_path,
                                                       sine_csv,
                                                       fast_config_json,
                                                       capsys):
        # A well-formed file with a valid CRC, written by save, whose
        # training set fit could never have produced.
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        fitted = trainer.load(model)
        one = replace(fitted.hyper, theta=fitted.hyper.theta[:1],
                      sigma2=fitted.hyper.sigma2[:1])
        trainer.save(replace(fitted, x=fitted.x[:1], y=fitted.y[:1],
                             hyper=one), model)
        with pytest.raises(errors.FormatVersionMismatch, match="stores 1 "):
            trainer.load(model)
        err = assert_data_error(capsys, ["predict", "--model", model,
                                         "--data", sine_csv,
                                         "--out", tmp_path / "pred.csv"])
        assert "stores 1 training points" in err
        assert not (tmp_path / "pred.csv").exists()

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

    def test_retired_thread_setting_is_ignored(self, tmp_path, sine_csv,
                                               fast_config_json, monkeypatch):
        # The variable the removed prediction worker pool read: any value,
        # even one that pool refused with exit 2, now changes nothing.
        retired = "DGCN_" + "THREADS"
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        args = ["predict", "--model", model, "--data", sine_csv, "--k", 7]
        monkeypatch.delenv(retired, raising=False)
        assert run([*args, "--out", tmp_path / "plain.csv"]) == 0
        monkeypatch.setenv(retired, "banana")
        assert run([*args, "--out", tmp_path / "set.csv"]) == 0
        assert ((tmp_path / "set.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())


    @pytest.mark.parametrize("extra", [
        ["--k", 0], ["--k", 1], ["--k", -3], ["--k", 0, "--interval", "z"],
        ["--alpha", 0], ["--alpha", 1], ["--alpha", 2], ["--alpha", -0.5],
        ["--alpha", "nan"],
    ])
    def test_unusable_k_or_alpha_is_usage_error(self, tmp_path, sine_csv,
                                                capsys, extra):
        # Checked before the model is read: no model file is needed.
        assert_usage_error(capsys, ["predict", "--model", tmp_path / "none.dgcn",
                                    "--data", sine_csv, *extra])

    def test_smallest_usable_k_per_interval(self, tmp_path, sine_csv,
                                            fast_config_json):
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        for k, interval in ((2, "t"), (1, "z")):
            out = tmp_path / f"pred{k}.csv"
            assert run(["predict", "--model", model, "--data", sine_csv,
                        "--k", k, "--interval", interval, "--out", out]) == 0
            with open(out) as fh:
                assert len(list(csv.DictReader(fh))) == 40

    def test_unusable_config_k_is_usage_error(self, tmp_path, sine_csv,
                                              fast_config_json, capsys):
        # prediction_k = 1 trains; a t interval cannot use it at predict time.
        config = tmp_path / "k1.json"
        config.write_text(json.dumps(
            {**json.loads(fast_config_json.read_text()), "prediction_k": 1}))
        model = self.fit_model(tmp_path, sine_csv, config)
        out = tmp_path / "pred.csv"
        err = assert_usage_error(capsys, ["predict", "--model", model,
                                          "--data", sine_csv, "--out", out])
        assert "at least 2" in err and not out.exists()
        for k, interval in ((2, "t"), (1, "z")):
            assert run(["predict", "--model", model, "--data", sine_csv,
                        "--k", k, "--interval", interval, "--out", out]) == 0
        assert run(["predict", "--model", model, "--data", sine_csv,
                    "--interval", "z", "--out", out]) == 0

    @pytest.mark.parametrize("extra", [["--k", 1], ["--alpha", 2]])
    def test_usage_error_prints_no_traceback(self, tmp_path, sine_csv,
                                             fast_config_json, extra):
        # With a real model, so nothing but the check stops the prediction.
        model = self.fit_model(tmp_path, sine_csv, fast_config_json)
        done = run_subprocess(["predict", "--model", model, "--data", sine_csv,
                               "--out", tmp_path / "pred.csv", *extra])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: --")


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

    @pytest.mark.parametrize("bad", ["0.0", "-2.5"])
    def test_log_preset_on_a_non_positive_target_is_data_error(
            self, tmp_path, capsys, bad):
        data = tmp_path / "target.csv"
        rows = ["x,y"] + [f"{i},{1.0 + i}" for i in range(12)]
        rows[5] = f"4,{bad}"
        data.write_text("\n".join(rows) + "\n")
        err = assert_data_error(capsys, [
            "crossval", "--data", data, "--target", "y", "--preset",
            "table3-log", "--folds", 3, "--repeats", 1, "--out-dir", tmp_path])
        assert "strictly positive" in err and "data row 5" in err
        assert not (tmp_path / "crossval_summary.json").exists()

    def test_baseline_flag(self, tmp_path, sine_csv):
        code = run(["crossval", "--data", sine_csv, "--target", "y",
                    "--baseline", "--folds", 3, "--repeats", 1,
                    "--out-dir", tmp_path, "--seed", 1])
        assert code == 0
        summary = json.loads((tmp_path / "baseline_summary.json").read_text())
        assert set(summary) == {
            "runs", "min", "mean", "max", "std", "metric",
            "wall_clock_seconds", "config_fingerprint", "protocol"}
        assert summary["runs"] == 3
        lines = (tmp_path / "baseline_runs.csv").read_text().splitlines()
        assert lines[0] == "run_id,repeat,fold,metric_value,seconds"
        assert len(lines) == 4


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

    @pytest.mark.parametrize("k", [0, 1])
    def test_forecast_and_cats_reject_k_below_two(self, tmp_path, capsys, k):
        # Both predict with t intervals; the check runs before any training.
        series_path = tmp_path / "series.csv"
        series_path.write_text("value\n" + "\n".join(map(str, range(60))) + "\n")
        assert_usage_error(capsys, ["forecast", "--series", series_path,
                                    "--steps", 3, "--lags", 4, "--k", k])
        assert_usage_error(capsys, ["cats", "--series", series_path,
                                    "--k", k, "--out-dir", tmp_path])
        assert not (tmp_path / "forecast.csv").exists()

    @staticmethod
    def sine_series_with_gaps(tmp_path, gaps):
        cells = [repr(float(v)) for v in np.sin(np.arange(200) / 5.0)]
        for i in gaps:
            cells[i] = ""
        path = tmp_path / "series.csv"
        path.write_text("value\n" + "\n".join(cells) + "\n")
        return path

    def test_forecast_trailing_gap_is_data_error(self, tmp_path, capsys,
                                                 monkeypatch):
        # Values 198-199 are missing, so the first forecast's lag window
        # has a gap; this is found before any training.
        series_path = self.sine_series_with_gaps(tmp_path, [197, 198])
        monkeypatch.setattr(cli.trainer, "fit", None)
        out = tmp_path / "forecast.csv"
        err = assert_data_error(capsys, ["forecast", "--series", series_path,
                                         "--steps", 3, "--lags", 5,
                                         "--out", out])
        assert "values 196-200, has missing values" in err
        assert not out.exists()

    def test_forecast_interior_gap_forecasts_from_the_last_lags(
            self, tmp_path, fast_config_json):
        series_path = self.sine_series_with_gaps(tmp_path, [100, 150, 190])
        out = tmp_path / "forecast.csv"
        assert run(["forecast", "--series", series_path, "--steps", 4,
                    "--lags", 5, "--config", fast_config_json, "--out", out,
                    "--seed", 3]) == 0
        # The same forecast from the gap-free history's last five values.
        series = timeseries.read_series_csv(series_path)
        model = trainer.fit(
            timeseries.lag_embed(series, timeseries.LagSpec(5)),
            cli.load_config(fast_config_json, 3))
        pred = timeseries.forecast_recursive(
            model, series[np.isfinite(series)], 4, detailed=True)
        bench.write_prediction_csv(tmp_path / "want.csv", pred, "index",
                                   "prediction", start=200)
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("strategy", ["recursive", "direct"])
    def test_cats_gap_in_a_trailing_window_is_data_error(self, tmp_path,
                                                         capsys, strategy):
        # Value 980 is missing, so block 981-1000's lag window has a gap.
        series = np.sin(np.arange(5000) / 7.0)
        cells = [repr(float(v)) for v in series]
        cells[979] = ""
        series_path = tmp_path / "series.csv"
        series_path.write_text("value\n" + "\n".join(cells) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": 200, "max_epochs": 1}))
        err = assert_data_error(capsys, [
            "cats", "--series", series_path, "--lags", "3,3,3,3,3",
            "--strategy", strategy, "--config", cfg, "--out-dir", tmp_path])
        assert "values 978-980, has missing values" in err
        assert not (tmp_path / "cats_predictions.csv").exists()

    def test_cats_file_bytes(self, tmp_path, monkeypatch):
        from dgcn.timeseries import GapForecast

        def fake_cats_protocol(series, specs, config, truth=None, **kwargs):
            return GapForecast(predictions=np.arange(100) / 8.0 - 2.0,
                               block_scores=[0.5, 0.25, 0.0, 1e-300, 2.0],
                               e1=2.75)

        monkeypatch.setattr(cli.timeseries, "cats_protocol", fake_cats_protocol)
        series = tmp_path / "series.csv"
        series.write_text("value\n1.0\n2.0\n")
        assert run(["cats", "--series", series, "--truth", series,
                    "--lags", "1,2,3,4,5", "--out-dir", tmp_path]) == 0
        lines = (tmp_path / "cats_predictions.csv").read_bytes().split(b"\n")
        assert lines[:3] == [b"position,prediction", b"981,-2.0", b"982,-1.875"]
        assert lines[20:22] == [b"1000,0.375", b"1981,0.5"]
        assert lines[100:] == [b"5000,10.375", b""]
        summary = (tmp_path / "cats_summary.json").read_bytes()
        assert summary.startswith(
            b'{\n  "block_scores": [\n    0.5,\n    0.25,\n    0.0,\n'
            b'    1e-300,\n    2.0\n  ],\n  "e1": 2.75,\n  "lags": [\n    1,\n')
        assert summary.endswith(b"\n  }\n}\n")

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

    @pytest.mark.parametrize("seed_args, config_seed, want", [
        (["--seed", 0], None, 0),
        (["--seed", 5], None, 5),
        ([], 7, 7),
        (["--seed", 0], 7, 0),
        ([], None, 0),
    ])
    def test_seed_comes_from_flag_then_config(self, tmp_path, monkeypatch,
                                              seed_args, config_seed, want):
        seen = {}

        def fake_timing_benchmark(sizes, batches, **kwargs):
            seen.update(kwargs)
            return cli.bench.TimingReport()

        monkeypatch.setattr(cli.bench, "timing_benchmark", fake_timing_benchmark)
        args = ["bench-time", "--sizes", "128", "--batch", "64",
                "--out", tmp_path / "timing.csv", *seed_args]
        if config_seed is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"seed": config_seed}))
            args += ["--config", config]
        assert run(args) == 0
        assert seen["seed"] == want
        assert seen["train_config"].seed == want


@pytest.fixture()
def series_csv(tmp_path):
    path = tmp_path / "series.csv"
    t = np.arange(60)
    path.write_text("value\n" + "\n".join(
        repr(float(v)) for v in np.sin(2 * np.pi * t / 12.0)) + "\n")
    return path


@pytest.fixture()
def no_fit(monkeypatch):
    """Every trainer.fit call is recorded and refused."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("trainer.fit must not run")

    monkeypatch.setattr(trainer, "fit", refuse)
    return calls


def test_out_of_memory_is_one_line_and_its_own_exit_code(tmp_path):
    # The child may map 1 GiB of address space: the imports and the
    # warm-up fit take about a third of it, and the first 16000 x 16000
    # array of a full batch (2 GB) cannot be had.
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = tmp_path / "t.csv"
    done = run_subprocess(["bench-time", "--sizes", 16000, "--batch", "full",
                           "--epochs", 1, "--dims", 2, "--out", out],
                          preexec_fn=cap_address_space,
                          OPENBLAS_NUM_THREADS="1")
    assert done.returncode == 5, done.stderr
    assert done.stderr.startswith("out of memory: "), done.stderr
    assert done.stderr.count("\n") == 1 and not out.exists()


class TestRejectedSettings:
    """Each of these once ended in a Python traceback with exit 1."""

    @pytest.mark.parametrize("config_text", ["5", "{", "[1, 2]", "null",
                                             "\"batch_size\""])
    def test_config_file_must_hold_a_json_object(self, tmp_path, sine_csv,
                                                 capsys, no_fit, config_text):
        config = tmp_path / "config.json"
        config.write_text(config_text)
        assert_usage_error(capsys, ["train", "--data", sine_csv,
                                    "--config", config])
        assert no_fit == []

    @pytest.mark.parametrize("command, extra", [
        ("forecast", ["--steps", -1]),
        ("forecast", ["--lags", 0]),
        ("forecast", ["--lags", -2]),
        ("cats", ["--lags", "a,b"]),
        ("cats", ["--lags", "0,0,0,0,0"]),
        ("bench-time", ["--sizes", "a"]),
        ("bench-time", ["--batch", "x"]),
        ("bench-time", ["--epochs", 0]),
        ("bench-time", ["--sizes", 0]),
        ("bench-time", ["--batch", 0]),
        ("bench-time", ["--dims", 0]),
        ("bench-time", ["--dims", -2]),
        ("crossval", ["--folds", 1]),
        ("crossval", ["--repeats", 0]),
        ("crossval", ["--folds", 100]),  # 40 rows
    ])
    def test_bad_flag_is_usage_error_before_training(
            self, tmp_path, sine_csv, series_csv, capsys, no_fit, command,
            extra):
        base = {
            "forecast": ["--series", series_csv, "--steps", 3, "--lags", 4,
                         "--out", tmp_path / "f.csv"],
            "cats": ["--series", series_csv, "--out-dir", tmp_path],
            "bench-time": ["--sizes", 64, "--batch", 32, "--epochs", 1,
                           "--dims", 2, "--out", tmp_path / "t.csv"],
            "crossval": ["--data", sine_csv, "--target", "y",
                         "--out-dir", tmp_path],
        }[command]
        assert_usage_error(capsys, [command, *base, *extra])
        assert no_fit == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "series.csv", "train.csv"]

    @pytest.mark.parametrize("command", ["forecast", "cats"])
    @pytest.mark.parametrize("config", [{"prediction_k": 1, "max_epochs": 30},
                                        {"batch_size": 1}])
    def test_unusable_config_k_is_rejected_before_fitting(
            self, tmp_path, series_csv, capsys, no_fit, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        if command == "forecast":
            args = ["forecast", "--series", series_csv, "--steps", 3,
                    "--lags", 4]
        else:  # long enough to reach every gap, so only the check stops it
            long_series = tmp_path / "long.csv"
            long_series.write_text("value\n" + "\n".join(
                repr(float(v)) for v in np.sin(np.arange(5000) / 7.0)) + "\n")
            args = ["cats", "--series", long_series, "--out-dir", tmp_path]
        err = assert_usage_error(capsys, [*args, "--config", path])
        assert no_fit == []
        assert f"{next(iter(config))} with t intervals must be at least 2" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("epochs", [1, 2])
    def test_overflowing_networks_are_a_numeric_failure(self, tmp_path,
                                                        sine_csv, capsys,
                                                        epochs):
        # A valid but huge input noise drives the length-scales to inf; on
        # a one-step fit the NaN weights come out of the last step.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input_noise_std": 1e308,
                                      "max_epochs": epochs,
                                      "batch_size": 40}))
        capsys.readouterr()
        assert run(["train", "--data", sine_csv, "--config", config,
                    "--out", tmp_path / "m.dgcn"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

    def test_zero_steps_still_forecasts(self, tmp_path, series_csv,
                                        fast_config_json):
        out = tmp_path / "f.csv"
        assert run(["forecast", "--series", series_csv, "--steps", 0,
                    "--lags", 4, "--config", fast_config_json,
                    "--out", out]) == 0
        assert out.read_text() == "index,prediction,variance,ci_low,ci_high\n"


class TestExitCodeContract:
    """Each error class's exit code and stderr prefix, as the CLI reports
    them; a class missing from the table fails the first test."""

    TABLE = {
        "DgcnError": (4, "error"),
        "DimensionMismatch": (4, "error"),
        "StaleMask": (4, "error"),
        "NotPositiveDefinite": (4, "numeric failure"),
        "NonFiniteLoss": (4, "numeric failure"),
        "InvalidSetting": (2, "error"),
        "InvalidAlpha": (2, "error"),
        "ParseError": (3, "data error"),
        "MissingColumn": (3, "data error"),
        "SchemaMismatch": (3, "data error"),
        "SeriesTooShort": (3, "data error"),
        "ShapeMismatch": (3, "data error"),
        "EmptyDataset": (3, "data error"),
        "InvalidTarget": (3, "data error"),
        "FormatVersionMismatch": (3, "data error"),
        "ChecksumMismatch": (3, "data error"),
    }
    PUBLIC = sorted(
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.DgcnError)
        and not name.startswith("_"))

    def test_table_names_every_public_error_class(self):
        assert self.PUBLIC == sorted(self.TABLE)

    @staticmethod
    def raised_by_train(monkeypatch, capsys, exc):
        def raise_it(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_train", raise_it)
        capsys.readouterr()
        code = run(["train", "--data", "unused.csv"])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("name", PUBLIC)
    def test_class_declares_its_exit_code_and_prefix(self, monkeypatch,
                                                     capsys, name):
        cls = getattr(errors, name)
        exc = cls(2, 1, "boom") if cls is errors.ParseError else cls("boom")
        code, prefix = self.TABLE[name]
        assert self.raised_by_train(monkeypatch, capsys, exc) == (
            code, f"{prefix}: {exc}\n")

    @pytest.mark.parametrize("cls", [OSError, FileNotFoundError,
                                     PermissionError])
    def test_os_error_is_a_data_error(self, monkeypatch, capsys, cls):
        exc = cls("no such file")
        assert self.raised_by_train(monkeypatch, capsys, exc) == (
            3, f"data error: {exc}\n")

    def test_other_exceptions_are_not_caught(self, monkeypatch, capsys):
        with pytest.raises(ValueError, match="boom"):
            self.raised_by_train(monkeypatch, capsys, ValueError("boom"))
