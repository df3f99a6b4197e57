import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcn import bench, timeseries, trainer
from dgcn.errors import InvalidSetting, ParseError, SeriesTooShort, ShapeMismatch
from dgcn.mlp import OptimizerConfig
from dgcn.timeseries import (
    CATS_BLOCKS,
    BlockSpec,
    LagSpec,
    cats_protocol,
    e1_score,
    forecast_recursive,
    lag_embed,
)
from dgcn.trainer import TrainConfig

import test_trainer

TABLE_SERIES = np.array([2.0, 3.0, 1.0, 6.0, 7.0, 3.0, 9.0, 1.0])


def fast_config(**kwargs):
    defaults = dict(
        batch_size=512,
        max_epochs=40,
        dropout_rate=0.0,
        input_noise_std=0.0,
        optimizer=OptimizerConfig(learning_rate=1e-2),
        early_stop_patience=1000,
        seed=0,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestLagEmbed:
    def test_shifted_table_row_three(self):
        data = lag_embed(TABLE_SERIES, LagSpec(2, (0, 1, 2)))
        np.testing.assert_array_equal(data.x[0], [2.0, 3.0])
        np.testing.assert_array_equal(data.y[0], [1.0, 6.0, 7.0])

    def test_shifted_table_all_rows(self):
        data = lag_embed(TABLE_SERIES, LagSpec(2, (0, 1, 2)))
        assert data.x.shape == (4, 2)
        np.testing.assert_array_equal(
            data.x, [[2, 3], [3, 1], [1, 6], [6, 7]]
        )
        np.testing.assert_array_equal(
            data.y, [[1, 6, 7], [6, 7, 3], [7, 3, 9], [3, 9, 1]]
        )

    def test_unit_lag_pairs(self):
        data = lag_embed(np.array([1.0, 2.0, 3.0]), LagSpec(1))
        np.testing.assert_array_equal(data.x, [[1.0], [2.0]])
        np.testing.assert_array_equal(data.y, [2.0, 3.0])

    def test_constant_series(self):
        data = lag_embed(np.full(10, 4.2), LagSpec(3))
        np.testing.assert_array_equal(data.x, 4.2)
        np.testing.assert_array_equal(data.y, 4.2)

    def test_too_short_rejected(self):
        with pytest.raises(SeriesTooShort):
            lag_embed(np.ones(5), LagSpec(4, (0, 1)))

    def test_rows_with_gaps_dropped(self):
        series = np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0, 7.0])
        data = lag_embed(series, LagSpec(2))
        # Any row whose window or target touches the NaN disappears.
        np.testing.assert_array_equal(data.x, [[4.0, 5.0], [5.0, 6.0]])
        np.testing.assert_array_equal(data.y, [6.0, 7.0])

    def test_no_leakage_on_index_series(self):
        series = np.arange(50, dtype=float)
        data = lag_embed(series, LagSpec(4))
        # Row targeting time t references exactly t-4 .. t-1.
        for r in range(data.n):
            t = data.y[r]
            np.testing.assert_array_equal(data.x[r], np.arange(t - 4, t))

    @given(
        n=st.integers(min_value=4, max_value=200),
        n_lags=st.integers(min_value=1, max_value=10),
        max_h=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_count_formula(self, n, n_lags, max_h):
        series = np.arange(n, dtype=float)
        horizons = tuple(range(max_h + 1))
        expected = n - n_lags - max_h
        if expected < 1:
            with pytest.raises(SeriesTooShort):
                lag_embed(series, LagSpec(n_lags, horizons))
        else:
            data = lag_embed(series, LagSpec(n_lags, horizons))
            assert data.x.shape[0] == expected


class TestLagSpecValidation:
    def test_bad_specs(self):
        with pytest.raises(ValueError):
            LagSpec(0)
        with pytest.raises(ValueError):
            LagSpec(2, (1, 0))
        with pytest.raises(ValueError):
            LagSpec(2, (-1,))
        with pytest.raises(ValueError):
            LagSpec(2, ())


class TestForecastRecursive:
    def test_persistence_fixed_point(self):
        # A series satisfying y_t = y_{t-1} is constant; a model trained on
        # it must forecast that constant indefinitely.
        series = np.full(30, 7.5)
        data = lag_embed(series, LagSpec(2))
        model = trainer.fit(data, fast_config(max_epochs=5))
        out = forecast_recursive(model, series, steps=6)
        np.testing.assert_allclose(out, 7.5, atol=1e-8)

    def test_zero_steps_empty(self):
        series = np.sin(np.arange(40) / 3.0)
        model = trainer.fit(lag_embed(series, LagSpec(3)),
                            fast_config(max_epochs=3))
        out = forecast_recursive(model, series, steps=0)
        assert out.shape == (0,)

    def test_sine_beats_persistence_baseline(self):
        t = np.arange(140, dtype=float)
        series = np.sin(2 * np.pi * t / 20.0)
        history, future = series[:120], series[120:140]
        model = trainer.fit(lag_embed(history, LagSpec(8)),
                            fast_config(max_epochs=80))
        pred = forecast_recursive(model, history, steps=20)
        rmse = np.sqrt(np.mean((pred - future) ** 2))
        persistence = np.sqrt(np.mean((history[-1] - future) ** 2))
        assert rmse < persistence

    def test_history_shorter_than_lags_rejected(self):
        series = np.sin(np.arange(40) / 3.0)
        model = trainer.fit(lag_embed(series, LagSpec(5)),
                            fast_config(max_epochs=2))
        with pytest.raises(SeriesTooShort):
            forecast_recursive(model, series[:3], steps=2)

    def test_trailing_window_with_a_gap_or_too_short_rejected(self):
        # Both forecast modes check the window before any prediction or
        # fit; an earlier gap is allowed (the embedding drops its rows).
        series = np.sin(np.arange(40) / 3.0)
        model = trainer.fit(lag_embed(series, LagSpec(5)),
                            fast_config(max_epochs=2))
        gappy = series.copy()
        gappy[[3, 37]] = np.nan
        config = fast_config(max_epochs=2)
        with pytest.raises(SeriesTooShort, match="values 36-40, has missing"):
            forecast_recursive(model, gappy, steps=2)
        with pytest.raises(SeriesTooShort, match="values 36-40, has missing"):
            timeseries.forecast_direct(gappy, 5, 2, config)
        with pytest.raises(SeriesTooShort, match="3 values is shorter than 5"):
            timeseries.forecast_direct(series[:3], 5, 2, config)
        gappy[37] = 0.0
        assert forecast_recursive(model, gappy, steps=2).shape == (2,)
        assert timeseries.forecast_direct(gappy, 5, 2, config).shape == (2,)

    @pytest.mark.parametrize("steps", [-1, True, 2.5, "2", None])
    def test_direct_step_count_must_be_a_non_negative_integer(self, steps):
        series = np.sin(np.arange(40) / 3.0)
        with pytest.raises(InvalidSetting, match="steps"):
            timeseries.forecast_direct(series, 5, steps,
                                       fast_config(max_epochs=1))

    def test_direct_mode_no_feedback(self):
        # A clean sine is predictable directly at every horizon; the
        # direct forecasts should track the future without recursion.
        t = np.arange(140, dtype=float)
        series = np.sin(2 * np.pi * t / 20.0)
        history, future = series[:120], series[120:126]
        pred = timeseries.forecast_direct(history, 8, 6,
                                          fast_config(max_epochs=60))
        assert np.sqrt(np.mean((pred - future) ** 2)) < 0.2

    def test_detailed_returns_interval_columns(self):
        series = np.sin(np.arange(60) / 4.0)
        model = trainer.fit(lag_embed(series, LagSpec(4)),
                            fast_config(max_epochs=5))
        pred = forecast_recursive(model, series, steps=5, detailed=True)
        assert pred.mean.shape == (5,)
        assert np.all(pred.ci_low <= pred.mean + 1e-12)
        assert np.all(pred.mean <= pred.ci_high + 1e-12)

    @pytest.mark.parametrize("build, k, seen", [
        ("jitter_model", 6, "jitter_events"), ("clamping_model", 10, "clamped")])
    def test_detailed_sums_step_diagnostics(self, build, k, seen):
        # One-lag models whose neighbour sets need jitter or clamp
        # variances; the reference replays the recursion step by step.  The
        # jitter model's last step needs no jitter.
        model, probe = getattr(test_trainer.TestPredictBatched, build)()
        history = probe[7]  # a training input for the clamping model
        got = forecast_recursive(model, history, steps=9, k=k, detailed=True)
        window = history[-1:]
        steps = []
        for _ in range(9):
            steps.append(trainer.predict_batched(model, window[None, :], k=k))
            window = steps[-1].mean
        np.testing.assert_array_equal(got.mean, [p.mean[0] for p in steps])
        assert got.clamped == sum(p.clamped for p in steps)
        assert got.jitter_events == sum(p.jitter_events for p in steps)
        assert got.jitter_max == max(p.jitter_max for p in steps)
        assert getattr(got, seen) > 0
        # Each one-row step solves one group.
        assert got.whole_groups + got.cached_groups + got.built_groups == 9

    @pytest.mark.parametrize("extra", [-30, 0, 5])
    def test_detailed_equals_hand_loop_over_shifted_windows(self, extra):
        # Five lags, so every step shifts the window by one: the reference
        # builds each step's window afresh from the history and the means
        # so far.  k < N for extra < 0, else every step is a full solve.
        series = np.sin(np.arange(80) / 4.0) + 0.01 * np.cos(np.arange(80))
        model = trainer.fit(lag_embed(series, LagSpec(5)),
                            fast_config(max_epochs=3))
        k = model.n + extra
        got = forecast_recursive(model, series, steps=8, k=k, detailed=True)
        values = list(series)
        steps = []
        for _ in range(8):
            window = np.array(values[-5:])
            steps.append(trainer.predict_batched(model, window[None, :], k=k))
            values.append(steps[-1].mean[0])
        for name in ("mean", "variance", "ci_low", "ci_high"):
            np.testing.assert_array_equal(
                getattr(got, name), [getattr(p, name)[0] for p in steps])
        assert (got.alpha_level, got.clamped, got.jitter_events) == (
            0.05, sum(p.clamped for p in steps),
            sum(p.jitter_events for p in steps))
        assert got.jitter_max == max(p.jitter_max for p in steps)
        np.testing.assert_array_equal(
            forecast_recursive(model, series, steps=8, k=k), got.mean)


class TestE1Score:
    def test_perfect_forecast_scores_zero(self):
        truth = np.arange(100, dtype=float)
        assert e1_score(truth, truth) == 0.0

    def test_unit_errors_score_one(self):
        truth = np.zeros(100)
        assert e1_score(truth, np.ones(100)) == 1.0

    def test_equals_total_squared_error_over_hundred(self):
        rng = np.random.default_rng(0)
        truth = rng.standard_normal(100)
        pred = rng.standard_normal(100)
        want = float(np.sum((truth - pred) ** 2) / 100.0)
        assert e1_score(truth, pred) == pytest.approx(want, rel=1e-12)

    def test_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            e1_score(np.zeros(99), np.zeros(100))


def synthetic_gap_series(n=5000, seed=0):
    t = np.arange(n, dtype=float)
    rng = np.random.default_rng(seed)
    series = (
        40.0 * np.sin(2 * np.pi * t / 311.0)
        + 15.0 * np.sin(2 * np.pi * t / 47.0)
        + 0.5 * rng.standard_normal(n)
    )
    return series


class TestCatsProtocol:
    def test_block_boundaries(self):
        assert CATS_BLOCKS.blocks == (
            (981, 1000), (1981, 2000), (2981, 3000), (3981, 4000), (4981, 5000)
        )

    def test_block_spec_validation(self):
        with pytest.raises(ValueError):
            BlockSpec(((10, 5),))
        with pytest.raises(ValueError):
            BlockSpec(((10, 20), (15, 30)))

    @pytest.mark.slow
    def test_synthetic_series_consistency_and_no_leakage(self):
        full = synthetic_gap_series()
        masked = full.copy()
        truth = []
        for start, end in CATS_BLOCKS.blocks:
            truth.append(full[start - 1 : end])
            masked[start - 1 : end] = np.nan
        truth = np.concatenate(truth)
        specs = [LagSpec(12)] * 5
        cfg = fast_config(max_epochs=25, batch_size=256)
        result = cats_protocol(masked, specs, cfg, truth=truth)
        # Reported E1 is exactly the score of the stitched predictions.
        assert result.e1 == pytest.approx(
            e1_score(truth, result.predictions), rel=1e-12
        )
        assert result.e1 == pytest.approx(sum(result.block_scores), rel=1e-12)
        # Poisoning everything at/after the first block start must leave
        # that block's forecast untouched: training never reads it.
        poisoned = masked.copy()
        poisoned[980:] += np.where(np.isfinite(poisoned[980:]), 1e6, 0.0)
        result2 = cats_protocol(poisoned, specs, cfg)
        np.testing.assert_array_equal(result2.predictions[:20],
                                      result.predictions[:20])

    def test_persistence_truth_scores_hand_value(self):
        series = synthetic_gap_series(n=600, seed=1)
        blocks = BlockSpec(((101, 120), (301, 320), (401, 420),
                            (501, 520), (581, 600)))
        masked = series.copy()
        persistence = []
        for start, end in blocks.blocks:
            masked[start - 1 : end] = np.nan
            persistence.append(np.full(end - start + 1, series[start - 2]))
        persistence = np.concatenate(persistence)
        specs = [LagSpec(6)] * 5
        result = cats_protocol(masked, specs, fast_config(max_epochs=10),
                               truth=persistence, blocks=blocks)
        hand = float(np.sum((persistence - result.predictions) ** 2) / 100.0)
        assert result.e1 == pytest.approx(hand, rel=1e-12)

    def test_lag_spec_count_checked(self):
        with pytest.raises(ShapeMismatch):
            cats_protocol(np.ones(5000), [LagSpec(3)] * 4, fast_config())

    def test_direct_strategy_runs(self):
        series = synthetic_gap_series(n=300, seed=2)
        blocks = BlockSpec(((151, 154), (291, 294)))
        masked = series.copy()
        for start, end in blocks.blocks:
            masked[start - 1 : end] = np.nan
        result = cats_protocol(masked, [LagSpec(5)] * 2,
                               fast_config(max_epochs=5), blocks=blocks,
                               strategy="direct")
        assert result.predictions.shape == (8,)
        assert np.all(np.isfinite(result.predictions))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            cats_protocol(np.ones(5000), [LagSpec(3)] * 5, fast_config(),
                          strategy="hybrid")


class TestSeriesCsv:
    def test_roundtrip_with_missing_values(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("value\n1.5\n\nNaN\n-2.0\n")
        series = timeseries.read_series_csv(path)
        assert series.shape == (4,)
        assert series[0] == 1.5
        assert np.isnan(series[1]) and np.isnan(series[2])
        assert series[3] == -2.0

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        np.testing.assert_array_equal(timeseries.read_series_csv(path),
                                      [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("text, row", [
        ("value\n1.0\nabc\n", 3), ("value\ninf\n", 2), ("-inf\n1.0\n", 1),
        ("1.0\n2.0\nInfinity\n", 3), ("value\n1.0\n\n2,0\nx y\n", 5),
    ])
    def test_text_and_infinite_cells_rejected(self, tmp_path, text, row):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            timeseries.read_series_csv(path)
        assert (err.value.row, err.value.col) == (row, 1)

    def test_forecast_csv_columns(self, tmp_path):
        series = np.sin(np.arange(50) / 4.0)
        model = trainer.fit(lag_embed(series, LagSpec(3)),
                            fast_config(max_epochs=3))
        pred = forecast_recursive(model, series, steps=4, detailed=True)
        out = tmp_path / "forecast.csv"
        bench.write_prediction_csv(out, pred, "index", "prediction", start=50)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,prediction,variance,ci_low,ci_high"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "50"
        assert float(first[1]) == pred.mean[0]
