"""The four benchmark workloads and the seeded inputs they run on.

Inputs are generated here from the ``--seed`` argument alone, so changes to
dgcn's own data helpers cannot change a workload; dgcn receives only the
arrays.  Every workload is a closed loop with one caller: the next call is
made when the previous one has returned.

A workload's *block* is a fixed list of calls, and a traced run repeats it,
so per-layer counts describe a fixed amount of work and repeat exactly for
one seed.  Holdout RMSE is scored on the prediction workloads' first block
and on the fit workloads' holdout calls, made between the timed fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.stats import qmc

import dgcn

N_V = 5
NOISE = 0.05
QUERIES_PER_CALL = 10
HOLDOUT_CALLS = 60
HOLDOUT_PER_CALL = 5
MODEL_SEED = 0


def sines(x) -> np.ndarray:
    """Noise-free sum-of-sines target, one frequency and phase per column."""
    return sum(np.sin((2.0 + v) * math.pi * x[:, v] + 0.7 * v)
               for v in range(x.shape[1]))


def regression_data(seed: int, n: int) -> dgcn.Dataset:
    """Training points from a scrambled Sobol' sequence, plus noise.

    Space-filling points keep the local density, and with it holdout RMSE,
    much the same from one seed to the next; uniform draws leave clumps and
    holes that move RMSE by about twice as much.
    """
    rng = np.random.default_rng([seed, 1, n])
    sobol = qmc.Sobol(N_V, seed=rng)
    x = sobol.random_base2(math.ceil(math.log2(n)))[:n]
    y = sines(x) + NOISE * rng.standard_normal(n)
    return dgcn.Dataset(x, y)


def query_points(seed: int, stream: int, i: int) -> np.ndarray:
    """Fresh uniform query rows for call i: no two calls share a point."""
    rng = np.random.default_rng([seed, stream, i])
    return rng.uniform(0.0, 1.0, size=(QUERIES_PER_CALL, N_V))


def series(seed: int, length: int):
    """Three-tone series with seeded noise: (observations, noise-free signal).

    The tones are fixed and the seed draws only the noise: with seeded
    phases, holdout RMSE of the recursive forecasts moved by a third
    between seeds.
    """
    rng = np.random.default_rng([seed, 3, length])
    t = np.arange(length, dtype=np.float64)
    clean = (np.sin(2.0 * math.pi * t / 37.0)
             + 0.6 * np.sin(2.0 * math.pi * t / 11.3 + 1.0)
             + 0.3 * np.sin(2.0 * math.pi * t / 101.0 + 2.0))
    return clean + NOISE * rng.standard_normal(length), clean


def fit_config(batch_size: int, epochs: int) -> dgcn.TrainConfig:
    # Patience above the epoch count turns early stopping off, so every fit
    # runs exactly `epochs` epochs.  The model seed is fixed: the benchmark
    # seed varies the data only, so model quality, and with it holdout RMSE,
    # does not jump between training trajectories from one seed to the next.
    return dgcn.TrainConfig(batch_size=batch_size, max_epochs=epochs,
                            early_stop_patience=epochs + 1, seed=MODEL_SEED)


def prediction_failures(pred) -> list:
    """Names of the output checks a Prediction fails."""
    failed = []
    if not np.all(np.isfinite(pred.mean)):
        failed.append("mean_finite")
    if not (np.all(np.isfinite(pred.variance)) and np.all(pred.variance >= 0.0)):
        failed.append("variance_nonnegative")
    if not (np.all(pred.ci_low <= pred.mean) and np.all(pred.mean <= pred.ci_high)):
        failed.append("interval_contains_mean")
    return failed


def fit_failures(model, epochs: int) -> list:
    nll = model.log.epoch_nll
    if len(nll) != epochs or not np.all(np.isfinite(nll)):
        return ["epoch_nll_finite"]
    return []


def holdout_rmse(state) -> float:
    """RMSE against the noise-free generator over the scored calls."""
    errors = [state.sq_errors[i] for i in sorted(state.sq_errors)]
    if not errors:
        return math.nan
    return float(np.sqrt(np.mean(np.concatenate(errors))))


@dataclass
class Call:
    """One timed call into dgcn and the checks its outputs failed."""

    seconds: float
    failed_checks: list


@dataclass
class State:
    """What set-up produced, plus what the calls accumulate."""

    seed: int
    data: object = None
    model: object = None
    extra: dict = field(default_factory=dict)
    sq_errors: dict = field(default_factory=dict)  # block call -> squared errors
    setup_epoch_s: float | None = None


@dataclass(frozen=True)
class FitWorkload:
    """Repeated `dgcn.fit` calls, with holdout predictions between them."""

    name: str
    n: int
    batch_size: int
    epochs: int
    holdout_k: int
    rmse_ceiling: float
    block: int = 1
    min_calls: int = HOLDOUT_CALLS // HOLDOUT_PER_CALL
    holdout_calls: int = HOLDOUT_CALLS
    holdout_per_call: int = HOLDOUT_PER_CALL

    def setup(self, seed: int) -> State:
        state = State(seed, data=regression_data(seed, self.n))
        # Warm-up epoch: first-touch allocation and lazy imports are paid here.
        dgcn.fit(state.data, fit_config(self.batch_size, 1))
        return state

    def call(self, state: State, i: int) -> Call:
        config = fit_config(self.batch_size, self.epochs)
        tick = perf_counter()
        model = dgcn.fit(state.data, config)
        seconds = perf_counter() - tick
        state.model = model
        return Call(seconds, fit_failures(model, self.epochs))

    def holdout_call(self, state: State, j: int) -> Call:
        """One timed holdout prediction with the last fitted model."""
        x = query_points(state.seed, 4, j)
        tick = perf_counter()
        pred = dgcn.predict_batched(state.model, x, k=self.holdout_k)
        seconds = perf_counter() - tick
        state.sq_errors[j] = (pred.mean - sines(x)) ** 2
        return Call(seconds, prediction_failures(pred))


@dataclass(frozen=True)
class PredictWorkload:
    """Fresh 10-query `predict_batched` calls against a model fitted in set-up."""

    name: str
    n: int
    batch_size: int
    setup_epochs: int
    k: int
    rmse_ceiling: float
    block: int = 100
    min_calls: int = 100
    holdout_calls: int = 0
    holdout_per_call: int = 0

    def setup(self, seed: int) -> State:
        state = State(seed, data=regression_data(seed, self.n))
        tick = perf_counter()
        state.model = dgcn.fit(state.data, fit_config(self.batch_size,
                                                      self.setup_epochs))
        state.setup_epoch_s = (perf_counter() - tick) / self.setup_epochs
        if fit_failures(state.model, self.setup_epochs):
            raise RuntimeError("set-up fit produced a non-finite epoch NLL")
        dgcn.predict_batched(state.model, query_points(seed, 5, 0), k=self.k)
        return state

    def call(self, state: State, i: int) -> Call:
        x = query_points(state.seed, 2, i)
        tick = perf_counter()
        pred = dgcn.predict_batched(state.model, x, k=self.k)
        seconds = perf_counter() - tick
        if i < self.block:
            state.sq_errors[i] = (pred.mean - sines(x)) ** 2
        return Call(seconds, prediction_failures(pred))

    def units(self) -> int:
        return QUERIES_PER_CALL



@dataclass(frozen=True)
class ForecastWorkload:
    """Rolling-origin `forecast_recursive` calls after a set-up fit."""

    name: str
    n_lags: int
    train_rows: int
    origins: int
    steps: int
    batch_size: int
    setup_epochs: int
    k: int
    rmse_ceiling: float
    block: int = 100
    min_calls: int = 100
    holdout_calls: int = 0
    holdout_per_call: int = 0

    def setup(self, seed: int) -> State:
        start = self.train_rows + self.n_lags
        observed, clean = series(seed, start + self.origins + self.steps)
        state = State(seed, extra={"observed": observed, "clean": clean,
                                   "start": start})
        data = dgcn.lag_embed(observed[:start], dgcn.LagSpec(self.n_lags))
        tick = perf_counter()
        state.model = dgcn.fit(data, fit_config(self.batch_size,
                                                self.setup_epochs))
        state.setup_epoch_s = (perf_counter() - tick) / self.setup_epochs
        if fit_failures(state.model, self.setup_epochs):
            raise RuntimeError("set-up fit produced a non-finite epoch NLL")
        dgcn.forecast_recursive(state.model, observed[:start], self.steps, k=self.k)
        return state

    def call(self, state: State, i: int) -> Call:
        # The block's calls forecast disjoint windows spread over the whole
        # tail; later calls shift by one step per pass, so no origin repeats
        # before every one has been used.
        passes, j = divmod(i, self.block)
        origin = state.extra["start"] + (j * self.steps + passes) % self.origins
        history = state.extra["observed"][:origin]
        tick = perf_counter()
        pred = dgcn.forecast_recursive(state.model, history, self.steps,
                                       k=self.k, detailed=True)
        seconds = perf_counter() - tick
        if i < self.block:
            truth = state.extra["clean"][origin : origin + self.steps]
            state.sq_errors[i] = (pred.mean - truth) ** 2
        return Call(seconds, prediction_failures(pred))

    def units(self) -> int:
        return self.steps


# Why each workload is here is recorded in BENCHMARK.json and README.md.
# A run is correct only if holdout RMSE stays under the workload's ceiling,
# set at 1.4 to 2 times the worst value seen over seeds 0-9.
WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload(name="fit-minibatch", n=3200, batch_size=200, epochs=5,
                    holdout_k=50, rmse_ceiling=0.45),
        FitWorkload(name="fit-fullbatch", n=1600, batch_size=1600, epochs=2,
                    holdout_k=50, rmse_ceiling=1.2),
        PredictWorkload(name="predict-knn", n=3200, batch_size=200,
                        setup_epochs=5, k=200, rmse_ceiling=0.2),
        ForecastWorkload(name="forecast-rolling", n_lags=8, train_rows=2000,
                         origins=1000, steps=10, batch_size=200,
                         setup_epochs=5, k=50, rmse_ceiling=0.5),
    )
}
