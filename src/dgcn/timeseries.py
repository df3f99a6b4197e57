"""Sequential-output mode: lag embedding, recursive forecasting, scoring.

A scalar series becomes a supervised dataset whose inputs are the N_t
previous values and whose targets are the value(s) some horizons ahead.
Multi-step forecasts are produced recursively: each predicted mean is fed
back as a lag input for the next step.

The gap-filling protocol trains one model per missing block, strictly on
the data before that block, forecasts the block recursively and scores the
stitched 100 predictions as total squared error / 100.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import trainer
from .errors import InvalidSetting, ParseError, SeriesTooShort, ShapeMismatch
from .gp import join_predictions
from .mlp import check_integer
from .trainer import Dataset, TrainConfig, TrainedModel


@dataclass(frozen=True)
class LagSpec:
    """How to shift a series into supervised rows."""

    n_lags: int
    horizons: tuple = (0,)

    def __post_init__(self):
        object.__setattr__(self, "n_lags", check_integer("lags", self.n_lags, 1))
        horizons = tuple(check_integer("horizon", h, 0) for h in self.horizons)
        if not horizons:
            raise InvalidSetting("need at least one horizon")
        if list(horizons) != sorted(set(horizons)):
            raise InvalidSetting("horizons must be sorted and unique")
        object.__setattr__(self, "horizons", horizons)


@dataclass(frozen=True)
class BlockSpec:
    """Disjoint 1-based inclusive ranges of missing values."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple((check_integer("block start", a, 1),
                        check_integer("block end", b, a)) for a, b in self.blocks)
        last_end = 0
        for start, end in blocks:
            if start <= last_end:
                raise InvalidSetting("blocks must be disjoint and ascending")
            last_end = end
        object.__setattr__(self, "blocks", blocks)


CATS_BLOCKS = BlockSpec(
    ((981, 1000), (1981, 2000), (2981, 3000), (3981, 4000), (4981, 5000))
)


def lag_embed(series, spec: LagSpec) -> Dataset:
    """Shift a series into supervised rows.

    Row for time t has inputs (y[t-N_t], ..., y[t-1]) and targets y[t+h]
    for each horizon h; times whose window would leave the series are
    dropped.  Rows containing non-finite values (gaps) are dropped too.
    The target is a plain vector for a single horizon and an
    (N, n_horizons) matrix otherwise.
    """
    series = np.asarray(series, dtype=np.float64).reshape(-1)
    max_h = spec.horizons[-1]
    n_rows = series.size - spec.n_lags - max_h
    if n_rows < 1:
        raise SeriesTooShort(
            f"series of {series.size} values cannot support "
            f"{spec.n_lags} lags and horizon {max_h}"
        )
    t0 = spec.n_lags
    x = np.stack(
        [series[t0 - spec.n_lags + j : t0 - spec.n_lags + j + n_rows]
         for j in range(spec.n_lags)],
        axis=1,
    )
    y = np.stack([series[t0 + h : t0 + h + n_rows] for h in spec.horizons], axis=1)
    keep = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
    x, y = x[keep], y[keep]
    if len(spec.horizons) == 1:
        y = y[:, 0]
    columns = [f"lag_{spec.n_lags - j}" for j in range(spec.n_lags)]
    return Dataset(x=x, y=y, columns=columns)


def trailing_window(history, n_lags: int) -> np.ndarray:
    """A copy of the last n_lags values of history, the first forecast's
    inputs; SeriesTooShort if there are fewer or any is missing."""
    history = np.asarray(history, dtype=np.float64).reshape(-1)
    if history.size < n_lags:
        raise SeriesTooShort(
            f"history of {history.size} values is shorter than {n_lags} lags"
        )
    window = history[-n_lags:].copy()
    if not np.isfinite(window).all():
        raise SeriesTooShort(
            f"the trailing lag window, history values "
            f"{history.size - n_lags + 1}-{history.size}, has missing values"
        )
    return window


def forecast_recursive(model: TrainedModel, history, steps: int,
                       k: int | None = None, alpha_level: float = 0.05,
                       include_noise: bool = False,
                       detailed: bool = False):
    """Multi-step forecast feeding each predicted mean back as a lag.

    Returns the vector of predicted means, or the full Prediction
    (mean/variance/interval per step) when ``detailed`` is true: the
    steps' one-row Predictions joined by gp.join_predictions, which sums
    ``clamped`` and ``jitter_events`` and keeps the highest ``jitter_max``.
    """
    steps = check_integer("steps", steps, 0)
    window = trailing_window(history, model.n_v)
    preds = []
    for _ in range(steps):
        preds.append(trainer.predict_batched(
            model, window[None, :], k=k, alpha_level=alpha_level,
            include_noise=include_noise,
        ))
        window[:-1] = window[1:]
        window[-1] = preds[-1].mean[0]
    pred = join_predictions(preds, alpha_level)
    return pred if detailed else pred.mean


def forecast_direct(history, n_lags: int, steps: int, config: TrainConfig,
                    k: int | None = None) -> np.ndarray:
    """Forecast each step with its own directly-trained model.

    Model h learns to map a lag window to the value h steps ahead, so no
    predicted value is ever fed back.  Costs one fit per step; the
    recursive mode is the default everywhere.  Raises InvalidSetting
    unless steps is an integer >= 0.
    """
    steps = check_integer("steps", steps, 0)
    history = np.asarray(history, dtype=np.float64).reshape(-1)
    window = trailing_window(history, n_lags)[None, :]
    out = np.empty(steps)
    for h in range(steps):
        data = lag_embed(history, LagSpec(n_lags, (h,)))
        seed = trainer.derived_seed(config.seed, h)
        model = trainer.fit(data, replace(config, seed=seed))
        out[h] = trainer.predict_batched(model, window, k=k).mean[0]
    return out


def e1_score(truth, pred) -> float:
    """Competition score over the 100 gap values: total squared error / 100."""
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    if truth.shape != (100,) or pred.shape != (100,):
        raise ShapeMismatch(
            f"expected 100 values (5 blocks of 20), got {truth.size} and {pred.size}"
        )
    return float(np.sum((truth - pred) ** 2) / 100.0)


@dataclass
class GapForecast:
    """Stitched block predictions plus per-block scores (when truth given)."""

    predictions: np.ndarray  # concatenated block forecasts, block order
    block_scores: list | None
    e1: float | None


def cats_protocol(series, per_block_lags, config: TrainConfig,
                  truth=None, blocks: BlockSpec = CATS_BLOCKS,
                  k: int | None = None,
                  strategy: str = "recursive") -> GapForecast:
    """Train one model per missing block and forecast each block's values.

    Each model sees only the series strictly before its own block (earlier
    gaps show up as NaN rows and are dropped by the embedding).  ``truth``,
    when given, holds the concatenated true block values in block order.
    ``strategy`` selects recursive feedback (default) or the one-model-per-
    horizon direct mode.
    """
    series = np.asarray(series, dtype=np.float64).reshape(-1)
    if strategy not in ("recursive", "direct"):
        raise InvalidSetting("strategy must be 'recursive' or 'direct'")
    if len(per_block_lags) != len(blocks.blocks):
        raise ShapeMismatch("need one lag spec per missing block")
    if series.size < blocks.blocks[-1][1]:
        raise SeriesTooShort(
            f"series of {series.size} values does not reach the last block"
        )
    preds = []
    for b, ((start, end), spec) in enumerate(zip(blocks.blocks, per_block_lags)):
        prefix = series[: start - 1]
        steps = end - start + 1
        block_config = replace(config, seed=trainer.derived_seed(config.seed, b))
        if strategy == "direct":
            preds.append(forecast_direct(prefix, spec.n_lags, steps,
                                         block_config, k=k))
        else:
            data = lag_embed(prefix, replace(spec, horizons=(0,)))
            model = trainer.fit(data, block_config)
            preds.append(forecast_recursive(model, prefix, steps, k=k))
    predictions = np.concatenate(preds)
    block_scores = None
    e1 = None
    if truth is not None:
        truth = np.asarray(truth, dtype=np.float64).reshape(-1)
        sizes = [end - start + 1 for start, end in blocks.blocks]
        if truth.size != sum(sizes):
            raise ShapeMismatch(
                f"truth must carry {sum(sizes)} values, got {truth.size}"
            )
        block_scores = []
        pos = 0
        for size, block_pred in zip(sizes, preds):
            err = truth[pos : pos + size] - block_pred
            block_scores.append(float(np.sum(err**2) / 100.0))
            pos += size
        e1 = float(sum(block_scores))
    return GapForecast(predictions=predictions, block_scores=block_scores, e1=e1)


# ---------------------------------------------------------------------------
# Series CSV input
# ---------------------------------------------------------------------------


def read_series_csv(path) -> np.ndarray:
    """Single-column CSV with an optional header row.

    Empty cells and 'NaN' mark missing values.  Any other cell that is not
    a finite number raises ParseError with its 1-based row (the header
    counts) and column 1.
    """
    with open(path, newline="") as fh:
        cells = [row[0].strip() if row else "" for row in csv.reader(fh)]
    values = []
    for row, cell in enumerate(cells, start=1):
        try:
            value = float(cell) if cell else math.nan
        except ValueError:
            if row == 1:
                continue  # header
            raise ParseError(row, 1, f"not a number: {cell!r}") from None
        if math.isinf(value):
            raise ParseError(row, 1, f"not a finite number: {cell!r}")
        values.append(value)
    return np.asarray(values, dtype=np.float64)
