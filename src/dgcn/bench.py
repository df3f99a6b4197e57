"""Benchmark harness: CSV files, CV protocols, timing study.

The harness never bundles benchmark data; point it at user-supplied CSV
files (see scripts/fetch_datasets.py for sources and schemas).  Protocols
mirror the published comparison conventions: the "log" preset trains and
scores on log targets, the "normalized" presets score on the
dataset-standardized scale, and the raw presets score untransformed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import gp, trainer
from .errors import InvalidSetting, InvalidTarget, MissingColumn, ParseError
from .mlp import check_integer
from .trainer import Dataset, TrainConfig


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------


def read_csv_rows(path) -> tuple:
    """The stripped header and the data rows of a CSV file, blank rows skipped.

    ParseError positions count the header as row 1 and skip blank rows, so
    row i is rows[i - 2].
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if len(rows) < 2:
        raise ParseError(1, 1, "file needs a header row and at least one data row")
    return [c.strip() for c in rows[0]], rows[1:]


def parse_columns(rows, cols) -> np.ndarray:
    """The cells of columns ``cols`` (0-based) of data rows as a float matrix.

    Only these columns are parsed, so other columns may hold text.  A cell
    that is missing, not a number or not finite raises ParseError with its
    1-based position.
    """
    out = np.empty((len(rows), len(cols)))
    for i, row in enumerate(rows, start=2):
        for j, c in enumerate(cols):
            cell = row[c].strip() if c < len(row) else ""
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(i, c + 1, f"not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise ParseError(i, c + 1, f"not a finite number: {cell!r}")
            out[i - 2, j] = value
    return out


def load_csv(path, target_column="last") -> Dataset:
    """Numeric CSV with a header row; extracts the target column.

    ``target_column`` is a header name or "last".  Ragged rows and cells
    that are not finite numbers raise ParseError with their 1-based
    position.
    """
    header, rows = read_csv_rows(path)
    if target_column == "last":
        target_idx = len(header) - 1
    else:
        if target_column not in header:
            raise MissingColumn(
                f"column {target_column!r} not in header {header}"
            )
        target_idx = header.index(target_column)
    width = len(header)
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ParseError(i, len(row) + 1, f"expected {width} columns")
    values = parse_columns(rows, range(width))
    feature_cols = [j for j in range(width) if j != target_idx]
    return Dataset(
        x=values[:, feature_cols],
        y=values[:, target_idx],
        columns=[header[j] for j in feature_cols],
    )


def write_csv_rows(path, header, rows) -> None:
    """A header row, then the rows, each line ending in a bare newline."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_prediction_csv(path, pred: gp.Prediction, index_name: str = "row",
                         mean_name: str = "mean", start: int = 0) -> None:
    """Columns: index_name, mean_name, variance, ci_low, ci_high.

    Indices count from ``start``; values are written with repr, so they
    read back exactly.
    """
    columns = (pred.mean, pred.variance, pred.ci_low, pred.ci_high)
    write_csv_rows(
        path, [index_name, mean_name, "variance", "ci_low", "ci_high"],
        ([start + i] + [repr(float(a[i])) for a in columns]
         for i in range(pred.mean.size)))


# ---------------------------------------------------------------------------
# Protocols and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Protocol:
    """How to resample, transform and score a dataset."""

    kind: str = "kfold"  # kfold | split
    folds: int = 10
    repeats: int = 20
    train_size: int = 455  # split protocols only
    test_size: int = 51
    transform: str = "none"  # none | log | standardize
    metric: str = "rmse"  # rmse | mse
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("kfold", "split"):
            raise InvalidSetting("kind must be 'kfold' or 'split'")
        if self.kind == "kfold":
            check_integer("folds", self.folds, 2)
        check_integer("repeats", self.repeats, 1)
        if self.transform not in ("none", "log", "standardize"):
            raise InvalidSetting("transform must be none, log or standardize")
        if self.metric not in ("rmse", "mse"):
            raise InvalidSetting("metric must be rmse or mse")


PRESETS = {
    # 20 x 10-fold CV on log targets, scored in log space.
    "table3-log": Protocol(kind="kfold", folds=10, repeats=20, transform="log"),
    # 25 repeats of a 455/51 head/tail split on standardized targets.
    "table3-split": Protocol(kind="split", repeats=25, train_size=455,
                             test_size=51, transform="standardize"),
    # 20 x 10-fold CV on standardized targets.
    "table3-normalized": Protocol(kind="kfold", folds=10, repeats=20,
                                  transform="standardize"),
    # 20 x 10-fold CV on raw targets.
    "table3-raw": Protocol(kind="kfold", folds=10, repeats=20, transform="none"),
    "table4": Protocol(kind="kfold", folds=10, repeats=20, transform="none"),
}


@dataclass
class RunRecord:
    run_id: int
    repeat: int
    fold: int
    metric_value: float
    seconds: float


@dataclass
class BenchReport:
    protocol: Protocol
    records: list = field(default_factory=list)
    wall_clock: float = 0.0
    config_fingerprint: str = ""

    def values(self) -> np.ndarray:
        return np.asarray([r.metric_value for r in self.records])

    def summary(self) -> dict:
        v = self.values()
        return {
            "runs": int(v.size),
            "min": float(v.min()),
            "mean": float(v.mean()),
            "max": float(v.max()),
            "std": float(v.std()),
            "metric": self.protocol.metric,
            "wall_clock_seconds": self.wall_clock,
            "config_fingerprint": self.config_fingerprint,
        }

    def write_csv(self, path) -> None:
        write_csv_rows(
            path, ["run_id", "repeat", "fold", "metric_value", "seconds"],
            ([r.run_id, r.repeat, r.fold, repr(r.metric_value), repr(r.seconds)]
             for r in self.records))


def _fingerprint(*dicts) -> str:
    blob = json.dumps(dicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _transform_target(y, transform: str) -> np.ndarray:
    if transform == "none":
        return np.asarray(y, dtype=np.float64)
    if transform == "log":
        y = np.asarray(y, dtype=np.float64)
        bad = np.flatnonzero(y <= 0.0)
        if bad.size:
            raise InvalidTarget(
                f"log transform needs strictly positive targets; {bad.size} of "
                f"{y.size} are not, the first in data row {bad[0] + 1} "
                f"({y[bad[0]]!r})")
        return np.log(y)
    y = np.asarray(y, dtype=np.float64)
    return trainer.Scaler.fit(np.empty((y.size, 0)), y).transform_y(y)


def _score(truth, pred, metric: str) -> float:
    err = np.asarray(truth) - np.asarray(pred)
    with np.errstate(over="ignore"):
        mse = float(np.mean(err**2))
    if metric == "rmse" and math.isinf(mse) and np.isfinite(err).all():
        scale = float(np.abs(err).max())  # the squares overflowed, not err
        return scale * float(np.sqrt(np.mean((err / scale) ** 2)))
    return float(np.sqrt(mse)) if metric == "rmse" else mse


def _splits(n: int, protocol: Protocol):
    """Yield (repeat, fold, train_idx, test_idx) with per-repeat shuffles."""
    if protocol.kind == "kfold" and protocol.folds > n:
        raise InvalidSetting(f"{protocol.folds} folds need at least that many "
                             f"points, got {n}")
    for r in range(protocol.repeats):
        rng = np.random.default_rng([protocol.seed, r])
        perm = rng.permutation(n)
        if protocol.kind == "kfold":
            folds = np.array_split(perm, protocol.folds)
            for f in range(protocol.folds):
                train = np.concatenate([folds[g] for g in range(protocol.folds)
                                        if g != f])
                yield r, f, train, folds[f]
        else:
            if protocol.train_size + protocol.test_size > n:
                raise InvalidSetting("split sizes exceed the dataset")
            yield (r, 0, perm[: protocol.train_size],
                   perm[n - protocol.test_size :])


def run_protocol(data: Dataset, protocol: Protocol,
                 train_config: TrainConfig = TrainConfig()) -> BenchReport:
    """Cross-validate a model configuration under a protocol.

    With ``theta_hidden=(0,)`` and ``sigma_hidden=(0,)`` both hypernetworks
    ignore their input, so this cross-validates the stationary control
    model: one length-scale vector and one noise variance for every point.
    """
    y = _transform_target(data.y, protocol.transform)
    report = BenchReport(
        protocol=protocol,
        config_fingerprint=_fingerprint(protocol.__dict__, train_config.to_dict()),
    )
    started = time.perf_counter()
    for run_id, (r, f, train_idx, test_idx) in enumerate(_splits(data.n, protocol)):
        tick = time.perf_counter()
        model = trainer.fit(
            Dataset(data.x[train_idx], y[train_idx], data.columns),
            replace(train_config, seed=trainer.derived_seed(protocol.seed, r, f)),
        )
        pred = trainer.predict_batched(model, data.x[test_idx]).mean
        value = _score(y[test_idx], pred, protocol.metric)
        report.records.append(RunRecord(
            run_id=run_id, repeat=r, fold=f, metric_value=value,
            seconds=time.perf_counter() - tick,
        ))
    report.wall_clock = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# Training-time scaling study
# ---------------------------------------------------------------------------


@dataclass
class TimingRow:
    n: int
    batch_size: int
    seconds: float
    sec_per_epoch: float


@dataclass
class TimingReport:
    rows: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (n, batch, reason)

    def write_csv(self, path) -> None:
        write_csv_rows(
            path, ["N", "N_b", "seconds", "sec_per_epoch"],
            ([r.n, r.batch_size, repr(r.seconds), repr(r.sec_per_epoch)]
             for r in self.rows))


def synthetic_dataset(n: int, n_v: int = 5, seed: int = 0,
                      noise: float = 0.05) -> Dataset:
    """Seeded sum-of-sines regression problem for the timing study."""
    rng = np.random.default_rng([seed, n, n_v])
    x = rng.uniform(0.0, 1.0, size=(n, n_v))
    y = np.zeros(n)
    for v in range(n_v):
        y += np.sin((2.0 + v) * np.pi * x[:, v] + 0.7 * v)
    y += noise * rng.standard_normal(n)
    return Dataset(x, y, columns=[f"x{v}" for v in range(n_v)])


def timing_benchmark(sizes, batch_sizes, epochs: int = 100,
                     synthetic_dims: int = 5, seed: int = 0,
                     memory_cap_bytes: int = 8 << 30,
                     train_config: TrainConfig | None = None) -> TimingReport:
    """Wall-clock training time per (N, N_b) configuration, fixed epochs.

    ``batch_sizes`` entries are ints, or None for full batch (N_b = N);
    full-batch rows (N_b >= N) whose covariance storage would exceed the
    memory cap are skipped with a recorded reason.  Early stopping is
    disabled so every row runs the same number of epochs.  Every row's config is built
    first, so a bad size, batch size or epoch count raises InvalidSetting
    before any training; then one small warm-up fit runs, not timed.
    """
    base = replace(train_config or TrainConfig(), max_epochs=epochs,
                   early_stop_patience=epochs + 1, early_stop_tol=0.0, seed=seed)
    sizes = [check_integer("N", n, 2) for n in sizes]
    configs = [[replace(base, batch_size=n if nb is None else nb)
                for nb in batch_sizes] for n in sizes]
    report = TimingReport()
    warm = synthetic_dataset(64, synthetic_dims, seed)
    trainer.fit(warm, replace(base, batch_size=64, max_epochs=2))
    for n, row_configs in zip(sizes, configs):
        data = synthetic_dataset(n, synthetic_dims, seed)
        for nb, cfg in zip(batch_sizes, row_configs):
            # ~6 dense N x N float64 intermediates live at peak.
            needed = 6 * 8 * n**2
            if cfg.batch_size >= n and needed > memory_cap_bytes:
                report.skipped.append((
                    n, cfg.batch_size, f"full batch at N={n} needs ~{needed >> 20} MiB"))
                continue
            tick = time.perf_counter()
            trainer.fit(data, cfg)
            seconds = time.perf_counter() - tick
            report.rows.append(TimingRow(
                n=n, batch_size=cfg.batch_size, seconds=seconds,
                sec_per_epoch=seconds / epochs,
            ))
    return report
