"""End-to-end training, batched prediction and model persistence.

Training runs epochs of shuffled batches; each batch (x, y) forwards both
hypernetworks in training mode, evaluates the GP negative marginal
log-likelihood under their field, backpropagates its exact gradient into
both networks (gp.nll_grad) and steps each network's optimizer once.
Early stopping watches the relative improvement of the per-point epoch NLL.

The steps of one fit or update share a linalg.Workspace: each step writes
its large arrays (the condensed slopes, and for batches above 362 points
K, which it factors and inverts in place, and the slope blocks) into the
buffers the previous step used.  Allocating them afresh
on every step, as K, the factor, the inverse and its symmetrized copy plus
the slopes once were, let the allocator hand the memory back to the
system after a step and the next step fault it in again.  The workspace
is released when fit or update returns; trained models are the same bit
for bit.

Prediction standardizes the query points, runs both networks in inference
mode, then solves one GP system per group of test points that share the
same nearest-neighbor set (neighbour sets come back in index order, so
equal sets are equal rows).  With k at least the training size all test
points form one group over the whole training set, which is the full,
unbatched prediction.  Every query's cross-covariance with its neighbours
is built in one pass per call (gp.cross_cov); each group pays only for
its system's factor and the solves over its rows, in place (gp.predict).
The clamp, noise, interval, units, finite check and group counts run once.

A model warps its stored training set once, when it is built (fit, update,
load): gp.warped_rows gives the C-ordered (n_k, N, n_v) array of the
points scaled by each kernel's length-scales, the one layout that the
training step, gp.train_cov and gp.cross_cov all read.  Every covariance
of stored points (a group's, the whole set's, K) is built by gp.train_cov
from the array's rows along axis 1.  A model also caches what its
prediction calls would otherwise rebuild: K + diag(sigma2) or its factor.
A call at k >= N keeps only the whole set's Cholesky factor and alpha =
K^-1 y, so later ones only build the cross-covariance and solve.  Calls at
k < N count the training pairs their groups build, k (k - 1) / 2 per
group, and build K when the count reaches N (N - 1) / 2, the cost of one
full build: a call whose groups build fewer pairs than that leaves K
unbuilt, and one whose groups build at least that many builds it within
the call.  K is built exactly symmetric, not scanned; every system (the
whole set's, a group's block of K or, without K, its own train_cov) is
factored where it was built and built again for each jitter rung past 0
(gp.solve_built), whose factor check finds a NaN or inf it reads.  K is
stored in the leaf order of a kd-tree over the stored inputs (scipy's
default leaf size, whatever the neighbour strategy), built from the
reordered points, so each entry is the row-order K's bit for bit; a
neighbour set's block is one flat take of its positions, in the set's own
order.  A neighbour set is a ball in input space and a leaf holds nearby
points, so its block spans few cache lines of the memory-bound gather.  K
and the factor take 8 N^2 bytes each, the factor made in its own K's
memory with no copy; models with N^2 above _CACHE_ENTRIES (N > 4096) cache
nothing: each call factors the whole set or each group's block for
itself.  The cache is filled before the groups are solved, in
one serial loop (worker threads measured slower: the Python work around
each group's LAPACK calls holds the GIL).  It is never saved, and update()
and load() return models with an empty one.  Cached or not, every
prediction is the same bit for bit.

Model files are a small binary container: magic ``DGCN``, a format version
byte, a length-prefixed JSON manifest, the raw float64 arrays in manifest
order, and a trailing CRC32 over everything before it.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from . import gp, linalg
from .errors import (
    ChecksumMismatch,
    DimensionMismatch,
    EmptyDataset,
    FormatVersionMismatch,
    InvalidAlpha,
    InvalidSetting,
    InvalidTarget,
    NonFiniteLoss,
    NotPositiveDefinite,
    SchemaMismatch,
)
from .kernels import KernelSet
from .mlp import (
    LayerSpec,
    Mlp,
    MlpParams,
    OptimizerConfig,
    OptimizerState,
    RegularizerSpec,
    check_finite,
    check_integer,
    known_fields,
    softplus_inv,
)
from .neighbors import STRATEGIES, NeighborIndex

MODEL_MAGIC = b"DGCN"
MODEL_FORMAT_VERSION = 1


def derived_seed(*keys: int) -> int:
    """A stable seed for one run, fold or block, derived from integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass
class Dataset:
    """Input matrix, response vector and optional feature column names.

    The response is a vector for training; multi-horizon lag embeddings
    may carry an (N, n_targets) block, from which one column is selected
    before fitting.
    """

    x: np.ndarray
    y: np.ndarray
    columns: list | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        if self.x.ndim != 2 or self.y.ndim not in (1, 2):
            raise DimensionMismatch("x must be (N, n_v) and y (N,) or (N, h)")
        if self.x.shape[0] != self.y.shape[0]:
            raise DimensionMismatch("x and y row counts differ")
        if min(self.x.shape) < 1:
            raise EmptyDataset("need at least 1 point and 1 input column, "
                               f"got x of shape {self.x.shape}")
        for name, a in (("x", self.x), ("y", self.y)):
            bad = np.flatnonzero(~np.isfinite(a).reshape(a.shape[0], -1).all(1))
            if bad.size:
                raise InvalidTarget(f"dataset {name} has non-finite entries, "
                                    f"the first in row {bad[0]}")
        if self.columns is not None and len(self.columns) != self.x.shape[1]:
            raise DimensionMismatch("column names do not match the input width")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_v(self) -> int:
        return self.x.shape[1]


_STD_FLOOR = 1e-12
# Largest training covariance, in entries, that a model caches for
# prediction: 2^24 (128 MiB), so N up to 4096.
_CACHE_ENTRIES = 1 << 24


def _column_stats(a):
    """Mean and floored standard deviation of a's columns; a constant column
    whose computed ones overflow gets its value and the floor, exactly."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = a.mean(axis=0), np.maximum(a.std(axis=0), _STD_FLOOR)
    if a.shape[0]:
        exact = ~np.isfinite([mean, std]).all(axis=0) & (a == a[0]).all(axis=0)
        mean, std = np.where(exact, a[0], mean), np.where(exact, _STD_FLOOR, std)
    return mean, std


@dataclass
class Scaler:
    """Per-column standardization for inputs and (optionally) the target."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float
    standardize_y: bool

    def __post_init__(self):
        self.x_mean = np.asarray(self.x_mean, dtype=np.float64)
        self.x_std = np.asarray(self.x_std, dtype=np.float64)
        self.y_mean = float(self.y_mean)
        self.y_std = float(self.y_std)
        self.standardize_y = bool(self.standardize_y)

    @classmethod
    def fit(cls, x, y, standardize_y: bool = True) -> "Scaler":
        """Column statistics of x, and of y with standardize_y.

        Raises InvalidTarget when a non-constant column's mean or standard
        deviation overflows float64 (values of about 1e154 and above).
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        x_mean, x_std = _column_stats(x)
        y_mean, y_std = (map(float, _column_stats(y)) if standardize_y
                         else (0.0, 1.0))
        bad = np.flatnonzero(~(np.isfinite(x_mean) & np.isfinite(x_std)))
        if bad.size:
            raise InvalidTarget(
                f"input column {bad[0]} overflows float64 when standardized: "
                f"mean {x_mean[bad[0]]}, standard deviation {x_std[bad[0]]}")
        if not np.isfinite([y_mean, y_std]).all():
            raise InvalidTarget(
                f"responses overflow float64 when standardized: mean "
                f"{y_mean}, standard deviation {y_std}")
        return cls(x_mean, x_std, y_mean, y_std, standardize_y)

    # Overflow gives +-inf quietly: a query predicts on it, update() rejects it.
    def transform_x(self, x) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (np.asarray(x, dtype=np.float64) - self.x_mean) / self.x_std

    def transform_y(self, y) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (np.asarray(y, dtype=np.float64) - self.y_mean) / self.y_std

    def inverse_y(self, ys) -> np.ndarray:
        return np.asarray(ys, dtype=np.float64) * self.y_std + self.y_mean

    def to_dict(self) -> dict:
        """Every field, JSON-ready: the column statistics as lists."""
        return {**asdict(self), "x_mean": self.x_mean.tolist(),
                "x_std": self.x_std.tolist()}

    @classmethod
    def from_dict(cls, d) -> "Scaler":
        """From to_dict's object; every field is required."""
        return cls(**known_fields(cls, d, "scaler"))


@dataclass(frozen=True)
class TrainConfig:
    """Everything fit() needs; serialized verbatim into the model file."""

    kernels: KernelSet = KernelSet()
    theta_hidden: tuple = (20, 20, 20)
    sigma_hidden: tuple = (20, 20, 20)
    optimizer: OptimizerConfig = OptimizerConfig()
    sigma_optimizer: OptimizerConfig | None = None  # defaults to `optimizer`
    batch_size: int = 200
    max_epochs: int = 100
    early_stop_tol: float = 1e-4
    early_stop_patience: int = 10
    seed: int = 0
    standardize_y: bool = True
    dropout_rate: float = 0.1
    input_noise_std: float = 0.01
    sigma2_floor: float = 1e-6
    sigma2_init: float = 1e-2
    theta_output_bias: float = 1.0
    prediction_k: int | None = None
    neighbor_strategy: str = "brute"

    def __post_init__(self):
        """Check every field's type and range; raises InvalidSetting.

        Integer fields and hidden widths are stored as Python ints, so the
        config always serializes to JSON.
        """
        def put(name, value):
            object.__setattr__(self, name, value)

        for name in ("theta_hidden", "sigma_hidden"):
            widths = getattr(self, name)
            if not isinstance(widths, (tuple, list)):
                raise InvalidSetting(f"{name} must be a list of layer widths, "
                                     f"got {widths!r}")
            put(name, tuple(check_integer(f"{name} width", w, 0) for w in widths))
        for name, least in (("batch_size", 1), ("max_epochs", 1),
                            ("early_stop_patience", 1), ("seed", 0)):
            put(name, check_integer(name, getattr(self, name), least))
        if self.prediction_k is not None:
            put("prediction_k", check_integer("prediction_k", self.prediction_k, 1))
        for name in ("early_stop_tol", "dropout_rate", "input_noise_std",
                     "sigma2_floor", "sigma2_init", "theta_output_bias"):
            check_finite(name, getattr(self, name))
        RegularizerSpec(self.dropout_rate, self.input_noise_std)
        if not 0.0 < self.sigma2_floor < self.sigma2_init:
            raise InvalidSetting("need sigma2_init > sigma2_floor > 0")
        with np.errstate(over="ignore"):  # the noise network's output bias
            if not math.isfinite(softplus_inv(self.sigma2_init - self.sigma2_floor)):
                raise InvalidSetting("sigma2_init must exceed sigma2_floor by at "
                                     f"most about 709, got {self.sigma2_init!r}")
        for name, kind in (("kernels", KernelSet), ("optimizer", OptimizerConfig),
                           ("standardize_y", bool)):
            if not isinstance(getattr(self, name), kind):
                raise InvalidSetting(f"{name} must be a {kind.__name__}")
        if not isinstance(self.sigma_optimizer, (OptimizerConfig, type(None))):
            raise InvalidSetting("sigma_optimizer must be an OptimizerConfig or None")
        if self.neighbor_strategy not in STRATEGIES:
            raise InvalidSetting(f"neighbor_strategy must be one of {STRATEGIES}")

    def to_dict(self) -> dict:
        """Every field, JSON-ready: kernels by name, hidden widths as lists."""
        return {**asdict(self), "kernels": self.kernels.names(),
                "theta_hidden": list(self.theta_hidden),
                "sigma_hidden": list(self.sigma_hidden)}

    @classmethod
    def from_dict(cls, d) -> "TrainConfig":
        """From a JSON object; missing keys take their defaults.

        Raises InvalidSetting for anything but an object, for an unknown key
        and for a bad value.
        """
        d = known_fields(cls, d, "config")
        if "kernels" in d:
            d["kernels"] = KernelSet.from_names(d["kernels"])
        for name in ("optimizer", "sigma_optimizer"):
            if d.get(name) is not None:
                d[name] = OptimizerConfig.from_dict(d[name])
        return cls(**d)


@dataclass
class TrainingLog:
    epoch_nll: list = field(default_factory=list)
    jitter_events: int = 0
    optimizer_steps: int = 0
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_nll)

    @classmethod
    def from_dict(cls, d) -> "TrainingLog":
        return cls(
            epoch_nll=list(d["epoch_nll"]),
            jitter_events=int(d["jitter_events"]),
            optimizer_steps=int(d["optimizer_steps"]),
            stopped_early=bool(d["stopped_early"]),
        )


@dataclass
class _CovCache:
    """A model's prediction cache of its training covariance (see above)."""

    pairs: int = 0  # training pairs built by k < N calls so far
    k: np.ndarray | None = None  # K + diag(sigma2) of the stored set
    order: np.ndarray | None = None  # k's row r is point order[r]
    pos: np.ndarray | None = None  # point i is k's row pos[i]
    full: tuple | None = None  # the whole set's factor and alpha

    def build(self, model: "TrainedModel") -> None:
        """K + diag(sigma2) of the stored set, in kd-tree leaf order."""
        self.order = cKDTree(model.x).indices
        self.pos = np.argsort(self.order)
        self.k = gp.train_cov(model.kernel_set, model.warped[:, self.order],
                              model.hyper.sigma2[self.order])

    def block(self, sel) -> np.ndarray:
        """K[np.ix_(sel, sel)] of the stored set, by one flat take."""
        q = self.pos[sel]
        # Every index is below n^2, so clipping never changes one.
        return self.k.ravel().take(q[:, None] * self.k.shape[0] + q,
                                   mode="clip")


@dataclass
class TrainedModel:
    """Self-contained regressor: networks, scalers, data, index, config.

    Treat instances as immutable; update() returns a new model.  ``warped``,
    x warped by each kernel (gp.warped_rows), is made once, when the model
    is built.  Only the private prediction cache changes, and it never
    changes a result.
    """

    theta_net: Mlp
    sigma_net: Mlp
    scaler: Scaler
    config: TrainConfig
    x: np.ndarray  # standardized training inputs
    y: np.ndarray  # standardized responses
    columns: list | None
    hyper: gp.HyperField  # inference-mode hyperparameters over x
    index: NeighborIndex
    log: TrainingLog
    warped: np.ndarray = field(init=False, repr=False, compare=False)
    _cache: _CovCache = field(default_factory=_CovCache, init=False,
                              repr=False, compare=False)

    def __post_init__(self):
        self.warped = gp.warped_rows(self.x, self.hyper.theta,
                                     self.kernel_set.n_k)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_v(self) -> int:
        return self.x.shape[1]

    @property
    def kernel_set(self) -> KernelSet:
        return self.config.kernels


def _hidden_activations(n_hidden: int) -> list:
    # All-sigmoid hidden stack with a final rectified hidden layer.
    return ["sigmoid"] * (n_hidden - 1) + ["relu"] if n_hidden else []


def _build_specs(n_v: int, hidden, out_units: int, out_activation: str):
    sizes = [n_v, *hidden, out_units]
    acts = _hidden_activations(len(hidden)) + [out_activation]
    return [
        LayerSpec(sizes[i], sizes[i + 1], acts[i]) for i in range(len(sizes) - 1)
    ]


def build_networks(n_v: int, config: TrainConfig, rng) -> tuple:
    """Fresh theta and sigma hypernetworks for a given input width."""
    reg = RegularizerSpec(config.dropout_rate, config.input_noise_std)
    theta_specs = _build_specs(
        n_v, config.theta_hidden, n_v * config.kernels.n_k, "linear"
    )
    sigma_specs = _build_specs(n_v, config.sigma_hidden, 1, "softplus")
    theta_net = Mlp(theta_specs, regularizer=reg, rng=rng,
                    output_bias=config.theta_output_bias)
    sigma_net = Mlp(sigma_specs, regularizer=reg, rng=rng,
                    output_bias=softplus_inv(config.sigma2_init - config.sigma2_floor))
    return theta_net, sigma_net


def make_batches(n: int, batch_size: int, n_v: int, rng) -> list:
    """Shuffled partition into batches; a tiny tail merges into its neighbor.

    Every index appears in exactly one batch.  A final partial batch is
    kept only if it has at least max(8, n_v + 2) points, otherwise it is
    folded into the previous batch (degenerate likelihoods are worse than a
    slightly larger batch).
    """
    perm = rng.permutation(n)
    if batch_size >= n:
        return [perm]
    cuts = list(range(batch_size, n, batch_size))
    parts = np.split(perm, cuts)
    if len(parts) > 1 and len(parts[-1]) < max(8, n_v + 2):
        tail = parts.pop()
        parts[-1] = np.concatenate([parts[-1], tail])
    return parts


def hyper_for(theta_net: Mlp, sigma_net: Mlp, xs, sigma2_floor: float,
              context: str, rng=None) -> gp.HyperField:
    """Hyperparameter field of both networks over a standardized point set,
    from their inference-mode forward or, given ``rng``, their training-mode
    one.  Where the networks overflow, NonFiniteLoss ends with ``context``
    ("for the query points", "in epoch 3")."""
    training = rng is not None
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        theta = theta_net.forward(xs, training, rng)
        sigma2 = sigma_net.forward(xs, training, rng)[:, 0] + sigma2_floor
    try:
        return gp.HyperField(theta, sigma2)
    except ValueError as exc:
        raise NonFiniteLoss(f"{exc} {context}") from exc


def _run_epochs(xs, ys, theta_net, sigma_net, config, rng, max_epochs,
                early_stop, log: TrainingLog) -> None:
    n, n_v = xs.shape
    kset = config.kernels
    opt_theta = OptimizerState(theta_net.params.flat, config.optimizer)
    opt_sigma = OptimizerState(sigma_net.params.flat,
                               config.sigma_optimizer or config.optimizer)
    workspace = linalg.Workspace()  # the steps' buffers, freed on return
    streak = 0
    for _ in range(max_epochs):
        total = 0.0
        jitter = 0
        for idx in make_batches(n, config.batch_size, n_v, rng):
            xb, yb = xs[idx], ys[idx]
            hyper = hyper_for(theta_net, sigma_net, xb, config.sigma2_floor,
                              f"in epoch {log.epochs_run + 1}", rng)
            try:
                res = gp.nll_grad(hyper, kset, xb, yb, theta_net, sigma_net,
                                  workspace=workspace)
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(
                    f"{exc} (epoch {log.epochs_run + 1}, batch of "
                    f"{len(idx)} points, indices {idx[:5].tolist()}...)"
                ) from exc
            if not np.isfinite(res.value):
                raise NonFiniteLoss(
                    f"non-finite NLL in epoch {log.epochs_run + 1} "
                    f"on a batch of {len(idx)} points"
                )
            opt_theta.step(theta_net.params.flat, res.theta_net.flat)
            opt_sigma.step(sigma_net.params.flat, res.sigma_net.flat)
            log.optimizer_steps += 1
            total += res.value
            if res.jitter_used > 0.0:
                jitter += 1
        epoch_nll = total / n
        if log.epoch_nll and early_stop:
            prev = log.epoch_nll[-1]
            improvement = (prev - epoch_nll) / max(abs(prev), 1e-12)
            streak = streak + 1 if improvement < config.early_stop_tol else 0
        log.epoch_nll.append(epoch_nll)
        log.jitter_events += jitter
        if early_stop and streak >= config.early_stop_patience:
            log.stopped_early = True
            break
    theta_net.clear_cache()
    sigma_net.clear_cache()
    # Earlier NaN weights fail the next forward; the last step's need this.
    if not all(np.isfinite(net.params.flat).all() for net in (theta_net, sigma_net)):
        raise NonFiniteLoss(f"non-finite weights after epoch {log.epochs_run}")


def fit(data: Dataset, config: TrainConfig = TrainConfig()) -> TrainedModel:
    """Train both hypernetworks on the dataset and assemble a model."""
    if data.y.ndim != 1:
        raise DimensionMismatch(
            "fit needs a single response vector; select one target column"
        )
    if data.n < 2:
        raise EmptyDataset(f"training needs at least 2 points, got {data.n}")
    rng = np.random.default_rng(config.seed)
    scaler = Scaler.fit(data.x, data.y, config.standardize_y)
    xs = scaler.transform_x(data.x)
    ys = scaler.transform_y(data.y)
    theta_net, sigma_net = build_networks(data.n_v, config, rng)
    log = TrainingLog()
    _run_epochs(xs, ys, theta_net, sigma_net, config, rng, config.max_epochs,
                True, log)
    return _assemble(theta_net, sigma_net, scaler, config, xs, ys,
                     data.columns, log)


def _assemble(theta_net, sigma_net, scaler, config, xs, ys, columns, log):
    hyper = hyper_for(theta_net, sigma_net, xs, config.sigma2_floor,
                      "for the training points")
    index = NeighborIndex(xs, strategy=config.neighbor_strategy)
    return TrainedModel(
        theta_net=theta_net,
        sigma_net=sigma_net,
        scaler=scaler,
        config=config,
        x=xs,
        y=ys,
        columns=list(columns) if columns is not None else None,
        hyper=hyper,
        index=index,
        log=log,
    )


def update(model: TrainedModel, new_data: Dataset, epochs: int) -> TrainedModel:
    """Warm-started continuation on the combined data; returns a new model.

    The scalers are reused (not refit); the neighbor index is rebuilt over
    the enlarged training set.  With epochs=0 the networks are untouched
    and only the stored data and index grow.  Raises InvalidSetting unless
    epochs is an integer >= 0, DimensionMismatch unless the response is a
    vector, and InvalidTarget for a new value that standardizes to inf.
    """
    epochs = check_integer("epochs", epochs, 0)
    if new_data.y.ndim != 1:
        raise DimensionMismatch("update needs a single response vector; "
                                "select one target column")
    if new_data.n_v != model.n_v:
        raise SchemaMismatch(
            f"model expects {model.n_v} inputs, new data has {new_data.n_v}"
        )
    if (
        model.columns is not None
        and new_data.columns is not None
        and list(new_data.columns) != list(model.columns)
    ):
        raise SchemaMismatch("new data columns differ from the training columns")
    xs = np.vstack([model.x, model.scaler.transform_x(new_data.x)])
    ys = np.concatenate([model.y, model.scaler.transform_y(new_data.y)])
    for name, a in (("input", xs[model.n:]), ("response", ys[model.n:])):
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:  # "row r" of y, "row r, column c" of x
            raise InvalidTarget(
                f"new {name} row {', column '.join(map(str, bad[0]))} "
                "overflows float64 when standardized with the model's scaler")
    theta_net = model.theta_net.copy()
    sigma_net = model.sigma_net.copy()
    config = model.config
    log = replace(model.log, epoch_nll=list(model.log.epoch_nll),
                  stopped_early=False)
    if epochs > 0:
        rng = np.random.default_rng([config.seed, xs.shape[0], epochs])
        _run_epochs(xs, ys, theta_net, sigma_net, config, rng, epochs, False, log)
    return _assemble(theta_net, sigma_net, model.scaler, config, xs, ys,
                     model.columns, log)


def _check_query(model: TrainedModel, x_star_raw) -> np.ndarray:
    x = np.asarray(x_star_raw, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None] if model.n_v == 1 else x[None, :]
    if x.ndim != 2 or x.shape[1] != model.n_v:
        raise SchemaMismatch(
            f"model expects {model.n_v} input columns, got shape {x.shape}"
        )
    return x


def check_k(k, alpha_level: float = 0.05, interval: str = "t",
            config: TrainConfig | None = None, flags: bool = False):
    """The neighbour count prediction uses, checked with alpha and interval.

    k is the given k, else the config's prediction_k, else its batch_size;
    with neither k nor a config it stays None.  A t interval needs k >= 2
    (its quantile has k - 1 degrees of freedom), a z interval k >= 1, and
    alpha_level must lie in (0, 1).  Raises InvalidSetting (InvalidAlpha
    for alpha) naming the setting, or with ``flags`` the CLI flag.
    """
    prefix = "--" if flags else ""
    if interval not in ("t", "z"):
        raise InvalidSetting(f"{prefix}interval must be 't' or 'z', "
                             f"got {interval!r}")
    if not 0.0 < alpha_level < 1.0:
        raise InvalidAlpha(f"{'--alpha' if flags else 'alpha_level'} must lie "
                           f"in (0, 1), got {alpha_level}")
    name = prefix + "k"
    if k is None and config is not None:
        name = "batch_size" if config.prediction_k is None else "prediction_k"
        k = getattr(config, name)
    if k is None:
        return None
    return check_integer(f"{name} with {interval} intervals", k,
                         2 if interval == "t" else 1)


def predict_batched(model: TrainedModel, x_star_raw, k: int | None = None,
                    alpha_level: float = 0.05, include_noise: bool = False,
                    interval: str = "t") -> gp.Prediction:
    """Neighbor-batched prediction (one GP solve per distinct neighbor set).

    k defaults to the config's prediction_k, else its batch_size, and is
    checked with alpha_level and interval before any search (check_k).  At
    k >= N every query's neighbour set is the whole training set, so all
    queries form one group and no neighbour search runs: this is the full,
    unbatched GP prediction.
    """
    k = min(check_k(k, alpha_level, interval, model.config), model.n)
    x_raw = _check_query(model, x_star_raw)
    if x_raw.shape[0] == 0:
        return gp.join_predictions([], alpha_level)
    xs = model.scaler.transform_x(x_raw)
    hyper_star = hyper_for(model.theta_net, model.sigma_net, xs,
                           model.config.sigma2_floor, "for the query points")

    # Each group is (training rows, query rows).
    if k == model.n:
        groups = [(slice(None), slice(None))]
    else:
        # One neighbour query for the whole block, each set in index order;
        # queries with equal sets share one factorization.
        nearest = model.index.query(xs, k)
        by_set: dict = {}
        for i, row in enumerate(nearest):
            by_set.setdefault(row.tobytes(), []).append(i)
        groups = [(nearest[ids[0]], np.asarray(ids, dtype=np.intp))
                  for ids in by_set.values()]

    mean, variance = np.empty((2, xs.shape[0]))
    cache = _fill_cache(model, k, len(groups))
    kset = model.kernel_set
    cross = gp.cross_cov(kset, model.warped,
                         gp.warped_rows(xs, hyper_star.theta, kset.n_k),
                         None if k == model.n else nearest)

    jitters = []
    for sel, ids in groups:
        if isinstance(sel, slice):
            factor, alpha = cache.full
        else:
            build = (partial(cache.block, sel) if cache.k is not None else
                     partial(gp.train_cov, kset, model.warped[:, sel],
                             model.hyper.sigma2[sel]))
            factor, alpha = gp.solve_built(build, model.y[sel])
        # Overwritten: a copy at k < N, cross itself (read no more) at N.
        mean[ids], variance[ids] = gp.predict(factor, alpha, cross[ids],
                                              kset.n_k)
        jitters.append(factor.jitter_used)
    # The clamp, noise, interval and the response's units are applied to
    # the whole call at once.
    pred = gp.predictive(mean, variance,
                         hyper_star.sigma2 if include_noise else None,
                         k, alpha_level, interval, jitters)
    if k == model.n:
        pred.whole_groups = 1
    elif cache.k is not None:
        pred.cached_groups = len(groups)
    else:
        pred.built_groups = len(groups)
    s = model.scaler
    pred.mean = s.inverse_y(pred.mean)
    pred.variance = pred.variance * s.y_std**2
    pred.ci_low = s.inverse_y(pred.ci_low)
    pred.ci_high = s.inverse_y(pred.ci_high)
    finite = np.isfinite(pred.mean) & np.isfinite(pred.variance)
    finite &= np.isfinite(pred.ci_low) & np.isfinite(pred.ci_high)
    if not finite.all():
        rows = np.flatnonzero(~finite)
        raise NonFiniteLoss(f"non-finite prediction for {rows.size} query "
                            f"rows, first {rows[:5].tolist()}")
    return pred


def _fill_cache(model: TrainedModel, k: int, n_groups: int) -> _CovCache:
    """The cache the call's groups read (see the module docstring): the
    model's, or above the cap a new one for this call only."""
    n = model.n
    capped = n * n > _CACHE_ENTRIES
    cache = _CovCache() if capped else model._cache
    if k == n:
        if cache.full is None:
            cache.full = gp.solve_built(partial(
                gp.train_cov, model.kernel_set, model.warped,
                model.hyper.sigma2), model.y)
    elif cache.k is None and not capped:
        cache.pairs += n_groups * (k * (k - 1) // 2)
        if cache.pairs >= n * (n - 1) // 2:
            cache.build(model)
    return cache


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _specs_to_json(specs) -> list:
    return [[s.in_units, s.out_units, s.activation] for s in specs]


def _specs_from_json(rows) -> list:
    return [LayerSpec(int(r[0]), int(r[1]), str(r[2])) for r in rows]


def _model_arrays(model: TrainedModel) -> list:
    entries = []
    for prefix, net in (("theta", model.theta_net), ("sigma", model.sigma_net)):
        for i, (w, b) in enumerate(zip(net.params.weights, net.params.biases)):
            entries.append((f"{prefix}_w{i}", w))
            entries.append((f"{prefix}_b{i}", b))
    entries.append(("train_x", model.x))
    entries.append(("train_y", model.y))
    return entries


def save(model: TrainedModel, path) -> None:
    """Write the versioned binary container (see module docstring)."""
    arrays = _model_arrays(model)
    manifest = {
        "columns": model.columns,
        "config": model.config.to_dict(),
        "scaler": model.scaler.to_dict(),
        "theta_specs": _specs_to_json(model.theta_net.specs),
        "sigma_specs": _specs_to_json(model.sigma_net.specs),
        "log": asdict(model.log),
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += MODEL_MAGIC
    out += struct.pack("<B", MODEL_FORMAT_VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    for _, a in arrays:
        out += np.ascontiguousarray(a, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load(path) -> TrainedModel:
    """Read a model file; checks magic, version and CRC before decoding.

    Raises FormatVersionMismatch when the CRC matches but the manifest does
    not decode into a consistent model (bad JSON, missing keys, wrong
    types, array shapes that do not fit the networks, fewer than 2 stored
    training points, networks of 0 inputs), and ChecksumMismatch when the
    declared arrays do not cover the payload; NonFiniteLoss when the
    stored networks overflow on the stored training points.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MODEL_MAGIC) + 1:
        raise ChecksumMismatch("file is truncated")
    if data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatVersionMismatch("not a model file (bad magic)")
    version = data[len(MODEL_MAGIC)]
    if version != MODEL_FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"unsupported format version {version} "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    head = len(MODEL_MAGIC) + 1
    if len(data) < head + 4 + 4:
        raise ChecksumMismatch("file is truncated")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ChecksumMismatch("CRC32 does not match file contents")
    try:
        return _decode(data, head)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatVersionMismatch(f"malformed model manifest: {exc!r}") from exc


def _decode(data: bytes, head: int) -> TrainedModel:
    (manifest_len,) = struct.unpack("<I", data[head : head + 4])
    body = head + 4
    manifest = json.loads(data[body : body + manifest_len].decode())
    offset = body + manifest_len
    arrays = {}
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        if not all(type(s) is int and s >= 0 for s in shape):
            raise ValueError(f"array {entry['name']!r} has shape {entry['shape']!r}")
        count = math.prod(shape)
        raw = data[offset : offset + 8 * count]
        if len(raw) != 8 * count:
            raise ChecksumMismatch("array section is truncated")
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        offset += 8 * count
    if offset != len(data) - 4:
        raise ChecksumMismatch("trailing bytes after declared arrays")

    config = TrainConfig.from_dict(manifest["config"])
    if config.to_dict() != manifest["config"]:
        # Only config files may leave keys to their defaults.
        raise ValueError("stored config does not carry every setting")
    scaler = Scaler.from_dict(manifest["scaler"])
    theta_specs = _specs_from_json(manifest["theta_specs"])
    sigma_specs = _specs_from_json(manifest["sigma_specs"])
    columns = manifest["columns"]
    x, y = arrays["train_x"], arrays["train_y"]
    n_v = theta_specs[0].in_units
    if (
        x.shape != (y.size, n_v)
        or y.ndim != 1
        or sigma_specs[0].in_units != n_v
        or theta_specs[-1].out_units != n_v * config.kernels.n_k
        or sigma_specs[-1].out_units != 1
        or scaler.x_mean.shape != (n_v,)
        or scaler.x_std.shape != (n_v,)
        or not (columns is None or (isinstance(columns, list) and len(columns) == n_v))
    ):
        raise ValueError("training data, scaler and network widths disagree")
    if y.size < 2:  # fit stores at least 2; predicting needs 2
        raise ValueError(f"model stores {y.size} training points, not at least 2")
    if n_v < 1:  # a Dataset has at least 1 input column
        raise ValueError("model networks take 0 inputs, not at least 1")
    reg = RegularizerSpec(config.dropout_rate, config.input_noise_std)

    def rebuild(prefix, specs):
        weights = [arrays[f"{prefix}_w{i}"] for i in range(len(specs))]
        biases = [arrays[f"{prefix}_b{i}"] for i in range(len(specs))]
        for i, spec in enumerate(specs):
            if (weights[i].shape != (spec.out_units, spec.in_units)
                    or biases[i].shape != (spec.out_units,)):
                raise ValueError(f"{prefix} layer {i} arrays do not match its spec")
        return Mlp(specs, params=MlpParams(weights, biases), regularizer=reg)

    return _assemble(
        rebuild("theta", theta_specs),
        rebuild("sigma", sigma_specs),
        scaler,
        config,
        x,
        y,
        columns,
        TrainingLog.from_dict(manifest["log"]),
    )
