"""Small dense feed-forward networks with hand-rolled backprop.

Two instances act as hypernetworks for the GP layer: one maps each input
point to its length-scale block, the other to its noise variance.  The
implementation is deliberately self-contained (no autodiff framework): the
GP loss hands a per-output upstream gradient to :meth:`Mlp.backward`, which
returns exact parameter gradients for the optimizer.

Training-mode forwards add Gaussian noise to the inputs and apply inverted
dropout to hidden activations; inference forwards are deterministic and
ignore both regularizers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.special import expit as _sigmoid

from .errors import DimensionMismatch, InvalidSetting, StaleMask

ACTIVATIONS = ("sigmoid", "relu", "linear", "softplus")


def _act(name, a):
    if name == "sigmoid":
        return _sigmoid(a)
    if name == "relu":
        return np.maximum(a, 0.0)
    if name == "linear":
        return a
    with np.errstate(invalid="ignore"):  # NaN stays NaN; callers reject it
        return np.logaddexp(0.0, a)  # softplus; LayerSpec checked the name


def _act_prime(name, a):
    if name == "sigmoid":
        s = _sigmoid(a)
        return s * (1.0 - s)
    if name == "relu":
        return (a > 0.0).astype(np.float64)
    if name == "linear":
        return np.ones_like(a)
    return _sigmoid(a)  # softplus


def softplus_inv(y: float) -> float:
    """Inverse of log(1 + exp(x)); used to seed output biases."""
    return float(np.log(np.expm1(y)))


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer and its activation.

    A layer may have 0 units: the layer after it then outputs its bias for
    every row, so a network with such a layer ignores its input.
    """

    in_units: int
    out_units: int
    activation: str

    def __post_init__(self):
        if self.in_units < 0 or self.out_units < 0:
            raise ValueError("layer units must be >= 0")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True)
class RegularizerSpec:
    """Training-only regularizers: input noise and inverted dropout."""

    dropout_rate: float = 0.1
    input_noise_std: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidSetting("dropout_rate must lie in [0, 1)")
        if self.input_noise_std < 0.0:
            raise InvalidSetting("input_noise_std must be >= 0")

    @property
    def active(self) -> bool:
        return self.dropout_rate > 0.0 or self.input_noise_std > 0.0


def _views(flat, shapes) -> list:
    """Consecutive C-ordered views of ``flat`` with the given shapes."""
    out, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return out


class MlpParams:
    """Per-layer weights (out_units x in_units) and biases (out_units,).

    Every weight and bias is a view into one float64 vector ``flat``, laid
    out as [W_0..W_L, b_0..b_L], so an optimizer can step ``flat`` as a
    single array.  The constructor copies the given arrays into a new
    buffer.
    """

    def __init__(self, weights, biases):
        arrays = [np.asarray(a, dtype=np.float64) for a in (*weights, *biases)]
        self.shapes = tuple(a.shape for a in arrays)
        self.flat = np.empty(sum(a.size for a in arrays))
        views = _views(self.flat, self.shapes)
        for view, a in zip(views, arrays):
            view[...] = a
        self.weights = views[: len(weights)]
        self.biases = views[len(weights) :]

    def copy(self) -> "MlpParams":
        return MlpParams(self.weights, self.biases)


@dataclass
class MlpGrads:
    """Parameter gradients, views into ``flat`` laid out like MlpParams."""

    weights: list
    biases: list
    inputs: np.ndarray
    flat: np.ndarray


def glorot_init(specs, rng, output_bias: float = 0.0) -> MlpParams:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases.

    The final layer's bias is set to ``output_bias`` so a freshly built
    hypernetwork starts near a chosen constant output.
    """
    weights, biases = [], []
    for spec in specs:
        # A layer between two zero-width layers has no weights to draw.
        lim = np.sqrt(6.0 / max(spec.in_units + spec.out_units, 1))
        weights.append(rng.uniform(-lim, lim, size=(spec.out_units, spec.in_units)))
        biases.append(np.zeros(spec.out_units))
    biases[-1][:] = output_bias
    return MlpParams(weights=weights, biases=biases)


@dataclass
class _ForwardCache:
    x: np.ndarray
    layer_inputs: list
    preacts: list
    outputs: list  # activations before dropout
    masks: list


class Mlp:
    """Feed-forward network: affine layers with elementwise activations.

    A training-mode :meth:`forward` records the values backprop needs
    (including the dropout masks actually drawn); :meth:`backward` replays
    them.  Calling backward without a paired training forward raises
    :class:`StaleMask`.
    """

    def __init__(self, specs, params=None, regularizer=None, rng=None,
                 output_bias: float = 0.0):
        specs = tuple(specs)
        if not specs:
            raise ValueError("need at least one layer")
        for prev, nxt in zip(specs, specs[1:]):
            if prev.out_units != nxt.in_units:
                raise DimensionMismatch(
                    f"layer chain broken: {prev.out_units} -> {nxt.in_units}"
                )
        self.specs = specs
        self.regularizer = regularizer or RegularizerSpec(0.0, 0.0)
        if params is None:
            if rng is None:
                rng = np.random.default_rng(0)
            params = glorot_init(specs, rng, output_bias=output_bias)
        self.params = params
        self._cache = None

    @property
    def in_units(self) -> int:
        return self.specs[0].in_units

    def forward(self, x, training: bool = False, rng=None) -> np.ndarray:
        """Run the network on a batch of rows.

        Inference mode (default) is deterministic and ignores both the rng
        and the regularizer.  Training mode applies input noise and
        inverted dropout (hidden layers only) and caches everything the
        paired :meth:`backward` call needs.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_units:
            raise DimensionMismatch(
                f"input must be (N, {self.in_units}), got {x.shape}"
            )
        reg = self.regularizer
        if training and reg.active and rng is None:
            raise ValueError("training forward with regularizers needs an rng")
        h = x
        if training and reg.input_noise_std > 0.0:
            h = h + rng.normal(0.0, reg.input_noise_std, size=h.shape)
        layer_inputs, preacts, outputs, masks = [], [], [], []
        last = len(self.specs) - 1
        for i, spec in enumerate(self.specs):
            layer_inputs.append(h)
            a = h @ self.params.weights[i].T + self.params.biases[i]
            preacts.append(a)
            h = _act(spec.activation, a)
            outputs.append(h)
            mask = None
            if training and reg.dropout_rate > 0.0 and i < last:
                keep = rng.random(h.shape) >= reg.dropout_rate
                mask = keep / (1.0 - reg.dropout_rate)
                h = h * mask
            masks.append(mask)
        if training:
            self._cache = _ForwardCache(x, layer_inputs, preacts, outputs, masks)
        return h

    def backward(self, upstream) -> MlpGrads:
        """Gradients of sum(upstream * output) for the cached forward pass.

        The parameter gradients are written into views of one flat vector.
        A sigmoid layer's slope s (1 - s) reuses the forward's outputs s,
        and a linear layer's slope of 1 is skipped.
        """
        cache = self._cache
        if cache is None:
            raise StaleMask("backward called without a paired training forward")
        d = np.asarray(upstream, dtype=np.float64)
        if d.shape != cache.preacts[-1].shape:
            raise DimensionMismatch(
                f"upstream gradient must be {cache.preacts[-1].shape}, got {d.shape}"
            )
        n_layers = len(self.specs)
        flat = np.empty(self.params.flat.size)
        views = _views(flat, self.params.shapes)
        grad_w, grad_b = views[:n_layers], views[n_layers:]
        for i in range(n_layers - 1, -1, -1):
            if cache.masks[i] is not None:
                d = d * cache.masks[i]
            activation = self.specs[i].activation
            if activation == "sigmoid":
                s = cache.outputs[i]
                d = d * (s * (1.0 - s))
            elif activation != "linear":
                d = d * _act_prime(activation, cache.preacts[i])
            with np.errstate(invalid="ignore"):  # an inf input gives NaN
                np.matmul(d.T, cache.layer_inputs[i], out=grad_w[i])
            np.sum(d, axis=0, out=grad_b[i])
            d = d @ self.params.weights[i]
        return MlpGrads(weights=grad_w, biases=grad_b, inputs=d, flat=flat)

    def clear_cache(self) -> None:
        self._cache = None

    def cached_input(self):
        return None if self._cache is None else self._cache.x

    def copy(self) -> "Mlp":
        return Mlp(self.specs, params=self.params.copy(),
                   regularizer=self.regularizer)


def check_finite(name: str, value) -> None:
    """InvalidSetting unless value is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidSetting(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidSetting(f"{name} must be finite, got {value!r}")


def check_integer(name: str, value, least: int) -> int:
    """value as a Python int; InvalidSetting unless an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidSetting(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidSetting(f"{name} must be at least {least}, got {value}")
    return int(value)


def known_fields(cls, d, what: str) -> dict:
    """A copy of the JSON object d, whose keys must all be fields of cls.

    InvalidSetting if d is not an object or names an unknown key.
    """
    if not isinstance(d, dict):
        raise InvalidSetting(f"{what} must be a JSON object, "
                             f"got {type(d).__name__}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidSetting(f"unknown {what} keys: {sorted(unknown)}")
    return dict(d)


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str = "adam"  # sgd | adam | nadam
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.algorithm not in ("sgd", "adam", "nadam"):
            raise InvalidSetting("algorithm must be sgd, adam or nadam")
        for name in ("learning_rate", "beta1", "beta2", "epsilon"):
            check_finite(name, getattr(self, name))
        if self.learning_rate <= 0.0:
            raise InvalidSetting("learning_rate must be > 0")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise InvalidSetting("betas must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise InvalidSetting("epsilon must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "OptimizerConfig":
        """From a JSON object; missing keys take their defaults."""
        return cls(**known_fields(cls, d, "optimizer"))


class OptimizerState:
    """Moment accumulators and step counter for one parameter array.

    ``step`` updates the array in place; callers that need snapshots copy
    the parameters themselves.
    """

    def __init__(self, params, config: OptimizerConfig):
        self.config = config
        self.t = 0
        if config.algorithm == "sgd":
            self.m = self.v = None
        else:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)

    def step(self, p, g) -> None:
        cfg = self.config
        self.t += 1
        if cfg.algorithm == "sgd":
            p -= cfg.learning_rate * g
            return
        b1, b2 = cfg.beta1, cfg.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m = self.m
        v = self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        v_hat = v / bc2
        denom = np.sqrt(v_hat) + cfg.epsilon
        if cfg.algorithm == "adam":
            p -= cfg.learning_rate * (m / bc1) / denom
        else:  # nadam: Nesterov look-ahead on the first moment
            p -= cfg.learning_rate * (
                b1 * (m / bc1) + (1.0 - b1) * g / bc1
            ) / denom
