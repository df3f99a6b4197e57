"""Gaussian-process regression with network-predicted hyperparameters.

Each training point gets its own length-scale block and noise variance,
produced by two small neural networks trained through the GP marginal
likelihood.  Several correlation functions are summed into one covariance,
and prediction is batched over nearest neighbors so training-set size is
not a hard limit.
"""

from .errors import (
    ChecksumMismatch,
    DgcnError,
    DimensionMismatch,
    EmptyDataset,
    FormatVersionMismatch,
    InvalidAlpha,
    InvalidSetting,
    InvalidTarget,
    MissingColumn,
    NonFiniteLoss,
    NotPositiveDefinite,
    ParseError,
    SchemaMismatch,
    SeriesTooShort,
    ShapeMismatch,
    StaleMask,
)
from .gp import GpBatch, HyperField, Prediction, confidence_interval, nll, predict
from .kernels import ALL_KERNELS, KernelId, KernelSet, cov_matrix
from .mlp import LayerSpec, Mlp, OptimizerConfig, RegularizerSpec
from .neighbors import NeighborIndex
from .timeseries import (
    CATS_BLOCKS,
    BlockSpec,
    LagSpec,
    cats_protocol,
    e1_score,
    forecast_direct,
    forecast_recursive,
    lag_embed,
    select_lag_count,
)
from .trainer import (
    Dataset,
    Scaler,
    TrainConfig,
    TrainedModel,
    fit,
    load,
    predict_batched,
    save,
    update,
)
from .bench import (
    PRESETS,
    BenchReport,
    Protocol,
    load_csv,
    run_protocol,
    timing_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_KERNELS",
    "BenchReport",
    "BlockSpec",
    "CATS_BLOCKS",
    "ChecksumMismatch",
    "Dataset",
    "DgcnError",
    "DimensionMismatch",
    "EmptyDataset",
    "FormatVersionMismatch",
    "GpBatch",
    "HyperField",
    "InvalidAlpha",
    "InvalidSetting",
    "InvalidTarget",
    "KernelId",
    "KernelSet",
    "LagSpec",
    "LayerSpec",
    "MissingColumn",
    "Mlp",
    "NeighborIndex",
    "NonFiniteLoss",
    "NotPositiveDefinite",
    "OptimizerConfig",
    "PRESETS",
    "ParseError",
    "Prediction",
    "Protocol",
    "RegularizerSpec",
    "Scaler",
    "SchemaMismatch",
    "SeriesTooShort",
    "ShapeMismatch",
    "StaleMask",
    "TrainConfig",
    "TrainedModel",
    "cats_protocol",
    "confidence_interval",
    "cov_matrix",
    "e1_score",
    "fit",
    "forecast_direct",
    "forecast_recursive",
    "select_lag_count",
    "lag_embed",
    "load",
    "load_csv",
    "nll",
    "predict",
    "predict_batched",
    "run_protocol",
    "save",
    "timing_benchmark",
    "update",
]
