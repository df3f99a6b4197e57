"""The package root's public names, pinned: a change to ``__all__`` shows up
as an edit of this list."""

import dgcn

PUBLIC = [
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
    "e1_score",
    "fit",
    "forecast_direct",
    "forecast_recursive",
    "lag_embed",
    "load",
    "load_csv",
    "predict_batched",
    "run_protocol",
    "save",
    "timing_benchmark",
    "update",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 50
    assert sorted(dgcn.__all__) == PUBLIC


def test_no_name_repeats():
    assert len(set(dgcn.__all__)) == len(dgcn.__all__)


def test_every_name_resolves():
    missing = [name for name in dgcn.__all__ if not hasattr(dgcn, name)]
    assert missing == []
