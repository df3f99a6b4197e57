"""The names the benchmark tracer rebinds must keep existing.

``benchmarks/spans.py`` wraps dgcn functions by (owner, attribute) and by
the by-value aliases other dgcn modules hold, and its count hooks read the
traced calls' arguments and results.  The benchmark suite is not part of
these tests, so a rename or a new signature in the package would otherwise
surface only as a failing ``--trace 1`` run.  The tracer module is loaded
from its file and never changed; one test installs a Tracer around a tiny
fit and a prediction.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dgcn import gp, kernels, trainer

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"

pytestmark = pytest.mark.skipif(not SPANS.exists(),
                                reason="benchmarks/ is not in this tree")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_dgcn_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    assert spans.TRACED
    for owner, attr, metric, hook in spans.TRACED:
        assert attr in vars(owner), f"{owner.__name__}.{attr} ({metric})"
        assert callable(vars(owner)[attr])
        assert hook is None or callable(hook)


def test_gp_aliases_are_the_kernel_functions():
    # The tracer charges kernel time through these by-value imports.
    for name in ("kernel_value", "kernel_deriv", "cov_matrix", "cdist"):
        assert vars(gp)[name] is vars(kernels)[name]


def test_every_metric_has_a_binding(spans):
    bound = {metric for _, _, _, metric, _ in spans.bindings()}
    assert bound == set(spans.TIME_METRICS)


def test_hooks_count_the_real_calls(spans):
    # The count hooks read the training step's field and kernel set, the
    # fit's log and each group's gp.predict call.
    x = np.linspace(0.0, 2 * np.pi, 40)[:, None]
    data = trainer.Dataset(x, np.sin(3 * x[:, 0]))
    config = trainer.TrainConfig(batch_size=40, max_epochs=2)
    before = spans.snapshot()
    tracer = spans.Tracer()
    with tracer.installed():
        model = trainer.fit(data, config)
        pred = trainer.predict_batched(model, x[::3] + 0.1, k=5)
    assert spans.snapshot() == before
    counts = tracer.counts
    assert counts["kernels.entries"] == 2 * 40**2 * config.kernels.n_k
    assert counts["trainer.optimizer_steps"] == 2
    groups = pred.whole_groups + pred.cached_groups + pred.built_groups
    assert counts["gp.predict_calls"] == groups > 1
