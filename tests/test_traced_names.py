"""The names the benchmark tracer rebinds must keep existing.

``benchmarks/spans.py`` wraps dgcn functions by (owner, attribute) and by
the by-value aliases other dgcn modules hold.  The benchmark suite is not
part of these tests, so a rename in the package would otherwise surface
only as a failing ``--trace 1`` run.  The tracer module is loaded from its
file and only read: nothing is installed.
"""

import importlib.util
from pathlib import Path

import pytest

from dgcn import gp, kernels

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
