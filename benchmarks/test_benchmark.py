"""Checks on the benchmark itself: its output contract, the tracer's
rebinding, self-time accounting and the exact repeat of per-layer counts.

Run from the repository root with ``python -m pytest benchmarks``; the
traced runs take about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness  # first: puts the checkout's src on sys.path
import dgcn
import spans
from run import WORKLOAD_NAMES
from workloads import WORKLOADS, Call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REPEATED_COUNTS = (
    "kernels.entries",
    "linalg.flops_computed",
    "linalg.cholesky_calls",
    "linalg.jitter_factorizations",
    "linalg.jitter_max",
    "neighbors.query_calls",
    "trainer.group_share",
    "trainer.optimizer_steps",
)

# Traced wall time is the sum of the timed calls; the part no span covers is
# the outermost wrapper's own entry and exit, well under 2% of a call.
UNCOVERED_SHARE = 0.02


def all_bindings() -> dict:
    """Every attribute of every dgcn module and traced class, by identity."""
    out = {}
    for module in spans.dgcn_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = id(value)
    for owner, attr, _, _ in spans.TRACED:
        if isinstance(owner, type):
            out[(owner.__qualname__, attr)] = id(vars(owner)[attr])
    return out


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced runs of each workload with one seed, made on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = [harness.run_workload(name, seed=0, seconds=0, trace=True)
                           for _ in range(2)]
        return cache[name]

    return get


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(name, traced_pair):
    for result in traced_pair(name):
        assert result.correct
        assert result.tally.failed == 0
        assert list(result.metrics) == [m for m, _ in harness.PER_LAYER]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_counts_repeat_exactly_for_one_seed(name, traced_pair):
    first, second = traced_pair(name)
    for metric in REPEATED_COUNTS:
        assert first.metrics[metric] == second.metrics[metric], metric


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_layer_self_times_sum_to_traced_wall(name, traced_pair):
    for result in traced_pair(name):
        wall = result.metrics["trace.wall_s"][0]
        layers = sum(result.metrics[m][0] for m in spans.TIME_METRICS)
        assert wall * (1.0 - UNCOVERED_SHARE) <= layers <= wall * (1.0 + 1e-9)


def test_every_alias_is_wrapped_while_installed():
    originals = {id(original): (owner, attr)
                 for owner, attr, original, _, _ in spans.bindings()}
    aliases = {(m.__name__, n) for m in spans.dgcn_modules()
               for n, v in vars(m).items() if id(v) in originals}
    # The by-value imports that would otherwise charge kernel time to gp.
    for alias in ("kernel_value", "kernel_deriv", "cov_matrix", "cdist"):
        assert ("dgcn.gp", alias) in aliases
    assert ("dgcn.kernels", "cdist") in aliases
    with spans.Tracer().installed():
        for module in spans.dgcn_modules():
            for name, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{name}"
        for owner, attr, _, _ in spans.TRACED:
            if isinstance(owner, type):
                assert id(vars(owner)[attr]) not in originals


def test_untraced_passes_run_with_original_bindings():
    before = all_bindings()
    result = harness.run_workload("forecast-rolling", seed=0, seconds=4, trace=True)
    assert all_bindings() == before
    # Untraced and traced passes alternate; spans were recorded for the
    # traced passes only.
    blocks = result.notes["blocks"]
    assert blocks >= 2
    block = WORKLOADS["forecast-rolling"].block
    assert result.notes["calls"]["timeseries.forecast_self_s"] == blocks * block
    untraced = harness.run_workload("forecast-rolling", seed=0, seconds=0, trace=False)
    assert untraced.correct
    assert all_bindings() == before


def test_failures_are_counted_not_raised():
    tally = harness.Tally()

    def raises():
        raise dgcn.NotPositiveDefinite("ladder exhausted")

    assert tally.attempt(raises) is None
    assert tally.attempt(lambda: Call(0.5, ["mean_finite"])) is None
    assert tally.attempt(lambda: Call(0.25, [])) == 0.25
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.errors == {"NotPositiveDefinite": 1}
    assert tally.failed_checks == {"mean_finite": 1}


def run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_end_to_end_metrics_last():
    out = run_cli(ROOT, "--workload", "forecast-rolling", "--seed", "3",
                  "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    final = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(final) == ["attempted", "correct", "failed", "metrics"]
    assert final["correct"] and final["failed"] == 0
    assert list(final["metrics"]) == [m for m, _ in harness.END_TO_END]
    assert "'DGCN_THREADS': '1'" in out.stdout


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_cli(tmp_path, "--workload", "predict-knn", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
