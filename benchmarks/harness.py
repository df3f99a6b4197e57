"""Runs one workload and turns its timings and traces into metrics.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and refuses a ``dgcn`` imported from anywhere else, so the
benchmark always measures the code next to it.  Import it before
``workloads`` and ``spans``.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import dgcn  # noqa: E402

if not Path(dgcn.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"dgcn was imported from {dgcn.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from workloads import QUERIES_PER_CALL, WORKLOADS, FitWorkload, holdout_rmse  # noqa: E402

# Set-ups per timed run: one before the first call, the rest spread evenly
# over the run, so the set-up median sees the same stretch of time as the
# calls do.  A traced run sets up once.
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("queries_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("holdout_rmse", "1"),
)

# Counts are those of one block and repeat exactly for one seed.
COUNTS = (
    ("kernels.entries", "count"),
    ("linalg.flops_computed", "flop"),
    ("linalg.cholesky_calls", "count"),
    ("linalg.jitter_factorizations", "count"),
    ("linalg.jitter_max", "1"),
    ("neighbors.query_calls", "count"),
    ("trainer.group_share", "query/call"),
    ("trainer.optimizer_steps", "count"),
)

PER_LAYER = (
    tuple((m, "s") for m in spans.TIME_METRICS)
    + COUNTS
    + (("trace.wall_s", "s"), ("trace_overhead", "ratio"))
)


@dataclass
class Tally:
    """Attempted and failed calls, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failed_checks: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)

    def attempt(self, call):
        """Run one call; return its seconds, or None if it failed.

        A DgcnError or a failed output check counts as a failure and the
        run goes on.
        """
        self.attempted += 1
        try:
            result = call()
        except dgcn.DgcnError as exc:
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            return None
        if result.failed_checks:
            self.failed += 1
            self.failed_checks.update(result.failed_checks)
            return None
        return result.seconds


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict  # name -> (value, unit)
    tally: Tally
    correct: bool
    notes: dict

    def final(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def environment() -> dict:
    """Thread pins, core count, versions, BLAS library and CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "DGCN_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "cpu": cpu,
        "threads": {name: os.environ.get(name) for name in pins},
    }


class Runner:
    """One workload's calls against one set-up state, with their tally.

    Holdout calls are spread over the run, a few after each main call or
    block, so the holdout timings see the same stretch of time as the rest.
    """

    def __init__(self, wl, state):
        self.wl = wl
        self.state = state
        self.tally = Tally()
        self.latencies = []
        self.holdout = []
        self._next_holdout = 0

    def call(self, i: int):
        s = self.tally.attempt(lambda: self.wl.call(self.state, i))
        if s is not None:
            self.latencies.append(s)
        return s

    def holdout_calls(self, count: int) -> None:
        if self.state.model is None:
            return
        for _ in range(count):
            j = self._next_holdout % self.wl.holdout_calls
            self._next_holdout += 1
            s = self.tally.attempt(lambda: self.wl.holdout_call(self.state, j))
            if s is not None:
                self.holdout.append(s)

    def finish_holdout(self) -> None:
        """Make sure every holdout call has run once, so RMSE sees them all."""
        self.holdout_calls(max(0, self.wl.holdout_calls - self._next_holdout))

    def loop(self, seconds: float, setup) -> None:
        """Closed loop until both the time and the minimum call count are met.

        ``setup`` is called SETUP_REPEATS - 1 times at even intervals.
        """
        i = 0
        setups = 1
        start = perf_counter()
        while i < self.wl.min_calls or perf_counter() - start < seconds:
            if (setups < SETUP_REPEATS
                    and perf_counter() - start >= seconds * setups / SETUP_REPEATS):
                setup()
                setups += 1
            self.call(i)
            self.holdout_calls(self.wl.holdout_per_call)
            i += 1
        for _ in range(setups, SETUP_REPEATS):
            setup()
        self.finish_holdout()

    def block(self) -> float:
        return sum(s for i in range(self.wl.block)
                   if (s := self.call(i)) is not None)

    def traced(self, seconds: float):
        """Alternate untraced and traced passes over the block until time is up."""
        tracer = spans.Tracer()
        untraced = traced = 0.0
        counts = None
        blocks = 0
        start = perf_counter()
        while blocks == 0 or perf_counter() - start < seconds:
            untraced += self.block()
            with tracer.installed():
                traced += self.block()
            blocks += 1
            if counts is None:
                counts = dict(tracer.counts)
            self.holdout_calls(self.wl.holdout_per_call)
        self.finish_holdout()
        if not (untraced and traced):
            raise RuntimeError(f"every call failed: {self.tally}")

        values = {m: tracer.self_s.get(m, 0.0) / blocks for m in spans.TIME_METRICS}
        values.update(counts)
        calls = counts.get("gp.predict_calls", 0)
        values["trainer.group_share"] = (
            counts.get("trainer.queries", 0) / calls if calls else 0.0
        )
        values["trace.wall_s"] = traced / blocks
        values["trace_overhead"] = traced / untraced - 1.0
        notes = {"blocks": blocks, "self_total_s": tracer.self_total() / blocks,
                 "calls": dict(tracer.calls)}
        return values, notes

    def timed(self, seconds: float, setup, setup_epoch_s: list):
        self.loop(seconds, setup)
        wl = self.wl
        if not self.latencies or (wl.holdout_calls and not self.holdout):
            raise RuntimeError(f"every call failed: {self.tally}")
        # Rates are total work over total time.  On a machine whose speed
        # drifts between a fast and a slow state, the mean moves with the
        # share of time spent in each, while the median jumps between them.
        if isinstance(wl, FitWorkload):
            epoch_s = statistics.fmean(self.latencies) / wl.epochs
            per_query = statistics.fmean(self.holdout) / QUERIES_PER_CALL
        else:
            epoch_s = statistics.fmean(setup_epoch_s)
            per_query = statistics.fmean(self.latencies) / wl.units()
        values = {
            "epoch_s": epoch_s,
            "queries_per_s": 1.0 / per_query,
            "call_ms_p50": 1e3 * statistics.median(self.latencies),
            "call_ms_p90": 1e3 * float(np.percentile(self.latencies, 90)),
        }
        notes = {"calls_timed": len(self.latencies),
                 "holdout_calls_timed": len(self.holdout)}
        return values, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Set up, run the workload, check and summarize."""
    wl = WORKLOADS[name]
    setup_s, setup_epoch_s = [], []

    def setup():
        tick = perf_counter()
        state = wl.setup(seed)
        setup_s.append(perf_counter() - tick)
        if state.setup_epoch_s is not None:
            setup_epoch_s.append(state.setup_epoch_s)
        return state

    # Later set-ups rebuild the same state; the calls keep using the first.
    runner = Runner(wl, setup())
    state = runner.state
    if trace:
        values, notes = runner.traced(seconds)
    else:
        values, notes = runner.timed(seconds, setup, setup_epoch_s)
    rmse = holdout_rmse(state)
    values.update(setup_s=statistics.median(setup_s), holdout_rmse=rmse)
    # A layer that the workload does not run has no entry and reports 0.
    metrics = {name: (values.get(name, 0), unit)
               for name, unit in (PER_LAYER if trace else END_TO_END)}

    tally = runner.tally
    notes.update(
        setups=len(setup_s),
        fail_ratio=tally.failed / tally.attempted,
        failed_checks=dict(tally.failed_checks),
        errors=dict(tally.errors),
        rmse=rmse,
        rmse_ceiling=wl.rmse_ceiling,
        environment=environment(),
    )
    correct = (not tally.failed_checks and math.isfinite(rmse)
               and rmse <= wl.rmse_ceiling)
    return Result(name, seed, trace, metrics, tally, correct, notes)


def report_lines(result: Result) -> list:
    """Human-readable lines: every metric by name with its unit, then notes."""
    lines = [f"# workload {result.workload} seed {result.seed} "
             f"trace {int(result.trace)}"]
    for name, (value, unit) in result.metrics.items():
        lines.append(f"{name:34s} {value:.6g} {unit}")
    for key, value in result.notes.items():
        lines.append(f"# {key}: {value}")
    return lines
