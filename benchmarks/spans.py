"""Span timers wrapped around dgcn's public names, from outside the package.

While a :class:`Tracer` is installed, every binding of a traced function is
replaced by a timing wrapper: the defining module's attribute, every
by-value alias other dgcn modules hold (``gp.cdist``, ``gp.kernel_value``,
``dgcn.fit``, ...), and the traced methods on their classes.  Uninstalling
puts every original object back, and the context manager checks that it did.

Self time is a span's duration minus the time its child spans cover.  The
tracer sums it per metric name, so the reported self times of all layers add
up to the traced wall time less the caller's own code between spans.

Counts are taken at the same boundaries from the arguments and results of
the traced calls, so they describe the work requested through the public
interfaces (matrix sizes, factorizations, queries) and repeat exactly for
identical inputs.  The tracer is single-threaded: the benchmark pins
``DGCN_THREADS=1``.

Helpers whose own work is trivial (``Mlp.cached_input``, ``theta_block``,
``hyper_for`` and similar) are not wrapped; their own time is charged to
the caller's self time.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from dgcn import gp, kernels, linalg, mlp, neighbors, timeseries, trainer


def _columns(a) -> int:
    return 1 if a.ndim == 1 else a.shape[1]


def _count_cov(tracer, args, out):
    tracer.counts["kernels.entries"] += out.size * args[0].n_k


def _count_nll_grad(tracer, args, out):
    batch, kset = args[0], args[1]
    tracer.counts["kernels.entries"] += batch.n * batch.n * kset.n_k


def _count_cholesky(tracer, args, out):
    c = tracer.counts
    c["linalg.cholesky_calls"] += 1
    c["linalg.flops_computed"] += out.n**3 // 3
    if out.jitter_used > 0.0:
        c["linalg.jitter_factorizations"] += 1
        c["linalg.jitter_max"] = max(c["linalg.jitter_max"], out.jitter_used)


def _count_solve_spd(tracer, args, out):
    tracer.counts["linalg.flops_computed"] += 2 * args[0].n**2 * _columns(out)


def _count_solve_lower(tracer, args, out):
    tracer.counts["linalg.flops_computed"] += args[0].n**2 * _columns(out)


def _count_inverse(tracer, args, out):
    tracer.counts["linalg.flops_computed"] += 2 * args[0].n**3 // 3


def _count_gp_predict(tracer, args, out):
    tracer.counts["gp.predict_calls"] += 1


def _count_queries(tracer, args, out):
    tracer.counts["trainer.queries"] += out.mean.size


def _count_neighbor_query(tracer, args, out):
    tracer.counts["neighbors.query_calls"] += 1


def _count_fit(tracer, args, out):
    tracer.counts["trainer.optimizer_steps"] += out.log.optimizer_steps


# (owner, attribute, metric, count hook).  A module-level function is also
# rebound wherever another dgcn module imported it by value.
TRACED = (
    (kernels, "kernel_value", "kernels.value_s", None),
    (kernels, "kernel_deriv", "kernels.deriv_s", None),
    (kernels, "cdist", "kernels.cdist_s", None),
    (kernels, "cov_matrix", "kernels.cov_matrix_s", _count_cov),
    (linalg, "cholesky_jittered", "linalg.cholesky_s", _count_cholesky),
    (linalg, "inverse_spd", "linalg.inverse_s", _count_inverse),
    (linalg, "solve_spd", "linalg.solve_s", _count_solve_spd),
    (linalg, "solve_lower", "linalg.solve_s", _count_solve_lower),
    (linalg, "logdet", "linalg.logdet_s", None),
    (gp, "nll_hyper_grad", "gp.nll_hyper_grad_self_s", _count_nll_grad),
    (gp, "nll_grad", "gp.nll_grad_self_s", None),
    (gp, "predict", "gp.predict_self_s", _count_gp_predict),
    (gp, "confidence_interval", "gp.interval_s", None),
    (gp, "normal_interval", "gp.interval_s", None),
    (mlp.Mlp, "forward", "mlp.forward_s", None),
    (mlp.Mlp, "backward", "mlp.backward_s", None),
    (mlp.OptimizerState, "step", "mlp.optimizer_s", None),
    (neighbors.NeighborIndex, "query", "neighbors.query_s", _count_neighbor_query),
    (trainer, "fit", "trainer.fit_self_s", _count_fit),
    (trainer, "predict_batched", "trainer.predict_batched_self_s", _count_queries),
    (timeseries, "forecast_recursive", "timeseries.forecast_self_s", None),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TRACED))


def dgcn_modules() -> list:
    """The package and every imported dgcn submodule."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dgcn" or name.startswith("dgcn."))]


def bindings() -> list:
    """Every (owner, attribute) through which a traced object is reached.

    Class attributes are listed once; a module function is listed for its
    defining module and for each module that holds the same object.
    """
    out = []
    for owner, attr, metric, hook in TRACED:
        original = vars(owner)[attr]
        if isinstance(owner, type):
            out.append((owner, attr, original, metric, hook))
            continue
        for module in dgcn_modules():
            for name, value in vars(module).items():
                if value is original:
                    out.append((module, name, original, metric, hook))
    return out


def snapshot() -> dict:
    """Identity of every traced binding, for checking that it was restored."""
    return {(id(owner), attr): original
            for owner, attr, original, _, _ in bindings()}


class Tracer:
    """Accumulates per-metric self time and call counts while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._starts = []
        self._child = []

    def _wrap(self, fn, metric, hook):
        starts, child = self._starts, self._child
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - starts.pop()
                self_s[metric] += duration - child.pop()
                calls[metric] += 1
                if child:
                    child[-1] += duration
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        before = snapshot()
        bound = bindings()
        try:
            for owner, attr, original, metric, hook in bound:
                setattr(owner, attr, self._wrap(original, metric, hook))
            yield self
        finally:
            for owner, attr, original, _, _ in bound:
                setattr(owner, attr, original)
        if snapshot() != before:
            raise RuntimeError("tracer left a dgcn binding rebound")

    def self_total(self) -> float:
        return sum(self.self_s.values())
