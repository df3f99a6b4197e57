#!/usr/bin/env python3
"""Page faults and allocation peaks of training steps, cold and warm.

A training step here is what ``trainer._run_epochs`` does per batch: a
training-mode forward of both hypernetworks, ``gp.nll_grad`` and one
optimizer step per network.  For (n = 200, n_v = 8) and (n = 1600,
n_v = 5) the probe runs steps on one batch of n points, twice:

- cold: every step builds its arrays afresh (no workspace is passed);
- warm: every step reuses one ``linalg.Workspace``, as a fit does.

For each it prints the minor page faults per step (``resource.getrusage``,
after two unmeasured steps) and the ``tracemalloc`` peak of one step above
what was allocated before it.  It then prints the ``tracemalloc`` peak of
whole ``fit`` calls: 5 epochs on 2000 points at batch 200 (n_v = 8), the
same on 2005 points (the 5-point tail merges into a batch of 205), and one
full-batch epoch on 1600 points (n_v = 5).

On a tree whose ``gp.nll_grad`` takes no workspace, the warm rows repeat
the cold ones and say so.  Only numpy, scipy and dgcn are used.  Run from
the repository root:

    OPENBLAS_NUM_THREADS=1 python3 scripts/step_alloc_probe.py
"""

from __future__ import annotations

import inspect
import math
import resource
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dgcn  # noqa: E402
from dgcn import gp, linalg, trainer  # noqa: E402

HAS_WORKSPACE = "workspace" in inspect.signature(gp.nll_grad).parameters
CASES = ((200, 8, 50), (1600, 5, 4))  # (n, n_v, measured steps)


def dataset(n: int, n_v: int) -> dgcn.Dataset:
    rng = np.random.default_rng([0, n, n_v])
    x = rng.uniform(size=(n, n_v))
    y = sum(np.sin((2.0 + v) * math.pi * x[:, v]) for v in range(n_v))
    return dgcn.Dataset(x, y + 0.05 * rng.standard_normal(n))


def stepper(n: int, n_v: int, warm: bool):
    """A function running one training step on a fixed n-point batch."""
    config = trainer.TrainConfig(batch_size=n)
    data = dataset(n, n_v)
    scaler = trainer.Scaler.fit(data.x, data.y)
    xs, ys = scaler.transform_x(data.x), scaler.transform_y(data.y)
    rng = np.random.default_rng(0)
    theta_net, sigma_net = trainer.build_networks(n_v, config, rng)
    opt_theta, opt_sigma = trainer._optimizers(theta_net, sigma_net, config)
    extra = {"workspace": linalg.Workspace()} if warm and HAS_WORKSPACE else {}

    def step():
        theta = theta_net.forward(xs, training=True, rng=rng)
        raw = sigma_net.forward(xs, training=True, rng=rng)
        hyper = gp.HyperField(theta, raw[:, 0] + config.sigma2_floor)
        res = gp.nll_grad(gp.GpBatch(xs, ys, hyper), config.kernels,
                          theta_net, sigma_net, **extra)
        opt_theta.step([theta_net.params.flat], [res.theta_net.flat])
        opt_sigma.step([sigma_net.params.flat], [res.sigma_net.flat])

    return step


def faults_per_step(step, steps: int) -> float:
    step()
    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        step()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps


def peak_bytes(fn) -> int:
    """tracemalloc peak of fn() above the traced size before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def main() -> None:
    note = "" if HAS_WORKSPACE else "  (no workspace in this tree: as cold)"
    print(f"{'n':>5} {'n_v':>4} {'mode':>5} {'faults/step':>12} {'peak MiB':>9}")
    for n, n_v, steps in CASES:
        for warm in (False, True):
            step = stepper(n, n_v, warm)
            faults = faults_per_step(step, steps)
            peak = peak_bytes(step) / 2**20
            mode = "warm" if warm else "cold"
            print(f"{n:>5} {n_v:>4} {mode:>5} {faults:>12.1f} {peak:>9.2f}"
                  + (note if warm else ""))
    print()
    print(f"{'fit':>28} {'peak MiB':>9}")
    for n, n_v, batch, epochs in ((2000, 8, 200, 5), (2005, 8, 200, 5),
                                  (1600, 5, 1600, 1)):
        config = trainer.TrainConfig(batch_size=batch, max_epochs=epochs,
                                     early_stop_patience=epochs + 1)
        data = dataset(n, n_v)
        peak = peak_bytes(lambda: dgcn.fit(data, config)) / 2**20
        label = f"N={n} n_v={n_v} N_b={batch} x{epochs}"
        print(f"{label:>28} {peak:>9.2f}")


if __name__ == "__main__":
    main()
