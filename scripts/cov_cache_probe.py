#!/usr/bin/env python3
"""Time and size a model's cached training covariance.

Fits a model on N = 3200 points (five inputs, sum of sines, five epochs at
batch 200, like the benchmark's predict-knn set-up), then prints:

- the latency of 10-query predict_batched calls at k = 200 before the
  cache exists, of the call that builds it, and after it;
- the median time one k = 200 group takes to gather its training block
  from the built cache, over 200 fresh neighbour sets;
- the first and second call at k >= N for 500 queries on a fresh model,
  and their ratio (the first builds K and its factor, the second reuses
  both);
- the tracemalloc peak of each k >= N call and of the building call.

It then repeats the k = 200 calls and one k >= N call on a model above the
cache's cap (N = 4200 by default), which never builds a cache, and prints
their peaks.  Only numpy, scipy and dgcn are used.  Run from the
repository root:

    python3 scripts/cov_cache_probe.py [--n 3200] [--n-above 4200]

Timings depend on the BLAS thread count; set OPENBLAS_NUM_THREADS=1 to
compare runs.
"""

from __future__ import annotations

import argparse
import math
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dgcn  # noqa: E402
from dgcn import gp, trainer  # noqa: E402

N_V = 5
K = 200
QUERIES = 10
FULL_QUERIES = 500


def fitted(n: int, epochs: int) -> dgcn.TrainedModel:
    rng = np.random.default_rng([0, n])
    x = rng.uniform(size=(n, N_V))
    y = sum(np.sin((2.0 + v) * math.pi * x[:, v]) for v in range(N_V))
    config = dgcn.TrainConfig(batch_size=200, max_epochs=epochs,
                              early_stop_patience=epochs + 1)
    return dgcn.fit(dgcn.Dataset(x, y + 0.05 * rng.standard_normal(n)), config)


def timed(fn, *args, **kwargs):
    tick = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - tick


def peak(fn, *args, **kwargs) -> float:
    """tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def queries(seed: int, rows: int) -> np.ndarray:
    return np.random.default_rng([1, seed]).uniform(size=(rows, N_V))


def built(model) -> bool:
    return model._cache.k is not None


def gather_ms(model, sets: int = 200) -> float:
    """Median time of one group's gather of its block from the cache, ms.

    Times trainer._group_system, the one place a group gets its block,
    with the solve after the gather stubbed out, on the sorted neighbour
    sets of fresh queries.
    """
    xs = model.scaler.transform_x(queries(2 * 10**6, sets))
    nearest = np.sort(model.index.query(xs, K), axis=1)
    cached = trainer._fill_cache(model, K, 0)
    solve, gp.solve_train = gp.solve_train, lambda k, y: k
    try:
        times = []
        for sel in nearest:
            sub = gp.GpBatch(model.x[sel], model.y[sel], model.hyper.take(sel))
            times.append(timed(trainer._group_system, model, cached, sub, sel)[1])
    finally:
        gp.solve_train = solve
    return float(np.median(times)) * 1e3


def knn_calls(model, label: str) -> None:
    """10-query calls at k = 200 until the cache is built, then 50 more.

    A call builds at most k (k - 1) / 2 pairs per query, so a model that
    has not built its cache by the time they add up to N (N - 1) / 2
    never will.
    """
    n = model.n
    limit = math.ceil(n * (n - 1) / (QUERIES * K * (K - 1))) + 10
    before, after = [], []
    i = 0
    while not built(model) and i < limit:
        _, s = timed(dgcn.predict_batched, model, queries(i, QUERIES), k=K)
        i += 1
        if built(model):
            print(f"{label}: call {i} built the cache in {s * 1e3:.1f} ms")
        else:
            before.append(s)
    for j in range(50):
        _, s = timed(dgcn.predict_batched, model, queries(i + j, QUERIES), k=K)
        after.append(s)
    print(f"{label}: k={K} call median {np.median(before) * 1e3:.2f} ms over "
          f"{len(before)} calls before, {np.median(after) * 1e3:.2f} ms over "
          f"{len(after)} after; cache built: {built(model)}")
    if built(model):
        print(f"{label}: k={K} gather from the cache, median "
              f"{gather_ms(model):.3f} ms per group")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3200)
    parser.add_argument("--n-above", type=int, default=4200)
    args = parser.parse_args()

    model = fitted(args.n, 5)
    knn_calls(model, f"N={args.n}")

    model = fitted(args.n, 5)
    x = queries(10**6, FULL_QUERIES)
    first, s1 = timed(dgcn.predict_batched, model, x, k=model.n)
    second, s2 = timed(dgcn.predict_batched, model, x, k=model.n)
    same = all(np.array_equal(getattr(first, f), getattr(second, f))
               for f in ("mean", "variance", "ci_low", "ci_high"))
    print(f"N={args.n}: k>=N with {FULL_QUERIES} queries: first {s1:.3f} s, "
          f"second {s2:.3f} s, ratio {s1 / s2:.2f}x; identical: {same}")

    model = fitted(args.n, 5)
    print(f"N={args.n}: peak of the first k>=N call "
          f"{peak(dgcn.predict_batched, model, x, k=model.n):.1f} MiB, "
          f"of the second {peak(dgcn.predict_batched, model, x, k=model.n):.1f} MiB")
    model = fitted(args.n, 5)
    calls = 0
    while not built(model):
        p = peak(dgcn.predict_batched, model, queries(calls, QUERIES), k=K)
        calls += 1
    print(f"N={args.n}: peak of the k={K} call that built the cache "
          f"(call {calls}) {p:.1f} MiB; K holds {8 * args.n**2 / 2**20:.1f} MiB")

    model = fitted(args.n_above, 1)
    knn_calls(model, f"N={args.n_above}")
    print(f"N={args.n_above}: peak of a k={K} call "
          f"{peak(dgcn.predict_batched, model, queries(0, QUERIES), k=K):.1f} MiB, "
          f"of a k>=N call "
          f"{peak(dgcn.predict_batched, model, x, k=model.n):.1f} MiB; "
          f"cache built: {built(model)}")


if __name__ == "__main__":
    main()
