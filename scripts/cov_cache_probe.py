#!/usr/bin/env python3
"""Time and size a model's cached training covariance.

Fits a model on N = 3200 points (five inputs, sum of sines, five epochs at
batch 200, like the benchmark's predict-knn set-up), then prints:

- the latency of 10-query predict_batched calls at k = 200 before the
  cache exists, of the call that builds it, and after it;
- the median time one k = 200 group takes to gather its training block
  from the built cache, factor it and solve for alpha, over 200 fresh
  neighbour sets;
- the first and second call at k >= N for 500 queries on a fresh model,
  and their ratio (the first builds K and keeps its factor and alpha, the
  second reuses them), the bytes the cache holds after them, and the
  bytes of the warped points the model keeps beside it;
- the median of 3 first k >= N calls after a k = 200 call has built K,
  each on a fresh cache: the one-off cost of a k >= N call that finds K in
  leaf order and builds the whole set's K again to factor it;
- the tracemalloc peak of each k >= N call and of the building call.

It then repeats the k = 200 calls and one k >= N call on a second model
(N = 4200 by default) with the cache's cap, trainer._CACHE_ENTRIES,
lowered below N^2 for those calls and restored after them, so that model
never builds a cache whatever its N, and prints their peaks.  Only numpy,
scipy and dgcn are used.  Run from the repository root:

    python3 scripts/cov_cache_probe.py [--n 3200] [--n-above 4200]

Timings depend on the BLAS thread count; set OPENBLAS_NUM_THREADS=1 to
compare runs.
"""

from __future__ import annotations

import argparse
import math
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dgcn  # noqa: E402
from dgcn import trainer  # noqa: E402

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


def group_ms(model, sets: int = 200) -> float:
    """Median time of one group's system from the cache, ms.

    Times trainer._CovCache.solve, where a cached group gathers its block,
    factors it in place and solves for alpha, on the sorted neighbour sets
    of fresh queries.
    """
    xs = model.scaler.transform_x(queries(2 * 10**6, sets))
    nearest = model.index.query(xs, K)
    cache = model._cache
    return float(np.median([timed(cache.solve, sel, model.y[sel])[1]
                            for sel in nearest])) * 1e3


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
    spent = (f"{np.median(before) * 1e3:.2f} ms over {len(before)} calls "
             "before" if before else "over 0 calls before: none (call 1 "
             "built the cache)")
    print(f"{label}: k={K} call median {spent}, "
          f"{np.median(after) * 1e3:.2f} ms over {len(after)} after; "
          f"cache built: {built(model)}")
    if built(model):
        print(f"{label}: k={K} gather, factor and solve from the cache, "
              f"median {group_ms(model):.3f} ms per group")


def cache_mib(model) -> float:
    """Bytes of every array the model's cache holds, in MiB."""
    cache = model._cache
    held = [cache.k, cache.order, cache.pos]
    if cache.full is not None:
        factor, alpha = cache.full
        held += [factor.lower, alpha]
    return sum(a.nbytes for a in held if a is not None) / 2**20


def full_after_leaf_ms(model, runs: int = 3) -> float:
    """Median time of the first k >= N call after K is built, ms.

    Each run starts from an empty cache (a copy of the model) and builds K
    in leaf order directly, as the k = 200 calls that pay for it would;
    the timed call then builds the whole set's K again in row order and
    factors it.
    """
    times = []
    for run in range(runs):
        fresh = replace(model)
        fresh._cache.build(fresh)
        times.append(timed(dgcn.predict_batched, fresh,
                           queries(run, FULL_QUERIES), k=fresh.n)[1])
    return float(np.median(times)) * 1e3


@contextmanager
def capped(n: int):
    """trainer._CACHE_ENTRIES at most n^2 - 1 inside the block, so a model
    of n points runs above the cap; the old value is restored after it."""
    saved = trainer._CACHE_ENTRIES
    trainer._CACHE_ENTRIES = min(saved, n * n - 1)
    try:
        yield trainer._CACHE_ENTRIES
    finally:
        trainer._CACHE_ENTRIES = saved


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
    print(f"N={args.n}: cache after the k>=N calls holds "
          f"{cache_mib(model):.1f} MiB; the model's warped points "
          f"{model.warped.nbytes / 2**20:.2f} MiB")
    if model.n ** 2 <= trainer._CACHE_ENTRIES:
        print(f"N={args.n}: first k>=N call after K was built in leaf order, "
              f"median of 3: {full_after_leaf_ms(model):.1f} ms")

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
    with capped(model.n) as cap:
        print(f"N={args.n_above}: cache cap lowered to {cap} entries "
              f"(N^2 = {model.n ** 2}) for this model's calls")
        knn_calls(model, f"N={args.n_above}")
        print(f"N={args.n_above}: peak of a k={K} call "
              f"{peak(dgcn.predict_batched, model, queries(0, QUERIES), k=K):.1f}"
              f" MiB, of a k>=N call "
              f"{peak(dgcn.predict_batched, model, x, k=model.n):.1f} MiB; "
              f"cache built: {built(model)}")


if __name__ == "__main__":
    main()
