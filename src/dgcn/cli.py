"""Command-line front door.

Subcommands: train, predict, crossval, forecast, cats, bench-time.
Every command honors --seed for full determinism and exits with a stable
code: 0 success, 2 usage/config problems, 3 data problems, 4 numeric
failures.  A failure prints one stderr line, ``<kind>: <message>``; each
class in ``dgcn.errors`` declares its ``exit_code`` and ``kind`` (tabled in
the README), and any OSError is a data problem.  All outputs are plain
CSV/JSON files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import bench, timeseries, trainer
from .errors import DgcnError, InvalidSetting, SchemaMismatch
from .mlp import check_integer
from .trainer import TrainConfig


def _integers(flag: str, text: str) -> list:
    """Comma-separated integers; InvalidSetting naming the flag otherwise."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidSetting(f"{flag} must be comma-separated integers, "
                             f"got {text!r}") from None


def load_config(path, seed=None) -> TrainConfig:
    """TrainConfig.from_dict of a JSON config file, then --seed if given."""
    user = {}
    if path is not None:
        with open(path, "rb") as fh:
            try:
                user = json.load(fh)
            except ValueError as exc:
                raise InvalidSetting(f"config file is not JSON: {exc}") from exc
    config = TrainConfig.from_dict(user)
    return config if seed is None else replace(config, seed=seed)


def cmd_train(args) -> int:
    config = load_config(args.config, args.seed)
    data = bench.load_csv(args.data, args.target)
    started = time.perf_counter()
    model = trainer.fit(data, config)
    elapsed = time.perf_counter() - started
    trainer.save(model, args.out)
    log = {
        "config": config.to_dict(),
        "data": {"path": args.data, "n": data.n, "n_v": data.n_v},
        "epochs_run": model.log.epochs_run,
        "initial_nll": model.log.epoch_nll[0],
        "final_nll": model.log.epoch_nll[-1],
        "jitter_events": model.log.jitter_events,
        "optimizer_steps": model.log.optimizer_steps,
        "stopped_early": model.log.stopped_early,
        "elapsed_seconds": elapsed,
        "model_file": args.out,
    }
    bench.write_json(args.log or args.out + ".log.json", log)
    print(f"trained on {data.n} points; "
          f"NLL {log['initial_nll']:.4f} -> {log['final_nll']:.4f} "
          f"in {log['epochs_run']} epochs; model: {args.out}")
    return 0


def _load_features(path, model) -> np.ndarray:
    """The model's input columns of a CSV file, by name or by position."""
    header, rows = bench.read_csv_rows(path)
    if model.columns is not None and all(c in header for c in model.columns):
        cols = [header.index(c) for c in model.columns]
    elif len(header) == model.n_v:
        cols = list(range(model.n_v))
    else:
        raise SchemaMismatch(
            f"model expects columns {model.columns or model.n_v}, "
            f"file has {header}"
        )
    return bench.parse_columns(rows, cols)


def cmd_predict(args) -> int:
    trainer.check_k(args.k, args.alpha, args.interval, flags=True)
    model = trainer.load(args.model)
    x = _load_features(args.data, model)
    pred = trainer.predict_batched(
        model, x, k=args.k, alpha_level=args.alpha,
        include_noise=args.include_noise, interval=args.interval,
    )
    bench.write_prediction_csv(args.out, pred)
    print(f"wrote {pred.mean.size} predictions to {args.out}")
    return 0


def cmd_crossval(args) -> int:
    config = load_config(args.config, args.seed)
    data = bench.load_csv(args.data, args.target)
    flags = {"folds": args.folds, "repeats": args.repeats, "seed": args.seed}
    protocol = replace(bench.PRESETS[args.preset],
                       **{k: v for k, v in flags.items() if v is not None})
    if args.baseline:
        # Zero-width hidden layers: each hypernetwork outputs its final bias
        # for every point, one length-scale vector and one noise variance.
        report = bench.run_protocol(data, protocol, replace(
            config, theta_hidden=(0,), sigma_hidden=(0,)))
        stem = "baseline"
    else:
        report = bench.run_protocol(data, protocol, config)
        stem = "crossval"
    runs_path = f"{args.out_dir}/{stem}_runs.csv"
    summary_path = f"{args.out_dir}/{stem}_summary.json"
    report.write_csv(runs_path)
    s = report.summary()
    s["protocol"] = asdict(protocol)
    if not args.baseline:
        s["train_config"] = config.to_dict()
    bench.write_json(summary_path, s)
    print(f"{protocol.metric} mean {s['mean']:.4f} +- {s['std']:.4f} "
          f"(min {s['min']:.4f}, max {s['max']:.4f}) over {s['runs']} runs")
    print(f"wrote {runs_path} and {summary_path}")
    return 0


def cmd_forecast(args) -> int:
    config = load_config(args.config, args.seed)
    trainer.check_k(args.k, config=config, flags=True)
    spec = timeseries.LagSpec(args.lags)
    check_integer("--steps", args.steps, 0)
    series = timeseries.read_series_csv(args.series)
    timeseries.trailing_window(series, spec.n_lags)  # fails before training
    data = timeseries.lag_embed(series, spec)
    model = trainer.fit(data, config)
    pred = timeseries.forecast_recursive(model, series, args.steps, k=args.k,
                                         detailed=True)
    bench.write_prediction_csv(args.out, pred, "index", "prediction",
                               start=series.size)
    print(f"wrote {args.steps}-step forecast to {args.out}")
    return 0


def cmd_cats(args) -> int:
    config = load_config(args.config, args.seed)
    trainer.check_k(args.k, config=config, flags=True)
    lags = _integers("--lags", args.lags)
    specs = [timeseries.LagSpec(v) for v in lags]
    series = timeseries.read_series_csv(args.series)
    truth = None
    if args.truth:
        truth = timeseries.read_series_csv(args.truth)
    result = timeseries.cats_protocol(series, specs, config, truth=truth,
                                      k=args.k, strategy=args.strategy)
    pred_path = f"{args.out_dir}/cats_predictions.csv"
    positions = [t for start, end in timeseries.CATS_BLOCKS.blocks
                 for t in range(start, end + 1)]
    bench.write_csv_rows(pred_path, ["position", "prediction"],
                         ([t, repr(float(v))]
                          for t, v in zip(positions, result.predictions)))
    if result.e1 is not None:
        for b, score in enumerate(result.block_scores, start=1):
            print(f"block {b}: {score:.4f}")
        print(f"E1 = {result.e1:.4f}")
        bench.write_json(f"{args.out_dir}/cats_summary.json", {
            "block_scores": result.block_scores,
            "e1": result.e1,
            "lags": lags,
            "train_config": config.to_dict(),
        })
    else:
        print("no truth file given; wrote predictions only")
    print(f"wrote {pred_path}")
    return 0


def cmd_bench_time(args) -> int:
    sizes = _integers("--sizes", args.sizes)
    batches = [None if v.strip().lower() == "full" else _integers("--batch", v)[0]
               for v in args.batch.split(",")]
    config = load_config(args.config, args.seed)
    report = bench.timing_benchmark(
        sizes, batches, epochs=args.epochs, synthetic_dims=args.dims,
        seed=config.seed, train_config=config,
    )
    report.write_csv(args.out)
    for row in report.rows:
        print(f"N={row.n} N_b={row.batch_size}: {row.seconds:.2f}s "
              f"({row.sec_per_epoch:.4f}s/epoch)")
    for n, batch, reason in report.skipped:
        print(f"skipped N={n} N_b={batch}: {reason}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgcn",
        description="GP regression with network-predicted per-point "
                    "length-scales and noise variances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="last")
    p.add_argument("--config")
    p.add_argument("--out", default="model.dgcn")
    p.add_argument("--log")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--include-noise", action="store_true")
    p.add_argument("--interval", choices=["t", "z"], default="t")
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("crossval", help="run a cross-validation protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="last")
    p.add_argument("--preset", choices=sorted(bench.PRESETS), default="table3-raw")
    p.add_argument("--folds", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--baseline", action="store_true",
                   help="run the stationary control model instead: the "
                        "config with zero-width hidden layers")
    p.add_argument("--config")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("forecast", help="recursive multi-step forecast")
    p.add_argument("--series", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--lags", type=int, default=20)
    p.add_argument("--k", type=int)
    p.add_argument("--config")
    p.add_argument("--out", default="forecast.csv")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("cats", help="five-block gap-filling protocol")
    p.add_argument("--series", required=True)
    p.add_argument("--truth")
    p.add_argument("--lags", default="20,20,20,20,20")
    p.add_argument("--strategy", choices=["recursive", "direct"],
                   default="recursive")
    p.add_argument("--k", type=int)
    p.add_argument("--config")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_cats)

    p = sub.add_parser("bench-time", help="training-time scaling study")
    p.add_argument("--sizes", required=True, help="comma-separated N values")
    p.add_argument("--batch", required=True,
                   help="comma-separated batch sizes; 'full' for N_b=N")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--dims", type=int, default=5)
    p.add_argument("--config")
    p.add_argument("--out", default="timing.csv")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench_time)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except DgcnError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
