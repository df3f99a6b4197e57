"""Fuzzing the CLI entry point: every input ends in a documented exit code.

Each example calls ``cli.main`` in process with one damaged input: a
config key of the wrong type or out of range, a config file that is not a
JSON object, an unusable neighbour count or alpha, a bad numeric flag, a
training CSV with bad cells, or a saved model that is truncated or has one
bit flipped.  Degenerate data comes next: training tables of 0-3 rows,
duplicated rows, constant columns and magnitudes up to 1e308; zero or
negative targets under each cross-validation preset; and series that are
shorter than their lags + 1 or wholly missing.  ``main`` must return 0, 2,
3 or 4, let no exception escape and print no traceback.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgcn import bench, cli
from dgcn.trainer import TrainConfig

N = 40
FAST = {"batch_size": N, "max_epochs": 2, "dropout_rate": 0.0,
        "input_noise_std": 0.0, "early_stop_patience": 100}
EXIT_CODES = {0, 2, 3, 4}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory with a training CSV, a fast config, a model and a series."""
    d = tmp_path_factory.mktemp("fuzz")
    x = np.linspace(0.0, 2 * np.pi, N)
    (d / "train.csv").write_text("x,y\n" + "".join(
        f"{a},{b}\n" for a, b in zip(x.tolist(), np.sin(3 * x).tolist())))
    (d / "fast.json").write_text(json.dumps(FAST))
    (d / "series.csv").write_text("value\n" + "".join(
        f"{v}\n" for v in np.sin(np.arange(30) / 3.0).tolist()))
    assert call(["train", "--data", d / "train.csv", "--config",
                 d / "fast.json", "--out", d / "model.dgcn"])[0] == 0
    return d


def call(args) -> tuple:
    """(exit code, stderr) of cli.main, with the documented-exit checks."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in args])
    err = err.getvalue()
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err, err
    return code, err


def train(work, config: bytes):
    (work / "config.json").write_bytes(config)
    return call(["train", "--data", work / "train.csv", "--config",
                 work / "config.json", "--out", work / "out.dgcn"])


junk = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(-(2**70), 0), st.floats(),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)
optimizer_keys = ["algorithm", "learning_rate", "beta1", "beta2", "epsilon"]


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(list(TrainConfig().to_dict())
                           + [f"optimizer.{k}" for k in optimizer_keys]
                           + [f"sigma_optimizer.{k}" for k in optimizer_keys]),
       value=junk)
@example(key="theta_hidden", value=[0, 0])
def test_config_value_of_wrong_type_or_range(work, key, value):
    config = dict(FAST)
    block, _, sub = key.rpartition(".")
    if block:
        config[block] = {sub: value}
    else:
        config[key] = value
    code, err = train(work, json.dumps(config).encode())
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=40, deadline=None)
@given(content=st.one_of(
    st.binary(max_size=16),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=5), st.lists(st.integers(), max_size=3))
    .map(lambda v: json.dumps(v).encode()),
))
def test_config_file_that_is_not_an_object(work, content):
    code, err = train(work, content)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([None, 0, 1, 2, N, N + 1]),
       alpha=st.sampled_from([0, 1, 2, "nan", 0.05]),
       interval=st.sampled_from(["t", "z"]))
def test_neighbour_count_and_alpha(work, k, alpha, interval):
    args = ["predict", "--model", work / "model.dgcn", "--data",
            work / "train.csv", "--alpha", alpha, "--interval", interval,
            "--out", work / "pred.csv"]
    if k is not None:
        args += ["--k", k]
    code, _ = call(args)
    usable = (0 < float(alpha) < 1
              and (k is None or k >= (2 if interval == "t" else 1)))
    assert code == (0 if usable else 2)


INTEGERS = ["-2", "-1", "0", "1", "2", "3", "x", "1.5", ""]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), command=st.sampled_from(
    ["forecast", "cats", "bench-time", "crossval"]))
def test_numeric_flags(work, data, command):
    pick = lambda values: data.draw(st.sampled_from(values))  # noqa: E731
    fast = ["--config", work / "fast.json"]
    if command == "forecast":
        args = ["--series", work / "series.csv", "--steps", pick(INTEGERS),
                "--lags", pick(INTEGERS), "--out", work / "f.csv"]
    elif command == "cats":
        args = ["--series", work / "series.csv", "--out-dir", work, "--lags",
                pick(["a,b", "0,0,0,0,0", "1,2", "", "3,3,3,3,3",
                      "-1,1,1,1,1", "2,x,2,2,2"])]
    elif command == "bench-time":
        args = ["--sizes", pick(INTEGERS + ["16", "16,a"]),
                "--batch", pick(INTEGERS + ["full", "full,x", "8,FULL"]),
                "--epochs", pick(INTEGERS), "--dims", pick(INTEGERS),
                "--out", work / "t.csv"]
    else:
        args = ["--data", work / "train.csv", "--out-dir", work,
                "--folds", pick(INTEGERS + ["100"]),
                "--repeats", pick(INTEGERS)]
    call([command, *args, *fast])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), flip=st.booleans())
def test_damaged_model_file(work, data, flip):
    blob = bytearray((work / "model.dgcn").read_bytes())
    if flip:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
    else:
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    (work / "damaged.dgcn").write_bytes(bytes(blob))
    code, _ = call(["predict", "--model", work / "damaged.dgcn", "--data",
                    work / "train.csv", "--out", work / "pred.csv"])
    assert code == 3


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.sampled_from(["nan", "inf", "-inf", "", "x", "1.5",
                                       "2", "1,2", "1,2,3"]),
                      min_size=1, max_size=4))
def test_training_csv_with_bad_cells(work, cells):
    rows = (work / "train.csv").read_text().splitlines()
    rows[1 : 1 + len(cells)] = cells
    (work / "bad.csv").write_text("\n".join(rows) + "\n")
    call(["train", "--data", work / "bad.csv", "--config", work / "fast.json",
          "--out", work / "out.dgcn"])


def write_rows(path, header, rows) -> None:
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows))


unit = st.floats(-1.0, 1.0)
magnitude = st.sampled_from([0.0, 1e-300, 1.0, 1e100, 1e154, 1e200, 1e308])


@st.composite
def degenerate_tables(draw) -> list:
    """Rows of inputs and a last response column: 0-3 rows, or up to 12
    that may all repeat the first row; some columns may be constant, and
    each column is scaled by a magnitude up to 1e308."""
    n = draw(st.sampled_from([0, 1, 2, 3, 6, 12]))
    width = draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(unit, min_size=width, max_size=width),
                         min_size=n, max_size=n))
    if n and draw(st.booleans()):
        rows = [list(rows[0]) for _ in rows]
    for col in draw(st.sets(st.integers(0, width - 1))):
        value = draw(unit)
        for row in rows:
            row[col] = value
    scales = draw(st.lists(magnitude, min_size=width, max_size=width))
    return [[v * s for v, s in zip(row, scales)] for row in rows]


@settings(max_examples=80, deadline=None)
@example(table=[[1e155, 0.5], [-1e155, -0.5], [1e155, 0.25], [-1e155, 0.75]])
@example(table=[[0.0, 0.0, 3.2031249999999998e+199]] * 12)
@example(table=[[3.2031249999999998e+199, 0.5, 0.25]] * 12)
@example(table=[[9e307, 0.5], [9e307, -0.5], [9e307, 0.25]])
@given(table=degenerate_tables())
def test_degenerate_training_table(work, table):
    data = work / "table.csv"
    write_rows(data, ["a", "b", "y"][-len(table[0]):] if table else ["x", "y"],
               table)
    code, err = call(["train", "--data", data, "--config", work / "fast.json",
                      "--out", work / "table.dgcn"])
    with np.errstate(over="ignore", invalid="ignore"):
        columns = np.array(table)
        # A constant column standardizes to zeros, however large it is.
        varies = (columns != columns[:1]).any(axis=0) if table else []
        stats = ([columns.mean(axis=0)[varies], columns.std(axis=0)[varies]]
                 if table else [])
    if len(table) >= 2 and not np.isfinite(stats).all():
        # An input column or the response cannot be standardized.
        assert code == 3 and err.startswith("data error: "), err
    if len(table) >= 2 and not np.any(varies):
        # Every column is constant: nothing overflows.
        assert not err.startswith("data error: "), err
    if code == 0:
        call(["predict", "--model", work / "table.dgcn", "--data", data,
              "--out", work / "pred.csv"])


@settings(max_examples=40, deadline=None)
@example(preset="table3-normalized", targets={0: -1e308, 1: -1e308})
@given(preset=st.sampled_from(sorted(bench.PRESETS)),
       targets=st.dictionaries(st.integers(0, N - 1),
                               st.sampled_from([0.0, -0.0, -1e-300, -1.0,
                                                -1e308, 1e308]),
                               min_size=1, max_size=3))
def test_non_positive_or_huge_targets_under_each_preset(work, preset, targets):
    x = np.linspace(0.0, 2 * np.pi, N)
    y = 2.0 + np.sin(3 * x)
    y[list(targets)] = list(targets.values())
    data = work / "targets.csv"
    write_rows(data, ["x", "y"], zip(x, y))
    code, err = call(["crossval", "--data", data, "--preset", preset,
                      "--folds", 2, "--repeats", 1, "--out-dir", work,
                      "--config", work / "fast.json"])
    transform = bench.PRESETS[preset].transform
    if (transform == "log" and min(targets.values()) <= 0
            or transform == "standardize"
            and max(map(abs, targets.values())) == 1e308):
        assert code == 3 and err.startswith("data error: "), err


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lags=st.integers(1, 4),
       command=st.sampled_from(["forecast", "cats"]))
def test_short_or_missing_series(work, data, lags, command):
    if data.draw(st.booleans()):  # every value missing
        size = data.draw(st.sampled_from([0, 1, lags, 60, 5000]))
        cells = [""] * size
    else:
        cells = data.draw(st.lists(st.sampled_from(["", "nan", "0.5", "-2",
                                                    "1e308", "-1e308"]),
                                   max_size=lags))
    series = work / "short.csv"
    series.write_text("value\n" + "".join(f"{c}\n" for c in cells))
    fast = ["--config", work / "fast.json"]
    if command == "forecast":
        args = ["--steps", 2, "--lags", lags, "--out", work / "f.csv"]
    else:
        args = ["--lags", ",".join([str(lags)] * 5), "--out-dir", work]
    code, _ = call([command, "--series", series, *args, *fast])
    assert code == 3
