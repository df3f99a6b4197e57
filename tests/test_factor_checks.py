"""A NaN or inf in a covariance on the product path surfaces at its factor.

No covariance is scanned before LAPACK sees it: the factor entry points
test the factor's diagonal (see linalg's module docstring).  Each test
puts NaN, inf or -inf into one covariance, or into the noise variances
it is built from, and expects NotPositiveDefinite from the API and, from
the CLI, exit code 4 with one "numeric failure:" line and no traceback.
The error class and the exit code are pinned, not the message.
"""

import dataclasses

import numpy as np
import pytest

from dgcn import cli, gp, trainer
from dgcn.errors import NotPositiveDefinite

from test_trainer import quiet_config, sine_dataset

N = 40
K = 10
# Training points 5 and 6 are neighbours on the sine's line: every group
# of k = 10 with a query at point 5 reads the entries they share.
P = 5


@pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def bad(request):
    return request.param


@pytest.fixture(params=[P, P + 1], ids=["diagonal", "off-diagonal"])
def q(request):
    return request.param


def spoil(k, p, q, bad):
    """k with bad at (p, q) and (q, p), as a symmetric builder would."""
    k[p, q] = k[q, p] = bad
    return k


@pytest.fixture(scope="module")
def data():
    return sine_dataset(n=N)


@pytest.fixture(scope="module")
def model(data):
    return trainer.fit(data, quiet_config(batch_size=N, max_epochs=2))


@pytest.fixture(scope="module")
def files(tmp_path_factory, data):
    """The training CSV, a three-row query CSV and a model file."""
    tmp = tmp_path_factory.mktemp("cli")
    train = tmp / "train.csv"
    train.write_text("x,y\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(data.x[:, 0], data.y)))
    queries = tmp / "queries.csv"
    queries.write_text("x\n" + "".join(
        f"{float(a)!r}\n" for a in data.x[P - 1:P + 2, 0]))
    config = tmp / "config.json"
    config.write_text(
        '{"batch_size": 40, "max_epochs": 2, "dropout_rate": 0.0, '
        '"input_noise_std": 0.0}')
    model = tmp / "model.dgcn"
    assert run(["train", "--data", train, "--config", config,
                "--out", model]) == 0
    return train, queries, config, model


def run(args):
    return cli.main([str(a) for a in args])


def assert_numeric_failure(capsys, args):
    capsys.readouterr()
    assert run(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def fresh(model):
    """The same model with an empty prediction cache."""
    return dataclasses.replace(model)


class TestTrainingBlock:
    """K of a training step, as gp._blocked_cov builds it."""

    @pytest.fixture(autouse=True)
    def spoiled(self, monkeypatch, bad, q):
        real = gp._blocked_cov

        def broken(*args):
            k, slopes = real(*args)
            return spoil(k, P, q, bad), slopes

        monkeypatch.setattr(gp, "_blocked_cov", broken)

    def test_fit_raises(self, data):
        with pytest.raises(NotPositiveDefinite):
            trainer.fit(data, quiet_config(batch_size=N, max_epochs=2))

    def test_train_exits_4(self, capsys, files, tmp_path):
        train, _, config, _ = files
        assert_numeric_failure(capsys, ["train", "--data", train, "--config",
                                        config, "--out", tmp_path / "m.dgcn"])


class TestCachedK:
    """The model's cached K, built by a call whose groups reach its cost."""

    @pytest.fixture(autouse=True)
    def spoiled(self, monkeypatch, bad, q):
        real = trainer._CovCache.build
        self.builds = []

        def broken(cache, model):
            real(cache, model)
            spoil(cache.k, cache.pos[P], cache.pos[q], bad)
            self.builds.append(cache)

        monkeypatch.setattr(trainer._CovCache, "build", broken)

    def test_predict_raises(self, model, data):
        model = fresh(model)
        with pytest.raises(NotPositiveDefinite):
            trainer.predict_batched(model, data.x, k=K)
        assert self.builds == [model._cache]

    def test_predict_exits_4(self, capsys, files, tmp_path):
        train, _, _, model = files
        assert_numeric_failure(capsys, ["predict", "--model", model, "--data",
                                        train, "--k", K,
                                        "--out", tmp_path / "p.csv"])
        assert len(self.builds) == 1


class TestUncachedGroupK:
    """A group's K, built by gp.train_cov while the cache holds no K."""

    @pytest.fixture(autouse=True)
    def spoiled(self, monkeypatch, bad, q):
        real = gp.train_cov

        def broken(*args):
            return spoil(real(*args), P, q, bad)

        monkeypatch.setattr(gp, "train_cov", broken)

    def test_predict_raises(self, model, data):
        model = fresh(model)
        with pytest.raises(NotPositiveDefinite):
            trainer.predict_batched(model, data.x[P - 1:P + 2], k=K)
        assert model._cache.k is None

    def test_predict_exits_4(self, capsys, files, tmp_path):
        _, queries, _, model = files
        assert_numeric_failure(capsys, ["predict", "--model", model, "--data",
                                        queries, "--k", K,
                                        "--out", tmp_path / "p.csv"])


class TestNoiseVariances:
    """The sigma2 handed to gp.train_cov, for a group and the whole set."""

    @pytest.fixture(autouse=True)
    def spoiled(self, monkeypatch, bad):
        real = gp.train_cov

        def broken(kset, warped, sigma2):
            sigma2 = sigma2.copy()
            sigma2[P] = bad
            return real(kset, warped, sigma2)

        monkeypatch.setattr(gp, "train_cov", broken)

    @pytest.mark.parametrize("k", [K, N])
    def test_predict_raises(self, model, data, k):
        with pytest.raises(NotPositiveDefinite):
            trainer.predict_batched(fresh(model), data.x[P - 1:P + 2], k=k)

    @pytest.mark.parametrize("k", [K, N])
    def test_predict_exits_4(self, capsys, files, tmp_path, k):
        _, queries, _, model = files
        assert_numeric_failure(capsys, ["predict", "--model", model, "--data",
                                        queries, "--k", k,
                                        "--out", tmp_path / "p.csv"])
