import numpy as np
import pytest

from dgcn.errors import DimensionMismatch, StaleMask
from dgcn.mlp import (
    _act_prime,
    LayerSpec,
    Mlp,
    MlpParams,
    OptimizerConfig,
    OptimizerState,
    RegularizerSpec,
    glorot_init,
    softplus_inv,
)

from oracles import loss_sq, param_arrays


def single_neuron(w, b, activation="sigmoid"):
    params = MlpParams(weights=[np.array([[float(w)]])],
                       biases=[np.array([float(b)])])
    return Mlp([LayerSpec(1, 1, activation)], params=params)


def random_net(rng, sizes, activations):
    specs = [LayerSpec(sizes[i], sizes[i + 1], activations[i])
             for i in range(len(sizes) - 1)]
    return Mlp(specs, params=glorot_init(specs, rng))


class TestForward:
    def test_zero_neuron_outputs_half(self):
        net = single_neuron(0.0, 0.0)
        out = net.forward(np.array([[123.0], [-5.0]]))
        np.testing.assert_array_equal(out, 0.5)

    def test_sigmoid_limits(self):
        net = single_neuron(1.0, 0.0)
        assert net.forward(np.array([[0.0]]))[0, 0] == 0.5
        assert net.forward(np.array([[40.0]]))[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_linear_identity_composition(self):
        params = MlpParams(weights=[np.eye(3), np.eye(3)],
                           biases=[np.zeros(3), np.zeros(3)])
        net = Mlp([LayerSpec(3, 3, "linear"), LayerSpec(3, 3, "linear")],
                  params=params)
        x = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_array_equal(net.forward(x), x)

    def test_input_width_checked(self):
        net = single_neuron(1.0, 0.0)
        with pytest.raises(DimensionMismatch):
            net.forward(np.ones((2, 3)))

    def test_broken_layer_chain_rejected(self):
        with pytest.raises(DimensionMismatch):
            Mlp([LayerSpec(2, 3, "sigmoid"), LayerSpec(4, 1, "linear")])

    def test_stacked_zero_width_layers_output_the_bias(self):
        # [2, 0, 0, 3]: the middle layer has no weights at all.
        net = random_net(np.random.default_rng(1), [2, 0, 0, 3],
                         ["sigmoid", "relu", "linear"])
        net.params.biases[-1][:] = [1.0, 2.0, 3.0]
        out = net.forward(np.random.default_rng(2).standard_normal((4, 2)))
        np.testing.assert_array_equal(out, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_determinism_under_fixed_seed(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, [2, 8, 1], ["sigmoid", "linear"])
        net.regularizer = RegularizerSpec(0.3, 0.05)
        x = rng.standard_normal((6, 2))
        a = net.forward(x, training=True, rng=np.random.default_rng(77))
        mask_a = net._cache.masks[0].copy()
        b = net.forward(x, training=True, rng=np.random.default_rng(77))
        mask_b = net._cache.masks[0]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_inference_ignores_rng_and_regularizer(self):
        rng = np.random.default_rng(10)
        net = random_net(rng, [3, 6, 2], ["relu", "linear"])
        net.regularizer = RegularizerSpec(0.5, 1.0)
        x = rng.standard_normal((5, 3))
        a = net.forward(x)
        b = net.forward(x, rng=np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_training_with_regularizers_needs_rng(self):
        net = single_neuron(1.0, 0.0)
        net.regularizer = RegularizerSpec(0.2, 0.0)
        with pytest.raises(ValueError):
            net.forward(np.ones((1, 1)), training=True)


class TestBackward:
    def test_single_linear_layer_gradients(self):
        net = single_neuron(2.0, 1.0, activation="linear")
        x = np.array([[3.0]])
        net.forward(x, training=True)
        grads = net.backward(np.array([[1.0]]))
        assert grads.weights[0][0, 0] == 3.0  # d(wx+b)/dw = x
        assert grads.biases[0][0] == 1.0
        assert grads.inputs[0, 0] == 2.0  # d(wx+b)/dx = w

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [2, 5, 3], ["sigmoid", "linear"])
        x = rng.standard_normal((4, 2))
        net.forward(x, training=True)
        grads = net.backward(np.zeros((4, 3)))
        for g in param_arrays(grads):
            np.testing.assert_array_equal(g, 0.0)

    def test_stale_mask_without_training_forward(self):
        net = single_neuron(1.0, 0.0)
        net.forward(np.ones((1, 1)))  # inference: no cache
        with pytest.raises(StaleMask):
            net.backward(np.ones((1, 1)))

    @pytest.mark.parametrize("seed", range(20))
    def test_loss_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 6))]
        acts = []
        for _ in range(depth):
            sizes.append(int(rng.integers(1, 26)))
            acts.append(rng.choice(["sigmoid", "relu", "linear", "softplus"]))
        sizes.append(int(rng.integers(1, 4)))
        acts.append("linear")
        net = random_net(rng, sizes, acts)
        x = rng.standard_normal((5, sizes[0]))
        y = rng.standard_normal((5, sizes[-1]))

        pred = net.forward(x, training=True)
        grads = net.backward(pred - y)
        for arr, g in zip(param_arrays(net.params), param_arrays(grads)):
            flat = arr.ravel()
            gflat = np.asarray(g).ravel()
            for i in range(flat.size):
                h = 1e-5 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = loss_sq(net, x, y)
                flat[i] = orig - h
                down = loss_sq(net, x, y)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                if abs(fd) > 1e-8:
                    assert abs(gflat[i] - fd) / abs(fd) < 1e-5

    def test_dropout_gradient_with_replayed_masks(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, [2, 12, 1], ["sigmoid", "linear"])
        net.regularizer = RegularizerSpec(0.4, 0.0)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 1))

        def loss(seed=55):
            pred = net.forward(x, training=True, rng=np.random.default_rng(seed))
            return float(0.5 * np.sum((pred - y) ** 2)), pred

        value, pred = loss()
        grads = net.backward(pred - y)
        arr = net.params.weights[0]
        for i in range(arr.size):
            h = 1e-6
            orig = arr.ravel()[i]
            arr.ravel()[i] = orig + h
            up, _ = loss()
            arr.ravel()[i] = orig - h
            down, _ = loss()
            arr.ravel()[i] = orig
            fd = (up - down) / (2 * h)
            if abs(fd) > 1e-7:
                got = grads.weights[0].ravel()[i]
                assert abs(got - fd) / abs(fd) < 1e-4


def per_array_backward(net, upstream):
    """Backprop the array-per-layer way: every slope from the pre-activation."""
    cache = net._cache
    d = np.asarray(upstream, dtype=np.float64)
    grad_w, grad_b = [None] * len(net.specs), [None] * len(net.specs)
    for i in range(len(net.specs) - 1, -1, -1):
        if cache.masks[i] is not None:
            d = d * cache.masks[i]
        d = d * _act_prime(net.specs[i].activation, cache.preacts[i])
        grad_w[i] = d.T @ cache.layer_inputs[i]
        grad_b[i] = d.sum(axis=0)
        d = d @ net.params.weights[i]
    return grad_w, grad_b, d


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFlatBuffers:
    SIZES = [3, 20, 20, 20, 15]
    ACTS = ["sigmoid", "sigmoid", "relu", "linear"]

    def test_every_view_shares_the_flat_vector(self):
        net = random_net(np.random.default_rng(0), self.SIZES, self.ACTS)
        params = net.params
        arrays = param_arrays(params)
        assert len(arrays) == 2 * len(self.ACTS)
        assert params.flat.size == sum(a.size for a in arrays)
        np.testing.assert_array_equal(
            params.flat, np.concatenate([a.ravel() for a in arrays]))
        for a in arrays:
            assert np.shares_memory(a, params.flat)
            assert a.flags.c_contiguous
        params.flat[...] = np.arange(params.flat.size)
        assert params.weights[0][0, 1] == 1.0
        assert params.biases[-1][0] == params.flat.size - params.biases[-1].size

    def test_copy_is_independent(self):
        params = random_net(np.random.default_rng(1), self.SIZES, self.ACTS).params
        clone = params.copy()
        np.testing.assert_array_equal(clone.flat, params.flat)
        assert not np.shares_memory(clone.flat, params.flat)
        clone.flat += 1.0
        clone.weights[0][...] = 7.0
        assert not np.any(params.weights[0] == 7.0)
        assert np.all(clone.flat != params.flat)

    def test_built_from_lists_round_trips(self):
        rng = np.random.default_rng(2)
        weights = [rng.standard_normal((4, 3)), rng.standard_normal((1, 4))]
        biases = [rng.standard_normal(4), rng.standard_normal(1)]
        params = MlpParams(weights, biases)
        for got, want in zip(param_arrays(params), weights + biases):
            np.testing.assert_array_equal(got, want)
            assert not np.shares_memory(got, want)
        again = MlpParams(params.weights, params.biases)
        np.testing.assert_array_equal(again.flat, params.flat)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_backward_equals_the_act_prime_path(self, dropout):
        rng = np.random.default_rng(3)
        for acts in (self.ACTS, ["sigmoid", "sigmoid", "relu", "softplus"]):
            net = random_net(rng, self.SIZES, acts)
            net.regularizer = RegularizerSpec(dropout, 0.01)
            x = rng.standard_normal((50, 3))
            net.forward(x, training=True, rng=np.random.default_rng(4))
            upstream = rng.standard_normal((50, 15))
            grads = net.backward(upstream)
            want_w, want_b, want_in = per_array_backward(net, upstream)
            for got, want in zip(param_arrays(grads), want_w + want_b):
                np.testing.assert_array_equal(bits(got), bits(want))
                assert np.shares_memory(got, grads.flat)
            np.testing.assert_array_equal(bits(grads.inputs), bits(want_in))
            np.testing.assert_array_equal(
                grads.flat, np.concatenate([a.ravel() for a in want_w + want_b]))

    @pytest.mark.parametrize("algorithm", ["sgd", "adam", "nadam"])
    def test_optimizer_over_flat_equals_per_array_loop(self, algorithm):
        rng = np.random.default_rng(5)
        net = random_net(rng, self.SIZES, self.ACTS)
        per_array = net.params.copy()
        cfg = OptimizerConfig(algorithm, learning_rate=1e-2)
        flat_state = OptimizerState(net.params.flat, cfg)
        array_states = [OptimizerState(a, cfg) for a in param_arrays(per_array)]
        for _ in range(20):
            net.forward(rng.standard_normal((30, 3)), training=True)
            grads = net.backward(rng.standard_normal((30, 15)))
            flat_state.step(net.params.flat, grads.flat)
            for state, p, g in zip(array_states, param_arrays(per_array),
                                   param_arrays(grads)):
                state.step(p, g)
            np.testing.assert_array_equal(bits(net.params.flat),
                                          bits(per_array.flat))


class TestLossSq:
    def test_perfect_fit_is_zero(self):
        net = single_neuron(1.0, 0.0, activation="linear")
        x = np.array([[2.0], [3.0]])
        assert loss_sq(net, x, x) == 0.0

    def test_unit_residuals(self):
        net = single_neuron(1.0, 0.0, activation="linear")
        x = np.array([[1.0], [1.0]])
        y = np.array([[0.0], [0.0]])
        assert loss_sq(net, x, y) == pytest.approx(1.0)


class TestOptimizers:
    def test_sgd_arithmetic(self):
        w = np.array([1.0])
        state = OptimizerState(w, OptimizerConfig("sgd", learning_rate=0.1))
        state.step(w, np.array([2.0]))
        assert w[0] == pytest.approx(0.8)

    def test_adam_first_step_magnitude_is_learning_rate(self):
        for g in (1e-4, 0.5, 3.0, -42.0):
            w = np.array([10.0])
            cfg = OptimizerConfig("adam", learning_rate=1e-3)
            state = OptimizerState(w, cfg)
            state.step(w, np.array([g]))
            delta = w[0] - 10.0
            assert np.sign(delta) == -np.sign(g)
            assert abs(delta) == pytest.approx(1e-3, rel=1e-3)

    def test_zero_gradient_is_fixed_point(self):
        w = np.array([3.0, -2.0])
        for algo in ("sgd", "adam", "nadam"):
            state = OptimizerState(w, OptimizerConfig(algo))
            for _ in range(5):
                state.step(w, np.zeros(2))
            np.testing.assert_array_equal(w, [3.0, -2.0])

    def test_adam_step_size_bound(self):
        rng = np.random.default_rng(8)
        w = np.zeros(4)
        cfg = OptimizerConfig("adam", learning_rate=1e-2)
        state = OptimizerState(w, cfg)
        for _ in range(200):
            before = w.copy()
            state.step(w, rng.standard_normal(4))
            assert np.abs(w - before).max() <= cfg.learning_rate * 1.05

    def test_nadam_moves_against_gradient(self):
        w = np.array([0.0])
        state = OptimizerState(w, OptimizerConfig("nadam", learning_rate=1e-3))
        state.step(w, np.array([5.0]))
        assert w[0] < 0.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig("rmsprop")
        with pytest.raises(ValueError):
            OptimizerConfig("adam", beta1=1.0)


class TestHelpers:
    def test_softplus_inverse_roundtrip(self):
        for y in (1e-4, 1e-2, 1.0, 5.0):
            assert np.logaddexp(0.0, softplus_inv(y)) == pytest.approx(y, rel=1e-12)

    def test_glorot_final_bias_offset(self):
        rng = np.random.default_rng(0)
        specs = [LayerSpec(2, 4, "sigmoid"), LayerSpec(4, 3, "linear")]
        params = glorot_init(specs, rng, output_bias=1.0)
        np.testing.assert_array_equal(params.biases[-1], 1.0)
        np.testing.assert_array_equal(params.biases[0], 0.0)
