"""MLP forward/backward against straight-line re-evaluation and finite
differences, init determinism, and the parameter file round trip."""

import io

import numpy as np
import pytest

from pvlite import nn

from helpers import zero_params


def loss_over_params(template, x, target):
    """Scalar quadratic loss as a function of the flat parameter vector."""

    def f(vec):
        p = nn.params_from_vector(template, vec)
        layers = nn.mlp_layers(p, x)
        diff = layers[-1] - target
        val = 0.5 * float((diff * diff).sum())
        w_g, b_g, _ = nn.mlp_backward(p, x, layers, diff)
        grad = nn.params_to_vector(
            nn.MlpParams(p.layer_dims, w_g, b_g, p.out_activation)
        )
        return val, grad

    return f


class TestForward:
    def test_zero_net(self):
        p = zero_params((3, 4, 2))
        np.testing.assert_array_equal(nn.mlp_forward(p, np.ones((1, 3))),
                                      np.zeros((1, 2)))

    def test_identity_linear_layer(self):
        p = nn.MlpParams((4, 4), [np.eye(4)], [np.zeros(4)])
        x = np.array([[1.0, -2.0, 3.0, 0.5]])
        np.testing.assert_array_equal(nn.mlp_forward(p, x), x)

    def test_matches_straightline_evaluation(self):
        p = nn.init_params((5, 7, 3), seed=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 5))
        h = np.maximum(x @ p.weights[0].T + p.biases[0], 0.0)
        expected = h @ p.weights[1].T + p.biases[1]
        np.testing.assert_allclose(nn.mlp_forward(p, x), expected, atol=1e-9)

    def test_layers_hold_every_layer_output(self):
        p = nn.init_params((5, 7, 3), seed=0)
        x = np.random.default_rng(1).normal(size=(6, 5))
        layers = nn.mlp_layers(p, x)
        assert [a.shape for a in layers] == [(6, 7), (6, 3)]
        h = np.maximum(x @ p.weights[0].T + p.biases[0], 0.0)
        np.testing.assert_allclose(layers[0], h, atol=1e-9)
        np.testing.assert_array_equal(layers[-1], nn.mlp_forward(p, x))
        single = nn.mlp_layers(p, x[:1])
        assert [a.shape for a in single] == [(1, 7), (1, 3)]
        np.testing.assert_array_equal(single[-1], nn.mlp_forward(p, x[:1]))

    def test_sigmoid_output(self):
        p = zero_params((3, 1), out_activation="sigmoid")
        assert nn.mlp_forward(p, np.zeros((1, 3)))[0, 0] == pytest.approx(0.5)

    def test_width_mismatch_raises(self):
        p = nn.init_params((3, 2), seed=0)
        with pytest.raises(nn.ShapeError):
            nn.mlp_forward(p, np.zeros((1, 4)))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)])
    def test_input_must_be_rows(self, shape):
        p = nn.init_params((3, 2), seed=0)
        with pytest.raises(nn.ShapeError):
            nn.mlp_forward(p, np.zeros(shape))

    def test_positive_homogeneity_bias_free(self):
        dims = (4, 6, 6, 2)
        p = nn.init_params(dims, seed=3)
        p = nn.MlpParams(dims, p.weights, [np.zeros(d) for d in dims[1:]])
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4))
        for a in (0.5, 2.0, 7.25):
            np.testing.assert_allclose(
                nn.mlp_forward(p, a * x), a * nn.mlp_forward(p, x), atol=1e-9
            )


class TestStacks:
    """mlp_layers on an (R, 1, d) stack, as the RoI stage runs the pool MLP
    (6912 -> 256 -> 256) and the refine head (trunk 256 -> 256 -> 256,
    confidence 256 -> 1 sigmoid, regression 256 -> 7)."""

    @pytest.mark.parametrize("dims, out_act", [
        ((6912, 256, 256), "identity"), ((256, 256, 256), "identity"),
        ((256, 1), "sigmoid"), ((256, 7), "identity")],
        ids=["pool", "trunk", "confidence", "regression"])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_stack_equals_one_row_calls(self, dims, out_act, n):
        p = nn.init_params(dims, seed=len(dims) + dims[-1], out_activation=out_act)
        x = np.random.default_rng(n).normal(size=(n, dims[0])) * 3.0
        # A reshaped copy (the pool MLP's input) and a view with a 0 stride
        # in the middle axis (the refine head's) give the same bits.
        for stack in (x.reshape(n, 1, dims[0]), x[:, None]):
            layers = nn.mlp_layers(p, stack)
            assert [a.shape for a in layers] == [(n, 1, d) for d in dims[1:]]
            for i in range(n):
                one = nn.mlp_layers(p, x[i : i + 1])
                for got, want in zip(layers, one):
                    np.testing.assert_array_equal(got[i], want)
                np.testing.assert_array_equal(layers[-1][i],
                                              nn.mlp_forward(p, x[i : i + 1]))

    @pytest.mark.parametrize("shape", [(4, 2, 3), (4, 1, 1, 3), (2, 1, 4), (4, 3, 1)])
    def test_only_one_row_items_of_the_input_width(self, shape):
        p = nn.init_params((3, 2), seed=0)
        with pytest.raises(nn.ShapeError):
            nn.mlp_layers(p, np.zeros(shape))

    def test_backward_takes_rows_only(self):
        p = nn.init_params((3, 4, 2), seed=1)
        stack = np.random.default_rng(2).normal(size=(5, 1, 3))
        with pytest.raises(nn.ShapeError):
            nn.mlp_backward(p, stack, nn.mlp_layers(p, stack), np.ones((5, 1, 2)))


class TestBackward:
    def test_dead_network_zero_input_grad(self):
        p = zero_params((3, 4, 2))
        x = np.ones((1, 3))
        _, _, gx = nn.mlp_backward(p, x, nn.mlp_layers(p, x), np.ones((1, 2)))
        np.testing.assert_array_equal(gx, np.zeros((1, 3)))

    def test_identity_layer_passes_upstream(self):
        p = nn.MlpParams((3, 3), [np.eye(3)], [np.zeros(3)])
        up = np.array([[1.0, -2.0, 0.5]])
        x = np.zeros((1, 3))
        _, _, gx = nn.mlp_backward(p, x, nn.mlp_layers(p, x), up)
        np.testing.assert_array_equal(gx, up)

    @pytest.mark.parametrize("out_act", ["identity", "sigmoid"])
    def test_matches_finite_differences(self, out_act):
        template = nn.init_params((4, 6, 5, 2), seed=7, out_activation=out_act)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 4))
        target = rng.normal(size=(1, 2)) * 0.2 + 0.4
        f = loss_over_params(template, x, target)
        err = nn.grad_check(f, nn.params_to_vector(template))
        assert err < 1e-4

    @pytest.mark.parametrize("bad", ["one layer short", "one layer extra",
                                     "other rows", "other widths"])
    def test_layers_must_match_params_and_input(self, bad):
        p = nn.init_params((4, 6, 5, 2), seed=11)
        x = np.random.default_rng(12).normal(size=(3, 4))
        layers = {
            "one layer short": lambda: nn.mlp_layers(p, x)[:-1],
            "one layer extra": lambda: nn.mlp_layers(p, x) + [np.zeros((3, 2))],
            "other rows": lambda: nn.mlp_layers(p, x[:2]),
            "other widths": lambda: nn.mlp_layers(
                nn.init_params((4, 7, 5, 2), seed=11), x),
        }[bad]()
        with pytest.raises(nn.ShapeError):
            nn.mlp_backward(p, x, layers, np.ones((3, 2)))

    def test_input_gradient_matches_fd(self):
        p = nn.init_params((5, 8, 1), seed=9)
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=5)

        def f(x):
            layers = nn.mlp_layers(p, x[None])
            _, _, gx = nn.mlp_backward(p, x[None], layers, np.ones((1, 1)))
            return float(layers[-1][0, 0]), gx[0]

        assert nn.grad_check(f, x0) < 1e-4

    @pytest.mark.parametrize("dims", [(7, 1), (7, 9, 1), (12, 16, 8, 3)])
    def test_skipping_input_gradient_keeps_parameter_gradients(self, dims):
        p = nn.init_params(dims, seed=13, out_activation="sigmoid")
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, dims[0]))
        up = rng.normal(size=(40, dims[-1]))
        layers = nn.mlp_layers(p, x)
        w_full, b_full, gx = nn.mlp_backward(p, x, layers, up)
        w_skip, b_skip, none = nn.mlp_backward(p, x, layers, up, input_grad=False)
        assert gx.shape == x.shape and none is None
        for a, b in zip(w_full + b_full, w_skip + b_skip):
            assert np.array_equal(a, b)


class TestGradCheck:
    def test_square_function(self):
        def f(x):
            return float(x[0] ** 2), np.array([2.0 * x[0]])

        assert nn.grad_check(f, np.array([3.0])) < 1e-6

    def test_linear_function(self):
        w = np.array([2.0, -3.0, 0.5])

        def f(x):
            return float(w @ x), w

        assert nn.grad_check(f, np.array([1.0, 2.0, 3.0])) < 1e-9

    def test_nonfinite_raises(self):
        def f(x):
            return float("nan"), np.zeros(1)

        with pytest.raises(FloatingPointError):
            nn.grad_check(f, np.zeros(1))


class TestInit:
    def test_deterministic(self):
        a = nn.init_params((4, 8, 1), seed=5)
        b = nn.init_params((4, 8, 1), seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_seeds_differ(self):
        a = nn.init_params((4, 8, 1), seed=5)
        b = nn.init_params((4, 8, 1), seed=6)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_param_count(self):
        p = nn.init_params((4, 8, 1), seed=0)
        assert p.num_params == 4 * 8 + 8 + 8 * 1 + 1

    def test_bound(self):
        p = nn.init_params((10, 20), seed=1)
        s = np.sqrt(6.0 / 30.0)
        assert np.abs(p.weights[0]).max() <= s
        assert np.abs(p.biases[0]).max() <= s


class TestVectorRoundTrip:
    def test_roundtrip(self):
        p = nn.init_params((3, 5, 2), seed=11)
        vec = nn.params_to_vector(p)
        q = nn.params_from_vector(p, vec)
        for a, b in zip(p.weights, q.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(p.biases, q.biases):
            np.testing.assert_array_equal(a, b)


class TestParamFiles:
    def test_save_load_roundtrip(self):
        p = nn.init_params((6, 4, 1), seed=12, out_activation="sigmoid")
        buf = io.BytesIO()
        nn.save_params(p, buf, name="pkw")
        buf.seek(0)
        name, q = nn.load_params(buf)
        assert name == "pkw"
        assert q.layer_dims == p.layer_dims
        assert q.out_activation == "sigmoid"
        for a, b in zip(p.weights, q.weights):
            np.testing.assert_array_equal(a, b)

    def test_multiple_sections(self):
        buf = io.BytesIO()
        nn.save_params(nn.init_params((2, 3), seed=0), buf, name="one")
        nn.save_params(nn.init_params((3, 1), seed=1), buf, name="two")
        buf.seek(0)
        sections = nn.load_param_sections(buf)
        assert set(sections) == {"one", "two"}
        assert sections["two"].layer_dims == (3, 1)

    def test_truncated_raises(self):
        p = nn.init_params((6, 4), seed=13)
        buf = io.BytesIO()
        nn.save_params(p, buf)
        data = buf.getvalue()[:-8]
        with pytest.raises(nn.ParamFileError):
            nn.load_params(io.BytesIO(data))

    @pytest.mark.parametrize("dims, message", [
        ("100000000,100000000", "needs 80000000800000000 bytes, 16 left"),
        ("0,3", "must all be positive"),
        ("4,-2", "must all be positive"),
    ])
    def test_header_dims_checked_against_file(self, dims, message):
        data = f"PVMLP1 name=big out=identity dims={dims}\n".encode() + bytes(16)
        with pytest.raises(nn.ParamFileError,
                           match=f"section 'big': dims={dims} {message}"):
            nn.load_params(io.BytesIO(data))

    def test_bad_magic_raises(self):
        with pytest.raises(nn.ParamFileError):
            nn.load_params(io.BytesIO(b"NOTMAGIC name=x out=identity dims=2,2\n"))
