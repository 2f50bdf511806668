"""Layer primitive tests: forward oracles and finite-difference backward checks."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlat import nn
from wlat.model import build_model, forward_cached, parse_arch
from wlat.rng import gaussian, new_rng
from wlat.train import TrainConfig


def naive_matmul(x, w, b):
    """Triple-loop reference for x @ w + b."""
    n, d_in = x.shape
    d_out = w.shape[1]
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = b[j]
            for k in range(d_in):
                acc += x[i, k] * w[k, j]
            out[i, j] = acc
    return out


def random_dense(rng, n_in, n_out):
    return nn.DenseLayer(nn.glorot_uniform(rng, np.empty((n_in, n_out))), gaussian(rng, n_out))


def test_dense_identity():
    layer = nn.DenseLayer(np.eye(3), np.zeros(3))
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(nn.dense_forward(x, layer), x)


def test_dense_hand_case():
    layer = nn.DenseLayer(np.array([[1.0], [1.0]]), np.array([3.0]))
    assert nn.dense_forward(np.array([[1.0, 2.0]]), layer).tolist() == [[6.0]]


def test_dense_matches_naive_matmul():
    rng = new_rng(0)
    for _ in range(5):
        x = gaussian(rng, (4, 3))
        layer = random_dense(rng, 3, 5)
        expected = naive_matmul(x, layer.weight, layer.bias)
        assert np.max(np.abs(nn.dense_forward(x, layer) - expected)) < 1e-12


def test_dense_shape_mismatch():
    layer = nn.DenseLayer(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        nn.dense_forward(np.zeros((2, 4)), layer)


def test_dense_forward_names_the_layer_input_width():
    layer = nn.DenseLayer(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError) as err:
        nn.dense_forward(np.zeros((2, 4)), layer)
    assert str(err.value) == "dense input shape (2, 4) incompatible with n_in=3"


@pytest.mark.parametrize("grad_shape", [(3, 3), (2, 2), (3,)])
def test_dense_backward_refuses_a_grad_of_another_shape(grad_shape):
    layer = nn.DenseLayer(np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(ValueError) as err:
        nn.dense_backward(np.zeros((3, 4)), layer, np.zeros(grad_shape))
    assert str(err.value) == f"grad shape {grad_shape} incompatible with (3, 2)"


def test_dense_backward_zero_grad():
    rng = new_rng(1)
    x = gaussian(rng, (3, 4))
    layer = random_dense(rng, 4, 2)
    grad_x, grad_w, grad_b = nn.dense_backward(x, layer, np.zeros((3, 2)))
    assert not grad_x.any() and not grad_w.any() and not grad_b.any()


def test_dense_backward_scalar_case():
    layer = nn.DenseLayer(np.array([[2.0]]), np.array([0.5]))
    x = np.array([[3.0]])
    grad_out = np.array([[0.25]])
    grad_x, grad_w, grad_b = nn.dense_backward(x, layer, grad_out)
    assert grad_w[0, 0] == 3.0 * 0.25
    assert grad_x[0, 0] == 2.0 * 0.25
    assert grad_b[0] == 0.25


@pytest.mark.parametrize("seed", range(10))
def test_dense_backward_finite_differences(seed):
    rng = new_rng(seed)
    x = gaussian(rng, (3, 4))
    layer = random_dense(rng, 4, 2)
    direction = gaussian(rng, (3, 2))

    def loss():
        return float((nn.dense_forward(x, layer) * direction).sum())

    grad_x, grad_w, grad_b = nn.dense_backward(x, layer, direction)
    params = {"x": x, "w": layer.weight, "b": layer.bias}
    analytic = {"x": grad_x, "w": grad_w, "b": grad_b}
    assert nn.grad_check(loss, params, analytic) < 1e-6


def test_relu_definition():
    x = np.array([[-1.0, 0.0, 2.0]])
    out = nn.relu(x)
    assert out.tolist() == [[0.0, 0.0, 2.0]]
    assert out is x  # in place


def test_relu_all_negative():
    x = -np.ones((2, 3))
    assert not nn.relu(x.copy()).any()
    assert not nn.relu_backward(x, np.ones((2, 3))).any()


@pytest.mark.parametrize("seed", range(10))
def test_relu_backward_finite_differences(seed):
    rng = new_rng(seed + 50)
    x = gaussian(rng, (4, 3))
    x[np.abs(x) < 0.05] += 0.1  # keep clear of the kink
    direction = gaussian(rng, (4, 3))

    def loss():
        return float((nn.relu(x.copy()) * direction).sum())

    analytic = {"x": nn.relu_backward(x, direction.copy())}
    assert nn.grad_check(loss, {"x": x}, analytic) < 1e-6


def test_sigmoid_values():
    assert nn.sigmoid(np.array([0.0]))[0] == 0.5
    assert nn.sigmoid(np.array([800.0]))[0] == 1.0
    assert nn.sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)


def test_softmax_constant_row():
    out = nn.softmax_rows(np.full((2, 4), 3.7))
    assert np.allclose(out, 0.25, atol=1e-15)


def test_softmax_extreme_logits_no_overflow():
    out = nn.softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1.0, abs=1e-300)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-300)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-50, 50))
def test_softmax_rows_sum_to_one_and_shift_invariant(seed, shift):
    rng = new_rng(seed)
    x = 10.0 * gaussian(rng, (3, 5))
    out = nn.softmax_rows(x.copy())
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(nn.softmax_rows(x + shift) - out)) < 1e-12


def test_batchnorm_train_normalizes():
    # batch variance must dominate the 1e-5 epsilon for unit output variance
    rng = new_rng(3)
    x = 6.0 * gaussian(rng, (64, 5)) + 7.0
    state = nn.BatchNormState.init(5)
    out, _, _ = nn.batchnorm_forward(x, state, nn.TRAIN)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-6


def test_batchnorm_infer_identity_statistics():
    rng = new_rng(4)
    x = gaussian(rng, (6, 3))
    state = nn.BatchNormState.init(3)
    out, _, _ = nn.batchnorm_forward(x, state, nn.INFER)
    assert np.allclose(out, x, rtol=1e-4)


def test_batchnorm_updates_running_statistics():
    rng = new_rng(5)
    x = gaussian(rng, (32, 4)) + 2.0
    state = nn.BatchNormState.init(4)
    nn.batchnorm_forward(x, state, nn.TRAIN)
    expected_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=0)
    assert np.allclose(state.running_mean, expected_mean, atol=1e-12)


def test_batchnorm_rejects_single_row_in_train_mode():
    state = nn.BatchNormState.init(3)
    with pytest.raises(ValueError):
        nn.batchnorm_forward(np.zeros((1, 3)), state, nn.TRAIN)


@pytest.mark.parametrize("mode", ["eval", "TRAIN", None])
def test_batchnorm_refuses_an_unknown_mode(mode):
    state = nn.BatchNormState.init(3)
    with pytest.raises(ValueError) as err:
        nn.batchnorm_forward(np.arange(6.0).reshape(2, 3), state, mode)
    assert str(err.value) == f"mode must be 'train' or 'infer', got {mode!r}"
    assert not state.running_mean.any() and (state.running_var == 1.0).all()


@pytest.mark.parametrize("seed", range(10))
def test_batchnorm_backward_finite_differences(seed):
    rng = new_rng(seed + 100)
    x = gaussian(rng, (8, 3))
    state = nn.BatchNormState.init(3)
    state.gamma[:] = 1.0 + 0.3 * gaussian(rng, 3)
    state.beta[:] = gaussian(rng, 3)
    direction = gaussian(rng, (8, 3))

    def loss():
        out, _, _ = nn.batchnorm_forward(x, state, nn.TRAIN)
        return float((out * direction).sum())

    _, mean, var = nn.batchnorm_forward(x, state, nn.TRAIN)
    grad_x, grad_gamma, grad_beta = nn.batchnorm_backward(x, mean, var, state, direction.copy())
    params = {"x": x, "gamma": state.gamma, "beta": state.beta}
    analytic = {"x": grad_x, "gamma": grad_gamma, "beta": grad_beta}
    assert nn.grad_check(loss, params, analytic) < 1e-5


def dropout_model(hidden=4):
    spec = parse_arch("1-A", hidden_units=hidden, n_classes=2)
    return build_model(spec, input_dim=4, init_seed=0)


def first_layer_dropout(model, features, rng, rate):
    """(relu output, mask, block output, recorded rate) of the model's first hidden layer,
    in train mode.  The pass keeps no mask, so the first layer's is drawn again from a
    copy of ``rng`` taken before the forward (the same draws); None if no rate was applied."""
    twin = copy.deepcopy(rng)
    fwd = forward_cached(model, features, nn.TRAIN, rng, rate)
    layers, h, *_ = fwd.levels[0]
    _, dense_out, _, _, _ = layers[0]
    mask = nn.dropout_mask(twin, dense_out.shape, rate) if fwd.dropout else None
    bn_out, _, _ = nn.batchnorm_forward(dense_out, model.blocks[0][0][1], nn.TRAIN)
    block_out = h.reshape(bn_out.shape)
    return nn.relu(bn_out), mask, block_out, fwd.dropout


def test_dropout_rate_zero_is_identity():
    rng = new_rng(6)
    x = gaussian(rng, (4, 3, 4))
    masks = new_rng(0)
    untouched = masks.bit_generator.state
    relu_out, mask, out, recorded = first_layer_dropout(dropout_model(), x, masks, 0.0)
    assert mask is None
    assert recorded == 0.0
    assert np.array_equal(out, relu_out)
    assert masks.bit_generator.state == untouched


def test_dropout_infer_is_identity(record_attention):
    # Infer mode applies no dropout, so a layer's output is its ReLU output,
    # unscaled: a rate-0.4 forward scores exactly like a rate-0 one and
    # draws nothing.
    rng = new_rng(7)
    x = gaussian(rng, (4, 3, 4))
    model = dropout_model()
    masks = new_rng(0)
    untouched = masks.bit_generator.state
    dropped = forward_cached(model, x, nn.INFER, masks, 0.4)
    plain = forward_cached(model, x, nn.INFER)
    assert masks.bit_generator.state == untouched
    assert np.array_equal(dropped.z, plain.z)
    dropped_att, plain_att = record_attention  # one head, one forward each
    assert np.array_equal(dropped_att, plain_att)


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
def test_forward_refuses_a_dropout_rate_outside_the_unit_interval(rate):
    masks = new_rng(0)
    untouched = masks.bit_generator.state
    with pytest.raises(ValueError) as info:
        forward_cached(dropout_model(), gaussian(new_rng(9), (4, 3, 4)), nn.TRAIN, masks, rate)
    assert str(info.value) == f"dropout rate must be in [0, 1), got {rate}"
    assert masks.bit_generator.state == untouched


def test_dropout_preserves_expectation():
    x = gaussian(new_rng(5), (10, 10, 4))
    model = dropout_model(hidden=1000)
    relu_out, mask, out, recorded = first_layer_dropout(model, x, new_rng(8), 0.4)
    assert recorded == 0.4
    assert mask.shape == (100, 1000)
    assert 0.97 <= mask.mean() <= 1.03
    assert np.allclose(mask[mask != 0], 1.0 / 0.6)
    assert np.array_equal(out, relu_out * mask)


def test_dropout_mask_deterministic_per_seed():
    first = nn.dropout_mask(new_rng(9), (5, 5), 0.4)
    second = nn.dropout_mask(new_rng(9), (5, 5), 0.4)
    assert np.array_equal(first, second)


def test_dropout_rejects_rate_one():
    with pytest.raises(ValueError, match="dropout"):
        TrainConfig(arch="1-A", epochs=1, dropout=1.0)


def test_finite_in_finite_out():
    rng = new_rng(10)
    x = 100.0 * gaussian(rng, (6, 4))
    layer = random_dense(rng, 4, 4)
    state = nn.BatchNormState.init(4)
    for out in (
        nn.dense_forward(x, layer),
        nn.relu(x.copy()),
        nn.sigmoid(x.copy()),
        nn.softmax_rows(x.copy()),
        nn.batchnorm_forward(x, state, nn.TRAIN)[0],
    ):
        assert np.isfinite(out).all()


def test_grad_check_single_dense_with_bce():
    """Dense layer feeding a sigmoid + cross-entropy; the checker's own demo."""
    from wlat.train import bce_loss

    rng = new_rng(11)
    x = gaussian(rng, (4, 3))
    layer = random_dense(rng, 3, 2)
    targets = (new_rng(12).random((4, 2)) < 0.5).astype(np.float64)

    def forward():
        z = nn.sigmoid(nn.dense_forward(x, layer))
        return bce_loss(z, targets)

    def loss():
        return forward()[0]

    z = nn.sigmoid(nn.dense_forward(x, layer))
    _, grad_z = bce_loss(z, targets)
    grad_pre = grad_z * z * (1.0 - z)
    _, grad_w, grad_b = nn.dense_backward(x, layer, grad_pre)
    analytic = {"w": grad_w, "b": grad_b}
    assert nn.grad_check(loss, {"w": layer.weight, "b": layer.bias}, analytic) < 1e-6


def test_grad_check_restores_the_element_it_perturbed_when_the_loss_raises():
    params = {"w": gaussian(new_rng(13), (2, 3))}
    before = params["w"].copy()
    calls = []

    def loss():  # the fifth call perturbs the third element upward
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("loss failed")
        return float(params["w"].sum())

    with pytest.raises(RuntimeError, match="^loss failed$"):
        nn.grad_check(loss, params, {"w": np.ones((2, 3))})
    assert params["w"].tobytes() == before.tobytes()


def test_relative_error_floor():
    assert nn.relative_error(np.array([0.0]), np.array([0.0])) == 0.0
    assert nn.relative_error(np.array([1.0]), np.array([1.0 + 1e-10])) < 1e-9
