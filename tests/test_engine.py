"""Differentiation engine: forward values, backward against oracles, shape rules."""

import numpy as np
import pytest

from prunelab.engine import (
    CONV_BLOCK,
    _conv2d_backward,
    _conv2d_forward,
    backward,
    finite_diff_gradient,
    forward_logits,
    forward_loss,
    hessian_vector_product,
)
from prunelab.errors import (
    AlignmentError,
    DegenerateStepError,
    DomainError,
    NumericsError,
)
from prunelab.models import LayerSpec, LayeredParams, build_network, layer_sizes
from prunelab.pruning import Mask, full_mask

from conftest import random_batch


def single_unit():
    specs = (LayerSpec("dense", 1, 1, is_output=True),)
    params = LayeredParams(specs, (np.array([1.0]),))
    return params, full_mask([1])


def rel_error(got, want):
    num = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
    scale = max(max(float(np.max(np.abs(w))) for w in want), 1e-12)
    return num / scale


def test_squared_error_loss_single_unit():
    params, mask = single_unit()
    loss, _ = forward_loss(params, mask, [[2.0]], [0.0], head="squared-error")
    assert loss == pytest.approx(2.0, abs=1e-12)


def test_squared_error_gradient_single_unit():
    params, mask = single_unit()
    _, tape = forward_loss(params, mask, [[2.0]], [0.0], head="squared-error")
    grads = backward(tape)
    assert grads[0][0] == pytest.approx(4.0, abs=1e-12)


def test_zero_mask_softmax_loss_is_log_class_count():
    specs = (
        LayerSpec("dense", 4, 4),
        LayerSpec("dense", 4, 3, is_output=True),
    )
    params = build_network(specs, seed=1)
    mask = Mask((np.zeros(16), np.zeros(12)))
    loss, _ = forward_loss(params, mask, np.ones((5, 4)), [0, 1, 2, 0, 1])
    assert loss == pytest.approx(np.log(3.0), abs=1e-12)


def test_backward_matches_finite_differences_dense():
    specs = (
        LayerSpec("dense", 3, 5),
        LayerSpec("dense", 5, 4),
        LayerSpec("dense", 4, 2, is_output=True),
    )
    params = build_network(specs, seed=3)
    mask = full_mask(layer_sizes(specs))
    x, y = random_batch(specs, 6, seed=4)
    _, tape = forward_loss(params, mask, x, y)
    grads = backward(tape)

    def loss_fn(ws):
        return forward_loss(params.with_weights(ws), mask, x, y)[0]

    oracle = finite_diff_gradient(loss_fn, params.weights, 1e-5)
    assert rel_error(grads, oracle) <= 1e-4


def test_backward_matches_finite_differences_conv():
    specs = (
        LayerSpec("conv", 1, 2, kernel=(3, 3)),
        LayerSpec("dense", 2 * 36, 3, is_output=True),
    )
    params = build_network(specs, seed=5)
    mask = full_mask(layer_sizes(specs))
    x, y = random_batch(specs, 4, seed=6, image_shape=(1, 8, 8))
    _, tape = forward_loss(params, mask, x, y, sample_shape=(1, 8, 8))
    grads = backward(tape)

    def loss_fn(ws):
        return forward_loss(
            params.with_weights(ws), mask, x, y, sample_shape=(1, 8, 8)
        )[0]

    oracle = finite_diff_gradient(loss_fn, params.weights, 1e-5)
    assert rel_error(grads, oracle) <= 1e-4


def test_backward_matches_finite_differences_two_conv_stack():
    # Non-square kernels on a non-square image.  The upper conv's input
    # gradient (col2im) is on the path to the lower conv's weights.
    specs = (
        LayerSpec("conv", 2, 3, kernel=(2, 3)),
        LayerSpec("conv", 3, 2, kernel=(3, 2)),
        LayerSpec("dense", 2 * 2 * 4, 3, is_output=True),
    )
    shape = (2, 5, 7)
    params = build_network(specs, seed=17)
    mask = full_mask(layer_sizes(specs))
    x, y = random_batch(specs, 4, seed=18, image_shape=shape)
    _, tape = forward_loss(params, mask, x, y, sample_shape=shape)
    grads = backward(tape)

    def loss_fn(ws):
        return forward_loss(params.with_weights(ws), mask, x, y, sample_shape=shape)[0]

    oracle = finite_diff_gradient(loss_fn, params.weights, 1e-5)
    assert rel_error(grads, oracle) <= 1e-4


def test_backward_matches_finite_differences_squared_error_head():
    specs = (
        LayerSpec("dense", 4, 3),
        LayerSpec("dense", 3, 2, is_output=True),
    )
    params = build_network(specs, seed=7)
    mask = full_mask(layer_sizes(specs))
    x, y = random_batch(specs, 5, seed=8)
    _, tape = forward_loss(params, mask, x, y, head="squared-error")
    grads = backward(tape)

    def loss_fn(ws):
        return forward_loss(params.with_weights(ws), mask, x, y, head="squared-error")[0]

    oracle = finite_diff_gradient(loss_fn, params.weights, 1e-5)
    assert rel_error(grads, oracle) <= 1e-4


def test_conv_forward_matches_explicit_loops():
    rng = np.random.default_rng(9)
    specs = (
        LayerSpec("conv", 2, 3, kernel=(2, 2)),
        LayerSpec("dense", 3 * 9, 2, is_output=True),
    )
    params = build_network(specs, seed=10)
    mask = full_mask(layer_sizes(specs))
    x = rng.normal(size=(3, 2 * 16))
    logits_via_net = forward_logits(params, mask, x, sample_shape=(2, 4, 4))

    # brute-force cross-correlation, then relu, flatten, dense
    k = params.weights[0].reshape(3, 2, 2, 2)
    imgs = x.reshape(3, 2, 4, 4)
    conv = np.zeros((3, 3, 3, 3))
    for n in range(3):
        for o in range(3):
            for i in range(3):
                for j in range(3):
                    conv[n, o, i, j] = np.sum(imgs[n, :, i : i + 2, j : j + 2] * k[o])
    hidden = np.maximum(conv, 0.0).reshape(3, -1)
    expect = hidden @ params.weights[1].reshape(27, 2)
    assert np.allclose(logits_via_net, expect, atol=1e-12)


def conv_by_loops(x, k):
    """Valid cross-correlation, one output pixel and channel at a time."""
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    out = np.zeros((n, co, h - kh + 1, w - kw + 1))
    for i in range(out.shape[2]):
        for j in range(out.shape[3]):
            for o in range(co):
                out[:, o, i, j] = np.sum(x[:, :, i : i + kh, j : j + kw] * k[o], axis=(1, 2, 3))
    return out


def conv_grads_by_loops(x, k, g):
    """Input and kernel gradients of the cross-correlation for upstream `g`."""
    kh, kw = k.shape[2:]
    gx, gk = np.zeros_like(x), np.zeros_like(k)
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            for o in range(g.shape[1]):
                gn = g[:, o, i, j][:, None, None, None]
                gk[o] += np.sum(gn * x[:, :, i : i + kh, j : j + kw], axis=0)
                gx[:, :, i : i + kh, j : j + kw] += gn * k[o]
    return gx, gk


def test_conv_kernels_match_explicit_loops_across_sample_blocks():
    n = 2 * CONV_BLOCK + 2  # two full blocks and a remainder
    rng = np.random.default_rng(19)
    x = rng.normal(size=(n, 2, 5, 7))
    k = rng.normal(size=(3, 2, 2, 3))
    want = conv_by_loops(x, k)
    got = _conv2d_forward(x, k)
    assert got.shape == want.shape
    assert rel_error([got], [want]) <= 1e-12

    g = rng.normal(size=want.shape)
    want_gx, want_gk = conv_grads_by_loops(x, k, g)
    gx, gk = _conv2d_backward(x, k, g, True)
    assert rel_error([gx], [want_gx]) <= 1e-12
    assert rel_error([gk], [want_gk]) <= 1e-12
    no_gx, same_gk = _conv2d_backward(x, k, g, False)
    assert no_gx is None
    assert np.array_equal(same_gk, gk)


def assert_masked_weights_get_zero_gradient(specs, seed, image_shape=None):
    params = build_network(specs, seed=seed)
    rng = np.random.default_rng(seed + 1)
    mask = Mask(tuple((rng.random(m) < 0.5).astype(float) for m in layer_sizes(specs)))
    x, y = random_batch(specs, 6, seed=seed + 2, image_shape=image_shape)
    _, tape = forward_loss(params, mask, x, y, sample_shape=image_shape)
    grads = backward(tape)
    for g, c in zip(grads, mask.layers):
        assert np.any(g[c == 1.0] != 0.0)
        assert np.all(g[c == 0.0] == 0.0)


def test_masked_weights_get_exactly_zero_gradient():
    specs = (
        LayerSpec("dense", 3, 4),
        LayerSpec("dense", 4, 2, is_output=True),
    )
    assert_masked_weights_get_zero_gradient(specs, 11)


def test_masked_conv_weights_get_exactly_zero_gradient():
    specs = (
        LayerSpec("conv", 1, 3, kernel=(3, 3)),
        LayerSpec("conv", 3, 2, kernel=(2, 2)),
        LayerSpec("dense", 2 * 3 * 3, 2, is_output=True),
    )
    assert_masked_weights_get_zero_gradient(specs, 20, image_shape=(1, 6, 6))


def test_backward_leaves_the_pass_reusable(tiny_net):
    params, mask = tiny_net
    x, y = random_batch(params.specs, 4, seed=16)
    _, fp = forward_loss(params, mask, x, y)
    first = backward(fp)
    second = backward(fp)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_forward_rejects_misaligned_mask(tiny_net):
    params, _ = tiny_net
    bad = Mask((np.ones(12), np.ones(7)))
    with pytest.raises(AlignmentError):
        forward_loss(params, bad, np.ones((2, 3)), [0, 1])


def test_forward_rejects_out_of_range_labels(tiny_net):
    params, mask = tiny_net
    with pytest.raises(DomainError):
        forward_loss(params, mask, np.ones((2, 3)), [0, 2])
    with pytest.raises(DomainError):
        forward_loss(params, mask, np.ones((2, 3)), [-1, 0])


def test_forward_rejects_unknown_head_and_empty_batch(tiny_net):
    params, mask = tiny_net
    with pytest.raises(DomainError):
        forward_loss(params, mask, np.ones((2, 3)), [0, 1], head="hinge")
    with pytest.raises(DomainError):
        forward_logits(params, mask, np.ones((0, 3)))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_forward_raises_on_non_finite_loss(tiny_net):
    params, mask = tiny_net
    broken = params.with_weights([np.full(12, np.inf), params.weights[1]])
    with pytest.raises(NumericsError):
        forward_loss(broken, mask, np.ones((2, 3)), [0, 1])


def test_finite_diff_gradient_on_square():
    def f(ws):
        return float(ws[0][0] ** 2)

    (g,) = finite_diff_gradient(f, [np.array([3.0])], 1e-5)
    assert g[0] == pytest.approx(6.0, abs=1e-8)


def test_finite_diff_gradient_on_product():
    def f(ws):
        return float(ws[0][0] * ws[0][1])

    (g,) = finite_diff_gradient(f, [np.array([2.0, 5.0])], 1e-6)
    assert g[0] == pytest.approx(5.0, abs=1e-7)
    assert g[1] == pytest.approx(2.0, abs=1e-7)


def test_finite_diff_gradient_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        finite_diff_gradient(lambda ws: 0.0, [np.array([1.0])], 0.0)


def test_finite_diff_gradient_raises_on_non_finite_probe():
    def f(ws):
        return float("inf")

    with pytest.raises(NumericsError):
        finite_diff_gradient(f, [np.array([1.0])], 1e-5)


def quadratic_net():
    # L = (4 w1^2 + 12 w2^2) / 4 = w1^2 + 3 w2^2 via two squared-error samples
    specs = (LayerSpec("dense", 2, 1, is_output=True),)
    params = LayeredParams(specs, (np.array([0.7, -0.4]),))
    x = np.array([[2.0, 0.0], [0.0, 2.0 * np.sqrt(3.0)]])
    y = np.array([0.0, 0.0])
    return params, full_mask([2]), x, y


def test_hvp_on_diagonal_quadratic():
    params, mask, x, y = quadratic_net()
    hv = hessian_vector_product(
        params, mask, x, y, [np.array([1.0, 1.0])], 1e-4, head="squared-error"
    )
    assert np.max(np.abs(hv[0] - np.array([2.0, 6.0]))) <= 1e-6


def test_hvp_on_unit_curvature():
    specs = (LayerSpec("dense", 1, 1, is_output=True),)
    params = LayeredParams(specs, (np.array([1.3]),))
    hv = hessian_vector_product(
        params, full_mask([1]), [[1.0]], [0.0], [np.array([1.0])], 1e-4,
        head="squared-error",
    )
    assert hv[0][0] == pytest.approx(1.0, abs=1e-6)


def test_hvp_rejects_zero_direction_and_bad_epsilon():
    params, mask, x, y = quadratic_net()
    with pytest.raises(DegenerateStepError):
        hessian_vector_product(
            params, mask, x, y, [np.zeros(2)], 1e-4, head="squared-error"
        )
    with pytest.raises(DomainError):
        hessian_vector_product(
            params, mask, x, y, [np.ones(2)], -1.0, head="squared-error"
        )


def test_hvp_is_linear_in_the_direction():
    params, mask, x, y = quadratic_net()
    hv1 = hessian_vector_product(
        params, mask, x, y, [np.array([1.0, 0.0])], 1e-4, head="squared-error"
    )
    hv2 = hessian_vector_product(
        params, mask, x, y, [np.array([0.0, 1.0])], 1e-4, head="squared-error"
    )
    hv12 = hessian_vector_product(
        params, mask, x, y, [np.array([1.0, 1.0])], 1e-4, head="squared-error"
    )
    assert np.allclose(hv1[0] + hv2[0], hv12[0], atol=1e-6)


def test_forward_rejects_shape_mismatches(tiny_net):
    params, mask = tiny_net
    with pytest.raises(AlignmentError):
        forward_loss(params, mask, np.ones((2, 4)), [0, 1])
    conv_specs = (
        LayerSpec("conv", 1, 2, kernel=(2, 2)),
        LayerSpec("dense", 5, 2, is_output=True),
    )
    conv = build_network(conv_specs, seed=3)
    conv_mask = full_mask(layer_sizes(conv_specs))
    with pytest.raises(AlignmentError):
        forward_loss(conv, conv_mask, np.ones((2, 9)), [0, 1])
    with pytest.raises(AlignmentError):
        forward_loss(conv, conv_mask, np.ones((2, 9)), [0, 1], sample_shape=(1, 3, 3))
    late_specs = (
        LayerSpec("dense", 4, 4),
        LayerSpec("conv", 1, 2, kernel=(2, 2), is_output=True),
    )
    late = build_network(late_specs, seed=3)
    with pytest.raises(AlignmentError):
        forward_logits(late, full_mask(layer_sizes(late_specs)), np.ones((2, 4)))
