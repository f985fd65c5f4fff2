"""Differentiation engine: forward values, backward against oracles, shape rules."""

import numpy as np
import pytest

from prunelab.engine import (
    CONV_BLOCK,
    _apply,
    _grad_below,
    _im2col,
    _weight_grad,
    backward,
    forward_logits,
    forward_loss,
    hessian_vector_product,
)
from prunelab.errors import (
    AlignmentError,
    DomainError,
    NumericsError,
)
from prunelab.models import LayerSpec, LayeredParams, build_network, layer_sizes, preset_specs
from prunelab.pruning import Mask, full_mask

from conftest import random_batch
from oracles import finite_diff_gradient, finite_diff_hvp, relu_flips


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
    got = _apply(x, k)  # each block built in turn into one buffer
    assert got.shape == want.shape
    assert rel_error([got], [want]) <= 1e-12

    cols = [_im2col(x[s : s + CONV_BLOCK], 2, 3) for s in range(0, n, CONV_BLOCK)]
    assert len(cols) == 3
    assert np.array_equal(_apply(x, k, cols), got)

    g = rng.normal(size=want.shape)
    want_gx, want_gk = conv_grads_by_loops(x, k, g)
    gx = _grad_below(k, g, np.abs(x) + 1.0)  # every ReLU open: the bare input gradient
    gk = _weight_grad(x, k, g, cols).reshape(k.shape)
    assert rel_error([gx], [want_gx]) <= 1e-12
    assert rel_error([gk], [want_gk]) <= 1e-12
    # without kept blocks, each block is built in turn into one buffer
    assert np.array_equal(_weight_grad(x, k, g).reshape(k.shape), gk)


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


@pytest.mark.parametrize("preset, shape", [("conv-5", (1, 12, 12)), ("mlp-4", (16,))])
@pytest.mark.parametrize("second_batch", [64, 30])
def test_reused_pass_matches_a_fresh_pass(preset, shape, second_batch):
    # The second batch is as large as the first (every patch buffer is
    # refilled in place) or smaller (each block fills the front of one).
    specs = preset_specs(preset, shape, 3)
    params = build_network(specs, seed=21)
    rng = np.random.default_rng(22)
    mask = Mask(tuple((rng.random(m) < 0.7).astype(float) for m in layer_sizes(specs)))
    image = shape if preset == "conv-5" else None
    x1, y1 = random_batch(specs, 64, seed=23, image_shape=image)
    x2, y2 = random_batch(specs, second_batch, seed=24, image_shape=image)
    # only a refilled pass keeps its blocks: `spent` is the second of two steps
    _, first = forward_loss(params, mask, x1, y1, sample_shape=image)
    _, spent = forward_loss(params, mask, x1, y1, sample_shape=image, reuse=first)
    backward(spent)
    lent = [b for layer in spent.layers for b in layer[3] or ()]
    loss, fp = forward_loss(params, mask, x2, y2, sample_shape=image, reuse=spent)
    kept = [b for layer in fp.layers for b in layer[3] or ()]
    assert len(kept) == (3 if preset == "conv-5" else 0)
    assert [a is b for a, b in zip(kept, lent)] == [second_batch == 64] * len(kept)
    assert all(np.shares_memory(a, b) for a, b in zip(kept, lent))
    want_loss, fresh = forward_loss(params, mask, x2, y2, sample_shape=image)
    want = backward(fresh)
    assert loss == want_loss
    assert np.array_equal(fp.logits, fresh.logits)
    for _ in range(2):
        assert all(np.array_equal(a, b) for a, b in zip(backward(fp), want))


def conv5_net(n, seed, image=(1, 12, 12)):
    specs = preset_specs("conv-5", image, 3)
    params = build_network(specs, seed=seed)
    rng = np.random.default_rng(seed + 1)
    mask = Mask(tuple((rng.random(m) < 0.7).astype(float) for m in layer_sizes(specs)))
    return params, mask, random_batch(specs, n, seed=seed + 2, image_shape=image)


def refilled_pass(params, mask, n, seed, image=(1, 12, 12)):
    """The pass of an SGD run's second step at batch n: it keeps refilled blocks."""
    x, y = random_batch(params.specs, n, seed=seed, image_shape=image)
    _, first = forward_loss(params, mask, x, y, sample_shape=image)
    return forward_loss(params, mask, x, y, sample_shape=image, reuse=first)[1]


def test_a_short_batch_refills_the_front_of_the_kept_blocks():
    # An SGD epoch's short last batch, between two full ones: each of its
    # blocks fills the front of a full block, which the next full batch refills.
    image = (1, 12, 12)
    params, mask, full = conv5_net(64, seed=71)
    short = random_batch(params.specs, 44, seed=72, image_shape=image)
    spent = refilled_pass(params, mask, 64, 73)
    blocks = [b for layer in spent.layers for b in layer[3] or ()]
    v = [np.random.default_rng(74).normal(size=m) for m in layer_sizes(params)]
    for x, y in (short, full):
        loss, fp = forward_loss(params, mask, x, y, sample_shape=image, reuse=spent)
        kept = [b for layer in fp.layers for b in layer[3] or ()]
        assert len(kept) == len(blocks) == 3
        assert all(np.shares_memory(a, b) for a, b in zip(kept, blocks))
        want_loss, fresh = forward_loss(params, mask, x, y, sample_shape=image)
        assert loss == want_loss
        assert np.array_equal(fp.logits, fresh.logits)
        assert all(np.array_equal(a, b) for a, b in zip(backward(fp), backward(fresh)))
        hv = hessian_vector_product(fp, v)
        assert all(np.array_equal(a, b) for a, b in zip(hessian_vector_product(fresh, v), hv))
        spent = fp
    assert [b.shape for b in kept] == [b.shape for b in blocks]


def test_a_one_by_one_kernel_keeps_patch_buffers_of_its_own():
    # On one channel a 1x1 kernel's patch matrix has the input's layout, so
    # a kept block must be a copy, not a read-only view of the input.
    specs = (LayerSpec("conv", 1, 2, kernel=(1, 1)), LayerSpec("dense", 32, 3, is_output=True))
    params, mask = build_network(specs, seed=81), full_mask(layer_sizes(specs))
    x, y = random_batch(specs, 8, seed=82, image_shape=(1, 4, 4))
    _, fp = forward_loss(params, mask, x, y, sample_shape=(1, 4, 4))
    for _ in range(2):
        _, fp = forward_loss(params, mask, x, y, sample_shape=(1, 4, 4), reuse=fp)
        (block,) = fp.layers[0][3]
        assert block.flags.writeable and not np.shares_memory(block, fp.layers[0][0])
    _, fresh = forward_loss(params, mask, x, y, sample_shape=(1, 4, 4))
    assert all(np.array_equal(a, b) for a, b in zip(backward(fp), backward(fresh)))


def test_a_pass_without_reuse_streams_its_blocks_to_the_same_derivatives():
    # n = 130: two full CONV_BLOCKs and a remainder
    image = (1, 12, 12)
    params, mask, (x, y) = conv5_net(130, seed=51)
    _, streamed = forward_loss(params, mask, x, y, sample_shape=image)
    assert [layer[3] for layer in streamed.layers] == [None] * 5
    _, kept = forward_loss(
        params, mask, x, y, sample_shape=image, reuse=refilled_pass(params, mask, 130, 54)
    )
    assert [len(layer[3] or ()) for layer in kept.layers] == [3, 3, 3, 0, 0]
    assert np.array_equal(streamed.logits, kept.logits)
    assert all(np.array_equal(a, b) for a, b in zip(backward(streamed), backward(kept)))
    v = [np.random.default_rng(55).normal(size=m) for m in layer_sizes(params)]
    hv = hessian_vector_product(kept, v)
    assert all(np.array_equal(a, b) for a, b in zip(hessian_vector_product(streamed, v), hv))


@pytest.mark.parametrize("n", [80, 130])
@pytest.mark.parametrize("spent_batch", [64, 30])
def test_forward_logits_refills_a_spent_first_block(n, spent_batch):
    # A spent pass at batch 64 lends a first block that holds every eval
    # block, the last one at its front; at batch 30 it holds no full block,
    # and it stays as it was.
    image = (1, 12, 12)
    params, mask, (x, y) = conv5_net(n, seed=61)
    spent = refilled_pass(params, mask, spent_batch, 64)
    lent = [layer[3][0] for layer in spent.layers[:3]]
    before = [b.copy() for b in lent]
    got = forward_logits(params, mask, x, sample_shape=image, reuse=spent)
    assert np.array_equal(got, forward_logits(params, mask, x, sample_shape=image))
    assert all(layer[3][0] is b for layer, b in zip(spent.layers, lent))
    _, fp = forward_loss(params, mask, x, y, sample_shape=image)
    last = slice(n // CONV_BLOCK * CONV_BLOCK, n)  # the short last eval block
    for buf, old, (h, *_) in zip(lent, before, fp.layers):
        if spent_batch == CONV_BLOCK:
            want = _im2col(h[last], 3, 3)
            assert np.array_equal(buf.reshape(-1)[: want.size].reshape(want.shape), want)
        else:
            assert np.array_equal(buf, old)


OUT_STACKS = {
    "dense": ((LayerSpec("dense", 3, 4), LayerSpec("dense", 4, 2, is_output=True)), None),
    "conv": (
        (
            LayerSpec("conv", 1, 3, kernel=(3, 3)),
            LayerSpec("conv", 3, 2, kernel=(2, 2)),
            LayerSpec("dense", 2 * 3 * 3, 2, is_output=True),
        ),
        (1, 6, 6),
    ),
}


@pytest.mark.parametrize("head", ["softmax-xent", "squared-error"])
@pytest.mark.parametrize("stack", sorted(OUT_STACKS))
def test_backward_into_given_arrays_matches_a_fresh_call(stack, head):
    specs, image_shape = OUT_STACKS[stack]
    params = build_network(specs, seed=16)
    rng = np.random.default_rng(17)
    mask = Mask(tuple((rng.random(m) < 0.6).astype(float) for m in layer_sizes(specs)))
    x, y = random_batch(specs, 5, seed=18, image_shape=image_shape)
    _, fp = forward_loss(params, mask, x, y, sample_shape=image_shape, head=head)
    first = backward(fp)
    out = [np.full(g.size, np.nan) for g in first]
    assert backward(fp, out) is out
    second = backward(fp)
    assert all(np.array_equal(a, b) for a, b in zip(first, out))
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
    _, fp = forward_loss(params, full_mask([2]), x, y, head="squared-error")
    return fp


def test_hvp_on_diagonal_quadratic():
    hv = hessian_vector_product(quadratic_net(), [np.array([1.0, 1.0])])
    assert np.max(np.abs(hv[0] - np.array([2.0, 6.0]))) <= 1e-6


def test_hvp_on_unit_curvature():
    specs = (LayerSpec("dense", 1, 1, is_output=True),)
    params = LayeredParams(specs, (np.array([1.3]),))
    _, fp = forward_loss(params, full_mask([1]), [[1.0]], [0.0], head="squared-error")
    hv = hessian_vector_product(fp, [np.array([1.0])])
    assert hv[0][0] == pytest.approx(1.0, abs=1e-6)


def test_hvp_is_linear_in_the_direction():
    fp = quadratic_net()
    hv1 = hessian_vector_product(fp, [np.array([1.0, 0.0])])
    hv2 = hessian_vector_product(fp, [np.array([0.0, 1.0])])
    hv12 = hessian_vector_product(fp, [np.array([1.0, 1.0])])
    assert np.allclose(hv1[0] + hv2[0], hv12[0], atol=1e-6)


def test_hvp_rejects_a_misaligned_direction():
    fp = quadratic_net()
    with pytest.raises(AlignmentError):
        hessian_vector_product(fp, [np.ones(2), np.ones(2)])
    with pytest.raises(AlignmentError):
        hessian_vector_product(fp, [np.ones(3)])


def dot(a, b):
    return sum(float(x @ y) for x, y in zip(a, b))


@pytest.mark.parametrize("head", ["softmax-xent", "squared-error"])
@pytest.mark.parametrize("preset, shape, n", [("conv-5", (1, 12, 12), 130), ("mlp-4", (16,), 40)])
def test_hvp_is_symmetric_linear_and_leaves_the_pass_unchanged(preset, shape, n, head):
    # conv-5 at n = 130 runs two full CONV_BLOCKs and a remainder.
    specs = preset_specs(preset, shape, 4)
    params = build_network(specs, seed=31)
    rng = np.random.default_rng(32)
    mask = Mask(tuple((rng.random(m) < 0.6).astype(float) for m in layer_sizes(specs)))
    image = shape if preset == "conv-5" else None
    x, y = random_batch(specs, n, seed=33, image_shape=image)
    _, fp = forward_loss(params, mask, x, y, sample_shape=image, head=head)
    before = [a.copy() for layer in fp.layers for a in (*layer[:3], *(layer[3] or ()))]
    before += [fp.logits.copy(), fp.target.copy()] + ([] if fp.probs is None else [fp.probs.copy()])

    u, v = ([rng.normal(size=m) for m in layer_sizes(specs)] for _ in range(2))
    hu, hv = hessian_vector_product(fp, u), hessian_vector_product(fp, v)
    scale = np.sqrt(dot(hu, hu) * dot(v, v))
    assert abs(dot(u, hv) - dot(v, hu)) <= 1e-12 * scale
    h_sum = hessian_vector_product(fp, [2.0 * a - 3.0 * b for a, b in zip(u, v)])
    for s, a, b in zip(h_sum, hu, hv):
        assert np.allclose(s, 2.0 * a - 3.0 * b, rtol=0.0, atol=1e-12 * np.abs(s).max())
    for h, c in zip(hu, mask.layers):
        assert np.any(h[c == 1.0] != 0.0)
        assert np.all(h[c == 0.0] == 0.0)

    after = [a for layer in fp.layers for a in (*layer[:3], *(layer[3] or ()))]
    after += [fp.logits, fp.target] + ([] if fp.probs is None else [fp.probs])
    assert len(after) == len(before)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    assert all(np.array_equal(a, b) for a, b in zip(hessian_vector_product(fp, u), hu))


@pytest.mark.parametrize("head", ["softmax-xent", "squared-error"])
@pytest.mark.parametrize("preset, shape", [("conv-5", (1, 10, 9)), ("mlp-4", (16,))])
def test_hvp_matches_the_finite_difference_oracle(preset, shape, head):
    specs = preset_specs(preset, shape, 3)
    params = build_network(specs, seed=41)
    rng = np.random.default_rng(42)
    mask = Mask(tuple((rng.random(m) < 0.7).astype(float) for m in layer_sizes(specs)))
    image = shape if preset == "conv-5" else None
    x, y = random_batch(specs, 70, seed=43, image_shape=image)
    v = [rng.normal(size=m) for m in layer_sizes(specs)]
    v = [a / np.sqrt(dot(v, v)) for a in v]
    # the oracle holds only while no ReLU changes sign between its two passes
    assert relu_flips(params, mask, x, y, v, 1e-6, sample_shape=image) == 0
    _, fp = forward_loss(params, mask, x, y, sample_shape=image, head=head)
    oracle = finite_diff_hvp(params, mask, x, y, v, 1e-6, sample_shape=image, head=head)
    assert rel_error(hessian_vector_product(fp, v), oracle) <= 1e-7


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


@pytest.mark.parametrize("samples, labels, message", [
    (np.zeros(4), [0], r"samples must be \(n, features\), got shape \(4,\)"),
    (np.zeros((2, 2, 2)), [0, 1], r"samples must be \(n, features\), got shape \(2, 2, 2\)"),
    (np.zeros((2, 4)), [0, 1, 2], r"2 samples but labels of shape \(3,\)"),
    (np.zeros((1, 4)), 0, r"1 samples but labels of shape \(\)"),
])
def test_a_batch_must_be_a_matrix_with_one_label_per_row(samples, labels, message):
    specs = (LayerSpec("dense", 4, 3, is_output=True),)
    params = LayeredParams(specs, [np.ones(12)])
    with pytest.raises(AlignmentError, match=message):
        forward_loss(params, full_mask([12]), samples, labels)
    if samples.ndim != 2:
        with pytest.raises(AlignmentError, match=message):
            forward_logits(params, full_mask([12]), samples)
