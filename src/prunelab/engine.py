"""Dense float64 numerics: a masked layer-stack forward pass and its reverse.

A network is a fixed stack of bias-free dense and conv layers with ReLU
between them and one batch-mean loss head (softmax cross-entropy or squared
error).  `forward_loss` runs the stack once and keeps each layer's input,
masked weights and mask, each conv layer's patch blocks, and the softmax its
loss computed; `backward` walks the same layers in reverse and returns
per-layer weight gradients.  The stack is the whole graph, so every numeric
path stays inspectable and bit-reproducible.

Convolution is im2col plus GEMM over fixed blocks of CONV_BLOCK samples.
The forward pass builds each block's patch matrix once and keeps it; the
kernel gradient is one matrix product per kept block, and the input
gradient is a col2im loop over the kernel taps.  A loop that runs one pass
after another (an SGD run, the two sides of a Hessian-vector product) hands
the spent pass to `forward_loss(..., reuse=...)`, which refills its patch
buffers in place instead of allocating new ones.  No gradient is computed
for the first layer's input, which is data.

Masks enter as masked weights (w * c) and the weight gradient is multiplied
by c, so the gradient with respect to a masked-out weight is exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AlignmentError, DegenerateStepError, DomainError, NumericsError

# Bump whenever a change can move a computed value.  Version 2: conv by
# im2col + GEMM, whose summation order differs from the per-tap einsums.
NUMERICS_VERSION = 2

SOFTMAX_XENT = "softmax-xent"
SQUARED_ERROR = "squared-error"
HEADS = (SOFTMAX_XENT, SQUARED_ERROR)


@dataclass(frozen=True)
class ForwardPass:
    """What `backward` needs from one `forward_loss` call.

    `layers` holds (input, masked weights, mask, patch blocks) per layer, the
    input as the layer received it (before any flatten) and weights and mask
    in the layer's natural shape.  The patch blocks are the conv layer's
    im2col matrices, one per CONV_BLOCK samples (None for a dense layer);
    they take up to kh * kw times the memory of the layer's input.  A pass
    handed to `forward_loss` as `reuse` has lent those blocks to the
    new pass, which overwrites them: it must not be used afterwards.

    `target` is the int labels for softmax-xent or the (n, classes) target
    matrix for squared error.  `probs` is the softmax of the logits that the
    loss computed, or None for squared error.
    """

    layers: tuple
    logits: np.ndarray
    head: str
    target: np.ndarray
    probs: np.ndarray | None


CONV_BLOCK = 64  # samples per im2col patch block


def _conv_blocks(n):
    return [slice(s, min(s + CONV_BLOCK, n)) for s in range(0, n, CONV_BLOCK)]


def _im2col(x, kh, kw, buf=None):
    """Patch matrix of x (n, ci, h, w): rows (ci, kh, kw), columns (n, ho, wo).

    Written into `buf` when it has the patch matrix's shape (the same bytes
    as a new array), else into a new array.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows.transpose(1, 4, 5, 0, 2, 3)
    shape = (math.prod(windows.shape[:3]), math.prod(windows.shape[3:]))
    if buf is None or buf.shape != shape:
        return np.ascontiguousarray(windows).reshape(shape)
    np.copyto(buf.reshape(windows.shape), windows)
    return buf


def _conv2d_forward(x, k, cols=None, spare=()):
    """Valid cross-correlation of x (n, ci, h, w) with k (co, ci, kh, kw).

    When `cols` is a list, each block's patch matrix is appended to it,
    refilled in place from the matching block of `spare` where the shapes
    agree.
    """
    n, ci, h, w = x.shape
    co, ci2, kh, kw = k.shape
    if ci != ci2:
        raise AlignmentError(f"conv input has {ci} channels, kernel expects {ci2}")
    ho, wo = h - kh + 1, w - kw + 1
    if ho < 1 or wo < 1:
        raise AlignmentError(f"kernel {kh}x{kw} does not fit input {h}x{w}")
    k2 = k.reshape(co, -1)
    out = np.empty((n, co, ho, wo))
    for j, b in enumerate(_conv_blocks(n)):
        col = _im2col(x[b], kh, kw, spare[j] if j < len(spare) else None)
        if cols is not None:
            cols.append(col)
        y = k2 @ col
        out[b] = y.reshape(co, -1, ho, wo).transpose(1, 0, 2, 3)
    return out


def _conv2d_backward(cols, k, g, in_hw=None):
    """Kernel gradient, and the gradient of an `in_hw` input when given (else None).

    `cols` are the forward pass's patch blocks, so the kernel gradient is
    one GEMM per block.  The input gradient is col2im over the kh*kw taps:
    the upstream gradient is zero-padded to the full (h, w) grid, so each
    tap is one GEMM and one shifted add along the flattened (n, h, w) axis.
    Entries the shift carries across a row or sample edge come from the zero
    padding.
    """
    n = g.shape[0]
    co, ci, kh, kw = k.shape
    ho, wo = g.shape[2], g.shape[3]
    need_gx = in_hw is not None
    if need_gx:
        h, w = in_hw
        gx = np.zeros((ci, n * h * w + (kh - 1) * w + kw - 1))
    gk = None
    for b, col in zip(_conv_blocks(n), cols):
        gb = g[b].transpose(1, 0, 2, 3)
        part = gb.reshape(co, -1) @ col.T
        gk = part if gk is None else gk + part
        if need_gx:
            cells = gb.shape[1] * h * w
            gpad = np.zeros((co, gb.shape[1], h, w))
            gpad[:, :, :ho, :wo] = gb
            gpad = gpad.reshape(co, cells)
            acc = gx[:, b.start * h * w :]
            for u in range(kh):
                for v in range(kw):
                    s = u * w + v
                    acc[:, s : s + cells] += k[:, :, u, v].T @ gpad
    if not need_gx:
        return None, gk.reshape(k.shape)
    gx = gx[:, : n * h * w].reshape(ci, n, h, w).transpose(1, 0, 2, 3)
    return gx, gk.reshape(k.shape)


def check_alignment(params, mask):
    """The one mask-vs-weights check: a mask entry for every weight, layer by layer."""
    if len(mask.layers) != len(params.weights):
        raise AlignmentError(
            f"mask has {len(mask.layers)} layers, params have {len(params.weights)}"
        )
    for i, (c, w) in enumerate(zip(mask.layers, params.weights)):
        if c.shape != w.shape:
            raise AlignmentError(f"layer {i}: mask length {c.size} != weight length {w.size}")


def _layer_shape(spec):
    if spec.kind == "conv":
        kh, kw = spec.kernel
        return (spec.fan_out, spec.fan_in, kh, kw)
    return (spec.fan_in, spec.fan_out)


def _run_layers(params, mask, samples, sample_shape, keep=None, spare=()):
    """Masked forward pass through the stack; returns the (n, classes) logits.

    When `keep` is a list, each layer appends (input, masked weights, mask,
    patch blocks), filling its patch blocks into that layer's entry of
    `spare` (an earlier pass's layers) where it can.
    """
    specs = params.specs
    n = samples.shape[0]
    if specs[0].kind == "conv":
        if sample_shape is None or len(sample_shape) != 3:
            raise AlignmentError("a conv-first network needs a (channels, h, w) sample_shape")
        if math.prod(sample_shape) != samples.shape[1]:
            raise AlignmentError(
                f"sample_shape {sample_shape} does not cover {samples.shape[1]} features"
            )
        if sample_shape[0] != specs[0].fan_in:
            raise AlignmentError(
                f"input has {sample_shape[0]} channels, first conv expects {specs[0].fan_in}"
            )
        h = samples.reshape(n, *sample_shape)
    else:
        if samples.shape[1] != specs[0].fan_in:
            raise AlignmentError(
                f"input has {samples.shape[1]} features, first layer expects {specs[0].fan_in}"
            )
        h = samples

    for i, spec in enumerate(specs):
        shape = _layer_shape(spec)
        c = mask.layers[i].reshape(shape)
        w = params.weights[i].reshape(shape) * c
        x = h
        cols = None
        if spec.kind == "dense":
            h = h.reshape(n, -1)
            if h.shape[1] != spec.fan_in:
                raise AlignmentError(
                    f"layer {i}: dense expects {spec.fan_in} inputs, got {h.shape[1]}"
                )
            h = h @ w
        else:
            if h.ndim != 4:
                raise AlignmentError(f"layer {i}: conv needs an image-shaped input")
            if keep is not None:
                cols = []
            h = _conv2d_forward(h, w, cols, (spare[i][3] if i < len(spare) else None) or ())
        if keep is not None:
            keep.append((x, w, c, cols))
        if not spec.is_output:
            np.maximum(h, 0.0, out=h)
    return h


def _as_batch(samples, labels):
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.ndim != 2:
        raise AlignmentError(f"samples must be (n, features), got shape {samples.shape}")
    labels = np.asarray(labels)
    if labels.ndim == 0:
        labels = labels[None]
    if labels.shape[0] != samples.shape[0]:
        raise AlignmentError(f"{samples.shape[0]} samples but {labels.shape[0]} labels")
    if samples.shape[0] == 0:
        raise DomainError("empty batch")
    return samples, labels


def forward_logits(params, mask, samples, *, sample_shape=None):
    """Forward pass without a loss head; returns the (n, classes) logits."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.shape[0] == 0:
        raise DomainError("empty batch")
    check_alignment(params, mask)
    return _run_layers(params, mask, samples, sample_shape)


def forward_loss(
    params, mask, samples, labels, *, sample_shape=None, head=SOFTMAX_XENT, reuse=None
):
    """Masked batch-mean loss; returns (loss, pass) with the pass ready for backward.

    `reuse` is an earlier pass whose conv patch buffers this pass refills
    in place where their shapes match; that pass must not be used again.
    """
    if head not in HEADS:
        raise DomainError(f"unknown loss head {head!r}")
    samples, labels = _as_batch(samples, labels)
    check_alignment(params, mask)
    n = samples.shape[0]
    classes = params.specs[-1].fan_out

    layers = []
    spare = () if reuse is None else reuse.layers
    z = _run_layers(params, mask, samples, sample_shape, layers, spare)
    if head == SQUARED_ERROR and classes == 1:
        target = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    else:
        target = labels.astype(np.int64)
        if target.min() < 0 or target.max() >= classes:
            raise DomainError(f"labels must lie in [0, {classes})")
        if head == SQUARED_ERROR:
            target = np.eye(classes)[target]
    probs = None
    if head == SOFTMAX_XENT:
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        total = e.sum(axis=1)
        per_sample = m[:, 0] + np.log(total) - z[np.arange(n), target]
        probs = e / total[:, None]
    else:
        per_sample = 0.5 * ((z - target) ** 2).sum(axis=1)
    loss = float(per_sample.sum()) / n  # the mean, without np.mean's per-call overhead
    if not math.isfinite(loss):
        raise NumericsError("forward pass produced a non-finite loss")
    return loss, ForwardPass(tuple(layers), z, head, target, probs)


def backward(fp, out=None):
    """Per-layer flat weight gradients of the loss behind `fp`.

    The list mirrors the layer order; each entry is a 1-D float64 array with
    the same length as that layer's flat weights.  With `out`, a list of such
    arrays, the gradients are written into them and `out` is returned.  The
    pass is not changed, so calling this twice gives the same gradients.
    """
    z = fp.logits
    n = z.shape[0]
    if fp.head == SOFTMAX_XENT:
        g = fp.probs.copy()
        g[np.arange(n), fp.target] -= 1.0
        g *= 1.0 / n
    else:
        g = (1.0 / n) * (z - fp.target)

    grads = [None] * len(fp.layers) if out is None else out
    for i in range(len(fp.layers) - 1, -1, -1):
        x, w, c, cols = fp.layers[i]
        if w.ndim == 2:
            gw = x.reshape(n, -1).T @ g
            gx = (g @ w.T).reshape(x.shape) if i else None
        else:
            gx, gw = _conv2d_backward(cols, w, g, x.shape[2:] if i else None)
        grads[i] = np.multiply(gw.reshape(-1), c.reshape(-1), out=None if out is None else out[i])
        if i:
            # x is relu(z) of the layer below, and relu(z) > 0 exactly where z > 0.
            gx *= x > 0
            g = gx
    return grads


def finite_diff_gradient(loss_fn: Callable[[Sequence[np.ndarray]], float], weights, epsilon):
    """Central-difference gradient oracle.

    `loss_fn` must map a list of per-layer flat weight arrays to a scalar and
    must not cache the arrays it is handed (they are perturbed in place).
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    work = [np.array(w, dtype=np.float64) for w in weights]
    grads = []
    for w in work:
        g = np.zeros_like(w)
        for j in range(w.size):
            orig = w[j]
            w[j] = orig + epsilon
            lp = loss_fn(work)
            w[j] = orig - epsilon
            lm = loss_fn(work)
            w[j] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericsError(f"oracle hit a non-finite loss at coordinate {j}")
            g[j] = (lp - lm) / (2.0 * epsilon)
        grads.append(g)
    return grads


def hessian_vector_product(
    params, mask, samples, labels, v, epsilon, *, sample_shape=None, head=SOFTMAX_XENT
):
    """Hv by central differences of gradients: (g(w + eps v) - g(w - eps v)) / (2 eps)."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if len(v) != len(params.weights):
        raise AlignmentError(f"direction has {len(v)} layers, params have {len(params.weights)}")
    v = [np.asarray(vl, dtype=np.float64) for vl in v]
    for i, (vl, w) in enumerate(zip(v, params.weights)):
        if vl.shape != w.shape:
            raise AlignmentError(f"layer {i}: direction length {vl.size} != {w.size}")
    if max(float(np.abs(vl).max()) if vl.size else 0.0 for vl in v) == 0.0:
        raise DegenerateStepError("direction vector is zero")

    plus = [w + epsilon * vl for w, vl in zip(params.weights, v)]
    minus = [w - epsilon * vl for w, vl in zip(params.weights, v)]
    if all(np.array_equal(p, w) for p, w in zip(plus, params.weights)):
        raise DegenerateStepError("epsilon step underflowed to zero perturbation")

    # Each pass is dropped once its gradient is taken; the minus pass
    # refills the plus pass's patch buffers.
    _, fp = forward_loss(
        params.with_weights(plus), mask, samples, labels, sample_shape=sample_shape, head=head
    )
    gp = backward(fp)
    _, fp = forward_loss(
        params.with_weights(minus), mask, samples, labels,
        sample_shape=sample_shape, head=head, reuse=fp,
    )
    gm = backward(fp)
    del fp
    return [(a - b) / (2.0 * epsilon) for a, b in zip(gp, gm)]
