"""Dense float64 numerics: a masked layer-stack forward pass and its reverse.

A network is a fixed stack of bias-free dense and conv layers with ReLU
between them and one batch-mean loss head (softmax cross-entropy or squared
error).  `forward_loss` runs the stack once and keeps each layer's input,
masked weights and mask, each conv layer's patch blocks, and the softmax its
loss computed; `backward` walks the same layers in reverse and returns
per-layer weight gradients.  `hessian_vector_product` takes the same pass
and returns the exact Hessian-vector product from one tangent pass forward
and one back, through the same per-layer gradient step as `backward`.  The
stack is the whole graph, so every numeric path stays inspectable and
bit-reproducible.

The public entry points check their arguments: the loss head, the batch's
shape, the mask's alignment, the sample shape against the stack, and the
labels' range against the output layer's classes.  `forward_loss` and
`forward_logits` then hand masked weights and masks to one internal pass
(`_loss_pass` over `_run_layers`) that does arithmetic only.  An SGD loop
checks its data once and runs that same pass at every step, on masked
weights it keeps up to date itself.

Convolution is im2col plus GEMM over fixed blocks of CONV_BLOCK samples.
The kernel gradient is one matrix product per patch block, and the input
gradient is a col2im loop over the kernel taps.  A pass keeps its blocks
only when it refills a spent pass's: an SGD run hands each step's spent
pass to the next step's pass as `reuse` and to each epoch's evaluation,
`forward_logits(..., reuse=...)`, so the run holds one set of patch
buffers.  A one-off pass (a scoring batch, a run's first step) keeps none,
and its consumers build each block in turn into one buffer.  No gradient
is computed for the first layer's input, which is data.

Masks enter as masked weights (w * c) and the weight gradient is multiplied
by c, so the gradient with respect to a masked-out weight is exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DomainError, NumericsError

# Bump whenever a change can move a computed value.  Version 2: conv by
# im2col + GEMM, whose summation order differs from the per-tap einsums.
# Version 3: GraSP's H g is the exact Hessian-vector product, where it was
# a central difference at step 1e-5, which a ReLU crossing could throw off.
# Version 4: a cell reads the accuracy of its last retraining epoch, not of
# its best; a CSV dataset is standardised by its train rows alone; and the
# config hash leaves out train.seed, which every training run replaces with
# a seed derived from its cell.
NUMERICS_VERSION = 4

SOFTMAX_XENT = "softmax-xent"
SQUARED_ERROR = "squared-error"
HEADS = (SOFTMAX_XENT, SQUARED_ERROR)


@dataclass(frozen=True)
class ForwardPass:
    """What `backward` and `hessian_vector_product` need from one `forward_loss` call.

    `layers` holds (input, masked weights, mask, patch blocks) per layer, the
    input as the layer received it (before any flatten) and weights and mask
    in the layer's natural shape.  The patch blocks are the conv layer's
    im2col matrices, one per CONV_BLOCK samples; they take up to kh * kw
    times the memory of the layer's input.  They are None for a dense layer
    and for a pass made without `reuse`, whose consumers build each block
    in turn.  A pass handed to `forward_loss` or `forward_logits` as `reuse`
    has lent its blocks, which are overwritten: it must not be used
    afterwards, except as `reuse` again.

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

    Written into `buf` when it has the patch matrix's shape, else into the
    front of `buf`'s memory (`buf.base` when `buf` is a view) where that
    holds it, else into a new array: the same bytes each way.  A buffer
    that took a smaller block keeps its whole memory for a larger one.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows.transpose(1, 4, 5, 0, 2, 3)
    shape = (math.prod(windows.shape[:3]), math.prod(windows.shape[3:]))
    size = shape[0] * shape[1]
    if buf is not None and buf.shape != shape:
        memory = (buf if buf.base is None else buf.base).reshape(-1)
        buf = memory[:size].reshape(shape) if memory.size >= size else None
    if buf is None:
        buf = np.empty(shape)
    np.copyto(buf.reshape(windows.shape), windows)
    return buf


def _patches(x, kh, kw, col=None):
    """Yield the patch matrix of each CONV_BLOCK of x's samples, all in one
    buffer (`col` where it holds them): each block must be used up before
    the next is drawn."""
    for b in _conv_blocks(len(x)):
        col = _im2col(x[b], kh, kw, col)
        yield col


def _apply(x, w, cols=None):
    """A layer's pre-activation output for input x: x @ w, or the conv of x
    with w over x's patch blocks `cols` (built one block at a time when None)."""
    n = len(x)
    if w.ndim == 2:
        return x.reshape(n, -1) @ w
    co, _, kh, kw = w.shape
    ho, wo = x.shape[2] - kh + 1, x.shape[3] - kw + 1
    out = np.empty((n, co, ho, wo))
    for b, col in zip(_conv_blocks(n), _patches(x, kh, kw) if cols is None else cols):
        out[b] = (w.reshape(co, -1) @ col).reshape(co, -1, ho, wo).transpose(1, 0, 2, 3)
    return out


def _weight_grad(x, w, g, cols=None):
    """A layer's weight gradient for the gradient g at its output, in w's flat order.

    For conv it is one GEMM per patch block of x: `cols`, or built one
    block at a time when None.
    """
    if w.ndim == 2:
        return x.reshape(len(x), -1).T @ g
    gk = None
    co = g.shape[1]
    for b, col in zip(_conv_blocks(len(x)), _patches(x, *w.shape[2:]) if cols is None else cols):
        part = g[b].transpose(1, 0, 2, 3).reshape(co, -1) @ col.T
        gk = part if gk is None else gk + part
    return gk


def _grad_below(w, g, x):
    """The gradient at the pre-activation beneath a layer with input x, for
    the gradient g at the layer's output.

    Conv is col2im over the kh*kw taps: the upstream gradient is zero-padded
    to the full (h, w) grid, so each tap is one GEMM and one shifted add
    along the flattened (n, h, w) axis.  Entries the shift carries across a
    row or sample edge come from the zero padding.
    """
    if w.ndim == 2:
        gx = (g @ w.T).reshape(x.shape)
    else:
        n, ci, h, wd = x.shape
        co, _, kh, kw = w.shape
        ho, wo = g.shape[2], g.shape[3]
        gx = np.zeros((ci, n * h * wd + (kh - 1) * wd + kw - 1))
        for b in _conv_blocks(n):
            m = b.stop - b.start
            gpad = np.zeros((co, m, h, wd))
            gpad[:, :, :ho, :wo] = g[b].transpose(1, 0, 2, 3)
            gpad = gpad.reshape(co, m * h * wd)
            acc = gx[:, b.start * h * wd :]
            for u in range(kh):
                for v in range(kw):
                    s = u * wd + v
                    acc[:, s : s + gpad.shape[1]] += w[:, :, u, v].T @ gpad
        gx = gx[:, : n * h * wd].reshape(ci, n, h, wd).transpose(1, 0, 2, 3)
    # x is relu(z) of the layer below, and relu(z) > 0 exactly where z > 0.
    gx *= x > 0
    return gx


def check_alignment(params, mask):
    """The one mask-vs-weights check: a mask entry for every weight, layer by layer."""
    if len(mask.layers) != len(params.weights):
        raise AlignmentError(
            f"mask has {len(mask.layers)} layers, params have {len(params.weights)}"
        )
    for i, (c, w) in enumerate(zip(mask.layers, params.weights)):
        if c.shape != w.shape:
            raise AlignmentError(f"layer {i}: mask length {c.size} != weight length {w.size}")


def _check_input(specs, features, sample_shape):
    """Raise AlignmentError unless samples of `features` features fit the stack.

    `sample_shape` is the shape of one sample, as a Dataset records it.  A
    conv-first network reshapes each sample to it, so it must be a
    (channels, h, w) that covers the features; a dense-first network reads
    samples flat and ignores it.  Each layer must fit the output of the one
    below.
    """
    shape = (features,)
    if specs[0].kind == "conv":
        if sample_shape is None or len(sample_shape) != 3 or math.prod(sample_shape) != features:
            raise AlignmentError(
                f"a conv-first network needs a (channels, h, w) sample_shape covering "
                f"{features} features, got {sample_shape}"
            )
        shape = tuple(sample_shape)
    for i, spec in enumerate(specs):
        if spec.kind == "dense":
            if math.prod(shape) != spec.fan_in:
                raise AlignmentError(
                    f"layer {i}: dense expects {spec.fan_in} inputs, got {math.prod(shape)}"
                )
            shape = (spec.fan_out,)
        else:
            kh, kw = spec.kernel
            if len(shape) != 3 or shape[0] != spec.fan_in or shape[1] < kh or shape[2] < kw:
                raise AlignmentError(
                    f"layer {i}: a {kh}x{kw} kernel on {spec.fan_in} channels "
                    f"does not fit input {shape}"
                )
            shape = (spec.fan_out, shape[1] - kh + 1, shape[2] - kw + 1)


def _as_batch(samples, labels=None):
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise AlignmentError(f"samples must be (n, features), got shape {samples.shape}")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[:1] != samples.shape[:1]:
            raise AlignmentError(f"{samples.shape[0]} samples but labels of shape {labels.shape}")
    if samples.shape[0] == 0:
        raise DomainError("empty batch")
    return samples, labels


def _checked(params, mask, samples, labels=None, sample_shape=None, head=SOFTMAX_XENT):
    """The public entry points' argument checks; returns (samples, target).

    It checks the head, the batch's shape, the mask's alignment, the sample
    shape against the stack and, given labels, their range against the
    output layer's classes.  `target` is what the loss head compares the
    logits with (see `ForwardPass`), or None without labels.
    """
    if head not in HEADS:
        raise DomainError(f"unknown loss head {head!r}")
    samples, labels = _as_batch(samples, labels)
    check_alignment(params, mask)
    _check_input(params.specs, samples.shape[1], sample_shape)
    if labels is None:
        return samples, None
    classes = params.specs[-1].fan_out
    if head == SQUARED_ERROR and classes == 1:
        return samples, np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    target = labels.astype(np.int64)
    if target.min() < 0 or target.max() >= classes:
        raise DomainError(f"labels must lie in [0, {classes})")
    if head == SQUARED_ERROR:
        target = np.eye(classes)[target]
    return samples, target


def _masked(params, mask):
    """(masked weights w * c, masks) per layer, each in the layer's natural shape."""
    cs = [c.reshape(s.shape) for c, s in zip(mask.layers, params.specs)]
    return [w.reshape(c.shape) * c for w, c in zip(params.weights, cs)], cs


def _run_layers(ws, cs, samples, sample_shape, keep=None, reuse=None):
    """Forward pass through the stack of masked weights `ws`; returns the logits.

    Arithmetic only: the caller has checked the input (see `_checked`).  A
    conv-first stack reshapes each row of `samples` to `sample_shape`.

    `reuse` is a spent pass whose patch buffers this pass refills where they
    hold its blocks (see `_im2col`).  When `keep` is a list, each layer
    appends (input, masked weights, mask, patch blocks).  A conv layer keeps
    its blocks only when both are given; otherwise it builds them one at a
    time into one buffer, the spent pass's first block where it has one.
    """
    n = samples.shape[0]
    h = samples if ws[0].ndim == 2 else samples.reshape(n, *sample_shape)
    last = len(ws) - 1
    for i, (w, c) in enumerate(zip(ws, cs)):
        x = h
        cols = blocks = None  # the blocks kept, and those the layer draws on
        if w.ndim == 4:
            kh, kw = w.shape[2:]
            spent = ()
            if reuse is not None and i < len(reuse.layers):
                spent = reuse.layers[i][3] or ()
            if keep is not None and reuse is not None:
                cols = blocks = [
                    _im2col(h[b], kh, kw, spent[j] if j < len(spent) else None)
                    for j, b in enumerate(_conv_blocks(n))
                ]
            else:
                blocks = _patches(h, kh, kw, spent[0] if spent else None)
        h = _apply(h, w, blocks)
        if keep is not None:
            keep.append((x, w, c, cols))
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h


def _loss_pass(ws, cs, samples, target, head, sample_shape=None, reuse=None):
    """The masked batch-mean loss and its pass, from checked arguments (see `forward_loss`).

    Arithmetic only: `ws` and `cs` are the masked weights and masks per
    layer in natural shape, and `target` is `_checked`'s.  A non-finite
    loss raises NumericsError.
    """
    n = samples.shape[0]
    layers = []
    z = _run_layers(ws, cs, samples, sample_shape, layers, reuse)
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


def forward_logits(params, mask, samples, *, sample_shape=None, reuse=None):
    """Forward pass without a loss head; returns the (n, classes) logits.

    `sample_shape` is one sample's shape, which only a conv-first network
    reads (see `_check_input`).  Each conv layer builds its patch blocks
    one at a time into one buffer.  `reuse` is a spent pass whose first
    patch block of each conv layer is that buffer where it holds them; that
    pass must not be used again, except as `reuse`.
    """
    samples, _ = _checked(params, mask, samples, sample_shape=sample_shape)
    return _run_layers(*_masked(params, mask), samples, sample_shape, reuse=reuse)


def forward_loss(
    params, mask, samples, labels, *, sample_shape=None, head=SOFTMAX_XENT, reuse=None
):
    """Masked batch-mean loss; returns (loss, pass) with the pass ready for backward.

    `samples` is (n, features) and `labels` holds n labels; `sample_shape`
    is one sample's shape, which only a conv-first network reads (see
    `_check_input`).

    `reuse` is a spent pass whose conv patch buffers this pass refills in
    place where they hold its blocks, and keeps; that pass must not be used
    again.  A short batch fills the front of a full batch's buffers, which
    it keeps whole for the next full batch.  Without `reuse` the pass keeps
    no patch blocks: `backward` and `hessian_vector_product` build each one
    in turn, so a one-off pass (a scoring batch, an SGD run's first step)
    holds one block per conv layer at a time, not all of them.
    """
    samples, target = _checked(params, mask, samples, labels, sample_shape, head)
    ws, cs = _masked(params, mask)
    return _loss_pass(ws, cs, samples, target, head, sample_shape, reuse)


def _loss_grad(fp):
    """The gradient of the pass's batch-mean loss at its logits."""
    n = fp.logits.shape[0]
    if fp.head == SOFTMAX_XENT:
        g = fp.probs.copy()
        g[np.arange(n), fp.target] -= 1.0
        g *= 1.0 / n
        return g
    return (1.0 / n) * (fp.logits - fp.target)


def backward(fp, out=None):
    """Per-layer flat weight gradients of the loss behind `fp`.

    The list mirrors the layer order; each entry is a 1-D float64 array with
    the same length as that layer's flat weights.  With `out`, a list of such
    arrays, the gradients are written into them and `out` is returned.  The
    pass is not changed, so calling this twice gives the same gradients.
    """
    g = _loss_grad(fp)
    grads = [None] * len(fp.layers) if out is None else out
    for i in range(len(fp.layers) - 1, -1, -1):
        x, w, c, cols = fp.layers[i]
        gw = _weight_grad(x, w, g, cols)
        grads[i] = np.multiply(gw.reshape(-1), c.reshape(-1), out=None if out is None else out[i])
        if i:
            g = _grad_below(w, g, x)
    return grads


def hessian_vector_product(fp, v):
    """H v, with H the Hessian of the loss behind `fp` in the flat weights.

    Exact (Pearlmutter's R-operator), not a finite difference: one tangent
    pass runs forward along v, masked as the weights are, and one runs back
    beside the gradient.  ReLU has zero second derivative, so fp's
    activation pattern holds throughout.  `v` is a list of flat per-layer
    arrays like `backward`'s result, and so is H v, which is zero at
    masked-out weights.  The pass is not changed; a conv layer's tangent
    patch blocks, and its input's when the pass keeps none, are built one
    at a time and not kept.
    """
    if len(v) != len(fp.layers):
        raise AlignmentError(f"direction has {len(v)} layers, the pass has {len(fp.layers)}")
    dws, tangents = [], []
    r = None  # the tangent of the layer's input, None (zero) for the data
    for i, ((x, w, c, cols), vl) in enumerate(zip(fp.layers, v)):
        vl = np.asarray(vl, dtype=np.float64)
        if vl.size != w.size:
            raise AlignmentError(f"layer {i}: direction length {vl.size} != {w.size}")
        dws.append(vl.reshape(w.shape) * c)
        tangents.append(r)
        out = _apply(x, dws[i], cols)
        if r is not None:
            out += _apply(r, w)
        if i + 1 < len(fp.layers):
            out *= fp.layers[i + 1][0] > 0
        r = out

    # The head's gradient is (p - y) / n or (z - t) / n; r is the logits' tangent.
    g = _loss_grad(fp)
    p = fp.probs
    rg = r if p is None else p * (r - (p * r).sum(axis=1, keepdims=True))
    rg *= 1.0 / len(r)
    hv = [None] * len(fp.layers)
    for i in range(len(fp.layers) - 1, -1, -1):
        x, w, c, cols = fp.layers[i]
        hw = _weight_grad(x, w, rg, cols)
        r = tangents.pop()  # this layer's input tangent, dropped once used
        if r is not None:
            hw += _weight_grad(r, w, g)
        hv[i] = hw.reshape(-1) * c.reshape(-1)
        if i:
            rg = _grad_below(w, rg, x)
            rg += _grad_below(dws[i], g, x)
            g = _grad_below(w, g, x)
    return hv
