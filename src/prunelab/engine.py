"""Dense float64 numerics with taped reverse-mode differentiation.

A forward pass records primitive operations onto a ComputationTape; one
backward sweep over the tape yields per-layer weight gradients.  The
primitive set is deliberately tiny (matmul, add, elementwise multiply, ReLU,
valid 2-D cross-correlation, flatten, and two batch-mean loss heads), which
keeps every numeric path inspectable and bit-reproducible.

Convolution is im2col plus GEMM: the forward pass and the kernel gradient
are one matrix product each against the patch matrix, and the input gradient
is a col2im loop over the kernel taps.  Both run over fixed blocks of
CONV_BLOCK samples, so the patch matrix's memory does not grow with the
batch.  The backward sweep computes only gradients that reach a weight leaf:
nothing flows into the data or mask leaves.

Masks enter the graph multiplicatively (w * c), so the gradient of the loss
with respect to a masked-out weight is exactly zero by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateStepError,
    DomainError,
    NumericsError,
    TapeReuseError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .models import LayeredParams
    from .pruning import Mask

# Bump whenever a change can move a computed value.  Version 2: conv by
# im2col + GEMM, whose summation order differs from the per-tap einsums.
NUMERICS_VERSION = 2

SOFTMAX_XENT = "softmax-xent"
SQUARED_ERROR = "squared-error"
HEADS = (SOFTMAX_XENT, SQUARED_ERROR)


class Node:
    """One tape entry: a primitive op, its input node ids, and its value.

    `needs_grad` is fixed when the node is recorded: true for weight leaves
    and for every node computed from one.  The backward sweep sends no
    gradient to a node without it, such as the data and mask leaves.
    """

    __slots__ = ("op", "inputs", "value", "extra", "needs_grad")

    def __init__(self, op, inputs, value, extra=None, needs_grad=False):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.extra = extra
        self.needs_grad = needs_grad


class ComputationTape:
    """Append-only record of a forward pass.

    Nodes are stored in topological order (inputs always precede users), the
    final node is the scalar loss, and `weight_ids` points at the per-layer
    weight leaves in layer order.  A tape supports exactly one backward pass.
    """

    def __init__(self):
        self.nodes = []
        self.weight_ids = []
        self.consumed = False

    def leaf(self, value, *, needs_grad=False):
        value = np.asarray(value, dtype=np.float64)
        self.nodes.append(Node("leaf", (), value, needs_grad=needs_grad))
        return len(self.nodes) - 1

    def apply(self, op, *input_ids, extra=None):
        values, needs_grad = [], False
        for i in input_ids:
            values.append(self.nodes[i].value)
            needs_grad = needs_grad or self.nodes[i].needs_grad
        out = _evaluate(op, values, extra)
        self.nodes.append(Node(op, input_ids, out, extra, needs_grad))
        return len(self.nodes) - 1

    @property
    def loss_value(self):
        return float(self.nodes[-1].value)

    def replay(self):
        """Recompute every non-leaf value from the leaves.

        Returns the recomputed values in node order; callers compare them
        against the recorded ones to confirm the record is faithful.
        """
        values = []
        for node in self.nodes:
            if node.op == "leaf":
                values.append(node.value)
            else:
                values.append(_evaluate(node.op, [values[i] for i in node.inputs], node.extra))
        return values


CONV_BLOCK = 64  # samples per im2col block; bounds the patch matrix's memory


def _conv_blocks(n):
    return [slice(s, min(s + CONV_BLOCK, n)) for s in range(0, n, CONV_BLOCK)]


def _im2col(x, kh, kw):
    """Patch matrix of x (n, ci, h, w): rows (ci, kh, kw), columns (n, ho, wo)."""
    ci = x.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3)).reshape(ci * kh * kw, -1)


def _conv2d_forward(x, k):
    n, ci, h, w = x.shape
    co, ci2, kh, kw = k.shape
    if ci != ci2:
        raise AlignmentError(f"conv input has {ci} channels, kernel expects {ci2}")
    ho, wo = h - kh + 1, w - kw + 1
    if ho < 1 or wo < 1:
        raise AlignmentError(f"kernel {kh}x{kw} does not fit input {h}x{w}")
    k2 = k.reshape(co, -1)
    out = np.empty((n, co, ho, wo))
    for b in _conv_blocks(n):
        y = k2 @ _im2col(x[b], kh, kw)
        out[b] = y.reshape(co, -1, ho, wo).transpose(1, 0, 2, 3)
    return out


def _conv2d_backward(x, k, g, need_gx):
    """Kernel gradient, and the input gradient when `need_gx` (else None).

    The kernel gradient is one GEMM per block against the patch matrix.  The
    input gradient is col2im over the kh*kw taps: the upstream gradient is
    zero-padded to the full (h, w) grid, so each tap is one GEMM and one
    shifted add along the flattened (n, h, w) axis.  Entries the shift
    carries across a row or sample edge come from the zero padding.
    """
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    ho, wo = g.shape[2], g.shape[3]
    gk = None
    gx = np.zeros((ci, n * h * w + (kh - 1) * w + kw - 1)) if need_gx else None
    for b in _conv_blocks(n):
        gb = g[b].transpose(1, 0, 2, 3)
        part = gb.reshape(co, -1) @ _im2col(x[b], kh, kw).T
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
    if need_gx:
        gx = gx[:, : n * h * w].reshape(ci, n, h, w).transpose(1, 0, 2, 3)
    return gx, gk.reshape(k.shape)


def _softmax(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def _evaluate(op, values, extra):
    if op == "matmul":
        a, b = values
        if a.shape[1] != b.shape[0]:
            raise AlignmentError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
        return a @ b
    if op == "add":
        a, b = values
        if a.shape != b.shape:
            raise AlignmentError(f"add shapes differ: {a.shape} vs {b.shape}")
        return a + b
    if op == "mul":
        a, b = values
        if a.shape != b.shape:
            raise AlignmentError(f"mul shapes differ: {a.shape} vs {b.shape}")
        return a * b
    if op == "relu":
        return np.maximum(values[0], 0.0)
    if op == "flatten":
        x = values[0]
        return x.reshape(x.shape[0], -1)
    if op == "conv2d":
        return _conv2d_forward(*values)
    if op == SOFTMAX_XENT:
        z = values[0]
        labels = extra
        m = z.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
        per_sample = lse - z[np.arange(z.shape[0]), labels]
        return np.float64(per_sample.mean())
    if op == SQUARED_ERROR:
        z = values[0]
        targets = extra
        per_sample = 0.5 * ((z - targets) ** 2).sum(axis=1)
        return np.float64(per_sample.mean())
    raise DomainError(f"unknown primitive {op!r}")


def backward(tape):
    """Run the single backward sweep and return per-layer flat gradients.

    The returned list mirrors the layer order of the forward pass; each entry
    is a 1-D float64 array with the same length as that layer's flat weights.
    Only nodes that lead to a weight leaf receive a gradient, and each node's
    gradient is released as soon as the sweep has passed it on.
    """
    if tape.consumed:
        raise TapeReuseError("tape already consumed by a previous backward pass")
    tape.consumed = True
    nodes = tape.nodes
    grads = [None] * len(nodes)
    grads[-1] = np.float64(1.0)

    for i in range(len(nodes) - 1, -1, -1):
        node, g = nodes[i], grads[i]
        if g is None or node.op == "leaf":
            continue
        grads[i] = None
        ins = node.inputs
        a = nodes[ins[0]]
        b = nodes[ins[1]] if len(ins) > 1 else None
        if node.op == "matmul":
            if a.needs_grad:
                _accumulate(grads, ins[0], g @ b.value.T)
            if b.needs_grad:
                _accumulate(grads, ins[1], a.value.T @ g)
        elif node.op == "add":
            if a.needs_grad:
                _accumulate(grads, ins[0], g)
            if b.needs_grad:
                _accumulate(grads, ins[1], g)
        elif node.op == "mul":
            if a.needs_grad:
                _accumulate(grads, ins[0], g * b.value)
            if b.needs_grad:
                _accumulate(grads, ins[1], g * a.value)
        elif node.op == "relu":
            _accumulate(grads, ins[0], g * (a.value > 0))
        elif node.op == "flatten":
            _accumulate(grads, ins[0], g.reshape(a.value.shape))
        elif node.op == "conv2d":
            gx, gk = _conv2d_backward(a.value, b.value, g, a.needs_grad)
            if a.needs_grad:
                _accumulate(grads, ins[0], gx)
            if b.needs_grad:
                _accumulate(grads, ins[1], gk)
        elif node.op == SOFTMAX_XENT:
            z = a.value
            p = _softmax(z)
            p[np.arange(z.shape[0]), node.extra] -= 1.0
            _accumulate(grads, ins[0], (float(g) / z.shape[0]) * p)
        elif node.op == SQUARED_ERROR:
            z = a.value
            _accumulate(grads, ins[0], (float(g) / z.shape[0]) * (z - node.extra))
        else:  # pragma: no cover
            raise DomainError(f"unknown primitive {node.op!r}")

    out = []
    for wid in tape.weight_ids:
        g = grads[wid]
        if g is None:
            g = np.zeros_like(nodes[wid].value)
        out.append(np.asarray(g, dtype=np.float64).reshape(-1).copy())
    return out


def _accumulate(grads, i, g):
    if grads[i] is None:
        grads[i] = g
    else:
        grads[i] = grads[i] + g


def _check_alignment(params, mask):
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


def _record_network(tape, params, mask, samples, sample_shape):
    """Record the full masked forward pass; returns the logits node id."""
    specs = params.specs
    n = samples.shape[0]
    if specs[0].kind == "conv":
        if sample_shape is None or len(sample_shape) != 3:
            raise AlignmentError("a conv-first network needs a (channels, h, w) sample_shape")
        if int(np.prod(sample_shape)) != samples.shape[1]:
            raise AlignmentError(
                f"sample_shape {sample_shape} does not cover {samples.shape[1]} features"
            )
        if sample_shape[0] != specs[0].fan_in:
            raise AlignmentError(
                f"input has {sample_shape[0]} channels, first conv expects {specs[0].fan_in}"
            )
        h = tape.leaf(samples.reshape(n, *sample_shape))
    else:
        if samples.shape[1] != specs[0].fan_in:
            raise AlignmentError(
                f"input has {samples.shape[1]} features, first layer expects {specs[0].fan_in}"
            )
        h = tape.leaf(samples)

    for i, spec in enumerate(specs):
        shape = _layer_shape(spec)
        wid = tape.leaf(params.weights[i].reshape(shape), needs_grad=True)
        cid = tape.leaf(mask.layers[i].reshape(shape))
        tape.weight_ids.append(wid)
        eff = tape.apply("mul", wid, cid)
        if spec.kind == "dense":
            if tape.nodes[h].value.ndim == 4:
                h = tape.apply("flatten", h)
            if tape.nodes[h].value.shape[1] != spec.fan_in:
                raise AlignmentError(
                    f"layer {i}: dense expects {spec.fan_in} inputs, "
                    f"got {tape.nodes[h].value.shape[1]}"
                )
            h = tape.apply("matmul", h, eff)
        else:
            h = tape.apply("conv2d", h, eff)
        if not spec.is_output:
            h = tape.apply("relu", h)
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
    _check_alignment(params, mask)
    tape = ComputationTape()
    out = _record_network(tape, params, mask, samples, sample_shape)
    return tape.nodes[out].value


def forward_loss(params, mask, samples, labels, *, sample_shape=None, head=SOFTMAX_XENT):
    """Masked batch-mean loss; returns (loss, tape) with the tape ready for backward."""
    if head not in HEADS:
        raise DomainError(f"unknown loss head {head!r}")
    samples, labels = _as_batch(samples, labels)
    _check_alignment(params, mask)
    classes = params.specs[-1].fan_out

    tape = ComputationTape()
    logits = _record_network(tape, params, mask, samples, sample_shape)
    if head == SOFTMAX_XENT:
        labels = labels.astype(np.int64)
        if labels.min() < 0 or labels.max() >= classes:
            raise DomainError(f"labels must lie in [0, {classes})")
        out = tape.apply(SOFTMAX_XENT, logits, extra=labels)
    else:
        if classes > 1:
            targets = np.zeros((samples.shape[0], classes))
            idx = labels.astype(np.int64)
            if idx.min() < 0 or idx.max() >= classes:
                raise DomainError(f"labels must lie in [0, {classes})")
            targets[np.arange(samples.shape[0]), idx] = 1.0
        else:
            targets = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        out = tape.apply(SQUARED_ERROR, logits, extra=targets)
    loss = float(tape.nodes[out].value)
    if not np.isfinite(loss):
        raise NumericsError("forward pass produced a non-finite loss")
    return loss, tape


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

    _, tape_p = forward_loss(
        params.with_weights(plus), mask, samples, labels, sample_shape=sample_shape, head=head
    )
    gp = backward(tape_p)
    _, tape_m = forward_loss(
        params.with_weights(minus), mask, samples, labels, sample_shape=sample_shape, head=head
    )
    gm = backward(tape_m)
    return [(a - b) / (2.0 * epsilon) for a, b in zip(gp, gm)]
