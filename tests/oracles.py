"""Finite-difference oracles for the engine's gradients and Hessian-vector products.

They share no code path with the engine's reverse or tangent passes: each
one only calls `forward_loss` (and, for the Hessian-vector product,
`backward`) at perturbed weights.
"""

import numpy as np

from prunelab.engine import SOFTMAX_XENT, backward, forward_loss
from prunelab.errors import DomainError, NumericsError


def finite_diff_gradient(loss_fn, weights, epsilon):
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


def finite_diff_hvp(
    params, mask, samples, labels, v, epsilon, *, sample_shape=None, head=SOFTMAX_XENT
):
    """Hv by central differences of gradients: (g(w + eps v) - g(w - eps v)) / (2 eps)."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")

    def grad_at(sign):
        moved = params.with_weights([w + sign * epsilon * vl for w, vl in zip(params.weights, v)])
        _, fp = forward_loss(moved, mask, samples, labels, sample_shape=sample_shape, head=head)
        return backward(fp)

    return [(a - b) / (2.0 * epsilon) for a, b in zip(grad_at(1.0), grad_at(-1.0))]


def relu_flips(params, mask, samples, labels, v, epsilon, *, sample_shape=None):
    """How many hidden ReLUs change sign between the oracle's plus and minus passes."""
    def pattern(sign):
        moved = params.with_weights([w + sign * epsilon * vl for w, vl in zip(params.weights, v)])
        _, fp = forward_loss(moved, mask, samples, labels, sample_shape=sample_shape)
        return [layer[0] > 0 for layer in fp.layers[1:]]

    return sum(int(np.sum(a != b)) for a, b in zip(pattern(1.0), pattern(-1.0)))
