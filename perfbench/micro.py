"""Engine microbenchmark through prunelab's public API only.

Forward (`forward_loss`) and backward (`backward`) microseconds for each
layer of each preset, and for the whole preset, at the training batch (64)
and the scoring batch (128).  A dense layer is timed as a one-layer network.
A conv layer is timed as that conv plus a 2-class dense head, minus the head
alone.  Each figure is the median of repeated calls.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

BATCHES = (64, 128)


def _net(pl, specs, rng):
    weights = [rng.normal(0.0, 1.0 / math.sqrt(s.weight_count / s.fan_out), s.weight_count)
               for s in specs]
    params = pl.LayeredParams(tuple(specs), tuple(weights))
    return params, pl.full_mask([s.weight_count for s in specs])


def _time(pl, params, mask, x, y, sample_shape, min_seconds):
    """Median forward and backward microseconds over repeated calls."""
    fwd, bwd = [], []
    clock = time.perf_counter_ns
    spent = 0
    while len(fwd) < 5 or (spent < min_seconds * 1e9 and len(fwd) < 400):
        t0 = clock()
        _, tape = pl.forward_loss(params, mask, x, y, sample_shape=sample_shape)
        t1 = clock()
        pl.backward(tape)
        t2 = clock()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
        spent += t2 - t0
    return statistics.median(fwd) / 1e3, statistics.median(bwd) / 1e3


def preset_micro(pl, preset, sample_shape, classes, *, min_seconds=0.05, seed=0):
    """{metric name: microseconds} for one preset at `sample_shape`."""
    rng = np.random.default_rng(seed)
    specs = pl.preset_specs(preset, sample_shape, classes)
    Spec = pl.LayerSpec
    out = {}
    for b in BATCHES:
        def batch(shape, n_classes):
            return rng.normal(size=(b, int(np.prod(shape)))), rng.integers(0, n_classes, b)

        def record(label, fwd_bwd):
            out[f"engine.fwd_us.{preset}.{label}.b{b}"] = fwd_bwd[0]
            out[f"engine.bwd_us.{preset}.{label}.b{b}"] = fwd_bwd[1]

        shape = tuple(sample_shape)
        for i, spec in enumerate(specs):
            if spec.kind == "dense":
                one = Spec("dense", spec.fan_in, spec.fan_out, is_output=True)
                x, y = batch((spec.fan_in,), spec.fan_out)
                record(f"L{i}", _time(pl, *_net(pl, [one], rng), x, y, None, min_seconds))
                shape = (spec.fan_out,)
                continue
            kh, kw = spec.kernel
            out_shape = (spec.fan_out, shape[1] - kh + 1, shape[2] - kw + 1)
            flat = int(np.prod(out_shape))
            head = Spec("dense", flat, 2, is_output=True)
            x, y = batch(shape, 2)
            conv = Spec("conv", spec.fan_in, spec.fan_out, kernel=spec.kernel)
            both = _time(pl, *_net(pl, [conv, head], rng), x, y, shape, min_seconds)
            xh, _ = batch(out_shape, 2)
            alone = _time(pl, *_net(pl, [head], rng), xh, y, None, min_seconds)
            record(f"L{i}", (both[0] - alone[0], both[1] - alone[1]))
            shape = out_shape
        x, y = batch(sample_shape, classes)
        whole = tuple(sample_shape) if specs[0].kind == "conv" else None
        record("net", _time(pl, *_net(pl, specs, rng), x, y, whole, min_seconds))
    return out
