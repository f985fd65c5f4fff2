"""Layered feed-forward architectures with flat per-layer weight storage.

Networks are stacks of bias-free dense and conv layers with ReLU between
hidden layers and raw logits at the output.  Weights live as flat float64
vectors per layer (row-major over the layer's `LayerSpec.shape`), which
keeps mask algebra and pruning criteria uniform across layer kinds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import engine, seeding
from .data import _is_int, _read_only
from .errors import AlignmentError, DomainError


class ArchFamily(enum.Enum):
    """Depth profile used by keep-ratio schedules."""

    PLAIN = "plain"
    FAST_DECAY = "fast-decay"


FAMILIES = tuple(f.value for f in ArchFamily)


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one layer (no weights); a kernel is kept as a tuple."""

    kind: str  # "dense" | "conv"
    fan_in: int
    fan_out: int
    kernel: tuple[int, int] | None = None
    is_output: bool = False

    def __post_init__(self):
        if self.kind not in ("dense", "conv"):
            raise DomainError(f"unknown layer kind {self.kind!r}")
        if self.kernel is not None:
            object.__setattr__(self, "kernel", tuple(self.kernel))
        dims = (self.fan_in, self.fan_out, *(self.kernel or ()))
        if not all(_is_int(d) for d in dims):
            raise DomainError(f"fan_in, fan_out and kernel dims must be integers, got {dims}")
        if self.fan_in < 1 or self.fan_out < 1:
            raise DomainError("fan_in and fan_out must be positive")
        if self.kind == "conv":
            if self.kernel is None or len(self.kernel) != 2:
                raise DomainError("conv layers need a (kh, kw) kernel")
            if min(self.kernel) < 1:
                raise DomainError("kernel dims must be positive")
        elif self.kernel is not None:
            raise DomainError("dense layers take no kernel")

    @property
    def shape(self) -> tuple[int, ...]:
        """The layer's natural weight shape: (out, in, kh, kw) for conv, (in, out) for dense."""
        if self.kind == "conv":
            return (self.fan_out, self.fan_in, *self.kernel)
        return (self.fan_in, self.fan_out)

    @property
    def weight_count(self) -> int:
        return math.prod(self.shape)


def record(obj) -> dict:
    """A frozen dataclass's fields as a dict, in field order, each tuple written as a list.

    One pass over `vars(obj)`, which holds exactly the fields in the order
    `__init__` set them.  The values are not copied: a deep copy costs
    about four times as much, and configs and layer specs are recorded for
    every ticket built.
    """
    return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(obj).items()}


def validate_specs(specs):
    if len(specs) == 0:
        raise DomainError("a network needs at least one layer")
    for s in specs[:-1]:
        if s.is_output:
            raise DomainError("only the last layer may be the output layer")
    if not specs[-1].is_output:
        raise DomainError("the last layer must be marked is_output")


@dataclass(frozen=True)
class LayeredParams:
    """Per-layer flat weight vectors plus their specs.

    Immutable: the weight vectors are read-only arrays, and every operation
    that changes weights returns a new instance via `with_weights`.
    """

    specs: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        flat = (np.asarray(w, dtype=np.float64).reshape(-1) for w in self.weights)
        object.__setattr__(self, "weights", tuple(map(_read_only, flat)))
        validate_specs(self.specs)
        if len(self.specs) != len(self.weights):
            raise AlignmentError(
                f"{len(self.specs)} specs but {len(self.weights)} weight vectors"
            )
        for i, (s, w) in enumerate(zip(self.specs, self.weights)):
            if w.size != s.weight_count:
                raise AlignmentError(
                    f"layer {i}: expected {s.weight_count} weights, got {w.size}"
                )

    def with_weights(self, new_weights):
        return LayeredParams(self.specs, tuple(new_weights))


def layer_sizes(obj) -> list[int]:
    """Per-layer weight counts for specs, params, or anything with .specs."""
    specs = obj if isinstance(obj, (tuple, list)) else obj.specs
    return [s.weight_count for s in specs]


def build_network(specs, seed) -> LayeredParams:
    """Fresh Kaiming-initialized network: std = sqrt(2 / effective fan-in)."""
    specs = tuple(specs)
    if len(specs) < 2:
        raise DomainError("build_network expects at least two layers")
    rng = seeding.stream(seed, seeding.INIT)
    weights = []
    for s in specs:
        std = math.sqrt(2.0 / (s.weight_count // s.fan_out))
        weights.append(rng.normal(0.0, std, s.weight_count))
    return LayeredParams(specs, tuple(weights))


def accuracy(params, mask, data, *, batch_size=512, reuse=None) -> float:
    """Fraction of `data` classified correctly, in [0, 1].

    `reuse` is a spent pass whose conv patch buffers each chunk's
    `engine.forward_logits` refills, as there.
    """
    n = data.samples.shape[0]
    correct = 0
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        logits = engine.forward_logits(
            params, mask, data.samples[sl], sample_shape=data.sample_shape, reuse=reuse
        )
        correct += int((np.argmax(logits, axis=1) == data.labels[sl]).sum())
    return correct / n


PRESET_NAMES = ("mlp-4", "conv-5")


def preset_specs(name, sample_shape=(16,), classes=3) -> tuple[LayerSpec, ...]:
    """Specs for the two reference stacks.

    mlp-4: four dense layers.  conv-5: three 3x3 conv layers then two dense
    layers; needs an image-shaped input of at least 7x7.
    """
    if classes < 2:
        raise DomainError("presets need at least two classes")
    if name == "mlp-4":
        d = int(np.prod(sample_shape))
        return (
            LayerSpec("dense", d, 24),
            LayerSpec("dense", 24, 48),
            LayerSpec("dense", 48, 96),
            LayerSpec("dense", 96, classes, is_output=True),
        )
    if name == "conv-5":
        shape = tuple(sample_shape)
        if len(shape) == 2:
            shape = (1, *shape)
        if len(shape) != 3:
            raise DomainError("conv-5 needs (channels, h, w) shaped samples")
        c, h, w = shape
        if h < 7 or w < 7:
            raise DomainError("conv-5 needs at least 7x7 spatial input")
        flat = 8 * (h - 6) * (w - 6)
        return (
            LayerSpec("conv", c, 4, kernel=(3, 3)),
            LayerSpec("conv", 4, 6, kernel=(3, 3)),
            LayerSpec("conv", 6, 8, kernel=(3, 3)),
            LayerSpec("dense", flat, 16),
            LayerSpec("dense", 16, classes, is_output=True),
        )
    raise DomainError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
