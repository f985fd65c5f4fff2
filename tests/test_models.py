"""Layer specs, network construction, presets, accuracy."""

import dataclasses
import math

import numpy as np
import pytest

from prunelab.data import Dataset
from prunelab.engine import forward_loss
from prunelab.errors import AlignmentError, DomainError
from prunelab.harness import ExperimentConfig
from prunelab.models import (
    ArchFamily,
    LayerSpec,
    LayeredParams,
    accuracy,
    build_network,
    layer_sizes,
    preset_specs,
    record,
    validate_specs,
)
from prunelab.pipelines import TrainConfig
from prunelab.pruning import full_mask
from test_data import assert_read_only


def test_layer_spec_weight_counts():
    assert LayerSpec("dense", 64, 16).weight_count == 1024
    assert LayerSpec("conv", 1, 4, kernel=(3, 3)).weight_count == 36


def test_layer_spec_validation():
    with pytest.raises(DomainError):
        LayerSpec("pool", 4, 4)
    with pytest.raises(DomainError):
        LayerSpec("dense", 0, 4)
    with pytest.raises(DomainError):
        LayerSpec("dense", 4, -1)
    with pytest.raises(DomainError):
        LayerSpec("conv", 1, 4)  # conv needs a kernel
    with pytest.raises(DomainError):
        LayerSpec("dense", 4, 4, kernel=(3, 3))
    with pytest.raises(DomainError):
        LayerSpec("conv", 1, 4, kernel=(0, 3))


def test_validate_specs_requires_trailing_output():
    good = (LayerSpec("dense", 4, 4), LayerSpec("dense", 4, 2, is_output=True))
    validate_specs(good)
    with pytest.raises(DomainError):
        validate_specs((LayerSpec("dense", 4, 4), LayerSpec("dense", 4, 2)))
    with pytest.raises(DomainError):
        validate_specs(
            (LayerSpec("dense", 4, 4, is_output=True), LayerSpec("dense", 4, 2, is_output=True))
        )
    with pytest.raises(DomainError):
        validate_specs(())


def test_layer_sizes_mixed_stack():
    specs = (
        LayerSpec("conv", 1, 4, kernel=(3, 3)),
        LayerSpec("dense", 64, 16),
        LayerSpec("dense", 16, 3, is_output=True),
    )
    assert layer_sizes(specs) == [36, 1024, 48]


def test_layered_params_alignment_checks():
    specs = (LayerSpec("dense", 2, 2), LayerSpec("dense", 2, 1, is_output=True))
    LayeredParams(specs, (np.zeros(4), np.zeros(2)))
    with pytest.raises(AlignmentError):
        LayeredParams(specs, (np.zeros(4),))
    with pytest.raises(AlignmentError):
        LayeredParams(specs, (np.zeros(3), np.zeros(2)))


def test_layered_params_hold_read_only_weights_and_keep_the_callers_flags():
    specs = (LayerSpec("dense", 2, 2), LayerSpec("dense", 2, 1, is_output=True))
    given = (np.arange(4.0).reshape(2, 2), np.array([5, 6]))
    params = LayeredParams(specs, given)
    assert_read_only(*params.weights)
    assert all(a.flags.writeable for a in given)
    assert np.array_equal(given[0], [[0.0, 1.0], [2.0, 3.0]]) and np.array_equal(given[1], [5, 6])
    assert [w.tolist() for w in params.weights] == [[0.0, 1.0, 2.0, 3.0], [5.0, 6.0]]
    assert_read_only(*params.with_weights(given).weights, *build_network(specs, 0).weights)


def test_build_network_is_seed_deterministic():
    specs = preset_specs("mlp-4", (16,), 3)
    a = build_network(specs, seed=5)
    b = build_network(specs, seed=5)
    c = build_network(specs, seed=6)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_build_network_requires_two_layers():
    with pytest.raises(DomainError):
        build_network((LayerSpec("dense", 4, 2, is_output=True),), seed=0)


def test_kaiming_scale_dense_fan_in_50():
    specs = (
        LayerSpec("dense", 50, 200),
        LayerSpec("dense", 200, 2, is_output=True),
    )
    params = build_network(specs, seed=0)
    std = float(np.std(params.weights[0]))
    target = np.sqrt(2.0 / 50.0)
    assert abs(std - target) / target < 0.05


def test_kaiming_scale_conv_uses_kernel_area():
    specs = (
        LayerSpec("conv", 2, 500, kernel=(3, 3)),
        LayerSpec("dense", 500, 2, is_output=True),
    )
    params = build_network(specs, seed=1)
    std = float(np.std(params.weights[0]))
    target = np.sqrt(2.0 / (2 * 9))
    assert abs(std - target) / target < 0.05


def test_accuracy_batching_is_invisible():
    cases = (("mlp-4", (4,), 40), ("conv-5", (1, 8, 8), 80), ("conv-5", (1, 8, 8), 130))
    for preset, shape, n in cases:
        specs = preset_specs(preset, shape, 3)
        params = build_network(specs, seed=2)
        mask = full_mask(layer_sizes(specs))
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(n, math.prod(shape))), rng.integers(0, 3, n), 3, shape)
        want = accuracy(params, mask, data, batch_size=512)
        assert accuracy(params, mask, data, batch_size=7) == want
        # evaluation refills the conv patch buffers of a spent SGD step's pass
        x, y, image = data.samples[:64], data.labels[:64], data.sample_shape
        _, first = forward_loss(params, mask, x, y, sample_shape=image)
        _, spent = forward_loss(params, mask, x, y, sample_shape=image, reuse=first)
        for batch_size in (7, 512):
            assert accuracy(params, mask, data, batch_size=batch_size, reuse=spent) == want


def test_mlp4_preset_shape():
    specs = preset_specs("mlp-4", (16,), 5)
    assert len(specs) == 4
    assert all(s.kind == "dense" for s in specs)
    assert specs[0].fan_in == 16
    assert specs[-1].is_output and specs[-1].fan_out == 5
    widths = [s.fan_out for s in specs[:-1]]
    assert widths == sorted(widths)  # widths expand toward the output


def test_conv5_preset_shape():
    specs = preset_specs("conv-5", (1, 8, 8), 3)
    assert [s.kind for s in specs] == ["conv", "conv", "conv", "dense", "dense"]
    assert specs[3].fan_in == 8 * 2 * 2
    assert specs[-1].is_output


def test_conv5_preset_accepts_2d_shape_and_rejects_small_input():
    specs = preset_specs("conv-5", (9, 9), 3)
    assert specs[0].fan_in == 1
    with pytest.raises(DomainError):
        preset_specs("conv-5", (1, 6, 6), 3)
    with pytest.raises(DomainError):
        preset_specs("conv-5", (16,), 3)


def test_preset_rejects_unknown_name_and_class_count():
    with pytest.raises(DomainError):
        preset_specs("vit-7", (16,), 3)
    with pytest.raises(DomainError):
        preset_specs("mlp-4", (16,), 1)


def test_arch_family_names():
    assert ArchFamily("plain") is ArchFamily.PLAIN
    assert ArchFamily("fast-decay") is ArchFamily.FAST_DECAY


@pytest.mark.parametrize("dims", [
    {"fan_in": 2.0, "fan_out": 3}, {"fan_in": 2, "fan_out": True}, {"fan_in": "2", "fan_out": 3},
    {"fan_in": 2, "fan_out": 3, "kernel": (3, 1.5)},
])
def test_layer_spec_refuses_dimensions_that_are_not_integers(dims):
    kind = "conv" if "kernel" in dims else "dense"
    with pytest.raises(DomainError, match="must be integers"):
        LayerSpec(kind, **dims)


def test_layer_spec_shape_is_the_weight_layout():
    conv = LayerSpec("conv", 2, 5, kernel=[3, 4])
    assert conv.kernel == (3, 4) and hash(conv) == hash(LayerSpec("conv", 2, 5, kernel=(3, 4)))
    assert conv.shape == (5, 2, 3, 4) and conv.weight_count == 120
    dense = LayerSpec("dense", 6, 7)
    assert dense.shape == (6, 7) and dense.weight_count == 42


def test_build_network_draws_at_the_fan_in_of_each_layer():
    specs = (LayerSpec("conv", 2, 5, kernel=(3, 3)), LayerSpec("dense", 20, 400, is_output=True))
    params = build_network(specs, seed=4)
    for spec, w, fan_in in zip(specs, params.weights, (2 * 3 * 3, 20)):
        assert abs(w.std() / math.sqrt(2.0 / fan_in) - 1.0) < 0.15, spec


@pytest.mark.parametrize("obj", [
    LayerSpec("conv", 1, 4, kernel=[3, 3]),
    LayerSpec("dense", 16, 3, is_output=True),
    TrainConfig(epochs=2, lr_drop_points=[0.25, 0.5]),
    ExperimentConfig("mlp-4", {"kind": "synthetic-blobs", "n": 60}, [{"kind": "snip"}],
                     [0.5, 0.9], [0, 3], checks=["none", "rearrange"]),
], ids=["conv-spec", "dense-spec", "train-config", "experiment-config"])
def test_record_is_the_field_by_field_dict_in_field_order(obj):
    want = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        want[f.name] = list(value) if isinstance(value, tuple) else value
    got = record(obj)
    assert got == want and list(got) == list(want)
    # shallow: the values themselves, not copies of them
    assert all(got[k] is v for k, v in want.items() if not isinstance(v, list))
