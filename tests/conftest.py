import numpy as np
import pytest
from hypothesis import settings

from prunelab.models import LayerSpec, build_network, layer_sizes
from prunelab.pruning import full_mask

# Tier-1 draws the same examples on every run and keeps no example database.
# The exploring profile draws fresh ones and prints a blob that reproduces a
# failure: pytest --hypothesis-profile=explore.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("deterministic")


@pytest.fixture
def tiny_specs():
    return (
        LayerSpec("dense", 3, 4),
        LayerSpec("dense", 4, 2, is_output=True),
    )


@pytest.fixture
def tiny_net(tiny_specs):
    params = build_network(tiny_specs, seed=0)
    return params, full_mask(layer_sizes(tiny_specs))


def random_batch(specs, n, seed, *, image_shape=None):
    """A batch matching the first layer's fan-in, int labels for the output."""
    rng = np.random.default_rng(seed)
    if image_shape is not None:
        x = rng.normal(size=(n, int(np.prod(image_shape))))
    else:
        x = rng.normal(size=(n, specs[0].fan_in))
    y = rng.integers(0, specs[-1].fan_out, size=n)
    return x, y
