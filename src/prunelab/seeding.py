"""Deterministic RNG streams.

Every random draw in the package hangs off an integer experiment seed plus a
small stream tag, so independent concerns (weight init, batch order, score
batches, corruptions, ...) never share a generator.  Changing a tag value
invalidates stored reproducibility, so the constants below are frozen.
"""

import numbers

import numpy as np

from .errors import DomainError

INIT = 1
SCORE_BATCH = 2
RANDOM_MASK = 3
BATCH_SHUFFLE = 4
CHECK = 5
RETRAIN = 6
PRETRAIN = 7
IMP_ROUND = 8
BLOBS = 93


def _key(seed, tags):
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise DomainError(f"seed {seed!r} is not an integer; seeds are integers >= 0")
    if seed < 0:
        raise DomainError(f"seed {seed} is negative; seeds are integers >= 0")
    return [int(seed), *[int(t) for t in tags]]


def stream(seed, *tags):
    """Return a fresh Generator keyed by (seed, *tags); `seed` is an integer >= 0."""
    return np.random.default_rng(_key(seed, tags))


def combine(seed, *tags):
    """Collapse (seed, *tags) into one derived integer seed; `seed` is an integer >= 0."""
    ss = np.random.SeedSequence(_key(seed, tags))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
