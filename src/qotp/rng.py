"""Seeding utilities.

Every stochastic operation in this package takes an explicit numpy
``Generator`` (the "random stream"), so a run is fully determined by its
seeds.  Each stream a run creates (the sessions, the pad, the messages, a
sweep) is seeded from the top-level seed by its role with ``role_seed``; a
stream serves its whole role, one row after another.
"""

from __future__ import annotations

import numpy as np

from .kernels import INT64_MIN, index_value

RandomStream = np.random.Generator

_MASK64 = (1 << 64) - 1

# stream roles under the top-level seed
ROLE_SESSION, ROLE_PAD, ROLE_MESSAGE, ROLE_SWEEP = 0, 1, 2, 3


def make_rng(seed: int) -> np.random.Generator:
    """Create the package-standard random stream for a seed."""
    return np.random.default_rng(seed)


def role_seed(seed: int, role: int) -> int:
    """Seed of the ``role`` stream under a top-level seed.

    Derived as ``SeedSequence(seed, spawn_key=(role, 0))``, so streams of
    different roles are independent, and no role can land on another role's
    stream.  ``seed`` must be a signed 64-bit integer (a negative
    one reads as its two's complement), so no seed aliases another's streams.
    """
    seed = index_value("seed", seed, INT64_MIN)
    # (role, 0), not (role,): every role stream keeps the bytes it had when roles took an index
    sequence = np.random.SeedSequence(seed & _MASK64, spawn_key=(role, 0))
    return int(sequence.generate_state(1, np.uint64)[0])
