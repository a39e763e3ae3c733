"""Seeding utilities.

Every stochastic operation in this package takes an explicit numpy
``Generator`` (the "random stream"), so a run is fully determined by its
seeds.  Each stream a run creates (a session, the pad, a message, a sweep
grid point) is seeded from the top-level seed by its (role, index) label with
``role_seed``.
"""

from __future__ import annotations

import numpy as np

RandomStream = np.random.Generator

_MASK64 = (1 << 64) - 1

# stream roles under the top-level seed
ROLE_SESSION, ROLE_PAD, ROLE_MESSAGE, ROLE_SWEEP = 0, 1, 2, 3


def make_rng(seed: int) -> np.random.Generator:
    """Create the package-standard random stream for a seed."""
    return np.random.default_rng(seed)


def role_seed(seed: int, role: int, index: int = 0) -> int:
    """Seed of stream ``index`` of ``role`` under a top-level seed.

    Derived as ``SeedSequence(seed, spawn_key=(role, index))``, so streams of
    different roles or indices are independent, and no role can land on
    another role's stream.
    """
    sequence = np.random.SeedSequence(seed & _MASK64, spawn_key=(role, index))
    return int(sequence.generate_state(1, np.uint64)[0])
