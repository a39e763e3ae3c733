"""Seeding utilities.

Every stochastic operation in this package takes an explicit numpy
``Generator`` (the "random stream"), so a run is fully determined by its
seeds.  Sweeps over a parameter grid give each grid point an independent
stream derived as ``splitmix64(seed XOR index)``; the CLI derives the seed of
each stream it creates from a (role, index) label with ``role_seed``.
"""

from __future__ import annotations

import numpy as np

RandomStream = np.random.Generator

_MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Create the package-standard random stream for a seed."""
    return np.random.default_rng(seed)


def splitmix64(x: int) -> int:
    """One splitmix64 output step (Steele, Lea & Flood mixing constants)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_subseed(seed: int, index: int) -> int:
    """Sub-seed for grid point ``index``: splitmix64 of ``seed XOR index``.

    Points are statistically independent yet reproducible from the single
    top-level seed.
    """
    return splitmix64((seed & _MASK64) ^ (index & _MASK64))


def role_seed(seed: int, role: int, index: int = 0) -> int:
    """Seed of stream ``index`` of ``role`` under a top-level seed.

    Derived as ``SeedSequence(seed, spawn_key=(role, index))``, so streams of
    different roles or indices are independent, and no role can land on
    another role's stream.
    """
    sequence = np.random.SeedSequence(seed & _MASK64, spawn_key=(role, index))
    return int(sequence.generate_state(1, np.uint64)[0])
