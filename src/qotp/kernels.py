"""Batched Monte-Carlo photon pipeline.

The per-photon channel simulation (prepare, encode, optional attack, measure)
runs here for sessions and the large-sample statistical checks.  The receiver
holds the sender's pad, so it measures each photon in its preparation basis:
``cell_probabilities`` applies that rule to the attack's exact ``law()`` (see
``adversary``), giving P(receiver outcome, Eve's record) per cell
``2 * state + encoding``.  Simulating a photon is one inverse-CDF lookup in
its cell's row with one uniform, the only randomness, supplied by the caller.
Sweeps draw each point's histogram from the same table.

All states reachable in this protocol have real amplitudes, so the laws are
built from the signed float64 amplitude tables below with the elementwise
``_overlap``, which gives every impossible event an exact 0.  The tests check
every law entry against an independent complex state-vector oracle, which
ships with the tests and not with the package.
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np


class Basis(Enum):
    """The two measuring bases for a single photon."""

    PLUS = "plus"
    CROSS = "cross"

    @property
    def index(self) -> int:
        """The basis as the kernel codes it: 0 plus, 1 cross."""
        return 0 if self is Basis.PLUS else 1


_R = np.sqrt(0.5)

# EIG_TABLE[basis, eigenstate_label, component]
EIG_TABLE = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[_R, _R], [_R, -_R]],
    ]
)

# ENC_TABLE[state_index, encoding_bit, component]; state order H, V, u, d.
# The swap encoding maps H -> -V, V -> H, u -> d, d -> -u (signs are global
# phases but kept exact).
_STATES = np.array([[1.0, 0.0], [0.0, 1.0], [_R, _R], [_R, -_R]])
_U1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
ENC_TABLE = np.stack([_STATES, _STATES @ _U1.T], axis=1)

# Preparation basis and in-basis eigenstate label per state index.
PREP_BASIS_OF_STATE = np.array([0, 0, 1, 1], dtype=np.int64)
PREP_LABEL_OF_STATE = np.array([0, 1, 0, 1], dtype=np.int64)


def _overlap(u, v):
    """Real inner product over the last (component) axis, broadcasting the rest."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def born(vec):
    """P[..., basis, outcome] of real amplitude vectors ``vec[..., component]``
    measured in each basis.  An orthogonal pair gives an exact 0."""
    amp = _overlap(EIG_TABLE, vec[..., None, None, :])
    return amp * amp


def index_column(name: str, values, hi: int) -> np.ndarray:
    """``values`` as an int64 column checked to lie in 0..hi.  Only integer or
    boolean input is accepted: a float would be truncated to a wrong cell."""
    column = np.asarray(values)
    if column.dtype.kind not in "biu":
        raise ValueError(f"{name} must hold integers, got dtype {column.dtype}")
    column = np.ascontiguousarray(column, dtype=np.int64)
    # a negative int64 reads as a huge uint64, so one max checks both ends
    if column.size and column.view(np.uint64).max() > hi:
        raise ValueError(
            f"{name} must lie in 0..{hi}, got values in {column.min()}..{column.max()}"
        )
    return column


@functools.lru_cache(maxsize=64)
def law_of(attack) -> np.ndarray:
    """``attack.law()``, built once per attack and read-only: the kernel's
    tables and the posterior tables of a transcript share it."""
    law = attack.law()
    law.flags.writeable = False
    return law


def cell_probabilities(attack) -> np.ndarray:
    """Exact law P[state, encoding, receiver outcome, record] of one photon,
    with a uniformly random pad and bit and the receiver measuring in the
    preparation basis: that slice of ``attack.law()``, divided by 8."""
    return law_of(attack)[np.arange(4), :, PREP_BASIS_OF_STATE] / 8.0


@functools.lru_cache(maxsize=64)
def _pair_tables(attack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative edges [edge, cell] of each cell's row of
    ``cell_probabilities(attack)`` over (outcome, record) pairs, and each
    pair's outcome and record (-1 if the law has one record value).  Dividing
    by the row total makes the implicit last edge exactly 1, and an
    impossible pair repeats the edge before it."""
    probabilities = cell_probabilities(attack)
    n_records = probabilities.shape[-1]
    cdf = np.cumsum(probabilities.reshape(8, -1), axis=1)
    pair = np.arange(cdf.shape[1])
    record = pair % n_records if n_records > 1 else np.full(pair.size, -1)
    edges = np.ascontiguousarray((cdf[:, :-1] / cdf[:, -1:]).T)
    tables = edges, (pair // n_records).astype(np.uint8), record.astype(np.int8)
    for table in tables:  # the cache hands the same arrays to every call
        table.flags.writeable = False
    return tables


def simulate_photons(
    state_idx: np.ndarray,
    enc_bits: np.ndarray,
    attack,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate n independent photons through the channel, each measured in
    its preparation basis.

    Args:
        state_idx: (n,) prepared-state indices, 0..3 = H, V, u, d.
        enc_bits: (n,) modified-message bits written with the swap encoding.
        attack: the channel adversary, an ``adversary.AttackModel``.
        uniforms: (n,) uniform draws in [0, 1), one per photon.

    Returns:
        (bob_outcome uint8, record int8): Eve's record per photon, coded as
        the last axis of the attack's ``law``, -1 where there is none.
    """
    state_idx = index_column("state_idx", state_idx, 3)
    enc_bits = index_column("enc_bits", enc_bits, 1)
    n = state_idx.shape[0]
    if enc_bits.shape[0] != n:
        raise ValueError("state_idx and enc_bits must have equal length")
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    if uniforms.shape != (n,):
        raise ValueError(f"uniforms must have shape ({n},)")
    edges, outcome_of_pair, record_of_pair = _pair_tables(attack)
    # the pair whose interval in its cell's row holds each photon's uniform
    cell = 2 * state_idx + enc_bits
    pair = (uniforms >= edges.take(cell, axis=1)).sum(axis=0)
    return outcome_of_pair.take(pair), record_of_pair.take(pair)
