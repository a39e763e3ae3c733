"""Batched Monte-Carlo photon pipeline.

The per-photon channel simulation (prepare, encode, optional attack, measure)
runs here for sessions and the large-sample statistical checks.  The receiver
holds the sender's pad, so it measures each photon in its preparation basis:
``prep_basis_cells`` states that rule.  Sweeps apply it to a grid's stacked
probe laws; ``cell_probabilities`` applies it to an attack's ``law()`` (see
``adversary``) for ``_pair_tables``, the one cache, so a law is built once per
stacked table.  A photon is one inverse-CDF lookup in its cell's row of
P(receiver outcome, Eve's record) with one uniform, supplied by the caller,
then one lookup each of its record and decoded bit, through its own attack.

All states reachable in this protocol have real amplitudes, so the laws are
built from the signed float64 amplitude tables below with the elementwise
``_overlap``, which gives every impossible event an exact 0.  The tests check
every law entry against an independent complex state-vector oracle, which
ships with the tests and not with the package.
"""

from __future__ import annotations

import functools
import operator
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
    """``values`` as a column of the narrowest unsigned type that holds hi,
    checked to lie in 0..hi.  Only integer or boolean input is accepted: a
    float would be truncated to a wrong cell.  An empty column holds no value
    to truncate, so it passes whatever its dtype (``[]`` is float64)."""
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "biu":
        raise ValueError(f"{name} must hold integers, got dtype {column.dtype}")
    if column.size and (column.max() > hi or column.min() < 0):
        raise ValueError(f"{name} must lie in 0..{hi}, "
                         f"got values in {column.min()}..{column.max()}")
    return np.ascontiguousarray(column, dtype=np.min_scalar_type(hi))


def real_array(name: str, values) -> np.ndarray:
    """``values`` as float64, refused unless numpy reads them as integers or
    floats: a cast would parse a string, read a bool as 0 or 1 and None as NaN."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)


def index_value(name: str, value) -> int:
    """``value`` as an int, so that a numpy integer serializes like any other;
    a float or a string, which a cast would truncate or parse, is refused, and
    so is a bool, which ``operator.index`` reads as 0 or 1."""
    try:
        if type(value) is bool:
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def read_number(convert, text: str):
    """``convert(text)``, for ``int`` or ``float``, of text in ASCII with no
    underscore: both would also read digit groups such as ``1_6`` and
    non-ASCII digits such as the Arabic-Indic ones, which no flag or pad
    file means."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return convert(text)


def prep_basis_cells(law: np.ndarray) -> np.ndarray:
    """P[..., state, encoding, receiver outcome, record] with a uniform pad and bit:
    a law's slice at each state's preparation basis over 8, laws stacked or not."""
    return law.swapaxes(-4, -3)[..., np.arange(4), PREP_BASIS_OF_STATE, :, :, :] / 8.0


def cell_probabilities(attack) -> np.ndarray:
    """``prep_basis_cells`` of ``attack.law()``."""
    return prep_basis_cells(attack.law())


@functools.lru_cache(maxsize=64)
def _pair_tables(attacks: tuple) -> tuple[np.ndarray, ...]:
    """The tables of ``attacks`` stacked, cell ``8 * k + 2 * state + encoding``
    being that cell of ``attacks[k]``: the cumulative edges [edge, cell] of
    each cell's row of ``cell_probabilities`` over (outcome, record) pairs,
    and the record (-1 for a one-record law) and decoded bit of each event
    ``n_pairs * cell + pair``.  Dividing by the row total makes the implicit
    last edge exactly 1, so no uniform passes it into the 1s that pad a row
    to the longest, and an impossible pair repeats the edge before."""
    rows = [cell_probabilities(attack).reshape(8, -1) for attack in attacks]
    pair = np.arange(max(row.shape[1] for row in rows))
    edges = np.ones((len(rows), 8, pair.size))
    record, decoded = np.empty((2, len(rows), 8, pair.size), dtype=np.int8)
    label = PREP_LABEL_OF_STATE[np.arange(8) // 2, None]
    for k, row in enumerate(rows):
        cdf = np.cumsum(row, axis=1)
        edges[k, :, : cdf.shape[1]] = cdf / cdf[:, -1:]
        n_records = row.shape[1] // 2
        record[k] = pair % n_records if n_records > 1 else -1
        decoded[k] = np.minimum(pair // n_records, 1) != label
    tables = (edges.reshape(-1, pair.size)[:, :-1].T.copy(), record.ravel(),
              decoded.view(np.uint8).ravel())
    for table in tables:  # the cache hands the same arrays to every call
        table.flags.writeable = False
    return tables


def simulate_photons(state_idx, enc_bits, attacks, uniforms, attack_idx) -> tuple:
    """Simulate n independent photons through the channel, each measured in
    its preparation basis.

    Args:
        state_idx: (n,) prepared-state indices, 0..3 = H, V, u, d.
        enc_bits: (n,) modified-message bits written with the swap encoding.
        attacks: tuple of the channel adversaries, ``adversary.AttackModel``s.
        uniforms: (n,) uniform draws in [0, 1), one per photon.
        attack_idx: (n,) each photon's adversary in ``attacks``.

    Returns:
        (record int8, decoded uint8): Eve's record per photon, coded as the
        last axis of its attack's ``law``, -1 where there is none; the decoded
        bit is 1 where the receiver's outcome is not the label of the prepared
        state, so that outcome is the decoded bit XOR the label.
    """
    state_idx = index_column("state_idx", state_idx, 3)
    enc_bits = index_column("enc_bits", enc_bits, 1)
    attack_idx = index_column("attack_idx", attack_idx, len(attacks) - 1)
    n = state_idx.shape[0]
    if enc_bits.shape[0] != n or attack_idx.shape != (n,):
        raise ValueError("state_idx, enc_bits and attack_idx must have equal length")
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    if uniforms.shape != (n,):
        raise ValueError(f"uniforms must have shape ({n},)")
    edges, *by_event = _pair_tables(attacks)
    cell = 8 * attack_idx.astype(np.intp) + (2 * state_idx + enc_bits)
    # the pair whose interval in its cell's row holds each photon's uniform
    event = (uniforms >= edges.take(cell, axis=1)).sum(axis=0) + (edges.shape[0] + 1) * cell
    return tuple(table.take(event) for table in by_event)
