"""Batched Monte-Carlo photon pipeline.

The per-photon channel simulation (prepare, encode, optional attack, measure)
runs here for sessions, sweeps and the large-sample statistical checks.  Every
photon is one of 4 prepared states, carries one of 2 encodings and is measured
in one of 2 bases, so every probability the channel needs is an entry of a
small exact table indexed by the cell ``4 * state + 2 * encoding + basis``;
simulating a photon is a gather and a compare.  All states reachable in this
protocol have real amplitudes, so the tables are built from signed float64
amplitudes.  The tests check every table entry against an independent complex
state-vector oracle, which ships with the tests and not with the package.

An attack reaches the kernel as one ``ChannelSpec``.  Randomness enters only
through a ``uniforms`` array of shape (n, 3) with fixed column roles
(0: adversary basis choice, 1: adversary outcome/probe draw, 2: receiver
outcome draw), supplied by the caller or drawn from its rng.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

ATTACK_NONE = 0
ATTACK_IR = 1
ATTACK_UTB = 2

BASIS_PLUS = 0
BASIS_CROSS = 1


class Basis(Enum):
    """The two measuring bases for a single photon."""

    PLUS = "plus"
    CROSS = "cross"

    @property
    def index(self) -> int:
        """The basis as the kernel codes it: BASIS_PLUS or BASIS_CROSS."""
        return BASIS_PLUS if self is Basis.PLUS else BASIS_CROSS


class ChannelSpec(NamedTuple):
    """An attack as the kernel runs it.  ``attack_basis`` is the adversary's
    fixed basis, or None for intercept-resend to draw it per photon from
    uniform column 0; ``description`` is for the transcript only."""

    kind: int
    attack_basis: int | None
    theta: float
    description: dict


CLEAN = ChannelSpec(ATTACK_NONE, None, 0.0, {"kind": "none"})

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


def _outcome_one_prob(vec):
    """P(outcome 1)[..., basis] of real amplitude vectors ``vec[..., component]``
    measured in each basis."""
    amp1 = _overlap(EIG_TABLE[:, 1], vec[..., None, :])
    return amp1 * amp1


# CLEAN_P1[cell]: P(outcome 1) of each encoded state measured in each basis,
# cell = 4 * state + 2 * encoding + basis.  Indexed by the adversary's basis
# instead of the receiver's, it is the intercept-resend outcome table too.
CLEAN_P1 = _outcome_one_prob(ENC_TABLE).reshape(16)

# FORWARD_P1[4 * eve_basis + 2 * eve_outcome + basis]: P(outcome 1) of the
# eigenstate intercept-resend forwards, measured in the receiver's basis.
FORWARD_P1 = _outcome_one_prob(EIG_TABLE).reshape(8)


def probe_tables(theta: float, attack_basis: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact tables of the probe attack at angle ``theta`` in ``attack_basis``.

    Returns ``(p1, pp1)``: ``p1[cell]`` is P(receiver outcome 1) and
    ``pp1[2 * cell + outcome]`` is P(probe outcome 1 | receiver outcome).  An
    outcome of probability 0 gets probe probability 0.
    """
    if attack_basis not in (BASIS_PLUS, BASIS_CROSS):
        raise ValueError(f"unknown attack basis {attack_basis}")
    ct = float(np.cos(theta))
    st = float(np.sin(theta))
    xi, xibar = EIG_TABLE[attack_basis]
    # components of the encoded state along xi and xibar, [state, encoding, 1]
    v = ENC_TABLE[:, :, None, :]
    a = _overlap(xi, v)
    b = _overlap(xibar, v)
    # overlaps of each receiver eigenstate with xi and xibar, [receiver basis]
    e0 = EIG_TABLE[:, 0]
    e1 = EIG_TABLE[:, 1]
    xi_m0, xi_m1 = _overlap(e0, xi), _overlap(e1, xi)
    xb_m0, xb_m1 = _overlap(e0, xibar), _overlap(e1, xibar)
    # joint amplitudes [receiver outcome, probe outcome]
    a00 = a * xi_m0 + b * ct * xb_m0
    a01 = b * st * xi_m0
    a10 = a * xi_m1 + b * ct * xb_m1
    a11 = b * st * xi_m1
    p1 = a10 * a10 + a11 * a11
    num = np.stack([a01 * a01, a11 * a11], axis=-1)
    den = np.stack([a00 * a00 + a01 * a01, p1], axis=-1)
    pp1 = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return p1.reshape(16), pp1.reshape(32)


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


def simulate_photons(
    state_idx: np.ndarray,
    enc_bits: np.ndarray,
    meas_basis: np.ndarray,
    spec: ChannelSpec = CLEAN,
    uniforms: np.ndarray | None = None,
    rng=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate n independent photons through the channel.

    Args:
        state_idx: (n,) prepared-state indices, 0..3 = H, V, u, d.
        enc_bits: (n,) modified-message bits written with the swap encoding.
        meas_basis: (n,) receiver measurement basis (0 plus, 1 cross).
        spec: the channel adversary.
        uniforms: (n, 3) uniform draws; supplied either directly or via rng.

    Returns:
        (bob_outcome uint8, eve_basis int8, eve_outcome int8); the adversary
        columns hold -1 where the attack records nothing.
    """
    state_idx = index_column("state_idx", state_idx, 3)
    enc_bits = index_column("enc_bits", enc_bits, 1)
    meas_basis = index_column("meas_basis", meas_basis, 1)
    n = state_idx.shape[0]
    if enc_bits.shape[0] != n or meas_basis.shape[0] != n:
        raise ValueError("state_idx, enc_bits and meas_basis must have equal length")
    if uniforms is None:
        if rng is None:
            raise ValueError("pass uniforms or an rng to draw them from")
        uniforms = rng.random((n, 3))
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    if uniforms.shape != (n, 3):
        raise ValueError(f"uniforms must have shape ({n}, 3)")
    if not 0.0 <= spec.theta <= np.pi / 4:
        raise ValueError(f"theta must lie in [0, pi/4], got {spec.theta}")
    if spec.attack_basis not in (None, BASIS_PLUS, BASIS_CROSS):
        raise ValueError(f"unknown attack basis {spec.attack_basis}")
    u0 = uniforms[:, 0]
    u1 = uniforms[:, 1]
    u2 = uniforms[:, 2]
    no_record = np.full(n, -1, dtype=np.int8)
    # cell = 4 * state + 2 * encoding, then + basis; built in place, because
    # every (n,) temporary is a fresh allocation that costs as much as its use
    cell = 2 * state_idx
    cell += enc_bits
    cell *= 2

    if spec.kind == ATTACK_NONE:
        cell += meas_basis
        bob = u2 < CLEAN_P1.take(cell)
        eve_basis, eve_out = no_record, no_record.copy()
    elif spec.kind == ATTACK_IR:
        if spec.attack_basis is None:
            eb = (u0 >= 0.5).astype(np.int8)
        else:
            eb = np.full(n, spec.attack_basis, dtype=np.int8)
        cell += eb
        eo = (u1 < CLEAN_P1.take(cell)).astype(np.int8)
        bob = u2 < FORWARD_P1.take(4 * eb + 2 * eo + meas_basis)
        eve_basis, eve_out = eb, eo
    elif spec.kind == ATTACK_UTB:
        p1, pp1 = probe_tables(spec.theta, spec.attack_basis)
        cell += meas_basis
        bob = u2 < p1.take(cell)
        cell *= 2
        cell += bob
        eve_basis, eve_out = no_record, (u1 < pp1.take(cell)).astype(np.int8)
    else:
        raise ValueError(f"unknown attack kind {spec.kind}")
    return bob.astype(np.uint8), eve_basis, eve_out
