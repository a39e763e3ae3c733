"""Batched Monte-Carlo photon pipeline.

The per-photon channel simulation (prepare, encode, optional attack, measure)
runs here for sessions and the large-sample statistical checks.  Sweeps read
the same tables through ``analysis.cell_probabilities`` and draw each point's
histogram from that exact law without simulating photons one by one.  Every
photon is one of 4 prepared states, carries one of 2 encodings and is measured
in one of 2 bases, so every probability the channel needs is an entry of a
small exact table indexed by the cell ``4 * state + 2 * encoding + basis``;
simulating a photon is a gather and a compare.  All states reachable in this
protocol have real amplitudes, so the tables are built from signed float64
amplitudes.  The tests check every table entry against an independent complex
state-vector oracle, which ships with the tests and not with the package.

The kernel builds each photon's cell and hands it to the attack, whose
``transmit`` step (see ``adversary``) draws the outcomes.  Randomness enters
only through a ``uniforms`` array of shape (n, 3) with fixed column roles
(0: adversary basis choice, 1: adversary outcome/probe draw, 2: receiver
outcome draw), supplied by the caller or drawn from its rng.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

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
    attack,
    uniforms: np.ndarray | None = None,
    rng=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate n independent photons through the channel.

    Args:
        state_idx: (n,) prepared-state indices, 0..3 = H, V, u, d.
        enc_bits: (n,) modified-message bits written with the swap encoding.
        meas_basis: (n,) receiver measurement basis (0 plus, 1 cross).
        attack: the channel adversary, an ``adversary.AttackModel``.
        uniforms: (n, 3) uniform draws; supplied either directly or via rng.

    Returns:
        (bob_outcome uint8, record int8): Eve's record per photon, coded as
        the attack's ``likelihoods`` table codes it, -1 where there is none.
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
    # cell = 4 * state + 2 * encoding, which the attack completes in place;
    # every (n,) temporary is a fresh allocation that costs as much as its use
    cell = 2 * state_idx
    cell += enc_bits
    cell *= 2
    bob, record = attack.transmit(cell, meas_basis, uniforms)
    return bob.astype(np.uint8), record
