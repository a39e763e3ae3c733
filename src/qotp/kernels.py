"""Batched Monte-Carlo photon pipeline.

The per-photon channel simulation (prepare, encode, optional attack, measure)
runs here for sessions, sweeps and the large-sample statistical checks.  All
states reachable in this protocol have real amplitudes, so the kernel works on
signed float64 amplitude tables; the object-level complex simulator in
``quantum`` is the reference the tests check it against.

Randomness enters only through a ``uniforms`` array of shape (n, 3) with
fixed column roles (0: adversary basis choice, 1: adversary outcome/probe
draw, 2: receiver outcome draw), supplied by the caller or drawn from its rng.
"""

from __future__ import annotations

import numpy as np

ATTACK_NONE = 0
ATTACK_IR = 1
ATTACK_UTB = 2

IR_RANDOM = 0
IR_FIXED_PLUS = 1
IR_FIXED_CROSS = 2

BASIS_PLUS = 0
BASIS_CROSS = 1

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


def simulate_photons(
    state_idx: np.ndarray,
    enc_bits: np.ndarray,
    meas_basis: np.ndarray,
    attack_kind: int = ATTACK_NONE,
    ir_strategy: int = IR_RANDOM,
    theta: float = 0.0,
    attack_basis: int = BASIS_PLUS,
    uniforms: np.ndarray | None = None,
    rng=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate n independent photons through the channel.

    Args:
        state_idx: (n,) prepared-state indices, 0..3 = H, V, u, d.
        enc_bits: (n,) modified-message bits written with the swap encoding.
        meas_basis: (n,) receiver measurement basis (0 plus, 1 cross).
        attack_kind / ir_strategy / theta / attack_basis: channel adversary.
        uniforms: (n, 3) uniform draws; supplied either directly or via rng.

    Returns:
        (bob_outcome uint8, eve_basis int8, eve_outcome int8); the adversary
        columns hold -1 where the attack records nothing.
    """
    state_idx = np.ascontiguousarray(state_idx, dtype=np.int64)
    enc_bits = np.ascontiguousarray(enc_bits, dtype=np.int64)
    meas_basis = np.ascontiguousarray(meas_basis, dtype=np.int64)
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
    if not 0.0 <= theta <= np.pi / 4:
        raise ValueError(f"theta must lie in [0, pi/4], got {theta}")
    ct = float(np.cos(theta))
    st = float(np.sin(theta))
    v = ENC_TABLE[state_idx, enc_bits]
    v0 = v[:, 0]
    v1 = v[:, 1]
    u0 = uniforms[:, 0]
    u1 = uniforms[:, 1]
    u2 = uniforms[:, 2]
    eve_basis = np.full(n, -1, dtype=np.int8)
    eve_out = np.full(n, -1, dtype=np.int8)
    e1 = EIG_TABLE[meas_basis, 1]

    if attack_kind == ATTACK_NONE:
        amp1 = e1[:, 0] * v0 + e1[:, 1] * v1
        p1 = amp1 * amp1
        bob = (u2 < p1).astype(np.uint8)
    elif attack_kind == ATTACK_IR:
        if ir_strategy == IR_RANDOM:
            eb = (u0 >= 0.5).astype(np.int64)
        else:
            eb = np.full(n, ir_strategy - 1, dtype=np.int64)
        f1 = EIG_TABLE[eb, 1]
        amp = f1[:, 0] * v0 + f1[:, 1] * v1
        p1e = amp * amp
        eo = (u1 < p1e).astype(np.int64)
        fwd = EIG_TABLE[eb, eo]
        amp1 = e1[:, 0] * fwd[:, 0] + e1[:, 1] * fwd[:, 1]
        p1 = amp1 * amp1
        bob = (u2 < p1).astype(np.uint8)
        eve_basis[:] = eb
        eve_out[:] = eo
    elif attack_kind == ATTACK_UTB:
        x0, x1 = EIG_TABLE[attack_basis, 0]
        y0, y1 = EIG_TABLE[attack_basis, 1]
        a = x0 * v0 + x1 * v1
        b = y0 * v0 + y1 * v1
        e0 = EIG_TABLE[meas_basis, 0]
        xi_m0 = e0[:, 0] * x0 + e0[:, 1] * x1
        xi_m1 = e1[:, 0] * x0 + e1[:, 1] * x1
        xb_m0 = e0[:, 0] * y0 + e0[:, 1] * y1
        xb_m1 = e1[:, 0] * y0 + e1[:, 1] * y1
        a00 = a * xi_m0 + b * ct * xb_m0
        a01 = b * st * xi_m0
        a10 = a * xi_m1 + b * ct * xb_m1
        a11 = b * st * xi_m1
        p1 = a10 * a10 + a11 * a11
        sel = u2 < p1
        bob = sel.astype(np.uint8)
        as0 = np.where(sel, a10, a00)
        as1 = np.where(sel, a11, a01)
        # the selected outcome always has positive probability
        pp1 = (as1 * as1) / (as0 * as0 + as1 * as1)
        eve_out[:] = u1 < pp1
    else:
        raise ValueError(f"unknown attack kind {attack_kind}")
    return bob, eve_basis, eve_out
