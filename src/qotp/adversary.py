"""Eavesdropping strategies on the quantum channel.

Attacks never see basis keys, pad bits, sample positions, or message bits;
their only input is the travelling state.  Known plaintext is what Eve knows,
not what she does, so no attack carries it: ``SessionTranscript`` notes it.

Each attack is described once, by its class.  ``law()`` is its exact joint
law P[state, encoding, receiver basis, receiver outcome, record]: the batch
kernel reads its cached slice ``kernels.cell_probabilities``, sweeps stack
``probe_law`` over a theta grid, and ``record_likelihoods`` sums a law into
P(record | state, encoding), the same under either basis: one photon's
record says nothing of its basis.
``describe`` is the attack's transcript entry and ``kind`` its name on the
command line.  Eve's record is ``2 * basis + outcome`` for intercept-resend
and the probe outcome for the probe attack; with no attack the record axis
has length 1 and the kernel writes -1.  The tests check every law entry
against per-photon attacks on exact state vectors, which ship with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import Basis

_BASES = tuple(Basis)
_BASES_OR_RANDOM = (None, *Basis)


@dataclass(frozen=True)
class NoAttack:
    kind = "none"

    def law(self) -> np.ndarray:
        return kernels.born(kernels.ENC_TABLE)[..., None]

    def describe(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class InterceptResend:
    """Measure each photon and forward the collapsed eigenstate.
    ``attack_basis`` is the fixed measuring basis, or None for a uniformly
    random basis per photon."""

    kind = "intercept_resend"
    attack_basis: Basis | None = None

    def __post_init__(self):
        if self.attack_basis not in _BASES_OR_RANDOM:
            raise ValueError(f"attack_basis must be a Basis or None, got {self.attack_basis!r}")

    def law(self) -> np.ndarray:
        basis = self.attack_basis
        prior = np.full(2, 0.5) if basis is None else np.eye(2)[basis.index]
        # Eve picks basis x with probability prior[x] and reads y: [state, encoding, x, y]
        eve = kernels.born(kernels.ENC_TABLE) * prior[:, None]
        # the receiver measures the eigenstate she forwards: [basis, outcome, x, y]
        forwarded = kernels.born(kernels.EIG_TABLE).transpose(2, 3, 0, 1)
        return (eve[:, :, None, None] * forwarded).reshape(4, 2, 2, 2, 4)

    def describe(self) -> dict:
        basis = self.attack_basis
        return {"kind": self.kind, "ir_basis": "random" if basis is None else basis.value}


def check_probe(thetas, attack_basis) -> None:
    """Refuse the first of ``thetas`` outside [0, pi/4], then a basis not a Basis."""
    for theta in thetas:
        if not 0.0 <= theta <= np.pi / 4:  # NaN is outside too
            raise ValueError(f"theta must lie in [0, pi/4], got {theta}")
    if attack_basis not in _BASES:
        raise ValueError(f"attack_basis must be a Basis, got {attack_basis!r}")


def probe_law(cos, sin, basis: Basis) -> np.ndarray:
    """The probe's law at cos(theta) and sin(theta), or at (points, 1, 1, 1) columns: a stack."""
    xi, xibar = kernels.EIG_TABLE[basis.index]
    # components of each encoded state along xi and xibar, [state, encoding, 1]
    a = kernels._overlap(xi, kernels.ENC_TABLE)[..., None]
    b = kernels._overlap(xibar, kernels.ENC_TABLE)[..., None]
    # the tap keeps xi|0> and sends xibar|0> to cos(theta) xibar|0> +
    # sin(theta) xi|1>: the photon's branch beside each probe outcome
    kept = a * xi + b * cos * xibar
    flipped = b * sin * xi
    return np.stack([kernels.born(kept), kernels.born(flipped)], axis=-1)


@dataclass(frozen=True)
class IndividualUTB:
    """Per-photon probe entanglement of strength theta in a fixed basis."""

    kind = "utb"
    theta: float
    attack_basis: Basis = Basis.PLUS

    def __post_init__(self):
        check_probe([self.theta], self.attack_basis)

    def law(self) -> np.ndarray:
        return probe_law(float(np.cos(self.theta)), float(np.sin(self.theta)), self.attack_basis)

    def describe(self) -> dict:
        return {"kind": self.kind, "theta": float(self.theta), "utb_basis": self.attack_basis.value}


AttackModel = NoAttack | InterceptResend | IndividualUTB


def record_likelihoods(attack: AttackModel) -> np.ndarray:
    """L[state, encoding, record] = P(Eve's record | the channel carried that
    state with that encoding bit): the attack's law summed over the receiver's
    outcome.  The receiver's basis does not change it; the plus basis is read."""
    return attack.law()[:, :, Basis.PLUS.index].sum(axis=2)
