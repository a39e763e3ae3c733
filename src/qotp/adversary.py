"""Eavesdropping strategies on the quantum channel.

Attacks never see basis keys, pad bits, sample positions, or message bits;
their only input is the travelling state (the known-plaintext wrapper is told
the session's message at inference time only).

Each attack is described once, by its class: ``transmit`` is its step of the
batch kernel, ``likelihoods`` its exact record table, ``describe`` its
transcript entry, and ``kind`` its name on the command line and in the
transcript.  Eve's record is coded ``2 * basis + outcome`` for
intercept-resend, as the probe outcome for the probe attack, and -1 where
there is no attack.  The tests check the kernel and the tables against
per-photon attacks on exact state vectors, which ship with the tests and not
with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import Basis


@dataclass(frozen=True)
class NoAttack:
    kind = "none"

    def transmit(self, cell, meas_basis, uniforms):
        cell += meas_basis
        bob = uniforms[:, 2] < kernels.CLEAN_P1.take(cell)
        return bob, np.full(cell.shape[0], -1, dtype=np.int8)

    def likelihoods(self) -> np.ndarray:
        raise ValueError("this attack leaves no records")

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
        if self.attack_basis not in (None, *Basis):
            raise ValueError(f"attack_basis must be a Basis or None, got {self.attack_basis!r}")

    def transmit(self, cell, meas_basis, uniforms):
        if self.attack_basis is None:
            eb = (uniforms[:, 0] >= 0.5).astype(np.int8)
        else:
            eb = np.full(cell.shape[0], self.attack_basis.index, dtype=np.int8)
        cell += eb
        eo = (uniforms[:, 1] < kernels.CLEAN_P1.take(cell)).astype(np.int8)
        bob = uniforms[:, 2] < kernels.FORWARD_P1.take(4 * eb + 2 * eo + meas_basis)
        return bob, 2 * eb + eo

    def likelihoods(self) -> np.ndarray:
        amps = np.einsum("sec,bkc->sebk", kernels.ENC_TABLE, kernels.EIG_TABLE)
        return (amps * amps).reshape(4, 2, 4)

    def describe(self) -> dict:
        basis = self.attack_basis
        return {"kind": self.kind, "ir_basis": "random" if basis is None else basis.value}


@dataclass(frozen=True)
class IndividualUTB:
    """Per-photon probe entanglement of strength theta in a fixed basis."""

    kind = "utb"
    theta: float
    attack_basis: Basis = Basis.PLUS

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi / 4:
            raise ValueError(f"theta must lie in [0, pi/4], got {self.theta}")
        if self.attack_basis not in tuple(Basis):
            raise ValueError(f"attack_basis must be a Basis, got {self.attack_basis!r}")

    def transmit(self, cell, meas_basis, uniforms):
        p1, pp1 = kernels.probe_tables(float(self.theta), self.attack_basis.index)
        cell += meas_basis
        bob = uniforms[:, 2] < p1.take(cell)
        cell *= 2
        cell += bob
        return bob, (uniforms[:, 1] < pp1.take(cell)).astype(np.int8)

    def likelihoods(self) -> np.ndarray:
        xibar = kernels.EIG_TABLE[self.attack_basis.index, 1]
        p_flip = np.sin(float(self.theta)) ** 2 * (kernels.ENC_TABLE @ xibar) ** 2
        return np.stack([1.0 - p_flip, p_flip], axis=-1)

    def describe(self) -> dict:
        return {"kind": self.kind, "theta": float(self.theta), "utb_basis": self.attack_basis.value}


@dataclass(frozen=True)
class KnownPlaintext:
    """Wrap any channel attack with knowledge of the session's message, used
    at inference time: the channel and the records are the inner attack's."""

    inner: "AttackModel"

    @property
    def kind(self) -> str:
        return self.inner.kind

    def transmit(self, cell, meas_basis, uniforms):
        return self.inner.transmit(cell, meas_basis, uniforms)

    def likelihoods(self) -> np.ndarray:
        return self.inner.likelihoods()

    def describe(self) -> dict:
        return {**self.inner.describe(), "known_plaintext": True}


AttackModel = NoAttack | InterceptResend | IndividualUTB | KnownPlaintext


def posterior_plus_table(attack: AttackModel) -> np.ndarray:
    """P(plus basis | record) per [known bit, record], where known bit 2 means
    the photon carries a bit the plaintext does not cover (both encodings
    equally likely).  The four basis keys are equiprobable a priori.

    ``attack.likelihoods()`` is the table L[state, encoding, record] =
    P(Eve's record | the channel carried that state with that encoding bit).
    """
    by_basis = attack.likelihoods().reshape(2, 2, 2, -1).sum(axis=1)  # [basis, bit, record]
    by_basis = np.concatenate([by_basis, by_basis.mean(axis=1, keepdims=True)], axis=1)
    total = by_basis.sum(axis=0)
    return np.divide(by_basis[0], total, out=np.full_like(total, 0.5), where=total > 0)
