"""Eavesdropping strategies on the quantum channel.

Attacks never see basis keys, pad bits, sample positions, or message bits;
their only input is the travelling state (the known-plaintext wrapper declares
the message it assumes, and uses it at inference time only).

Sessions and sweeps run each attack through the batch kernel, as described by
its ``channel_spec``; known-plaintext inference is a lookup in the exact
likelihood table of ``record_likelihoods``.  The tests check both against
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
    def channel_spec(self) -> kernels.ChannelSpec:
        return kernels.CLEAN


@dataclass(frozen=True)
class InterceptResend:
    """Measure each photon and forward the collapsed eigenstate.
    ``attack_basis`` is the fixed measuring basis, or None for a uniformly
    random basis per photon."""

    attack_basis: Basis | None = None

    def channel_spec(self) -> kernels.ChannelSpec:
        basis = self.attack_basis
        return kernels.ChannelSpec(
            kernels.ATTACK_IR, None if basis is None else basis.index, 0.0,
            {"kind": "intercept_resend", "ir_basis": "random" if basis is None else basis.value},
        )


@dataclass(frozen=True)
class IndividualUTB:
    """Per-photon probe entanglement of strength theta in a fixed basis."""

    theta: float
    attack_basis: Basis = Basis.PLUS

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi / 4:
            raise ValueError(f"theta must lie in [0, pi/4], got {self.theta}")

    def channel_spec(self) -> kernels.ChannelSpec:
        theta = float(self.theta)
        return kernels.ChannelSpec(
            kernels.ATTACK_UTB, self.attack_basis.index, theta,
            {"kind": "utb", "theta": theta, "utb_basis": self.attack_basis.value},
        )


@dataclass(frozen=True)
class KnownPlaintext:
    """Wrap any channel attack with message knowledge used at inference time."""

    inner: "AttackModel"
    known_message: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.known_message):
            raise ValueError("the known message must be 0/1 bits")

    def channel_spec(self) -> kernels.ChannelSpec:
        spec = self.inner.channel_spec()
        return spec._replace(description={**spec.description, "known_plaintext": True})


AttackModel = NoAttack | InterceptResend | IndividualUTB | KnownPlaintext


def record_likelihoods(spec: kernels.ChannelSpec) -> np.ndarray:
    """Exact table L[state, encoding, record] = P(Eve's record | the channel
    carried that state with that encoding bit).

    Records are coded ``2 * eve_basis + eve_outcome`` for intercept-resend and
    as the probe outcome for the probe attack.
    """
    if spec.kind == kernels.ATTACK_IR:
        amps = np.einsum("sec,bkc->sebk", kernels.ENC_TABLE, kernels.EIG_TABLE)
        return (amps * amps).reshape(4, 2, 4)
    if spec.kind == kernels.ATTACK_UTB:
        xibar = kernels.EIG_TABLE[spec.attack_basis, 1]
        p_flip = np.sin(spec.theta) ** 2 * (kernels.ENC_TABLE @ xibar) ** 2
        return np.stack([1.0 - p_flip, p_flip], axis=-1)
    raise ValueError("this attack leaves no records")


def posterior_plus_table(spec: kernels.ChannelSpec) -> np.ndarray:
    """P(plus basis | record) per [known bit, record], where known bit 2 means
    the photon carries a bit the plaintext does not cover (both encodings
    equally likely).  The four basis keys are equiprobable a priori."""
    by_basis = record_likelihoods(spec).reshape(2, 2, 2, -1).sum(axis=1)  # [basis, bit, record]
    by_basis = np.concatenate([by_basis, by_basis.mean(axis=1, keepdims=True)], axis=1)
    total = by_basis.sum(axis=0)
    return np.divide(by_basis[0], total, out=np.full_like(total, 0.5), where=total > 0)
