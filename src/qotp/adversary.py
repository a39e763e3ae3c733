"""Eavesdropping strategies on the quantum channel.

Attacks never see basis keys, pad bits, sample positions, or message bits;
their only input is the travelling state (the known-plaintext wrapper declares
the message it assumes, and uses it at inference time only).  Every attacked
photon leaves an evidence record that the analysis module turns into empirical
information estimates.

Sessions and sweeps run each attack through the batch kernel, as described by
its ``channel_spec``; known-plaintext inference is a lookup in the exact
likelihood table of ``record_likelihoods``.  The per-photon functions below
(``attack_photon`` and the record-based ``known_plaintext_infer``) act on
``quantum`` state vectors and are the reference the tests check the batch
path against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .quantum import (
    Basis,
    EncodingOp,
    PREP_STATES,
    StateVector,
    apply_encoding,
    measure,
    utb_apply,
)
from .rng import RandomStream


class IRStrategy(Enum):
    """How intercept-resend picks its measurement basis per photon."""

    RANDOM = "random"
    FIXED_PLUS = "plus"
    FIXED_CROSS = "cross"


@dataclass(frozen=True)
class NoAttack:
    def channel_spec(self) -> kernels.ChannelSpec:
        return kernels.CLEAN


@dataclass(frozen=True)
class InterceptResend:
    basis_strategy: IRStrategy = IRStrategy.RANDOM

    def channel_spec(self) -> kernels.ChannelSpec:
        strategy = self.basis_strategy
        basis = None if strategy is IRStrategy.RANDOM else Basis(strategy.value).index
        return kernels.ChannelSpec(
            kernels.ATTACK_IR, basis, 0.0,
            {"kind": "intercept_resend", "ir_basis": strategy.value},
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


@dataclass
class EveRecord:
    """Per-photon evidence the adversary accumulates."""

    photon_index: int
    kind: str
    eve_basis: Basis | None = None
    eve_outcome: int | None = None
    probe_outcome: int | None = None
    theta: float | None = None
    attack_basis: Basis | None = None
    inferred_basis_guess: Basis | None = None
    posterior_plus: float | None = None


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


def intercept_resend(
    s: StateVector, basis_strategy: IRStrategy, rng: RandomStream, photon_index: int = -1
) -> tuple[StateVector, EveRecord]:
    """Measure the photon in the strategy's basis and forward the collapsed
    eigenstate."""
    if basis_strategy is IRStrategy.RANDOM:
        eve_basis = Basis.PLUS if rng.random() < 0.5 else Basis.CROSS
    else:
        eve_basis = Basis(basis_strategy.value)
    outcome, collapsed = measure(s, eve_basis, rng)
    record = EveRecord(
        photon_index=photon_index,
        kind="intercept_resend",
        eve_basis=eve_basis,
        eve_outcome=outcome,
    )
    return collapsed, record


def utb_intercept(
    s: StateVector,
    theta: float,
    attack_basis: Basis,
    rng: RandomStream,
    photon_index: int = -1,
) -> tuple[StateVector, EveRecord]:
    """Entangle the photon with a probe and forward the joint state.

    The photon factor travels on to the receiver; once the receiver has
    measured, the conditional probe state is read out (see eve_measure_probe).
    """
    joint = utb_apply(s, theta, attack_basis)
    record = EveRecord(
        photon_index=photon_index,
        kind="utb",
        theta=theta,
        attack_basis=attack_basis,
    )
    return joint, record


def eve_measure_probe(record: EveRecord, probe: StateVector, rng: RandomStream) -> int:
    """Read the conditional probe state in the computational basis and store
    the outcome on the record."""
    outcome, _ = measure(probe, Basis.PLUS, rng)
    record.probe_outcome = outcome
    return outcome


def attack_photon(
    model: AttackModel, s: StateVector, rng: RandomStream, photon_index: int = -1
) -> tuple[StateVector, EveRecord | None]:
    """Apply one attack model to one travelling photon.

    Returns the state that continues down the channel (dim 2, or dim 4 when a
    probe is left entangled) and the adversary's record, if any.
    """
    if isinstance(model, NoAttack):
        return s, None
    if isinstance(model, InterceptResend):
        return intercept_resend(s, model.basis_strategy, rng, photon_index)
    if isinstance(model, IndividualUTB):
        return utb_intercept(s, model.theta, model.attack_basis, rng, photon_index)
    if isinstance(model, KnownPlaintext):
        forwarded, record = attack_photon(model.inner, s, rng, photon_index)
        return forwarded, record
    raise TypeError(f"unknown attack model {model!r}")


def _record_likelihood(record: EveRecord, encoded: np.ndarray) -> float:
    """P(Eve's recorded data | the channel carried ``encoded``)."""
    if record.kind == "intercept_resend":
        eig = record.eve_basis.eigenstates()
        return float(abs(np.vdot(eig[record.eve_outcome], encoded)) ** 2)
    if record.kind == "utb":
        if record.probe_outcome is None:
            return 1.0
        xibar = record.attack_basis.eigenstates()[1]
        p_flip = float(np.sin(record.theta) ** 2 * abs(np.vdot(xibar, encoded)) ** 2)
        return p_flip if record.probe_outcome == 1 else 1.0 - p_flip
    return 1.0


def known_plaintext_infer(
    records: list[EveRecord],
    known_message: tuple[int, ...] | list[int] | np.ndarray,
    mm_public_positions: set[int],
) -> dict[int, Basis]:
    """Maximum-likelihood basis guess per attacked photon, given the plaintext.

    The four basis keys are equiprobable a priori.  Photons at announced
    sampling positions carry bits the plaintext does not cover, so their
    encoding is marginalized.  Posteriors and guesses are written back onto
    the records; ties break toward the plus basis.
    """
    known = [int(b) for b in known_message]
    positions = set(int(p) for p in mm_public_positions)
    n_photons = len(known) + len(positions)
    message_slots = [i for i in range(n_photons) if i not in positions]
    bit_at = dict(zip(message_slots, known))

    guesses: dict[int, Basis] = {}
    for record in records:
        i = record.photon_index
        ms = [bit_at[i]] if i in bit_at else [0, 1]
        weight = {Basis.PLUS: 0.0, Basis.CROSS: 0.0}
        for state_index, prepared in enumerate(PREP_STATES):
            basis = Basis.PLUS if state_index < 2 else Basis.CROSS
            for m in ms:
                encoded = apply_encoding(EncodingOp(m), prepared)
                weight[basis] += _record_likelihood(record, encoded.amps) / len(ms)
        total = weight[Basis.PLUS] + weight[Basis.CROSS]
        posterior_plus = weight[Basis.PLUS] / total if total > 0 else 0.5
        guess = Basis.PLUS if posterior_plus >= 0.5 else Basis.CROSS
        record.posterior_plus = posterior_plus
        record.inferred_basis_guess = guess
        guesses[i] = guess
    return guesses
