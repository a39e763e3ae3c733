"""Exact state-vector oracle for one polarized photon, optionally joined to a
one-qubit probe, with the per-photon attacks that act on it; the exact
information that reusing one key gives a known-plaintext Eve; the Pauli
cloner that attains the ``i0`` ceiling; batched kernel runs over uniformly
random pads for the statistical tests; a mask-based reference pad
recycler, which the lineage's pair recurrence is checked against; and the
argpartition sampling draw and pointer-doubling pair recurrence that the
block step's threshold mask and per-session recurrence are checked against.

The package runs every session through the kernel in ``qotp.kernels``, which
samples each attack's exact ``law()``, and draws every sweep point from the
same law; this module is the independent reference the tests check those
laws against.  It lives with the tests so that no production code can reach
it.

States live in dimension 2 (photon) or 4 (photon tensor probe, photon first).
The four preparation states are the two polarization pairs

    plus basis:   |H> = (1, 0),          |V> = (0, 1)
    cross basis:  |u> = (1, 1)/sqrt(2),  |d> = (1, -1)/sqrt(2)

selected by a two-bit basis key (00 -> H, 11 -> V, 01 -> u, 10 -> d).  Message
bits are written onto a prepared photon with one of two unitaries: U0 is the
identity and U1 swaps the two eigenstates of whichever basis the photon was
prepared in (picking up physically irrelevant signs).  All measurement is
Born-rule sampling against an explicit random stream.

Attacks never see basis keys, pad bits, sample positions, or message bits;
their only input is the travelling state.  Eve's knowledge of the message
enters only ``known_plaintext_infer``, which reads her records afterwards.
Every attacked photon leaves an ``EveRecord``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from qotp import kernels
from qotp.adversary import AttackModel, IndividualUTB, InterceptResend, NoAttack
from qotp.analysis import empirical_mutual_information
from qotp.kernels import Basis
from qotp.keystore import PadKey
from qotp.rng import RandomStream

NORM_TOL = 1e-9

# Plug-in MI estimator slack for seeded bound comparisons at n = 1e5
# (estimator bias is O(cells/n); at most 8 cells here).
MI_ESTIMATOR_SLACK = 0.02

_SQ2 = np.sqrt(0.5)


def eigenstates(basis: Basis) -> np.ndarray:
    """Return a (2, 2) array whose rows are the basis eigenvectors.

    Row k is the eigenstate labelled by measurement outcome k.
    """
    if basis is Basis.PLUS:
        return np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128)


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes of 1 or 2 qubits.

    Basis order is |0>, |1> for dim 2 and |00>, |01>, |10>, |11> for dim 4,
    where the first factor is the photon and the second the probe.
    """

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "amps", amps)
        if amps.shape[0] not in (2, 4):
            raise ValueError(f"state dimension must be 2 or 4, got {amps.shape[0]}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def __repr__(self) -> str:  # compact, test-failure friendly
        entries = ", ".join(f"{a.real:+.6f}{a.imag:+.6f}j" for a in self.amps)
        return f"StateVector([{entries}])"


def _normalized(amps: np.ndarray) -> StateVector:
    """Renormalize raw amplitudes (suppresses float drift after a unitary)."""
    return StateVector(amps / np.linalg.norm(amps))


# The four preparation states, indexed 0..3 = H, V, u, d.
KET_H = StateVector(np.array([1.0, 0.0]))
KET_V = StateVector(np.array([0.0, 1.0]))
KET_U = StateVector(np.array([_SQ2, _SQ2]))
KET_D = StateVector(np.array([_SQ2, -_SQ2]))

PREP_STATES = (KET_H, KET_V, KET_U, KET_D)

# Basis and eigenstate label of each preparation state.
PREP_BASIS = (Basis.PLUS, Basis.PLUS, Basis.CROSS, Basis.CROSS)
PREP_LABEL = (0, 1, 0, 1)


@dataclass(frozen=True)
class BasisKeyPair:
    """Two consecutive pad bits selecting one preparation state."""

    b0: int
    b1: int

    def __post_init__(self):
        if self.b0 not in (0, 1) or self.b1 not in (0, 1):
            raise ValueError(f"basis key bits must be 0/1, got {self.b0}, {self.b1}")

    @property
    def state_index(self) -> int:
        """Index into PREP_STATES: 00 -> 0 (H), 11 -> 1 (V), 01 -> 2 (u), 10 -> 3 (d)."""
        if self.b0 == self.b1:
            return self.b0
        return 2 + self.b0

    @property
    def basis(self) -> Basis:
        """Equal bits select the plus basis, unequal bits the cross basis."""
        return Basis.PLUS if self.b0 == self.b1 else Basis.CROSS

    @property
    def eigenstate_label(self) -> int:
        """Outcome label of the prepared state within its own basis."""
        return PREP_LABEL[self.state_index]


def key_pairs(bits) -> tuple[BasisKeyPair, ...]:
    """The basis-key pair of each photon: pad bits 2i and 2i+1 key photon i."""
    b = np.asarray(bits).tolist()
    return tuple(BasisKeyPair(b0, b1) for b0, b1 in zip(b[0::2], b[1::2]))


class EncodingOp(Enum):
    """The two message encodings: identity, and the in-basis eigenstate swap."""

    U0 = 0
    U1 = 1

    @property
    def matrix(self) -> np.ndarray:
        if self is EncodingOp.U0:
            return np.eye(2, dtype=np.complex128)
        # |0><1| - |1><0|: swaps the eigenstates of either basis up to sign.
        return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)


def state_from_basis_key(pair: BasisKeyPair) -> StateVector:
    """Map a basis-key pair to its preparation state (H, V, u or d)."""
    return PREP_STATES[pair.state_index]


def apply_encoding(op: EncodingOp, s: StateVector) -> StateVector:
    """Apply U0 or U1 to a single-photon state."""
    if s.dim != 2:
        raise ValueError("encoding acts on single-photon states only")
    return _normalized(op.matrix @ s.amps)


def measure(s: StateVector, b: Basis, rng: RandomStream) -> tuple[int, StateVector]:
    """Born-rule measurement of a single photon.

    Returns the outcome label (0 for the first eigenstate of ``b``, 1 for the
    second) and the collapsed post-measurement state.
    """
    if s.dim != 2:
        raise ValueError("measure expects a single-photon state")
    eig = eigenstates(b)
    p1 = abs(np.vdot(eig[1], s.amps)) ** 2
    outcome = int(rng.random() < p1)
    return outcome, StateVector(eig[outcome])


def utb_apply(s: StateVector, theta: float, attack_basis: Basis) -> StateVector:
    """Entangle a photon with a fresh |0> probe through the tunable tap.

    With (xi, xibar) the eigenstates of ``attack_basis``, the tap fixes
    xi (x) |0> and sends xibar (x) |0> to cos(theta) xibar (x) |0> +
    sin(theta) xi (x) |1>.  ``theta`` in [0, pi/4] sets the strength; theta=0
    is the identity.  Returns the normalized 4-dim joint state.
    """
    if not 0.0 <= theta <= np.pi / 4:
        raise ValueError(f"theta must lie in [0, pi/4], got {theta}")
    if s.dim != 2:
        raise ValueError("the tap acts on single-photon states")
    eig = eigenstates(attack_basis)
    xi, xibar = eig[0], eig[1]
    a = np.vdot(xi, s.amps)
    b = np.vdot(xibar, s.amps)
    probe0 = np.array([1.0, 0.0], dtype=np.complex128)
    probe1 = np.array([0.0, 1.0], dtype=np.complex128)
    joint = np.kron(a * xi + b * np.cos(theta) * xibar, probe0)
    joint += np.kron(b * np.sin(theta) * xi, probe1)
    return _normalized(joint)


def measure_photon_of_joint(
    s: StateVector, b: Basis, rng: RandomStream
) -> tuple[int, StateVector]:
    """Born-rule measurement of the photon factor of a photon-probe state.

    Returns the photon outcome label and the probe's renormalized conditional
    state.
    """
    if s.dim != 4:
        raise ValueError("expected a photon-probe joint state")
    eig = eigenstates(b)
    # joint[photon, probe]; rotate the photon axis into the measurement basis.
    joint = s.amps.reshape(2, 2)
    amps_b = eig.conj() @ joint
    p1 = float(np.sum(np.abs(amps_b[1]) ** 2))
    outcome = int(rng.random() < p1)
    probe = amps_b[outcome]
    return outcome, _normalized(probe)


def states_equal_up_to_phase(a: StateVector, b: StateVector, tol: float = NORM_TOL) -> bool:
    """True iff a unit complex c exists with ||a - c*b|| <= tol."""
    if a.dim != b.dim:
        raise ValueError("states must have equal dimension")
    ip = np.vdot(b.amps, a.amps)
    c = ip / abs(ip) if abs(ip) > 0 else 1.0
    return bool(np.linalg.norm(a.amps - c * b.amps) <= tol)


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


def intercept_resend(
    s: StateVector, attack_basis: Basis | None, rng: RandomStream, photon_index: int = -1
) -> tuple[StateVector, EveRecord]:
    """Measure the photon in ``attack_basis`` (None: a uniformly random basis
    per photon) and forward the collapsed eigenstate."""
    if attack_basis is None:
        eve_basis = Basis.PLUS if rng.random() < 0.5 else Basis.CROSS
    else:
        eve_basis = attack_basis
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
    measured, the conditional probe state can be read out in the
    computational basis.
    """
    joint = utb_apply(s, theta, attack_basis)
    record = EveRecord(
        photon_index=photon_index,
        kind="utb",
        theta=theta,
        attack_basis=attack_basis,
    )
    return joint, record


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
        return intercept_resend(s, model.attack_basis, rng, photon_index)
    if isinstance(model, IndividualUTB):
        return utb_intercept(s, model.theta, model.attack_basis, rng, photon_index)
    raise TypeError(f"unknown attack model {model!r}")


def attack_law(model: AttackModel) -> np.ndarray:
    """P[state, encoding, receiver basis, receiver outcome, record] by explicit
    projections: the receiver's Born rule on the clean photon, on the
    eigenstate intercept-resend forwards (times Eve's basis choice and her
    own Born rule), or on the photon factor of the tapped photon-probe state
    with the probe read in its computational basis."""
    n_records = {NoAttack: 1, InterceptResend: 4, IndividualUTB: 2}[type(model)]
    law = np.zeros((4, 2, 2, 2, n_records))
    for state, prepared in enumerate(PREP_STATES):
        for enc in EncodingOp:
            encoded = apply_encoding(enc, prepared)
            for meas in Basis:
                receiver = eigenstates(meas).conj()
                cell = law[state, enc.value, meas.index]
                if isinstance(model, NoAttack):
                    cell[:, 0] = np.abs(receiver @ encoded.amps) ** 2
                elif isinstance(model, InterceptResend):
                    for eve_basis in Basis:
                        if model.attack_basis is None:
                            choice = 0.5
                        else:
                            choice = float(eve_basis is model.attack_basis)
                        for outcome, forwarded in enumerate(eigenstates(eve_basis)):
                            p_eve = choice * abs(np.vdot(forwarded, encoded.amps)) ** 2
                            record = 2 * eve_basis.index + outcome
                            cell[:, record] = p_eve * np.abs(receiver @ forwarded) ** 2
                else:
                    joint = utb_apply(encoded, model.theta, model.attack_basis)
                    cell[:] = np.abs(receiver @ joint.amps.reshape(2, 2)) ** 2
    return law


def reuse_information(likelihoods, k: int) -> tuple[float, float]:
    """(basis, state) information in bits per surviving key that k attacked
    uses of the key give an Eve who knows every message bit.

    ``likelihoods`` is L[state, bit, record]: an attack's law summed over the
    receiver's outcome at the plus basis.  The key's state is uniform over the
    four, each use's bit is uniform, so one use observes (bit, record) with
    P = L[state, bit, record] / 2, and uses are independent given the state.
    Every sequence of k observations is enumerated; the basis information is
    I(preparation basis; observations) and the state information
    I(state; observations)."""
    per_use = np.asarray(likelihoods, dtype=np.float64).reshape(4, -1) / 2
    observations = itertools.product(range(per_use.shape[1]), repeat=k)
    joint = np.array([per_use[:, list(seq)].prod(axis=1) for seq in observations]).T / 4
    by_basis = np.zeros((2, joint.shape[1]))
    np.add.at(by_basis, kernels.PREP_BASIS_OF_STATE, joint)
    return empirical_mutual_information(by_basis), empirical_mutual_information(joint)


def _record_likelihood(record: EveRecord, encoded: np.ndarray) -> float:
    """P(Eve's recorded data | the channel carried ``encoded``)."""
    if record.kind == "intercept_resend":
        eig = eigenstates(record.eve_basis)
        return float(abs(np.vdot(eig[record.eve_outcome], encoded)) ** 2)
    if record.kind == "utb":
        if record.probe_outcome is None:
            return 1.0
        xibar = eigenstates(record.attack_basis)[1]
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


@dataclass
class PhotonBatch:
    """Column-oriented result of one batched channel run, in which the
    receiver measures every photon in its preparation basis."""

    state_idx: np.ndarray
    enc_bits: np.ndarray
    prep_basis: np.ndarray
    bob_outcome: np.ndarray
    record: np.ndarray

    @property
    def decoded(self) -> np.ndarray:
        return (self.bob_outcome != kernels.PREP_LABEL_OF_STATE[self.state_idx]).astype(np.uint8)

    @property
    def errors(self) -> np.ndarray:
        return self.decoded != self.enc_bits

    @property
    def encoded_label(self) -> np.ndarray:
        """In-basis eigenstate label of the encoded (travelling) state."""
        return kernels.PREP_LABEL_OF_STATE[self.state_idx] ^ self.enc_bits


def simulate_one_attack(state_idx, enc_bits, attack: AttackModel, uniforms) -> tuple:
    """The kernel run of photons all sent through ``attack``, as (the
    receiver's outcome, Eve's record): the outcome is the decoded bit XOR the
    label of the prepared state."""
    state_idx = np.asarray(state_idx)
    record, decoded = kernels.simulate_photons(2 * state_idx + enc_bits, (attack,), uniforms)
    return decoded ^ kernels.PREP_LABEL_OF_STATE[state_idx].astype(np.uint8), record


def run_photon_batch(n: int, attack: AttackModel, rng: RandomStream) -> PhotonBatch:
    """Run n photons with uniformly random pads and bits through the kernel;
    the receiver uses each photon's preparation basis, as in the protocol."""
    state_idx = rng.integers(0, 4, size=n, dtype=np.int64)
    enc_bits = rng.integers(0, 2, size=n, dtype=np.int64)
    bob, record = simulate_one_attack(state_idx, enc_bits, attack, rng.random(n))
    return PhotonBatch(state_idx, enc_bits, kernels.PREP_BASIS_OF_STATE[state_idx], bob, record)


def probe_information_estimate(batch: PhotonBatch, attack_basis: Basis) -> float:
    """Plug-in MI between the encoded eigenstate label and the probe outcome
    over attacked-basis photons: what the probe learns about the encoding once
    the basis key of each photon is handed to the adversary afterwards."""
    matched = batch.prep_basis == attack_basis.index
    counts = np.bincount(2 * batch.encoded_label[matched] + batch.record[matched], minlength=4)
    return empirical_mutual_information(counts.reshape(2, 2))


def recycle_pad(pad: PadKey, n_photons: int, announced_photons) -> PadKey:
    """The next-generation pad after a passed check of a session that keyed
    ``n_photons`` photons: pad bits 2i and 2i+1 of each announced photon i
    are masked out, the survivors keep their order (an odd pad's last bit
    included), and the generation counter goes up by one."""
    keep = np.ones(len(pad), dtype=bool)
    keep[: 2 * n_photons].reshape(-1, 2)[np.fromiter(announced_photons, dtype=np.int64)] = False
    return PadKey(bits=pad.bits[keep], generation=pad.generation + 1)


def draw_sessions_by_argpartition(messages: np.ndarray, session_rng: RandomStream, n_sample: int):
    """``protocol._draw_sessions`` through the index of each row's
    ``n_sample`` smallest keys, scattered into a zeroed sampling mask; it
    reads the same doubles and returns the same columns."""
    n_sessions, n_message = messages.shape
    n = n_message + n_sample
    draws = session_rng.random((n_sessions, 2 * n + n_sample))
    keys, uniforms, sample_draws = draws[:, :n], draws[:, n : 2 * n], draws[:, 2 * n :]
    sample_mask = np.zeros((n_sessions, n), dtype=bool)
    smallest = np.argpartition(keys, n_sample - 1, axis=1)[:, :n_sample]
    sample_mask.ravel()[smallest + n * np.arange(n_sessions)[:, None]] = True
    checked = np.flatnonzero(sample_mask).reshape(n_sessions, n_sample)
    unchecked = np.flatnonzero(~sample_mask).reshape(messages.shape)
    bits = np.empty((n_sessions, n), dtype=np.uint8)
    bits.ravel()[checked] = sample_draws < 0.5
    bits.ravel()[unchecked] = messages
    return bits, checked, unchecked, uniforms


def keyed_pairs_by_doubling(carried: np.ndarray, fresh: int, unchecked: np.ndarray, n: int):
    """``protocol._keyed_pairs`` by pointer doubling over the whole
    (sessions, n) table: a carried photon keys its source photon's pair, the
    photon at the same rank among the previous session's unchecked ones, and
    each of log2(sessions) passes doubles how far a link reaches."""
    sessions, m = unchecked.shape
    pairs = np.empty((sessions, n), dtype=np.int64)
    pairs[0, :m] = carried
    pairs[:, m:] = np.arange(fresh, fresh + sessions * (n - m)).reshape(sessions, n - m)
    source = np.arange(pairs.size).reshape(pairs.shape)
    source[1:, :m] = unchecked[:-1]
    for _ in range((sessions - 1).bit_length()):
        source = source.take(source)
    pairs = pairs.take(source)
    return pairs, pairs.take(unchecked[-1]), fresh + sessions * (n - m)


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.diag([1.0, -1.0])
# the Bell states of the two probe qubits, in the computational basis
_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) * _SQ2
_PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) * _SQ2
_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) * _SQ2
_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) * _SQ2


def pauli_clone(photon: np.ndarray, d: float) -> np.ndarray:
    """The Pauli cloner of error ``d`` on a real photon state and a two-qubit
    probe that starts in |Phi+>:

        (1-d)|psi>|Phi+> + sqrt(d(1-d)) (X|psi>|Psi+> + Z|psi>|Phi->) + d XZ|psi>|Psi->

    as (2, 4) amplitudes [photon, probe].  It flips an eigenstate of either
    basis with probability d (Fuchs, Gisin, Griffiths, Niu and Peres, PRA
    56:1163, 1997; Cerf's Pauli cloners)."""
    side = np.sqrt(d * (1.0 - d))
    terms = (
        (1.0 - d, photon, _PHI_PLUS),
        (side, _PAULI_X @ photon, _PSI_PLUS),
        (side, _PAULI_Z @ photon, _PHI_MINUS),
        (d, _PAULI_X @ _PAULI_Z @ photon, _PSI_MINUS),
    )
    return sum(c * np.outer(p, probe) for c, p, probe in terms)


def pauli_cloner_law(d: float, basis: Basis) -> np.ndarray:
    """P[encoded label, receiver outcome, probe outcome] of the Pauli cloner
    on the two eigenstates of ``basis``, sent with equal probability.  The
    receiver measures in that basis; Eve, told the basis afterwards, measures
    the probe in the eigenbasis of rho_0 - rho_1, the difference of its states
    given each label."""
    eig = eigenstates(basis).real
    joints = [eig @ pauli_clone(eig[label], d) for label in (0, 1)]
    rho = [joint.T @ joint for joint in joints]
    _, eve_basis = np.linalg.eigh(rho[0] - rho[1])
    return np.array([np.abs(joint @ eve_basis) ** 2 for joint in joints]) / 2
