"""The six-step crypto session as an executable state machine.

One session: build the modified message (payload plus hidden sampling bits),
prepare photon i in the state keyed by pad bits 2i and 2i+1, encode the
photons, pass them through the (possibly attacked) channel, decode in each
photon's preparation basis, compare the announced sampling bits, and either
recycle the pad (dropping the announced photons' bit pairs) and release the
message or halt.  The photons run as columns through one batch-kernel call,
which samples the attack's exact law; this is the only session path.  The
transcript keeps the full secret view for analysis; the ``public_view``
projection is exactly what an eavesdropper may read.  A lineage reuses one
pad until a check fails, and audits through the pad's origin ledger that no
announced pad bit keys a photon again.

The tests check this path against an object-level state-vector oracle with
per-photon attacks, which ships with the tests and not with the package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import kernels, keystore
from .adversary import AttackModel, NoAttack, posterior_plus_table
from .keystore import PadKey
from .rng import ROLE_MESSAGE, ROLE_SESSION, RandomStream, make_rng, role_seed


@dataclass(frozen=True)
class ModifiedMessage:
    """Message bits with sampling bits interleaved at secret random positions."""

    bits: np.ndarray
    sample_positions: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8).reshape(-1)
        positions = np.asarray(self.sample_positions, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "sample_positions", np.sort(positions))
        if positions.size == 0:
            raise ValueError("a modified message needs at least one sample position")
        if len(set(positions.tolist())) != positions.size:
            raise ValueError("sample positions must be distinct")
        if positions.min() < 0 or positions.max() >= bits.size:
            raise ValueError("sample positions out of range")

    @property
    def n_sample(self) -> int:
        return int(self.sample_positions.size)


@dataclass(frozen=True)
class SessionConfig:
    n_message: int
    n_sample: int
    abort_threshold: float = 0.0
    seed: int = 0
    allow_insecure_demo: bool = False

    def __post_init__(self):
        if self.n_message < 0:
            raise ValueError("n_message must be nonnegative")
        if self.n_sample < 1:
            raise ValueError("a session needs at least one sampling bit")
        if not 0.0 <= self.abort_threshold <= 1.0:
            raise ValueError("abort_threshold must lie in [0, 1]")
        if self.abort_threshold > 0.0 and not self.allow_insecure_demo:
            raise ValueError(
                "a nonzero abort threshold releases messages over a noisy channel "
                "without privacy amplification; set allow_insecure_demo=True to "
                "accept that explicitly"
            )


@dataclass(frozen=True)
class ErrorReport:
    n_checked: int
    n_errors: int
    rate: float
    accepted: bool


def _digits(values: np.ndarray) -> str:
    """A column of small nonnegative integers as one digit per entry."""
    return (np.asarray(values, dtype=np.uint8) + ord("0")).tobytes().decode("ascii")


@dataclass(frozen=True)
class SessionTranscript:
    """Full audit record of one session (secret view plus public projection).

    ``pad`` is the pad the session read: photon i was keyed by its bits 2i
    and 2i+1.  Per-photon data is held as columns indexed by photon: the
    receiver's outcome label and decoded bit, and Eve's record as the kernel
    codes it (-1 where there is no attack).
    """

    config: SessionConfig
    attack: AttackModel
    mm: ModifiedMessage
    pad: PadKey
    received: np.ndarray
    decoded: np.ndarray
    record: np.ndarray
    error_report: ErrorReport
    recycled_pad: PadKey | None
    extracted_message: np.ndarray | None

    def public_view(self) -> dict:
        """Everything an eavesdropper may read: per photon, the bit the
        receiver announced there or 2 for none; and the verdict."""
        positions = self.mm.sample_positions
        announced = np.full(self.decoded.size, 2, dtype=np.uint8)
        announced[positions] = self.decoded[positions]
        return {
            "announced": _digits(announced),
            "error_report": dataclasses.asdict(self.error_report),
        }

    def _adversary(self) -> dict | None:
        """Eve's record per photon, coded as in the attack's ``law``, and
        P(plus basis | known bit, record)."""
        if self.attack.kind == NoAttack.kind:
            return None
        return {
            "records": _digits(self.record),
            "posterior_plus": posterior_plus_table(self.attack).tolist(),
        }

    def to_json_dict(self) -> dict:
        """Structured-text form (schema: docs/transcript_schema.json).

        Each per-photon column is a digit string with one character per
        photon; ``pad_bits`` has two, photon i being keyed by characters 2i
        and 2i+1.
        """
        pad, message = self.recycled_pad, self.extracted_message
        return {
            "schema": "qotp-transcript-v3",
            "config": dataclasses.asdict(self.config),
            "attack": self.attack.describe(),
            "secret_view": {
                "pad_bits": _digits(self.pad.bits[: 2 * self.mm.bits.size]),
                "modified_bits": _digits(self.mm.bits),
                "received_outcomes": _digits(self.received),
                "decoded_bits": _digits(self.decoded),
                "adversary": self._adversary(),
                "extracted_message": None if message is None else _digits(message),
                "recycled_pad": None
                if pad is None
                else {
                    "generation": pad.generation,
                    "hex": keystore.pad_to_text(pad).splitlines()[1],
                    "bits": len(pad),
                },
            },
            "public_view": self.public_view(),
        }

    def to_json(self) -> str:
        """``to_json_dict`` as compact, key-sorted JSON text."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def message_digest(bits: np.ndarray) -> str:
    """SHA-256 of the bit string, so logs never carry plaintext by default."""
    return hashlib.sha256(_digits(bits).encode("ascii")).hexdigest()


def build_modified_message(message, n_sample: int, rng: RandomStream) -> ModifiedMessage:
    """Interleave ``n_sample`` >= 1 uniform random bits into the message at
    positions drawn uniformly over all interleavings."""
    message = np.asarray(message, dtype=np.uint8).reshape(-1)
    if n_sample < 1:
        raise ValueError(f"a modified message needs at least one sampling bit, got {n_sample}")
    n_total = message.size + n_sample
    positions = np.sort(rng.choice(n_total, size=n_sample, replace=False))
    sample_bits = rng.integers(0, 2, size=n_sample, dtype=np.uint8)
    bits = np.zeros(n_total, dtype=np.uint8)
    mask = np.ones(n_total, dtype=bool)
    mask[positions] = False
    bits[mask] = message
    bits[positions] = sample_bits
    return ModifiedMessage(bits=bits, sample_positions=positions)


def eavesdrop_check(mm: ModifiedMessage, decoded, threshold: float) -> ErrorReport:
    """Compare announced sampling values against the sender's record."""
    decoded = np.asarray(decoded)
    if decoded.size != mm.bits.size:
        raise ValueError("decoded sequence length mismatch")
    positions = mm.sample_positions
    n_checked = mm.n_sample
    n_errors = int(np.count_nonzero(decoded[positions] != mm.bits[positions]))
    rate = n_errors / n_checked
    return ErrorReport(
        n_checked=n_checked, n_errors=n_errors, rate=rate, accepted=rate <= threshold
    )


def run_session(
    config: SessionConfig, pad: PadKey, message, attack: AttackModel = NoAttack()
) -> SessionTranscript:
    """Execute one full session.

    On acceptance the transcript carries the recycled pad and the extracted
    message; on rejection it carries neither (the process halts and the pad
    lineage is retired).
    """
    message = np.asarray(message, dtype=np.uint8).reshape(-1)
    if message.size != config.n_message:
        raise ValueError(
            f"config says n_message={config.n_message} but message has {message.size} bits"
        )
    rng = make_rng(config.seed)
    mm = build_modified_message(message, config.n_sample, rng)
    n = int(mm.bits.size)
    state_idx = keystore.photon_states(pad, n)
    # every photon is measured in its preparation basis
    received, record = kernels.simulate_photons(
        state_idx, mm.bits, kernels.PREP_BASIS_OF_STATE[state_idx], attack, rng.random(n)
    )
    decoded = (received != kernels.PREP_LABEL_OF_STATE[state_idx]).astype(np.uint8)

    report = eavesdrop_check(mm, decoded, config.abort_threshold)
    recycled_pad = extracted_message = None
    if report.accepted:
        recycled_pad = keystore.recycle_pad(pad, n, mm.sample_positions, report)
        extracted_message = np.delete(decoded, mm.sample_positions)
    return SessionTranscript(
        config=config,
        attack=attack,
        mm=mm,
        pad=pad,
        received=received,
        decoded=decoded,
        record=record,
        error_report=report,
        recycled_pad=recycled_pad,
        extracted_message=extracted_message,
    )


def run_lineage(
    pad: PadKey, config: SessionConfig, attacks: Iterable[AttackModel]
) -> tuple[dict, PadKey | None]:
    """Run one session per attack on one pad lineage, recycling the pad after
    each passed check and retiring it at the first failed one.  Session k
    (from 0) runs on ``role_seed(config.seed, ROLE_SESSION, k)`` and draws its
    message on ``role_seed(config.seed, ROLE_MESSAGE, k)``.  Returns the
    report and the final pad, which is None once the lineage is retired."""
    sessions = []
    # times each generation-0 pad bit, found through the origin ledger, was announced
    announced_count = np.zeros(int(pad.origin_indices.max(initial=-1)) + 1, dtype=np.int64)
    reused = 0
    for k, attack in enumerate(attacks):
        rng = make_rng(role_seed(config.seed, ROLE_MESSAGE, k))
        message = rng.integers(0, 2, size=config.n_message, dtype=np.uint8)
        session = dataclasses.replace(config, seed=role_seed(config.seed, ROLE_SESSION, k))
        t = run_session(session, pad, message, attack)
        drawn = pad.origin_indices[: 2 * t.mm.bits.size].reshape(-1, 2)
        reused += int(announced_count[drawn].sum())
        np.add.at(announced_count, drawn[t.mm.sample_positions], 1)
        accepted = t.error_report.accepted
        sessions.append(
            {
                "session": k + 1,
                "pad_bits_before": len(pad),
                "pad_bits_after": len(t.recycled_pad) if accepted else len(pad),
                "accepted": accepted,
                "error_rate": t.error_report.rate,
                "message_exact": bool(accepted and np.array_equal(t.extracted_message, message)),
                "attacked": attack.kind != NoAttack.kind,
            }
        )
        pad = t.recycled_pad
        if pad is None:
            break
    return {
        "sessions": sessions,
        "halted_at_session": len(sessions) if pad is None else None,
        "final_pad_bits": None if pad is None else len(pad),
        "audit": {
            "announced_bits_reused": reused,
            "all_messages_exact": all(s["message_exact"] for s in sessions if s["accepted"]),
        },
    }, pad
