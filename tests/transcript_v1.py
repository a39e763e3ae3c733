"""Rebuild the v1 transcript document from a v4 one.

Transcript v4 writes each fact once, and each per-photon fact as a
digit-string column; v1 wrote one object per photon and per attack event,
repeating the facts that a photon's basis key, message bit and adversary
record already fix, and listed the sampling positions, the known plaintext
bits, the receiver's outcomes, the extracted message and its digest, and
the basis posteriors beside the columns they follow from.  This rebuilds
every v1 field from the v4 columns with the object-level simulator in
``oracle`` and the attack's record likelihoods, so tests can read photons
and attack events as records, and so the two formats can be compared byte
for byte.
"""

from __future__ import annotations

import numpy as np

from qotp.adversary import (
    AttackModel,
    IndividualUTB,
    InterceptResend,
    NoAttack,
    record_likelihoods,
)
from qotp.kernels import Basis
from qotp.protocol import message_digest
from oracle import BasisKeyPair, EncodingOp, EveRecord, state_from_basis_key

_BASIS_FIELDS = ("eve_basis", "attack_basis", "inferred_basis_guess")


def _column(text: str) -> list[int]:
    return [int(c) for c in text]


def attack_of(description: dict) -> AttackModel:
    """The attack whose transcript entry is ``description``."""
    if description["kind"] == NoAttack.kind:
        return NoAttack()
    if description["kind"] == InterceptResend.kind:
        basis = description["ir_basis"]
        return InterceptResend(None if basis == "random" else Basis(basis))
    return IndividualUTB(description["theta"], Basis(description["utb_basis"]))


def posterior_plus_table(attack: AttackModel) -> np.ndarray:
    """P(plus basis | record) per [known bit, record], where known bit 2 means
    the photon carries a bit the plaintext does not cover (both encodings
    equally likely).  The four basis keys are equiprobable a priori.  A record
    the attack never leaves reads 0.5."""
    by_basis = record_likelihoods(attack).reshape(2, 2, 2, -1).sum(axis=1)  # [basis, bit, record]
    by_basis = np.concatenate([by_basis, by_basis.mean(axis=1, keepdims=True)], axis=1)
    total = by_basis.sum(axis=0)
    return np.divide(by_basis[0], total, out=np.full_like(total, 0.5), where=total > 0)


def received_outcomes(doc: dict) -> list[int]:
    """The receiver's outcome label per photon: photon i is prepared in the
    eigenstate labelled by pad bit 2i, and decodes 1 off that label."""
    view = doc["secret_view"]
    return [int(d) ^ int(k) for d, k in zip(view["decoded_bits"], view["pad_bits"][::2])]


def extracted_message(doc: dict) -> list[int] | None:
    """The decoded bits off the sampling positions, released only when the
    check passed."""
    if not doc["public_view"]["error_report"]["accepted"]:
        return None
    announced = doc["public_view"]["announced"]
    return [int(d) for a, d in zip(announced, doc["secret_view"]["decoded_bits"]) if a == "2"]


def sample_positions(doc: dict) -> list[int]:
    """The photons whose decoded bit the receiver announced."""
    return [i for i, c in enumerate(doc["public_view"]["announced"]) if c != "2"]


def known_bits(doc: dict) -> list[int]:
    """The plaintext bit a known-plaintext adversary assumes per photon: the
    modified message's bit, or 2 where the photon carried a sampling bit."""
    announced = doc["public_view"]["announced"]
    return [2 if a != "2" else int(b)
            for a, b in zip(announced, doc["secret_view"]["modified_bits"])]


def _photons(doc: dict) -> list[dict]:
    view = doc["secret_view"]
    pad = _column(view["pad_bits"])
    rows = zip(_column(view["modified_bits"]), received_outcomes(doc),
               _column(view["decoded_bits"]))
    photons = []
    for i, (bit, outcome, decoded) in enumerate(rows):
        key = [pad[2 * i], pad[2 * i + 1]]
        amps = state_from_basis_key(BasisKeyPair(*key)).amps
        photons.append({
            "index": i,
            "basis_key": key,
            "prepared": [{"re": float(a.real), "im": float(a.imag)} for a in amps],
            "encoding": EncodingOp(bit).name,
            "received_outcome": outcome,
            "decoded_bit": decoded,
        })
    return photons


def _attack_events(doc: dict) -> list[dict]:
    adversary, attack = doc["secret_view"]["adversary"], doc["attack"]
    if adversary is None:
        return []
    # v1 wrote a posterior only under known plaintext
    posterior = posterior_plus_table(attack_of(attack)) if attack.get("known_plaintext") else None
    known = known_bits(doc)
    events = []
    for i, (record, bit) in enumerate(zip(_column(adversary["records"]), known)):
        if attack["kind"] == "intercept_resend":
            fields = {"kind": "intercept_resend", "eve_basis": ("plus", "cross")[record // 2],
                      "eve_outcome": record % 2, "probe_outcome": None, "theta": None,
                      "attack_basis": None}
        else:
            fields = {"kind": "utb", "eve_basis": None, "eve_outcome": None,
                      "probe_outcome": record, "theta": attack["theta"],
                      "attack_basis": attack["utb_basis"]}
        p = None if posterior is None else float(posterior[bit, record])
        # ties break toward the plus basis
        guess = None if p is None else ("plus" if p >= 0.5 else "cross")
        events.append({"photon_index": i, **fields, "posterior_plus": p,
                       "inferred_basis_guess": guess})
    return events


def v1_document(doc: dict) -> dict:
    """The v1 document carrying the same session as the v4 ``doc``."""
    view = doc["secret_view"]
    modified = _column(view["modified_bits"])
    message = extracted_message(doc)
    positions = sample_positions(doc)
    announced = doc["public_view"]["announced"]
    report = doc["public_view"]["error_report"]
    return {
        **doc,
        "schema": "qotp-transcript-v1",
        "secret_view": {
            "modified_bits": modified,
            "sample_values": [{"position": p, "value": modified[p]} for p in positions],
            "photons": _photons(doc),
            "attack_events": _attack_events(doc),
            "decoded_bits": _column(view["decoded_bits"]),
            "extracted_message": message,
            "extracted_message_digest": None if message is None else message_digest(message),
            "recycled_pad": view["recycled_pad"],
        },
        "public_view": {
            "sample_positions": positions,
            "announced_sample_values": [int(announced[p]) for p in positions],
            "error_report": report,
        },
        "error_report": report,
    }


def attack_events(doc: dict) -> list[EveRecord]:
    """The v1 attack events of the v4 ``doc`` as adversary records."""
    return [
        EveRecord(**{k: Basis(v) if k in _BASIS_FIELDS and v is not None else v
                     for k, v in event.items()})
        for event in _attack_events(doc)
    ]
