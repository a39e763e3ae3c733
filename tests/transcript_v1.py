"""Rebuild the v1 transcript document from a v3 one.

Transcript v3 writes each fact once, and each per-photon fact as a
digit-string column; v1 wrote one object per photon and per attack event,
repeating the facts that a photon's basis key, message bit and adversary
record already fix, and listed the sampling positions, the known plaintext
bits and the message digest beside the columns they follow from.  This
rebuilds every v1 field from the v3 columns with the object-level simulator
in ``oracle``, so tests can read photons and attack events as records, and
so the two formats can be compared byte for byte.
"""

from __future__ import annotations

from qotp.kernels import Basis
from qotp.protocol import message_digest
from oracle import BasisKeyPair, EncodingOp, EveRecord, state_from_basis_key

_BASIS_FIELDS = ("eve_basis", "attack_basis", "inferred_basis_guess")


def _column(text: str) -> list[int]:
    return [int(c) for c in text]


def sample_positions(doc: dict) -> list[int]:
    """The photons whose decoded bit the receiver announced."""
    return [i for i, c in enumerate(doc["public_view"]["announced"]) if c != "2"]


def known_bits(doc: dict) -> list[int]:
    """The plaintext bit a known-plaintext adversary assumes per photon: the
    modified message's bit, or 2 where the photon carried a sampling bit."""
    announced = doc["public_view"]["announced"]
    return [2 if a != "2" else int(b)
            for a, b in zip(announced, doc["secret_view"]["modified_bits"])]


def _photons(view: dict) -> list[dict]:
    pad = _column(view["pad_bits"])
    rows = zip(_column(view["modified_bits"]), _column(view["received_outcomes"]),
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
    posterior = adversary["posterior_plus"] if attack.get("known_plaintext") else None
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
        p = None if posterior is None else posterior[bit][record]
        # ties break toward the plus basis
        guess = None if p is None else ("plus" if p >= 0.5 else "cross")
        events.append({"photon_index": i, **fields, "posterior_plus": p,
                       "inferred_basis_guess": guess})
    return events


def v1_document(doc: dict) -> dict:
    """The v1 document carrying the same session as the v3 ``doc``."""
    view = doc["secret_view"]
    modified = _column(view["modified_bits"])
    message = view["extracted_message"]
    positions = sample_positions(doc)
    announced = doc["public_view"]["announced"]
    report = doc["public_view"]["error_report"]
    return {
        **doc,
        "schema": "qotp-transcript-v1",
        "secret_view": {
            "modified_bits": modified,
            "sample_values": [{"position": p, "value": modified[p]} for p in positions],
            "photons": _photons(view),
            "attack_events": _attack_events(doc),
            "decoded_bits": _column(view["decoded_bits"]),
            "extracted_message": None if message is None else _column(message),
            "extracted_message_digest": None if message is None else message_digest(_column(message)),
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
    """The v1 attack events of the v3 ``doc`` as adversary records."""
    return [
        EveRecord(**{k: Basis(v) if k in _BASIS_FIELDS and v is not None else v
                     for k, v in event.items()})
        for event in _attack_events(doc)
    ]
