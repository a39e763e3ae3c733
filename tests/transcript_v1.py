"""Rebuild the v1 transcript document from a v2 one.

Transcript v2 writes each per-photon fact once, as a digit-string column;
v1 wrote one object per photon and per attack event, repeating the facts
that a photon's basis key, message bit and adversary record already fix.
This rebuilds every v1 field from the v2 columns with the object-level
simulator in ``oracle``, so tests can read photons and attack events as
records, and so the two formats can be compared byte for byte.
"""

from __future__ import annotations

from qotp.kernels import Basis
from oracle import BasisKeyPair, EncodingOp, EveRecord, state_from_basis_key

_BASIS_FIELDS = ("eve_basis", "attack_basis", "inferred_basis_guess")


def _column(text: str) -> list[int]:
    return [int(c) for c in text]


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
    known = adversary["known_bits"]
    known = [0] * len(adversary["records"]) if known is None else _column(known)
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
        posterior = adversary["posterior_plus"]
        p = None if posterior is None else posterior[bit][record]
        # ties break toward the plus basis
        guess = None if p is None else ("plus" if p >= 0.5 else "cross")
        events.append({"photon_index": i, **fields, "posterior_plus": p,
                       "inferred_basis_guess": guess})
    return events


def v1_document(doc: dict) -> dict:
    """The v1 document carrying the same session as the v2 ``doc``."""
    view = doc["secret_view"]
    modified = _column(view["modified_bits"])
    message = view["extracted_message"]
    return {
        **doc,
        "schema": "qotp-transcript-v1",
        "secret_view": {
            "modified_bits": modified,
            "sample_values": [{"position": p, "value": modified[p]}
                              for p in doc["public_view"]["sample_positions"]],
            "photons": _photons(view),
            "attack_events": _attack_events(doc),
            "decoded_bits": _column(view["decoded_bits"]),
            "extracted_message": None if message is None else _column(message),
            "extracted_message_digest": view["extracted_message_digest"],
            "recycled_pad": view["recycled_pad"],
        },
    }


def attack_events(doc: dict) -> list[EveRecord]:
    """The v1 attack events of the v2 ``doc`` as adversary records."""
    return [
        EveRecord(**{k: Basis(v) if k in _BASIS_FIELDS and v is not None else v
                     for k, v in event.items()})
        for event in _attack_events(doc)
    ]
