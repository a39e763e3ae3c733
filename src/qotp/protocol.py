"""The six-step crypto session as an executable state machine.

One session: build the modified message (payload plus hidden sampling bits),
draw basis keys from the pad, prepare and encode photons, pass them through
the (possibly attacked) channel, decode with the shared keys, compare the
announced sampling bits, and either recycle the pad and release the message
or halt.  The photons run as columns through one batch-kernel call.  The
transcript keeps the full secret view for analysis; the ``public_view``
projection is exactly what an eavesdropper may read.

``alice_encode`` and ``bob_decode`` are the object-level encode and decode on
``quantum`` state vectors, kept as the reference for tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import kernels, keystore
from .adversary import AttackModel, EveRecord, KnownPlaintext, NoAttack, posterior_plus_table
from .keystore import BasisKeySequence, PadKey
from .quantum import (
    Basis,
    EncodingOp,
    StateVector,
    apply_encoding,
    measure,
    measure_photon_of_joint,
    state_from_basis_key,
)
from .rng import RandomStream, make_rng


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
        if len(set(positions.tolist())) != positions.size:
            raise ValueError("sample positions must be distinct")
        if positions.size and (positions.min() < 0 or positions.max() >= bits.size):
            raise ValueError("sample positions out of range")

    @property
    def n_sample(self) -> int:
        return int(self.sample_positions.size)

    def message_bits(self) -> np.ndarray:
        """The original message: all non-sample bits in order."""
        return np.delete(self.bits, self.sample_positions)


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


_BASES = (Basis.PLUS, Basis.CROSS)
_KEY_BITS = ([0, 0], [1, 1], [0, 1], [1, 0])  # basis-key bits selecting H, V, u, d
_dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))

# Transcript photon fields but the index, per cell 4 * state + 2 * encoding +
# outcome (state order H, V, u, d).
_PHOTON_CELLS = [
    {
        "basis_key": _KEY_BITS[s],
        "prepared": [{"re": float(a), "im": 0.0} for a in kernels.ENC_TABLE[s, 0]],
        "encoding": EncodingOp(m).name,
        "received_outcome": o,
        "decoded_bit": int(o != kernels.PREP_LABEL_OF_STATE[s]),
    }
    for s in range(4)
    for m in (0, 1)
    for o in (0, 1)
]


def _expand_cells(index_key: str, templates: list[dict], cells: np.ndarray) -> list[dict]:
    return [{index_key: i, **templates[c]} for i, c in enumerate(cells.tolist())]


def _join_cells(index_key: str, templates: list[dict], cells: np.ndarray) -> str:
    """JSON text of ``_expand_cells``: each template is encoded once around a
    marker index, and each photon's index is written into its cell's text."""
    marker = f'"{index_key}":-1'
    halves = [_dumps({index_key: -1, **t}).split(marker) for t in templates]
    items = [f'{halves[c][0]}"{index_key}":{i}{halves[c][1]}' for i, c in enumerate(cells.tolist())]
    return "[" + ",".join(items) + "]"


@dataclass
class SessionTranscript:
    """Full audit record of one session (secret view plus public projection).

    Per-photon data is held as columns indexed by photon: the receiver's
    outcome label and decoded bit, the kernel's adversary columns (basis and
    outcome, -1 where the attack records nothing) and, under known-plaintext
    inference, the plaintext bit assumed for each photon (2 where none is).
    ``attack_events`` builds record objects from them on first read.
    """

    config: SessionConfig
    attack: AttackModel
    mm: ModifiedMessage
    keys: BasisKeySequence
    received: np.ndarray
    decoded: np.ndarray
    eve_basis: np.ndarray
    eve_outcome: np.ndarray
    error_report: ErrorReport
    announced_origin_bits: np.ndarray
    known_bits: np.ndarray | None = None
    recycled_pad: PadKey | None = None
    extracted_message: np.ndarray | None = None

    @cached_property
    def attack_events(self) -> list[EveRecord]:
        templates, cells = self._event_cells()
        return [EveRecord(**fields) for fields in _expand_cells("photon_index", templates, cells)]

    def _event_cells(self) -> tuple[list[dict], np.ndarray]:
        """The adversary's record fields but photon_index, per cell
        3 * record + known bit, and each photon's cell.  Records are coded as
        in ``record_likelihoods``."""
        spec = self.attack.channel_spec()
        if spec.kind == kernels.ATTACK_NONE:
            return [], np.zeros(0, dtype=np.int64)
        ir = spec.kind == kernels.ATTACK_IR
        eve_outcome = self.eve_outcome.astype(np.int64)
        record = 2 * self.eve_basis.astype(np.int64) + eve_outcome if ir else eve_outcome
        posterior = None if self.known_bits is None else posterior_plus_table(spec)
        templates = []
        for r in range(4 if ir else 2):
            if ir:
                fields = {"kind": "intercept_resend", "eve_basis": _BASES[r // 2],
                          "eve_outcome": r % 2, "probe_outcome": None, "theta": None,
                          "attack_basis": None}
            else:
                fields = {"kind": "utb", "eve_basis": None, "eve_outcome": None,
                          "probe_outcome": r, "theta": spec.theta,
                          "attack_basis": _BASES[spec.attack_basis]}
            for known in range(3):
                p = None if posterior is None else float(posterior[known, r])
                # ties break toward the plus basis
                guess = None if p is None else _BASES[p < 0.5]
                templates.append({**fields, "posterior_plus": p, "inferred_basis_guess": guess})
        known = 0 if self.known_bits is None else self.known_bits
        return templates, 3 * record + known

    def public_view(self) -> dict:
        """Everything an eavesdropper may read: the sampling positions Alice
        announces, the sampling values Bob announces, and the verdict."""
        positions = self.mm.sample_positions
        return {
            "sample_positions": positions.tolist(),
            "announced_sample_values": self.decoded[positions].tolist(),
            "error_report": dataclasses.asdict(self.error_report),
        }

    def to_json_dict(self) -> dict:
        """Structured-text form (schema: docs/transcript_schema.json)."""
        return self._document(_expand_cells)

    def to_json(self) -> str:
        """``to_json_dict`` as compact, key-sorted JSON text.

        The per-photon arrays are joined from each cell's encoded text rather
        than encoded photon by photon; the result is byte-identical.
        """
        arrays = {}

        def placeholder(index_key, templates, cells):
            mark = f"\0{len(arrays)}"
            arrays[_dumps(mark)] = _join_cells(index_key, templates, cells)
            return mark

        text = _dumps(self._document(placeholder))
        for mark, array in arrays.items():
            text = text.replace(mark, array, 1)
        return text + "\n"

    def _document(self, per_photon) -> dict:
        """The v1 document, with each per-photon array given by
        ``per_photon(index key, cell templates, cell of each photon)``."""
        mm, pad, message = self.mm, self.recycled_pad, self.extracted_message
        positions = mm.sample_positions.tolist()
        photon_cells = 4 * self.keys.state_idx + 2 * mm.bits + self.received
        templates, event_cells = self._event_cells()
        event_templates = [
            {k: v.value if isinstance(v, Basis) else v for k, v in t.items()} for t in templates
        ]
        return {
            "schema": "qotp-transcript-v1",
            "config": dataclasses.asdict(self.config),
            "attack": self.attack.channel_spec().description,
            "secret_view": {
                "modified_bits": mm.bits.tolist(),
                "sample_values": [
                    {"position": p, "value": v}
                    for p, v in zip(positions, mm.bits[positions].tolist())
                ],
                "photons": per_photon("index", _PHOTON_CELLS, photon_cells),
                "attack_events": per_photon("photon_index", event_templates, event_cells),
                "decoded_bits": self.decoded.tolist(),
                "extracted_message": None if message is None else message.tolist(),
                "extracted_message_digest": None if message is None else message_digest(message),
                "recycled_pad": None
                if pad is None
                else {
                    "generation": pad.generation,
                    "hex": keystore.pad_to_text(pad).splitlines()[1],
                    "bits": len(pad),
                },
            },
            "public_view": self.public_view(),
            "error_report": dataclasses.asdict(self.error_report),
        }


def message_digest(bits: np.ndarray) -> str:
    """SHA-256 of the bit string, so logs never carry plaintext by default."""
    text = np.asarray(bits, dtype=np.uint8).reshape(-1) + ord("0")
    return hashlib.sha256(text.tobytes()).hexdigest()


def build_modified_message(
    message, n_sample: int, rng: RandomStream
) -> ModifiedMessage:
    """Interleave ``n_sample`` uniform random bits into the message at
    positions drawn uniformly over all interleavings.

    ``n_sample`` = 0 is a degenerate test-mode escape hatch; live sessions
    require at least one sampling bit (enforced by SessionConfig).
    """
    message = np.asarray(message, dtype=np.uint8).reshape(-1)
    if n_sample < 0:
        raise ValueError("n_sample must be nonnegative")
    n_total = message.size + n_sample
    positions = np.sort(rng.choice(n_total, size=n_sample, replace=False)) if n_sample else np.array([], dtype=np.int64)
    sample_bits = rng.integers(0, 2, size=n_sample, dtype=np.uint8)
    bits = np.zeros(n_total, dtype=np.uint8)
    mask = np.ones(n_total, dtype=bool)
    mask[positions] = False
    bits[mask] = message
    bits[positions] = sample_bits
    return ModifiedMessage(bits=bits, sample_positions=positions)


def alice_encode(keys: BasisKeySequence, mm: ModifiedMessage) -> list[StateVector]:
    """Prepare each photon from its basis key and write the corresponding
    modified-message bit onto it.  The returned photons are the ciphertext."""
    if len(keys) != mm.bits.size:
        raise ValueError(
            f"{len(keys)} basis keys for {mm.bits.size} modified-message bits"
        )
    return [
        apply_encoding(EncodingOp(int(bit)), state_from_basis_key(pair))
        for pair, bit in zip(keys.pairs, mm.bits)
    ]


def bob_decode(
    photons: list[StateVector], keys: BasisKeySequence, rng: RandomStream
) -> list[int]:
    """Decode a photon sequence with the shared basis keys.

    Each photon (or the photon factor of a photon-probe state) is measured in
    its preparation basis; the decoded bit is 0 when the outcome reproduces
    the prepared eigenstate and 1 when it lands on the swap encoding's image.
    """
    if len(photons) != len(keys):
        raise ValueError(f"{len(photons)} photons for {len(keys)} basis keys")
    decoded = []
    for photon, pair in zip(photons, keys.pairs):
        measure_fn = measure_photon_of_joint if photon.dim == 4 else measure
        outcome, _ = measure_fn(photon, pair.basis, rng)
        decoded.append(0 if outcome == pair.eigenstate_label else 1)
    return decoded


def eavesdrop_check(mm: ModifiedMessage, decoded, threshold: float) -> ErrorReport:
    """Compare announced sampling values against the sender's record."""
    decoded = np.asarray(decoded)
    if decoded.size != mm.bits.size:
        raise ValueError("decoded sequence length mismatch")
    positions = mm.sample_positions
    n_checked = mm.n_sample
    n_errors = int(np.count_nonzero(decoded[positions] != mm.bits[positions]))
    rate = n_errors / n_checked if n_checked else 0.0
    return ErrorReport(
        n_checked=n_checked, n_errors=n_errors, rate=rate, accepted=rate <= threshold
    )


def _known_bit_codes(known_message, mm: ModifiedMessage) -> np.ndarray:
    """Per photon, the plaintext bit the adversary assumes it carries, or 2
    where the plaintext does not cover it (announced sampling positions).

    The plaintext is laid over the non-sample slots of len(known) + n_sample
    photons, so a plaintext of the wrong length still lines up from the start.
    """
    known = np.asarray(known_message, dtype=np.int64).reshape(-1)
    slots = np.setdiff1d(np.arange(known.size + mm.n_sample), mm.sample_positions)
    slots = slots[slots < mm.bits.size][: known.size]
    codes = np.full(mm.bits.size, 2, dtype=np.int64)
    codes[slots] = known[: slots.size]
    return codes


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
    keys = keystore.draw_basis_keys(pad, int(mm.bits.size))
    state_idx = keys.state_idx
    spec = attack.channel_spec()
    # every photon is measured in its preparation basis
    received, eve_basis, eve_outcome = kernels.simulate_photons(
        state_idx, mm.bits, kernels.PREP_BASIS_OF_STATE[state_idx],
        spec.kind, spec.ir_strategy, spec.theta, spec.attack_basis, rng=rng,
    )
    decoded = (received != kernels.PREP_LABEL_OF_STATE[state_idx]).astype(np.uint8)

    report = eavesdrop_check(mm, decoded, config.abort_threshold)
    announced = mm.sample_positions
    transcript = SessionTranscript(
        config=config,
        attack=attack,
        mm=mm,
        keys=keys,
        received=received,
        decoded=decoded,
        eve_basis=eve_basis,
        eve_outcome=eve_outcome,
        error_report=report,
        announced_origin_bits=pad.origin_indices[keys.sources[announced].ravel()],
        known_bits=_known_bit_codes(attack.known_message, mm)
        if isinstance(attack, KnownPlaintext)
        else None,
    )
    if report.accepted:
        transcript.recycled_pad = keystore.recycle_pad(pad, announced, keys, check=report)
        transcript.extracted_message = np.delete(decoded, announced)
    return transcript
