"""Classical one-time-pad lifecycle.

A pad is a value object: drawing basis keys never mutates it, and recycling
after a passed eavesdropping check produces a *new* pad with the announced
photons' source bits removed.  Each pad carries a provenance ledger
(``origin_indices``) mapping every current bit back to its position in the
generation-0 pad, which is what the reuse-soundness audit checks against.

Pad files are plain text: ``generation=<int>``, then the bits hex-encoded
(most significant bit of the first hex digit is pad index 0), then
``bits=<int>`` giving the exact bit count (hex alone cannot express lengths
that are not multiples of 4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import PadExhaustedError, ProtocolViolationError
from .quantum import BasisKeyPair
from .rng import RandomStream


@dataclass(frozen=True)
class PadKey:
    """A one-time-pad bit string with its generation and lineage ledger."""

    bits: np.ndarray
    generation: int = 0
    origin_indices: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8).reshape(-1)
        if bits.size and not np.all((bits == 0) | (bits == 1)):
            raise ValueError("pad bits must be 0/1")
        object.__setattr__(self, "bits", bits)
        origins = self.origin_indices
        if origins is None:
            origins = np.arange(bits.size, dtype=np.int64)
        origins = np.asarray(origins, dtype=np.int64).reshape(-1)
        if origins.size != bits.size:
            raise ValueError("origin ledger length must match the bit string")
        object.__setattr__(self, "origin_indices", origins)

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True)
class BasisKeySequence:
    """Basis keys for one photon sequence, held as the pad bits they consumed:
    photon i is keyed by pad bits 2i and 2i+1."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8).reshape(-1)
        if bits.size % 2:
            raise ValueError("basis keys take pad bits in pairs")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return self.bits.size // 2

    @property
    def state_idx(self) -> np.ndarray:
        """Prepared state per photon: 00 -> 0 (H), 11 -> 1 (V), 01 -> 2 (u), 10 -> 3 (d)."""
        b0 = self.bits[0::2].astype(np.int64)
        return np.where(b0 == self.bits[1::2], b0, 2 + b0)

    @property
    def sources(self) -> np.ndarray:
        """(n, 2) pad bit indices keying each photon."""
        return np.arange(self.bits.size).reshape(-1, 2)

    @cached_property
    def pairs(self) -> tuple[BasisKeyPair, ...]:
        b = self.bits.tolist()
        return tuple(BasisKeyPair(b0, b1) for b0, b1 in zip(b[0::2], b[1::2]))


def generate_pad(length: int, rng: RandomStream) -> PadKey:
    """Uniformly random pad of ``length`` bits (trusted-RNG stand-in for a
    key-agreement step; swap in any shared-secret source that yields uniform
    bits)."""
    if length <= 0:
        raise ValueError(f"pad length must be positive, got {length}")
    bits = rng.integers(0, 2, size=length, dtype=np.uint8)
    return PadKey(bits=bits)


def draw_basis_keys(pad: PadKey, n_photons: int) -> BasisKeySequence:
    """Group the first 2*n_photons pad bits into consecutive basis-key pairs.

    Pure read: the pad is not consumed, which is what allows reuse across
    sessions.  Raises PadExhaustedError if the pad is too short.
    """
    if n_photons < 0:
        raise ValueError("n_photons must be nonnegative")
    needed = 2 * n_photons
    if len(pad) < needed:
        raise PadExhaustedError(
            f"pad exhausted: need {needed} bits for {n_photons} photons, have {len(pad)}"
        )
    return BasisKeySequence(bits=pad.bits[:needed])


def recycle_pad(
    pad: PadKey,
    announced_pair_indices,
    keys: BasisKeySequence,
    check=None,
) -> PadKey:
    """Build the next-generation pad by dropping every announced photon's bits.

    ``announced_pair_indices`` are photon indices whose positions and encoding
    bits went public during the check; both pad bits sourcing each such photon
    are removed.  Survivor order is preserved and the generation counter is
    incremented.

    ``check`` may carry the session's error report; recycling after a failed
    check raises ProtocolViolationError (the protocol halts on eavesdropping).
    """
    if check is not None and not check.accepted:
        raise ProtocolViolationError("cannot recycle a pad after a failed check")
    announced = np.fromiter(announced_pair_indices, dtype=np.int64)
    bad = announced[(announced < 0) | (announced >= len(keys))]
    if bad.size:
        raise ValueError(
            f"announced photon indices {sorted(set(bad.tolist()))} outside the key sequence"
        )
    keep = np.ones(len(pad), dtype=bool)
    keep[keys.sources[announced]] = False
    return PadKey(
        bits=pad.bits[keep],
        generation=pad.generation + 1,
        origin_indices=pad.origin_indices[keep],
    )


def pad_to_text(pad: PadKey) -> str:
    """Serialize a pad to the exchange format (generation, hex bits, bit count)."""
    n_digits = -(-len(pad) // 4)
    digits = np.packbits(pad.bits).tobytes().hex().upper()[:n_digits]
    return f"generation={pad.generation}\n{digits}\nbits={len(pad)}\n"


def pad_from_text(text: str) -> PadKey:
    """Parse the pad exchange format.  A missing ``bits=`` line means the bit
    count is four times the hex digit count."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("generation="):
        raise ValueError("pad file must start with 'generation=<int>' then hex bits")
    generation = int(lines[0].split("=", 1)[1])
    if generation < 0:
        raise ValueError(f"pad generation must be nonnegative, got {generation}")
    hexdigits = lines[1]
    if not re.fullmatch(r"[0-9A-Fa-f]+", hexdigits):
        raise ValueError(f"pad bits must be hex digits, got {hexdigits[:20]!r}")
    n_bits = 4 * len(hexdigits)
    if len(lines) >= 3 and lines[2].startswith("bits="):
        n_bits = int(lines[2].split("=", 1)[1])
        if not 4 * len(hexdigits) - 3 <= n_bits <= 4 * len(hexdigits):
            raise ValueError(f"bit count {n_bits} inconsistent with {len(hexdigits)} hex digits")
    packed = bytes.fromhex(hexdigits + "0" * (len(hexdigits) % 2))
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))[:n_bits]
    return PadKey(bits=bits, generation=generation)


def save_pad(pad: PadKey, path: str | Path) -> None:
    Path(path).write_text(pad_to_text(pad))


def load_pad(path: str | Path) -> PadKey:
    return pad_from_text(Path(path).read_text())
