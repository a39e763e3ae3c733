"""Classical one-time-pad lifecycle.

A pad is a value object.  Photon i of a session is keyed by pad bits 2i and
2i+1, which select its prepared state; reading the states never mutates the
pad, and recycling after a passed eavesdropping check produces a *new* pad
with the announced photons' bit pairs removed.  Each pad carries a
provenance ledger (``origin_indices``, nonnegative and strictly increasing)
mapping every current bit back to its position in the generation-0 pad,
which is what the reuse-soundness audit checks against.

Pad files are plain text: ``generation=<int>``, then the bits hex-encoded
(most significant bit of the first hex digit is pad index 0), then
``bits=<int>`` giving the exact bit count (hex alone cannot express lengths
that are not multiples of 4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PadExhaustedError, ProtocolViolationError
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
        # the reuse audit indexes generation-0 counters by these entries
        if origins.size and (origins[0] < 0 or np.any(origins[1:] <= origins[:-1])):
            raise ValueError("origin ledger must be nonnegative and strictly increasing")
        object.__setattr__(self, "origin_indices", origins)

    def __len__(self) -> int:
        return int(self.bits.size)


def generate_pad(length: int, rng: RandomStream) -> PadKey:
    """Uniformly random pad of ``length`` bits (trusted-RNG stand-in for a
    key-agreement step; swap in any shared-secret source that yields uniform
    bits)."""
    if length <= 0:
        raise ValueError(f"pad length must be positive, got {length}")
    bits = rng.integers(0, 2, size=length, dtype=np.uint8)
    return PadKey(bits=bits)


def _key_bits(pad: PadKey, n_photons: int) -> int:
    """How many pad bits key ``n_photons`` photons (2 each), checked to fit the pad."""
    if n_photons < 0:
        raise ValueError("n_photons must be nonnegative")
    needed = 2 * n_photons
    if len(pad) < needed:
        raise PadExhaustedError(
            f"pad exhausted: need {needed} bits for {n_photons} photons, have {len(pad)}"
        )
    return needed


def pair_states(pad: PadKey, pairs) -> np.ndarray:
    """Prepared state of the photon keyed by each pad pair, 0..3 = H, V, u,
    d: pair p is pad bits 2p and 2p+1, 00 -> H, 11 -> V, 01 -> u, 10 -> d.
    ``pairs`` indexes the pairs like an array index (integers of any shape,
    or a slice), and the result has that index's shape."""
    key = pad.bits[: len(pad) // 2 * 2].reshape(-1, 2)[pairs]
    b0 = key[..., 0].astype(np.int64)
    return np.where(b0 == key[..., 1], b0, 2 + b0)


def photon_states(pad: PadKey, n_photons: int) -> np.ndarray:
    """Prepared state per photon: photon i is keyed by pad pair i (see
    ``pair_states``).

    Pure read: the pad is not consumed, which is what allows reuse across
    sessions.  Raises PadExhaustedError if the pad is too short.
    """
    return pair_states(pad, slice(_key_bits(pad, n_photons) // 2))


def recycle_pad(pad: PadKey, n_photons: int, announced_photons, check) -> PadKey:
    """Build the next-generation pad by dropping every announced photon's bits.

    ``announced_photons`` are indices, among the ``n_photons`` photons the
    session keyed from the pad, whose positions and encoding bits went public
    during the check; pad bits 2i and 2i+1 of each such photon i are removed.
    Survivor order is preserved and the generation counter is incremented.

    ``check`` is the session's error report; recycling after a failed check
    raises ProtocolViolationError (the protocol halts on eavesdropping).
    """
    if not check.accepted:
        raise ProtocolViolationError("cannot recycle a pad after a failed check")
    needed = _key_bits(pad, n_photons)
    announced = np.fromiter(announced_photons, dtype=np.int64)
    bad = announced[(announced < 0) | (announced >= n_photons)]
    if bad.size:
        raise ValueError(
            f"announced photon indices {sorted(set(bad.tolist()))} outside 0..{n_photons - 1}"
        )
    keep = np.ones(len(pad), dtype=bool)
    keep[:needed].reshape(-1, 2)[announced] = False
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


def _int_field(line: str, name: str) -> int:
    key, sep, value = line.partition("=")
    if key != name or not sep:
        raise ValueError(f"pad file line {line[:20]!r} is not '{name}=<int>'")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"pad file {name} must be an integer, got {value[:20]!r}") from None


def pad_from_text(text: str) -> PadKey:
    """Parse the pad exchange format: ``generation=<int>``, one hex line, and
    an optional ``bits=<int>``; blank lines are skipped and any other line is
    rejected.  A missing ``bits=`` line means the bit count is four times the
    hex digit count."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("pad file must hold a 'generation=<int>' line, then hex bits")
    if len(lines) > 3:
        raise ValueError(f"pad file has an extra line {lines[3][:20]!r}")
    generation = _int_field(lines[0], "generation")
    if generation < 0:
        raise ValueError(f"pad generation must be nonnegative, got {generation}")
    hexdigits = lines[1]
    if not re.fullmatch(r"[0-9A-Fa-f]+", hexdigits):
        raise ValueError(f"pad bits must be hex digits, got {hexdigits[:20]!r}")
    n_bits = 4 * len(hexdigits)
    if len(lines) == 3:
        n_bits = _int_field(lines[2], "bits")
        if not 4 * len(hexdigits) - 3 <= n_bits <= 4 * len(hexdigits):
            raise ValueError(f"bit count {n_bits} inconsistent with {len(hexdigits)} hex digits")
    packed = bytes.fromhex(hexdigits + "0" * (len(hexdigits) % 2))
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))[:n_bits]
    return PadKey(bits=bits, generation=generation)


def save_pad(pad: PadKey, path: str | Path) -> None:
    Path(path).write_text(pad_to_text(pad))


def load_pad(path: str | Path) -> PadKey:
    return pad_from_text(Path(path).read_text())
