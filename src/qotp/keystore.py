"""Classical one-time-pad lifecycle.

A pad is a value object.  Photon i of a session is keyed by pad bits 2i and
2i+1, which select its prepared state; reading the states never mutates the
pad, and recycling after a passed eavesdropping check (in ``protocol``)
produces a *new* pad with the announced photons' bit pairs removed.  Each
pad carries a provenance ledger (``origin_indices``, nonnegative and
strictly increasing) mapping every current bit back to its position in the
generation-0 pad, which is what the reuse-soundness audit checks against.

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

from . import kernels
from .rng import RandomStream


@dataclass(frozen=True)
class PadKey:
    """A one-time-pad bit string with its generation and lineage ledger."""

    bits: np.ndarray
    generation: int = 0
    origin_indices: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        bits = kernels.index_column("pad bits", np.reshape(self.bits, -1), 1)
        generation = kernels.index_value("pad generation", self.generation)
        if generation < 0:
            raise ValueError(f"pad generation must be nonnegative, got {generation}")
        origins = self.origin_indices
        origins = np.arange(bits.size) if origins is None else np.reshape(origins, -1)
        if origins.size and origins.dtype.kind not in "biu":  # the cast would truncate 0.5 to 0
            raise ValueError(f"origin ledger must hold integers, got dtype {origins.dtype}")
        origins = origins.astype(np.int64, copy=False)
        if origins.size != bits.size:
            raise ValueError("origin ledger length must match the bit string")
        # the reuse audit indexes generation-0 counters by these entries
        if origins.size and (origins[0] < 0 or np.any(origins[1:] <= origins[:-1])):
            raise ValueError("origin ledger must be nonnegative and strictly increasing")
        for name, value in ("bits", bits), ("generation", generation), ("origin_indices", origins):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.bits.size)


def generate_pad(length: int, rng: RandomStream) -> PadKey:
    """Uniformly random pad of ``length`` bits (trusted-RNG stand-in for a
    key-agreement step; swap in any shared-secret source that yields uniform
    bits)."""
    length = kernels.index_value("pad length", length)
    if length <= 0:
        raise ValueError(f"pad length must be positive, got {length}")
    bits = rng.integers(0, 2, size=length, dtype=np.uint8)
    return PadKey(bits=bits)


def pair_states(pad: PadKey) -> np.ndarray:
    """Prepared state of the photon keyed by each pad pair, 0..3 = H, V, u,
    d, as a table indexed by pair: pair p is pad bits 2p and 2p+1, 00 -> H,
    11 -> V, 01 -> u, 10 -> d.  An odd pad's last bit keys no pair."""
    key = pad.bits[: len(pad) // 2 * 2].reshape(-1, 2)
    return key[:, 0] + 2 * (key[:, 0] ^ key[:, 1])


def pad_hex(pad: PadKey) -> str:
    """The pad's bits as upper-case hex, bit 0 the high bit of the first digit."""
    return np.packbits(pad.bits).tobytes().hex().upper()[: -(-len(pad) // 4)]


def pad_to_text(pad: PadKey) -> str:
    """Serialize a pad to the exchange format (generation, hex bits, bit count)."""
    return f"generation={pad.generation}\n{pad_hex(pad)}\nbits={len(pad)}\n"


def _int_field(line: str, name: str) -> int:
    key, sep, value = line.partition("=")
    if key != name or not sep:
        raise ValueError(f"pad file line {line[:20]!r} is not '{name}=<int>'")
    try:
        return kernels.read_number(int, value)
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


def load_pad(path: str | Path) -> PadKey:
    return pad_from_text(Path(path).read_text())
