"""Classical one-time-pad lifecycle.

A pad is a value object.  Photon i of a session is keyed by pad bits 2i and
2i+1, which select its prepared state; reading the states never mutates the
pad, and recycling after a passed eavesdropping check (in ``protocol``)
produces a *new* pad with the announced photons' bit pairs removed.  A pad
is its bits and its generation, the number of passed checks it has been
recycled through, and nothing else: a pad file holds its whole state.

A pad file is exactly the three lines ``pad_to_text`` writes, one field of
``pad_record`` a line, read as written: ``generation=<int>``, the bits
hex-encoded (most significant bit of the first hex digit is pad index 0;
empty for a 0-bit pad), then ``bits=<int>``, the exact bit count (hex alone
cannot express lengths that are not multiples of 4).  A blank line, a
missing line or whitespace around a field is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .rng import RandomStream


@dataclass(frozen=True)
class PadKey:
    """A one-time-pad bit string and its generation."""

    bits: np.ndarray
    generation: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bits", kernels.index_column("pad bits", self.bits, 1))
        object.__setattr__(self, "generation",
                           kernels.index_value("pad generation", self.generation))

    def __len__(self) -> int:
        return int(self.bits.size)


def generate_pad(length: int, rng: RandomStream) -> PadKey:
    """Uniformly random pad of ``length`` bits (trusted-RNG stand-in for a
    key-agreement step; swap in any shared-secret source that yields uniform
    bits)."""
    length = kernels.index_value("pad length", length, 1)
    bits = rng.integers(0, 2, size=length, dtype=np.uint8)
    return PadKey(bits=bits)


def pair_states(pad: PadKey) -> np.ndarray:
    """Prepared state of the photon keyed by each pad pair, 0..3 = H, V, u,
    d, as a table indexed by pair: pair p is pad bits 2p and 2p+1, 00 -> H,
    11 -> V, 01 -> u, 10 -> d.  An odd pad's last bit keys no pair."""
    key = pad.bits[: len(pad) // 2 * 2].reshape(-1, 2)
    return key[:, 0] + 2 * (key[:, 0] ^ key[:, 1])


def pad_record(pad: PadKey) -> dict:
    """The pad's exchange fields: its generation, its bits as upper-case hex
    (bit 0 the high bit of the first digit) and its bit count."""
    return {"generation": pad.generation,
            "hex": np.packbits(pad.bits).tobytes().hex().upper()[: -(-len(pad) // 4)],
            "bits": len(pad)}


def pad_to_text(pad: PadKey) -> str:
    """Serialize a pad to the exchange format: its record, one field a line."""
    return "generation={generation}\n{hex}\nbits={bits}\n".format(**pad_record(pad))


def _int_field(line: str, name: str, lo: int = 0, hi: int = kernels.INT64_MAX) -> int:
    """The integer in [lo, hi] of a ``<name>=<int>`` line, worded as every
    library integer is, with the text quoted when it is not a plain number."""
    key, sep, value = line.partition("=")
    if key != name or not sep:
        raise ValueError(f"pad file line {line[:20]!r} is not '{name}=<int>'")
    try:
        number = kernels.read_number(int, value)
    except ValueError:
        number = value[:20]
    return kernels.index_value(f"pad {name}", number, lo, hi)


def pad_from_text(text: str) -> PadKey:
    """Parse the pad exchange format, the inverse of ``pad_to_text``."""
    lines = text.splitlines()
    if len(lines) != 3:
        raise ValueError("pad file must hold 3 lines, 'generation=<int>', hex bits and "
                         f"'bits=<int>', got {len(lines)}")
    generation = _int_field(lines[0], "generation")
    hexdigits = lines[1]
    if not re.fullmatch(r"[0-9A-Fa-f]*", hexdigits):
        raise ValueError(f"pad bits must be hex digits, got {hexdigits[:20]!r}")
    n_bits = _int_field(lines[2], "bits", max(0, 4 * len(hexdigits) - 3), 4 * len(hexdigits))
    packed = bytes.fromhex(hexdigits + "0" * (len(hexdigits) % 2))
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))[:n_bits]
    return PadKey(bits=bits, generation=generation)


def load_pad(path: str | Path) -> PadKey:
    return pad_from_text(Path(path).read_text())
