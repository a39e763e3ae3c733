"""Pad lifecycle: generation, basis-key drawing, recycling, file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotp.errors import PadExhaustedError, ProtocolViolationError
from qotp.keystore import (
    PadKey,
    draw_basis_keys,
    generate_pad,
    load_pad,
    pad_from_text,
    pad_to_text,
    recycle_pad,
    save_pad,
)
from qotp.protocol import ErrorReport
from qotp.quantum import KET_D, KET_H, KET_U, KET_V, state_from_basis_key
from qotp.rng import make_rng


def pad_of(bit_string: str) -> PadKey:
    return PadKey(bits=np.array([int(c) for c in bit_string], dtype=np.uint8))


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_pad(8, make_rng(42))
        b = generate_pad(8, make_rng(42))
        assert np.array_equal(a.bits, b.bits)
        assert a.generation == 0

    def test_single_bit_pad(self):
        p = generate_pad(1, make_rng(0))
        assert len(p) == 1

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            generate_pad(0, make_rng(0))

    def test_ones_fraction_unbiased(self):
        # 3 sigma binomial band over 1e5 bits
        p = generate_pad(100_000, make_rng(7))
        assert abs(p.bits.mean() - 0.5) < 3 * np.sqrt(0.25 / 100_000)


class TestDraw:
    def test_pairs_and_states(self):
        keys = draw_basis_keys(pad_of("0011"), 2)
        assert [(k.b0, k.b1) for k in keys.pairs] == [(0, 0), (1, 1)]
        assert np.allclose(state_from_basis_key(keys.pairs[0]).amps, KET_H.amps)
        assert np.allclose(state_from_basis_key(keys.pairs[1]).amps, KET_V.amps)

    def test_cross_pairs(self):
        keys = draw_basis_keys(pad_of("0110"), 2)
        assert np.allclose(state_from_basis_key(keys.pairs[0]).amps, KET_U.amps)
        assert np.allclose(state_from_basis_key(keys.pairs[1]).amps, KET_D.amps)

    def test_sources_disjoint_increasing(self):
        keys = draw_basis_keys(generate_pad(20, make_rng(0)), 10)
        assert keys.sources.ravel().tolist() == list(range(20))

    def test_exhaustion(self):
        with pytest.raises(PadExhaustedError):
            draw_basis_keys(pad_of("010"), 2)

    def test_pure_read(self):
        pad = pad_of("0110")
        before = pad.bits.copy()
        draw_basis_keys(pad, 2)
        draw_basis_keys(pad, 2)
        assert np.array_equal(pad.bits, before)


class TestRecycle:
    def test_drop_announced_photon_bits(self):
        pad = pad_of("001110")
        keys = draw_basis_keys(pad, 3)
        out = recycle_pad(pad, {1}, keys)
        assert "".join(map(str, out.bits)) == "0010"
        assert out.generation == 1

    def test_no_announcement(self):
        pad = pad_of("0011")
        out = recycle_pad(pad, set(), draw_basis_keys(pad, 2))
        assert np.array_equal(out.bits, pad.bits)
        assert out.generation == 1

    def test_full_consumption(self):
        pad = pad_of("001101")
        out = recycle_pad(pad, {0, 1, 2}, draw_basis_keys(pad, 3))
        assert len(out) == 0

    def test_refuses_after_failed_check(self):
        pad = pad_of("0011")
        failed = ErrorReport(n_checked=4, n_errors=2, rate=0.5, accepted=False)
        with pytest.raises(ProtocolViolationError):
            recycle_pad(pad, set(), draw_basis_keys(pad, 2), check=failed)

    def test_out_of_range_photon(self):
        pad = pad_of("0011")
        with pytest.raises(ValueError):
            recycle_pad(pad, {5}, draw_basis_keys(pad, 2))

    @given(
        st.integers(min_value=2, max_value=24),
        st.sets(st.integers(min_value=0, max_value=23)),
        st.sets(st.integers(min_value=0, max_value=23)),
    )
    @settings(max_examples=60, deadline=None)
    def test_double_recycle_arithmetic(self, n_photons, a, b):
        a = {i for i in a if i < n_photons}
        pad = generate_pad(2 * n_photons, make_rng(n_photons))
        keys1 = draw_basis_keys(pad, n_photons)
        pad1 = recycle_pad(pad, a, keys1)
        survivors = n_photons - len(a)
        b = {i for i in b if i < survivors}
        keys2 = draw_basis_keys(pad1, survivors)
        pad2 = recycle_pad(pad1, b, keys2)
        assert len(pad1) == len(pad) - 2 * len(a)
        assert len(pad2) == len(pad) - 2 * len(a) - 2 * len(b)
        assert pad2.generation == 2

    def test_reuse_soundness_ledger(self):
        # bits announced in session 1 never reappear among session 2's sources
        pad = generate_pad(40, make_rng(3))
        keys1 = draw_basis_keys(pad, 10)
        announced = {2, 5, 7}
        announced_origins = {
            int(pad.origin_indices[src])
            for p in announced
            for src in keys1.sources[p]
        }
        pad2 = recycle_pad(pad, announced, keys1)
        keys2 = draw_basis_keys(pad2, 7)
        drawn_origins = {
            int(pad2.origin_indices[src])
            for pair in keys2.sources
            for src in pair
        }
        assert announced_origins.isdisjoint(drawn_origins)


class TestPadFiles:
    def test_hex_bit_order(self):
        # MSB of the first hex digit is pad index 0
        pad = pad_of("10011110")
        text = pad_to_text(pad)
        assert text.splitlines()[1] == "9E"

    def test_round_trip(self, tmp_path):
        pad = generate_pad(128, make_rng(9))
        path = tmp_path / "pad.txt"
        save_pad(pad, path)
        back = load_pad(path)
        assert np.array_equal(back.bits, pad.bits)
        assert back.generation == pad.generation

    def test_round_trip_non_nibble_length(self, tmp_path):
        pad = pad_of("10110")
        path = tmp_path / "pad.txt"
        save_pad(pad, path)
        back = load_pad(path)
        assert np.array_equal(back.bits, pad.bits)

    def test_generation_preserved(self):
        pad = pad_of("0011")
        recycled = recycle_pad(pad, set(), draw_basis_keys(pad, 2))
        assert pad_from_text(pad_to_text(recycled)).generation == 1

    def test_missing_bits_line_means_nibble_multiple(self):
        back = pad_from_text("generation=0\nF0\n")
        assert "".join(map(str, back.bits)) == "11110000"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            pad_from_text("FF\n00\n")

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any_length(self, length, seed):
        pad = generate_pad(length, make_rng(seed))
        back = pad_from_text(pad_to_text(pad))
        assert np.array_equal(back.bits, pad.bits)

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError, match="generation"):
            pad_from_text("generation=-3\nF0\nbits=8\n")

    def test_non_hex_digits_rejected(self):
        with pytest.raises(ValueError):
            pad_from_text("generation=0\nF G0\n")

    @given(
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**40),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_matches_nibble_reference(self, length, seed, generation):
        pad = PadKey(bits=generate_pad(length, make_rng(seed)).bits, generation=generation)
        text = pad_to_text(pad)
        # reference encoder: one hex digit per 4 bits, MSB first, zero-filled
        nibbles = "".join(
            f"{int(''.join(map(str, pad.bits[i:i + 4])).ljust(4, '0'), 2):X}"
            for i in range(0, length, 4)
        )
        assert text == f"generation={generation}\n{nibbles}\nbits={length}\n"
        back = pad_from_text(text)
        assert np.array_equal(back.bits, pad.bits)
        assert back.generation == generation
