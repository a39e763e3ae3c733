"""Pad lifecycle: generation, photon states from pad-bit pairs, recycling
(the reference recycler, and the session's recycled pad against it), file
round-trips."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qotp.keystore import (
    PadKey,
    generate_pad,
    load_pad,
    pad_from_text,
    pad_to_text,
    pair_states,
)
from qotp.adversary import NoAttack
from qotp.protocol import SessionConfig, json_text, run_lineage, run_session
from qotp.rng import make_rng
from oracle import (
    KET_D,
    KET_H,
    KET_U,
    KET_V,
    PREP_STATES,
    key_pairs,
    recycle_pad,
    state_from_basis_key,
)


def pad_of(bit_string: str) -> PadKey:
    return PadKey(bits=np.array([int(c) for c in bit_string], dtype=np.uint8))


THREE_LINES = "pad file must hold 3 lines, 'generation=<int>', hex bits and 'bits=<int>'"


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_pad(8, make_rng(42))
        b = generate_pad(8, make_rng(42))
        assert np.array_equal(a.bits, b.bits)
        assert a.generation == 0

    def test_single_bit_pad(self):
        p = generate_pad(1, make_rng(0))
        assert len(p) == 1

    @pytest.mark.parametrize("length", [0, -1, 3.5, 4.0, "8", True],
                             ids=["zero", "negative", "float", "integral-float", "str", "bool"])
    def test_length_that_is_not_a_positive_integer_rejected(self, length):
        with pytest.raises(ValueError, match=r"^pad length must be ") as info:
            generate_pad(length, make_rng(0))
        assert "\n" not in str(info.value)

    def test_numpy_integer_length_accepted(self):
        assert np.array_equal(generate_pad(np.int64(8), make_rng(0)).bits,
                              generate_pad(8, make_rng(0)).bits)

    def test_ones_fraction_unbiased(self):
        # 3 sigma binomial band over 1e5 bits
        p = generate_pad(100_000, make_rng(7))
        assert abs(p.bits.mean() - 0.5) < 3 * np.sqrt(0.25 / 100_000)


class TestPhotonStates:
    def test_pairs_and_states(self):
        pad = pad_of("0011")
        pairs = key_pairs(pad.bits)
        assert [(k.b0, k.b1) for k in pairs] == [(0, 0), (1, 1)]
        states = pair_states(pad)
        assert states.tolist() == [0, 1]
        assert np.allclose(PREP_STATES[states[0]].amps, state_from_basis_key(pairs[0]).amps)
        assert np.allclose(PREP_STATES[states[0]].amps, KET_H.amps)
        assert np.allclose(PREP_STATES[states[1]].amps, state_from_basis_key(pairs[1]).amps)
        assert np.allclose(PREP_STATES[states[1]].amps, KET_V.amps)

    def test_cross_pairs(self):
        pad = pad_of("0110")
        pairs = key_pairs(pad.bits)
        states = pair_states(pad)
        assert states.tolist() == [2, 3]
        assert np.allclose(PREP_STATES[states[0]].amps, state_from_basis_key(pairs[0]).amps)
        assert np.allclose(PREP_STATES[states[0]].amps, KET_U.amps)
        assert np.allclose(PREP_STATES[states[1]].amps, state_from_basis_key(pairs[1]).amps)
        assert np.allclose(PREP_STATES[states[1]].amps, KET_D.amps)

    def test_photon_i_keyed_by_bits_2i_and_2i_plus_1(self):
        pad = generate_pad(20, make_rng(0))
        states = pair_states(pad)
        assert states.tolist() == [p.state_index for p in key_pairs(pad.bits)]
        # an odd pad's last bit keys no pair
        assert pair_states(pad_of("01101")).tolist() == [2, 3]

    def test_pure_read(self):
        pad = pad_of("0110")
        before = pad.bits.copy()
        pair_states(pad)
        pair_states(pad)
        assert np.array_equal(pad.bits, before)


class TestRecycle:
    def test_drop_announced_photon_bits(self):
        pad = pad_of("001110")
        out = recycle_pad(pad, 3, {1})
        assert "".join(map(str, out.bits)) == "0010"
        assert out.generation == 1

    def test_no_announcement(self):
        pad = pad_of("0011")
        out = recycle_pad(pad, 2, set())
        assert np.array_equal(out.bits, pad.bits)
        assert out.generation == 1

    def test_full_consumption(self):
        pad = pad_of("001101")
        out = recycle_pad(pad, 3, {0, 1, 2})
        assert len(out) == 0

    @given(
        st.integers(min_value=2, max_value=24),
        st.sets(st.integers(min_value=0, max_value=23)),
        st.sets(st.integers(min_value=0, max_value=23)),
    )
    @settings(max_examples=60, deadline=None)
    def test_double_recycle_arithmetic(self, n_photons, a, b):
        a = {i for i in a if i < n_photons}
        pad = generate_pad(2 * n_photons, make_rng(n_photons))
        pad1 = recycle_pad(pad, n_photons, a)
        survivors = n_photons - len(a)
        b = {i for i in b if i < survivors}
        pad2 = recycle_pad(pad1, survivors, b)
        assert len(pad1) == len(pad) - 2 * len(a)
        assert len(pad2) == len(pad) - 2 * len(a) - 2 * len(b)
        assert pad2.generation == 2

    def test_reuse_soundness_ledger(self):
        # bits announced in session 1 never key a photon of session 2: its
        # first 7 photons are keyed by session 1's 7 unannounced pairs, in
        # order, and the rest by the pad's untouched tail
        pad = generate_pad(40, make_rng(3))
        announced = [2, 5, 7]
        pad2 = recycle_pad(pad, 10, announced)
        survivors = [p for p in range(10) if p not in announced]
        assert np.array_equal(pad2.bits[: 2 * 7], pad.bits[:20].reshape(-1, 2)[survivors].ravel())
        assert np.array_equal(pad2.bits[2 * 7 :], pad.bits[20:])

    @given(st.integers(0, 12), st.integers(1, 6), st.integers(0, 3), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_session_recycles_like_the_reference(self, n_message, n_sample, extra, seed):
        # two passed sessions in a row: survivor order and an odd pad's last
        # bit compose as the mask-based reference says
        n = n_message + n_sample
        pad = generate_pad(2 * (n + n_sample) + extra, make_rng(seed))
        config = SessionConfig(n_message=n_message, n_sample=n_sample, seed=seed)
        for session in range(2):
            message = make_rng(seed + 1 + session).integers(0, 2, n_message, dtype=np.uint8)
            t = run_session(config, pad, message)
            want = recycle_pad(pad, n, t.sample_positions)
            assert np.array_equal(t.recycled_pad.bits, want.bits)
            assert t.recycled_pad.generation == want.generation == session + 1
            pad = t.recycled_pad


class TestGeneration:
    def test_numpy_integer_generation_serializes_in_the_next_transcript(self):
        pad = PadKey(bits=generate_pad(64, make_rng(4)).bits, generation=np.int64(2))
        assert type(pad.generation) is int
        transcript = run_session(SessionConfig(n_message=8, n_sample=4), pad, np.zeros(8, np.uint8))
        recycled = json.loads(json_text(transcript.to_json_dict()))["secret_view"]["recycled_pad"]
        assert recycled["generation"] == 3

    @pytest.mark.parametrize("generation", [1.5, -1, "2", None, True],
                             ids=["float", "negative", "str", "none", "bool"])
    def test_rejects_what_pad_from_text_would_not_read_back(self, generation):
        # pad_to_text would write generation=1.5, which pad_from_text rejects
        with pytest.raises(ValueError, match=r"^pad generation must be "):
            PadKey(bits=[0, 1], generation=generation)


class TestPadBits:
    @pytest.mark.parametrize(
        "bits",
        [np.array([256, 1, 257, 0]), [0.5, 1], np.array([-1, 1], dtype=np.int8), [2, 1],
         np.array([1.0, 0.0]), np.array([0, 2**63], dtype=np.uint64)],
        ids=["wraps-to-0-and-1", "truncates-to-0", "int8-negative", "two", "float-zero-one",
             "uint64-past-int64"],
    )
    def test_rejects_what_is_not_a_0_1_integer_before_the_cast(self, bits):
        with pytest.raises(ValueError, match=r"^pad bits must (hold integers|lie in 0\.\.1),"):
            PadKey(bits=bits)

    def test_rejects_bits_that_are_not_1d(self):
        with pytest.raises(ValueError) as raised:
            PadKey(np.array([[0, 1], [1, 0]]))
        assert str(raised.value) == "pad bits must be 1-D, got shape (2, 2)"

    @pytest.mark.parametrize(
        "bits", [np.array([True, False, True]), [1, 0, 1], np.array([1, 0, 1], dtype=np.int16)],
        ids=["bool-array", "python-ints", "int16"],
    )
    def test_accepts_booleans_and_0_1_integers(self, bits):
        pad = PadKey(bits=bits)
        assert pad.bits.dtype == np.uint8
        assert pad.bits.tolist() == [1, 0, 1]


class TestPadFiles:
    def test_hex_bit_order(self):
        # MSB of the first hex digit is pad index 0
        pad = pad_of("10011110")
        text = pad_to_text(pad)
        assert text.splitlines()[1] == "9E"

    def test_round_trip(self, tmp_path):
        pad = generate_pad(128, make_rng(9))
        path = tmp_path / "pad.txt"
        path.write_text(pad_to_text(pad))
        back = load_pad(path)
        assert np.array_equal(back.bits, pad.bits)
        assert back.generation == pad.generation

    def test_round_trip_non_nibble_length(self, tmp_path):
        pad = pad_of("10110")
        path = tmp_path / "pad.txt"
        path.write_text(pad_to_text(pad))
        back = load_pad(path)
        assert np.array_equal(back.bits, pad.bits)

    @pytest.mark.parametrize("extra", [0, 1], ids=["even", "odd"])
    @pytest.mark.parametrize("recycler,sessions",
                             [(None, 0), ("run_session", 1), ("run_session", 2),
                              ("run_lineage", 1), ("run_lineage", 2)],
                             ids=["generation-0", "session-once", "session-twice", "lineage-once",
                                  "lineage-twice"])
    def test_a_pads_whole_state_survives_its_file(self, recycler, sessions, extra):
        config = SessionConfig(n_message=8, n_sample=4, seed=5)
        pad = generate_pad(2 * 12 + 2 * 4 * sessions + extra, make_rng(10 + extra))
        if recycler == "run_lineage":
            pad = run_lineage(pad, config, [NoAttack()] * sessions)[1]
        for session in range(sessions if recycler == "run_session" else 0):
            message = make_rng(20 + session).integers(0, 2, 8, dtype=np.uint8)
            pad = run_session(dataclasses.replace(config, seed=session), pad, message).recycled_pad
        assert pad.generation == sessions
        back = pad_from_text(pad_to_text(pad))
        for field in dataclasses.fields(PadKey):
            assert np.array_equal(getattr(back, field.name), getattr(pad, field.name)), field.name
        assert [field.name for field in dataclasses.fields(PadKey)] == ["bits", "generation"]

    def test_generation_preserved(self):
        pad = pad_of("0011")
        recycled = recycle_pad(pad, 2, set())
        assert pad_from_text(pad_to_text(recycled)).generation == 1

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            pad_from_text("FF\n00\n")

    def test_a_file_without_a_hex_line_rejected(self):
        with pytest.raises(ValueError, match=rf"^{THREE_LINES}, got 1$"):
            pad_from_text("generation=0\n")

    # a pad file is read as pad_to_text writes it: no whitespace around a field
    @pytest.mark.parametrize(
        "text,message",
        [("generation=2 \nFF\nbits=8\n",
          r"pad generation must be an integer in \[0, int64 max\], got '2 '"),
         (" generation=2\nFF\nbits=8\n", r"pad file line ' generation=2' is not 'generation=<int>'"),
         ("generation=2\nFF \nbits=8\n", r"pad bits must be hex digits, got 'FF '"),
         ("generation=2\n FF\nbits=8\n", r"pad bits must be hex digits, got ' FF'"),
         ("generation=2\nFF\nbits=8 \n", r"pad bits must be an integer in \[5, 8\], got '8 '"),
         ("generation=2\nFF\nbits=8\t\n", r"pad bits must be an integer in \[5, 8\], got '8\\t'")],
        ids=["generation-trailing-space", "generation-line-indented", "hex-trailing-space",
             "hex-leading-space", "bits-trailing-space", "bits-trailing-tab"],
    )
    def test_whitespace_around_a_field_rejected(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pad_from_text(text)

    @pytest.mark.parametrize(
        "text",
        ["\ngeneration=2\nFF\nbits=8\n", "generation=2\n\nFF\nbits=8\n",
         "generation=2\nFF\n\nbits=8\n", "generation=2\nFF\nbits=8\n\n"],
        ids=["before", "after-generation", "after-hex", "after-bits"],
    )
    def test_blank_line_rejected(self, text):
        with pytest.raises(ValueError, match=rf"^{THREE_LINES}, got 4$"):
            pad_from_text(text)

    # two hex digits hold 5 to 8 bits
    @pytest.mark.parametrize("n_bits", [4, 9], ids=["below", "above"])
    def test_a_bit_count_the_hex_cannot_hold_rejected(self, n_bits):
        with pytest.raises(ValueError,
                           match=rf"^pad bits must be an integer in \[5, 8\], got {n_bits}$"):
            pad_from_text(f"generation=0\nFF\nbits={n_bits}\n")

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=2**32))
    @example(0, 0)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any_length(self, length, seed):
        # generate_pad refuses 0 bits, the pad a session can recycle down to
        pad = PadKey(bits=make_rng(seed).integers(0, 2, size=length, dtype=np.uint8))
        back = pad_from_text(pad_to_text(pad))
        assert np.array_equal(back.bits, pad.bits)

    # no hex holds a negative count, and a long bad value is quoted to 20 characters
    @pytest.mark.parametrize(
        "text,message",
        [("generation=0\n\nbits=-1\n", r"pad bits must be an integer in \[0, 0\], got -1"),
         (f"generation={'x' * 30}\nFF\nbits=8\n",
          rf"pad generation must be an integer in \[0, int64 max\], got '{'x' * 20}'")],
        ids=["empty-hex-negative-bits", "long-generation"],
    )
    def test_integer_field_range_and_quote(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pad_from_text(text)

    def test_negative_generation_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^pad generation must be an integer in \[0, int64 max\], got -3$"):
            pad_from_text("generation=-3\nF0\nbits=8\n")

    def test_non_hex_digits_rejected(self):
        with pytest.raises(ValueError, match=r"^pad bits must be hex digits, got 'F G0'$"):
            pad_from_text("generation=0\nF G0\nbits=12\n")

    @pytest.mark.parametrize(
        "text,quoted",
        [
            ("generation=0\nFF\n00\n", "'00'"),
            ("generation=0\nFF\nbitz=3\n", "'bitz=3'"),
            ("generation=0\nFF\nbits=8\n\nFF\n", rf"^{THREE_LINES}, got 5$"),
        ],
        ids=["second-hex-line", "misspelt-bits-line", "line-after-bits"],
    )
    def test_unexpected_line_rejected_and_quoted(self, text, quoted):
        with pytest.raises(ValueError, match=quoted) as info:
            pad_from_text(text)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "text,rule,value",
        [("generation=abc\nFF\nbits=8\n", r"generation must be an integer in \[0, int64 max\]", "'abc'"),
         ("generation=0\nFF\nbits=abc\n", r"bits must be an integer in \[5, 8\]", "'abc'"),
         # int() reads these as generation 10, 8 bits and generation 2
         ("generation=1_0\nFF\nbits=8\n", r"generation must be an integer in \[0, int64 max\]", "'1_0'"),
         ("generation=0\nFF\nbits=\u0668\n", r"bits must be an integer in \[5, 8\]", "'\u0668'"),
         ("generation= 2\nFF\nbits=8\n", r"generation must be an integer in \[0, int64 max\]", "' 2'"),
         # worded as a negative generation is
         ("generation=1.5\nFF\nbits=8\n", r"generation must be an integer in \[0, int64 max\]", r"'1\.5'")],
        ids=["generation-abc", "bits-abc", "generation-digit-groups", "bits-arabic-indic-digit",
             "generation-leading-space", "generation-fraction"],
    )
    def test_non_integer_field_named(self, text, rule, value):
        with pytest.raises(ValueError, match=f"^pad {rule}, got {value}$"):
            pad_from_text(text)

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
