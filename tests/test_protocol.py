"""Session state-machine tests: message interleaving, encode/decode round
trips, the eavesdropping check, abort discipline, and transcript exports."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotp.adversary import IndividualUTB, InterceptResend, NoAttack
from qotp.errors import PadExhaustedError
from qotp.keystore import PadKey, draw_basis_keys, generate_pad
from qotp.protocol import (
    ModifiedMessage,
    SessionConfig,
    alice_encode,
    bob_decode,
    build_modified_message,
    eavesdrop_check,
    run_session,
)
from qotp.quantum import Basis, BasisKeyPair, KET_U, state_from_basis_key
from qotp.rng import make_rng

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "transcript_schema.json").read_text()
)


def bits(text: str) -> np.ndarray:
    return np.array([int(c) for c in text], dtype=np.uint8)


class TestModifiedMessage:
    def test_zero_samples_test_mode(self):
        mm = build_modified_message(bits("101"), 0, make_rng(0))
        assert np.array_equal(mm.bits, bits("101"))
        assert mm.n_sample == 0

    def test_pure_sampling_session(self):
        mm = build_modified_message([], 3, make_rng(1))
        assert mm.bits.size == 3
        assert set(mm.sample_positions.tolist()) == {0, 1, 2}

    def test_message_recovered_in_order(self):
        mm = build_modified_message(bits("1100110010"), 7, make_rng(2))
        assert np.array_equal(mm.message_bits(), bits("1100110010"))

    @given(st.lists(st.integers(0, 1), max_size=40), st.integers(1, 10), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_subsequence_property(self, message, n_sample, seed):
        mm = build_modified_message(message, n_sample, make_rng(seed))
        assert mm.bits.size == len(message) + n_sample
        assert np.array_equal(mm.message_bits(), np.array(message, dtype=np.uint8))
        assert mm.n_sample == n_sample
        assert np.all(np.diff(mm.sample_positions) > 0)

    def test_position_distribution_uniform(self):
        # |M| = 2, one sample: each of the 3 slots should get ~1/3
        n = 10_000
        rng = make_rng(3)
        counts = np.zeros(3)
        for _ in range(n):
            mm = build_modified_message(bits("10"), 1, rng)
            counts[int(mm.sample_positions[0])] += 1
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(counts / n - 1 / 3) < 3 * sigma)


class TestEncodeDecode:
    def test_encode_examples(self):
        mm = ModifiedMessage(
            bits=bits("101"),
            sample_positions=np.array([], dtype=np.int64),
        )
        # 00, 01, 10 -> H, u, d
        keys = draw_basis_keys(PadKey(bits=bits("000110")), 3)
        photons = alice_encode(keys, mm)
        assert np.allclose(photons[0].amps, [0, -1])        # U1 on H -> -V
        assert np.allclose(photons[1].amps, KET_U.amps)     # U0 on u
        r = np.sqrt(0.5)
        assert np.allclose(photons[2].amps, [-r, -r])       # U1 on d -> -u

    def test_length_mismatch(self):
        mm = build_modified_message(bits("10"), 1, make_rng(0))
        keys = draw_basis_keys(generate_pad(4, make_rng(0)), 2)
        with pytest.raises(ValueError):
            alice_encode(keys, mm)

    def test_decode_examples(self):
        rng = make_rng(1)
        keys = draw_basis_keys(PadKey(bits=bits("0001")), 2)
        mm = ModifiedMessage(
            bits=bits("10"),
            sample_positions=np.array([], dtype=np.int64),
        )
        photons = alice_encode(keys, mm)  # -V, u
        decoded = bob_decode(photons, keys, rng)
        assert decoded == [1, 0]

    def test_round_trip_64_bits(self):
        message = make_rng(5).integers(0, 2, 64, dtype=np.uint8)
        mm = build_modified_message(message, 0, make_rng(6))
        keys = draw_basis_keys(generate_pad(128, make_rng(7)), 64)
        decoded = bob_decode(alice_encode(keys, mm), keys, make_rng(8))
        assert np.array_equal(np.array(decoded, dtype=np.uint8), message)


class TestEavesdropCheck:
    def _mm(self, n):
        return build_modified_message([], n, make_rng(0))

    def test_clean_accepts(self):
        mm = self._mm(10)
        report = eavesdrop_check(mm, [int(b) for b in mm.bits], 0.0)
        assert report.accepted and report.rate == 0.0 and report.n_checked == 10

    def test_quarter_errors_rejected(self):
        mm = self._mm(100)
        decoded = [int(b) for b in mm.bits]
        for p in mm.sample_positions[:25]:
            decoded[int(p)] ^= 1
        report = eavesdrop_check(mm, decoded, 0.0)
        assert not report.accepted and report.rate == 0.25 and report.n_errors == 25

    def test_threshold_semantics(self):
        mm = self._mm(100)
        decoded = [int(b) for b in mm.bits]
        decoded[int(mm.sample_positions[0])] ^= 1
        report = eavesdrop_check(mm, decoded, 0.02)
        assert report.accepted and report.rate == 0.01


class TestSessionConfig:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            SessionConfig(n_message=8, n_sample=0)

    def test_noisy_threshold_needs_explicit_flag(self):
        with pytest.raises(ValueError):
            SessionConfig(n_message=8, n_sample=4, abort_threshold=0.1)
        SessionConfig(n_message=8, n_sample=4, abort_threshold=0.1, allow_insecure_demo=True)


class TestRunSession:
    def test_clean_session_exact(self):
        for seed in range(5):
            message = make_rng(seed).integers(0, 2, 48, dtype=np.uint8)
            pad = generate_pad(2 * (48 + 12), make_rng(100 + seed))
            t = run_session(SessionConfig(n_message=48, n_sample=12, seed=seed), pad, message)
            assert t.error_report.accepted and t.error_report.rate == 0.0
            assert np.array_equal(t.extracted_message, message)
            assert t.recycled_pad is not None
            assert len(t.recycled_pad) == len(pad) - 2 * 12

    def test_round_trip_random_lengths(self):
        rng = make_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 257))
            message = rng.integers(0, 2, n, dtype=np.uint8)
            ns = max(1, n // 8)
            pad = generate_pad(2 * (n + ns), rng)
            t = run_session(
                SessionConfig(n_message=n, n_sample=ns, seed=int(rng.integers(2**32))),
                pad,
                message,
            )
            assert np.array_equal(t.extracted_message, message)

    def test_intercept_resend_rejected(self):
        pad = generate_pad(2 * 10_000, make_rng(20))
        t = run_session(
            SessionConfig(n_message=0, n_sample=10_000, seed=21), pad, [], InterceptResend()
        )
        assert not t.error_report.accepted
        sigma = np.sqrt(0.25 * 0.75 / 10_000)
        assert abs(t.error_report.rate - 0.25) < 3 * sigma

    def test_zero_strength_probe_attack_clean(self):
        message = make_rng(1).integers(0, 2, 32, dtype=np.uint8)
        pad = generate_pad(2 * 40, make_rng(2))
        t = run_session(
            SessionConfig(n_message=32, n_sample=8, seed=3),
            pad,
            message,
            IndividualUTB(theta=0.0),
        )
        assert t.error_report.accepted and t.error_report.rate == 0.0
        assert np.array_equal(t.extracted_message, message)

    def test_abort_discipline(self):
        pad = generate_pad(2 * 2000, make_rng(30))
        t = run_session(
            SessionConfig(n_message=0, n_sample=2000, seed=31), pad, [], InterceptResend()
        )
        assert not t.error_report.accepted
        assert t.recycled_pad is None
        assert t.extracted_message is None

    def test_pad_exhaustion(self):
        with pytest.raises(PadExhaustedError):
            run_session(
                SessionConfig(n_message=8, n_sample=4, seed=0),
                generate_pad(10, make_rng(0)),
                bits("10101010"),
            )

    def test_message_length_must_match_config(self):
        with pytest.raises(ValueError):
            run_session(
                SessionConfig(n_message=4, n_sample=1, seed=0),
                generate_pad(20, make_rng(0)),
                bits("10"),
            )


class TestPublicRecord:
    def _transcript(self, attack=NoAttack()):
        message = make_rng(40).integers(0, 2, 24, dtype=np.uint8)
        pad = generate_pad(2 * 32, make_rng(41))
        return run_session(
            SessionConfig(n_message=24, n_sample=8, seed=42), pad, message, attack
        )

    def test_public_view_key_set(self):
        view = self._transcript().public_view()
        assert set(view) == {"sample_positions", "announced_sample_values", "error_report"}
        assert set(view["error_report"]) == {"n_checked", "n_errors", "rate", "accepted"}

    def test_public_view_content_minimality(self):
        # nothing basis- or pad-shaped may appear anywhere in the public record
        view = self._transcript(IndividualUTB(theta=np.pi / 8)).public_view()
        text = json.dumps(view).lower()
        for forbidden in ("basis", "pad", "amps", "state", "theta", "prepared", "key", "probe"):
            assert forbidden not in text
        assert all(v in (0, 1) for v in view["announced_sample_values"])
        assert all(isinstance(p, int) for p in view["sample_positions"])

    def test_announcement_values_are_bobs_decodes(self):
        t = self._transcript()
        view = t.public_view()
        for pos, val in zip(view["sample_positions"], view["announced_sample_values"]):
            assert val == t.decoded[pos]


class TestTranscriptExport:
    @pytest.mark.parametrize(
        "attack", [NoAttack(), InterceptResend(), IndividualUTB(theta=np.pi / 8)]
    )
    def test_schema_valid(self, attack):
        message = make_rng(50).integers(0, 2, 16, dtype=np.uint8)
        pad = generate_pad(2 * 24, make_rng(51))
        t = run_session(SessionConfig(n_message=16, n_sample=8, seed=52), pad, message, attack)
        doc = t.to_json_dict()
        jsonschema.validate(doc, SCHEMA)

    def test_schema_valid_known_plaintext(self):
        from qotp.adversary import KnownPlaintext

        message = make_rng(53).integers(0, 2, 16, dtype=np.uint8)
        pad = generate_pad(2 * 24, make_rng(54))
        attack = KnownPlaintext(
            inner=InterceptResend(), known_message=tuple(int(b) for b in message)
        )
        cfg = SessionConfig(
            n_message=16, n_sample=8, seed=55,
            abort_threshold=1.0, allow_insecure_demo=True,
        )
        t = run_session(cfg, pad, message, attack)
        doc = t.to_json_dict()
        assert doc["attack"]["known_plaintext"] is True
        jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize(
        "inner", [NoAttack(), InterceptResend(), IndividualUTB(theta=np.pi / 8)]
    )
    @pytest.mark.parametrize("known_plaintext", [False, True])
    def test_json_text_is_the_compact_sorted_dict(self, inner, known_plaintext):
        from qotp.adversary import KnownPlaintext

        message = make_rng(56).integers(0, 2, 40, dtype=np.uint8)
        pad = generate_pad(2 * 60, make_rng(57))
        attack = inner
        if known_plaintext:
            attack = KnownPlaintext(inner=inner, known_message=tuple(message.tolist()))
        cfg = SessionConfig(n_message=40, n_sample=20, seed=58,
                            abort_threshold=1.0, allow_insecure_demo=True)
        t = run_session(cfg, pad, message, attack)
        text = t.to_json()
        assert text == json.dumps(t.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        assert "\n" not in text[:-1]

    @pytest.mark.parametrize(
        "attack", [InterceptResend(), IndividualUTB(theta=np.pi / 4, attack_basis=Basis.CROSS)]
    )
    def test_json_records_match_the_session(self, attack):
        message = make_rng(59).integers(0, 2, 40, dtype=np.uint8)
        pad = generate_pad(2 * 60, make_rng(60))
        cfg = SessionConfig(n_message=40, n_sample=20, seed=61,
                            abort_threshold=1.0, allow_insecure_demo=True)
        t = run_session(cfg, pad, message, attack)
        view = t.to_json_dict()["secret_view"]
        assert len(view["photons"]) == len(view["attack_events"]) == 60
        rows = zip(view["photons"], view["attack_events"], t.keys.pairs)
        for i, (ph, ev, pair) in enumerate(rows):
            assert ph["index"] == ev["photon_index"] == i
            assert ph["basis_key"] == [pair.b0, pair.b1]
            amps = state_from_basis_key(pair).amps
            assert [(a["re"], a["im"]) for a in ph["prepared"]] == [(a.real, a.imag) for a in amps]
            assert ph["encoding"] == f"U{t.mm.bits[i]}"
            assert ph["decoded_bit"] == view["decoded_bits"][i] == t.decoded[i]
            # the decoded bit is 1 exactly when the outcome is not the prepared eigenstate
            assert ph["decoded_bit"] == int(ph["received_outcome"] != pair.eigenstate_label)
            record = t.attack_events[i]
            basis = record.eve_basis
            assert ev["eve_basis"] == (None if basis is None else basis.value)
            assert ev["eve_outcome"] == record.eve_outcome
            assert ev["probe_outcome"] == record.probe_outcome
        if isinstance(attack, InterceptResend):
            assert [ev.eve_basis.index for ev in t.attack_events] == t.eve_basis.tolist()
            assert [ev.eve_outcome for ev in t.attack_events] == t.eve_outcome.tolist()
        else:
            assert [ev.probe_outcome for ev in t.attack_events] == t.eve_outcome.tolist()
            probes = {(ev.theta, ev.attack_basis) for ev in t.attack_events}
            assert probes == {(np.pi / 4, Basis.CROSS)}

    def test_json_deterministic(self):
        def once():
            message = make_rng(60).integers(0, 2, 16, dtype=np.uint8)
            pad = generate_pad(2 * 20, make_rng(61))
            return run_session(
                SessionConfig(n_message=16, n_sample=4, seed=62), pad, message
            ).to_json()

        assert once() == once()

    def test_ciphertext_ensemble_uniform_object_level(self):
        # over uniform pads a fixed-basis observer sees 50/50 outcomes for a
        # fixed message bit (small-n object-level cross-check; the large-n
        # version runs through the batch kernels in the acceptance suite)
        from qotp.quantum import Basis, measure, state_from_basis_key, apply_encoding
        from qotp.quantum import BasisKeyPair, EncodingOp

        rng = make_rng(70)
        n = 20_000
        for bit in (0, 1):
            ones = 0
            for _ in range(n):
                pair = BasisKeyPair(int(rng.integers(2)), int(rng.integers(2)))
                photon = apply_encoding(EncodingOp(bit), state_from_basis_key(pair))
                ones += measure(photon, Basis.PLUS, rng)[0]
            assert abs(ones / n - 0.5) < 3 * np.sqrt(0.25 / n)
