"""Session state-machine tests: message interleaving, session round trips,
the eavesdropping check, abort discipline, and transcript exports."""

import dataclasses
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotp import keystore, protocol
from qotp.adversary import IndividualUTB, InterceptResend, NoAttack
from qotp.errors import PadExhaustedError
from qotp.kernels import Basis
from qotp.keystore import PadKey, generate_pad
from qotp.protocol import (
    ModifiedMessage,
    SessionConfig,
    build_modified_message,
    eavesdrop_check,
    run_lineage,
    run_session,
)
from qotp.rng import ROLE_MESSAGE, ROLE_SESSION, make_rng, role_seed
from oracle import BasisKeyPair, key_pairs, state_from_basis_key
from transcript_v1 import attack_events, known_bits, sample_positions, v1_document

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "transcript_schema.json").read_text()
)


def bits(text: str) -> np.ndarray:
    return np.array([int(c) for c in text], dtype=np.uint8)


class TestModifiedMessage:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one sampling bit"):
            build_modified_message(bits("101"), 0, make_rng(0))
        with pytest.raises(ValueError, match="at least one sample position"):
            ModifiedMessage(bits=bits("101"), sample_positions=[])

    def test_pure_sampling_session(self):
        mm = build_modified_message([], 3, make_rng(1))
        assert mm.bits.size == 3
        assert set(mm.sample_positions.tolist()) == {0, 1, 2}

    def test_message_recovered_in_order(self):
        mm = build_modified_message(bits("1100110010"), 7, make_rng(2))
        assert np.array_equal(np.delete(mm.bits, mm.sample_positions), bits("1100110010"))

    @given(st.lists(st.integers(0, 1), max_size=40), st.integers(1, 10), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_subsequence_property(self, message, n_sample, seed):
        mm = build_modified_message(message, n_sample, make_rng(seed))
        assert mm.bits.size == len(message) + n_sample
        message_bits = np.delete(mm.bits, mm.sample_positions)
        assert np.array_equal(message_bits, np.array(message, dtype=np.uint8))
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


class TestKnownBits:
    @given(st.integers(0, 60), st.integers(1, 20), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_known_bits_are_the_message_with_samples_masked(self, n_message, n_sample, seed):
        # the adversary knows every message bit and no sampling bit
        from qotp.adversary import KnownPlaintext

        message = make_rng(seed).integers(0, 2, n_message, dtype=np.uint8)
        pad = generate_pad(2 * (n_message + n_sample), make_rng(seed + 1))
        cfg = SessionConfig(n_message=n_message, n_sample=n_sample, seed=seed + 2,
                            abort_threshold=1.0, allow_insecure_demo=True)
        t = run_session(cfg, pad, message, KnownPlaintext(inner=InterceptResend()))
        doc = t.to_json_dict()
        known = np.array(known_bits(doc))
        positions = sample_positions(doc)
        assert positions == t.mm.sample_positions.tolist()
        assert np.array_equal(np.delete(known, positions), message)
        assert np.all(known[positions] == 2)


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


def hand_lineage(pad, config, attacks):
    """The lineage as a loop of run_session calls: the per-session decoded bits
    and pads, the halting session, and the final pad."""
    steps = []
    for k, attack in enumerate(attacks):
        rng = make_rng(role_seed(config.seed, ROLE_MESSAGE, k))
        message = rng.integers(0, 2, size=config.n_message, dtype=np.uint8)
        session = SessionConfig(n_message=config.n_message, n_sample=config.n_sample,
                                seed=role_seed(config.seed, ROLE_SESSION, k))
        t = run_session(session, pad, message, attack)
        steps.append((t.decoded, t.recycled_pad))
        if not t.error_report.accepted:
            return steps, k + 1, None
        pad = t.recycled_pad
    return steps, None, pad


def assert_same_pad(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.origin_indices, b.origin_indices)
        assert a.generation == b.generation


class TestRunLineage:
    CONFIG = SessionConfig(n_message=64, n_sample=16, seed=12)

    @pytest.mark.parametrize(
        "attacks,halted_at",
        [([NoAttack()] * 5, None), ([NoAttack(), InterceptResend(), NoAttack(), NoAttack()], 2)],
        ids=["clean-5", "intercept-resend-at-2"],
    )
    def test_equals_a_loop_of_sessions(self, attacks, halted_at, monkeypatch):
        pad = generate_pad(2 * (64 + 16) + 2 * 16 * (len(attacks) - 1), make_rng(5))
        want, want_halt, want_final = hand_lineage(pad, self.CONFIG, attacks)

        seen = []

        def recording(*args):
            t = run_session(*args)
            seen.append((t.decoded, t.recycled_pad))
            return t

        monkeypatch.setattr(protocol, "run_session", recording)
        report, final = run_lineage(pad, self.CONFIG, attacks)
        assert len(seen) == len(want) == len(report["sessions"])
        for (decoded, recycled), (want_decoded, want_recycled) in zip(seen, want):
            assert np.array_equal(decoded, want_decoded)
            assert_same_pad(recycled, want_recycled)
        assert report["halted_at_session"] == want_halt == halted_at
        assert_same_pad(final, want_final)
        assert report["final_pad_bits"] == (None if final is None else len(final))
        assert [s["attacked"] for s in report["sessions"]] == [
            a.kind != NoAttack.kind for a in attacks[: len(want)]
        ]

    def test_audit_counts_bits_a_faulty_recycle_keeps(self, monkeypatch):
        def keeps_every_bit(pad, n_photons, announced_photons, check):
            return PadKey(bits=pad.bits, generation=pad.generation + 1,
                          origin_indices=pad.origin_indices)

        pad = generate_pad(2 * (64 + 16) + 2 * 16, make_rng(6))
        clean, _ = run_lineage(pad, self.CONFIG, [NoAttack()] * 2)
        assert clean["audit"]["announced_bits_reused"] == 0
        monkeypatch.setattr(keystore, "recycle_pad", keeps_every_bit)
        report, final = run_lineage(pad, self.CONFIG, [NoAttack()] * 2)
        # session 2 draws again the 2 pad bits of each of session 1's 16 checks
        assert report["audit"]["announced_bits_reused"] == 2 * 16
        assert final.generation == 2 and len(final) == len(pad)

    def test_audit_follows_a_recycled_input_pad(self):
        pad = generate_pad(2 * (64 + 16) + 2 * 16 * 2, make_rng(7))
        _, middle = run_lineage(pad, self.CONFIG, [NoAttack()])
        report, final = run_lineage(middle, dataclasses.replace(self.CONFIG, seed=13),
                                    [NoAttack()] * 2)
        assert report["audit"]["announced_bits_reused"] == 0
        assert final.generation == 3 and len(final) == len(pad) - 3 * 2 * 16


class TestPublicRecord:
    def _transcript(self, attack=NoAttack()):
        message = make_rng(40).integers(0, 2, 24, dtype=np.uint8)
        pad = generate_pad(2 * 32, make_rng(41))
        return run_session(
            SessionConfig(n_message=24, n_sample=8, seed=42), pad, message, attack
        )

    def test_public_view_key_set(self):
        view = self._transcript().public_view()
        assert set(view) == {"announced", "error_report"}
        assert set(view["error_report"]) == {"n_checked", "n_errors", "rate", "accepted"}

    def test_public_view_content_minimality(self):
        # nothing basis- or pad-shaped may appear anywhere in the public record
        view = self._transcript(IndividualUTB(theta=np.pi / 8)).public_view()
        text = json.dumps(view).lower()
        for forbidden in ("basis", "pad", "amps", "state", "theta", "prepared", "key", "probe"):
            assert forbidden not in text
        assert set(view["announced"]) <= {"0", "1", "2"}

    def test_announcement_values_are_bobs_decodes(self):
        t = self._transcript()
        announced = t.public_view()["announced"]
        positions = t.mm.sample_positions.tolist()
        for i, val in enumerate(announced):
            assert val == ("2" if i not in positions else str(t.decoded[i]))


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
        attack = KnownPlaintext(inner=InterceptResend())
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
            attack = KnownPlaintext(inner=inner)
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
        doc = t.to_json_dict()
        view = v1_document(doc)["secret_view"]
        events = attack_events(doc)
        assert len(view["photons"]) == len(view["attack_events"]) == 60
        pairs = key_pairs(t.pad.bits[: 2 * 60])
        rows = zip(view["photons"], view["attack_events"], pairs)
        for i, (ph, ev, pair) in enumerate(rows):
            assert ph["index"] == ev["photon_index"] == i
            assert ph["basis_key"] == [pair.b0, pair.b1]
            amps = state_from_basis_key(pair).amps
            assert [(a["re"], a["im"]) for a in ph["prepared"]] == [(a.real, a.imag) for a in amps]
            assert ph["encoding"] == f"U{t.mm.bits[i]}"
            assert ph["decoded_bit"] == view["decoded_bits"][i] == t.decoded[i]
            # the decoded bit is 1 exactly when the outcome is not the prepared eigenstate
            assert ph["decoded_bit"] == int(ph["received_outcome"] != pair.eigenstate_label)
            record = events[i]
            basis = record.eve_basis
            assert ev["eve_basis"] == (None if basis is None else basis.value)
            assert ev["eve_outcome"] == record.eve_outcome
            assert ev["probe_outcome"] == record.probe_outcome
        if isinstance(attack, InterceptResend):
            assert [2 * ev.eve_basis.index + ev.eve_outcome for ev in events] == t.record.tolist()
        else:
            assert [ev.probe_outcome for ev in events] == t.record.tolist()
            probes = {(ev.theta, ev.attack_basis) for ev in events}
            assert probes == {(np.pi / 4, Basis.CROSS)}

    @pytest.mark.parametrize(
        "inner,n_records",
        [(NoAttack(), 0), (InterceptResend(), 4), (IndividualUTB(theta=np.pi / 8), 2)],
    )
    @pytest.mark.parametrize("known_plaintext", [False, True])
    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_columns_have_the_lengths_the_config_implies(
        self, inner, n_records, known_plaintext, threshold
    ):
        # JSON Schema fixes each column's alphabet but cannot tie its length
        # to the config
        from qotp.adversary import KnownPlaintext

        message = make_rng(63).integers(0, 2, 30, dtype=np.uint8)
        pad = generate_pad(2 * 45, make_rng(64))
        attack = inner
        if known_plaintext:
            attack = KnownPlaintext(inner=inner)
        cfg = SessionConfig(n_message=30, n_sample=15, seed=65, abort_threshold=threshold,
                            allow_insecure_demo=True)
        doc = run_session(cfg, pad, message, attack).to_json_dict()
        jsonschema.validate(doc, SCHEMA)
        n_message, n_sample = doc["config"]["n_message"], doc["config"]["n_sample"]
        n = n_message + n_sample
        view = doc["secret_view"]
        assert len(view["pad_bits"]) == 2 * n
        for column in ("modified_bits", "received_outcomes", "decoded_bits"):
            assert len(view[column]) == n
        if view["extracted_message"] is not None:
            assert len(view["extracted_message"]) == n_message
        announced = doc["public_view"]["announced"]
        assert len(announced) == n and n - announced.count("2") == n_sample
        adversary = view["adversary"]
        if n_records == 0:
            assert adversary is None
            return
        assert len(adversary["records"]) == n
        assert max(map(int, adversary["records"])) < n_records
        assert [len(row) for row in adversary["posterior_plus"]] == [n_records] * 3
        # row 2: a photon whose encoded bit is not known leaves both bases
        # equally likely, whatever the record
        np.testing.assert_allclose(adversary["posterior_plus"][2], 0.5, rtol=0, atol=1e-15)

    def test_known_plaintext_transcript_under_12_bytes_per_photon(self):
        from qotp.adversary import KnownPlaintext

        message = make_rng(66).integers(0, 2, 1536, dtype=np.uint8)
        pad = generate_pad(2 * 2048, make_rng(67))
        attack = KnownPlaintext(inner=IndividualUTB(theta=np.pi / 8))
        cfg = SessionConfig(n_message=1536, n_sample=512, seed=68, abort_threshold=1.0,
                            allow_insecure_demo=True)
        text = run_session(cfg, pad, message, attack).to_json()
        assert len(text.encode()) < 12 * 2048

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
        from oracle import measure, state_from_basis_key, apply_encoding
        from oracle import BasisKeyPair, EncodingOp

        rng = make_rng(70)
        n = 20_000
        for bit in (0, 1):
            ones = 0
            for _ in range(n):
                pair = BasisKeyPair(int(rng.integers(2)), int(rng.integers(2)))
                photon = apply_encoding(EncodingOp(bit), state_from_basis_key(pair))
                ones += measure(photon, Basis.PLUS, rng)[0]
            assert abs(ones / n - 0.5) < 3 * np.sqrt(0.25 / n)
