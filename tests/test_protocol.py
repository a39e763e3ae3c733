"""Session state-machine tests: message interleaving, session round trips,
the eavesdropping check, abort discipline, pad lineages, and transcript
exports."""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotp import cli, kernels, keystore, protocol
from qotp.adversary import IndividualUTB, InterceptResend, NoAttack
from qotp.errors import PadExhaustedError
from qotp.kernels import Basis
from qotp.keystore import PadKey, generate_pad
from qotp.protocol import SessionConfig, draw_messages, json_text, run_lineage, run_session
from qotp.rng import ROLE_MESSAGE, make_rng, role_seed
from lineage_v1 import lineage_v1
from oracle import (
    BasisKeyPair,
    draw_sessions_by_argpartition,
    key_pairs,
    keyed_pairs_by_doubling,
    recycle_pad,
    state_from_basis_key,
)
from transcript_v1 import (
    attack_events,
    extracted_message,
    known_bits,
    known_plaintext_document,
    received_outcomes,
    sample_positions,
    v1_document,
)

DOCS = Path(__file__).resolve().parent.parent / "docs"
SCHEMA = json.loads((DOCS / "transcript_schema.json").read_text())
LINEAGE_SCHEMA = json.loads((DOCS / "lineage_schema.json").read_text())


def bits(text: str) -> np.ndarray:
    return np.array([int(c) for c in text], dtype=np.uint8)


def clean_session(message, n_sample, seed):
    """A clean session carrying ``message`` on a pad with exactly enough bits."""
    message = np.asarray(message, dtype=np.uint8)
    pad = generate_pad(2 * (message.size + n_sample), make_rng(seed))
    config = SessionConfig(n_message=message.size, n_sample=n_sample, seed=seed)
    return run_session(config, pad, message)


class TestModifiedMessage:
    def test_pure_sampling_session(self):
        t = clean_session([], 3, 1)
        assert t.modified.size == 3
        assert t.sample_positions.tolist() == [0, 1, 2]

    def test_message_recovered_in_order(self):
        t = clean_session(bits("1100110010"), 7, 2)
        assert np.array_equal(np.delete(t.modified, t.sample_positions), bits("1100110010"))

    @given(st.lists(st.integers(0, 1), max_size=40), st.integers(1, 10), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_subsequence_property(self, message, n_sample, seed):
        t = clean_session(message, n_sample, seed)
        assert t.modified.size == len(message) + n_sample
        message_bits = np.delete(t.modified, t.sample_positions)
        assert np.array_equal(message_bits, np.array(message, dtype=np.uint8))
        assert t.sample_positions.size == n_sample
        assert np.all(np.diff(t.sample_positions) > 0)


class TestKnownBits:
    @given(st.integers(0, 60), st.integers(1, 20), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_known_bits_are_the_message_with_samples_masked(self, n_message, n_sample, seed):
        # the adversary knows every message bit and no sampling bit
        message = make_rng(seed).integers(0, 2, n_message, dtype=np.uint8)
        pad = generate_pad(2 * (n_message + n_sample), make_rng(seed + 1))
        cfg = SessionConfig(n_message=n_message, n_sample=n_sample, seed=seed + 2,
                            abort_threshold=1.0, allow_insecure_demo=True)
        t = run_session(cfg, pad, message, InterceptResend())
        doc = known_plaintext_document(t)
        known = np.array(known_bits(doc))
        positions = sample_positions(doc)
        assert positions == t.sample_positions.tolist()
        assert np.array_equal(np.delete(known, positions), message)
        assert np.all(known[positions] == 2)


class TestEavesdropCheck:
    SENT = make_rng(0).integers(0, 2, 100, dtype=np.uint8)

    def check(self, n_flipped, threshold):
        announced = self.SENT.copy()
        announced[:n_flipped] ^= 1
        return protocol._check_rows(self.SENT != announced, threshold)

    def test_clean_accepts(self):
        assert self.check(0, 0.0) == (0, 0.0, True)

    def test_quarter_errors_rejected(self):
        assert self.check(25, 0.0) == (25, 0.25, False)

    def test_threshold_semantics(self):
        assert self.check(1, 0.02) == (1, 0.01, True)


class TestSessionConfig:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            SessionConfig(n_message=8, n_sample=0)

    def test_noisy_threshold_needs_explicit_flag(self):
        with pytest.raises(ValueError):
            SessionConfig(n_message=8, n_sample=4, abort_threshold=0.1)
        SessionConfig(n_message=8, n_sample=4, abort_threshold=0.1, allow_insecure_demo=True)

    @pytest.mark.parametrize(
        "field,value", [("n_message", 2.5), ("n_sample", 2.0), ("seed", 1.5), ("seed", "3"),
                        ("n_sample", None), ("abort_threshold", "0.1"), ("abort_threshold", None),
                        ("n_message", True), ("n_sample", True), ("seed", True),
                        ("abort_threshold", True)],
    )
    def test_counts_and_seed_must_be_integers(self, field, value):
        # a float count would fail later, in islice or in role_seed, and a
        # threshold that is no number in a comparison with a TypeError; a bool
        # would be read as 0 or 1
        fields = {"n_message": 8, "n_sample": 4, "seed": 0, "allow_insecure_demo": True,
                  field: value}
        with pytest.raises(ValueError, match=f"{field} must be an? (integer|number)"):
            SessionConfig(**fields)

    def test_numpy_integers_are_stored_as_int(self):
        config = SessionConfig(n_message=np.int64(8), n_sample=np.uint8(4), seed=np.int32(3))
        assert (config.n_message, config.n_sample, config.seed) == (8, 4, 3)
        assert all(type(v) is int for v in (config.n_message, config.n_sample, config.seed))
        t = run_session(config, generate_pad(24, make_rng(0)), np.zeros(8, dtype=np.uint8))
        assert json.loads(t.to_json())["config"]["seed"] == 3

    def test_a_numpy_threshold_is_stored_as_float(self):
        # a numpy float32 is no JSON number, so the transcript could not be written
        config = SessionConfig(n_message=8, n_sample=4, abort_threshold=np.float32(0.5),
                               allow_insecure_demo=True)
        assert type(config.abort_threshold) is float and config.abort_threshold == 0.5
        t = run_session(config, generate_pad(24, make_rng(0)), np.zeros(8, dtype=np.uint8))
        assert json.loads(t.to_json())["config"]["abort_threshold"] == 0.5


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

    @pytest.mark.parametrize(
        "message", [[0.5, 1], np.array([256, 1]), [256, 1], [2, 0], [-1, 0], ["1", "0"]],
        ids=["float", "wrapping-array", "wide-list", "two", "negative", "strings"],
    )
    def test_message_must_hold_bits(self, message):
        # each would be truncated, wrapped or rejected only deep in the kernel
        with pytest.raises(ValueError, match="^message must"):
            run_session(SessionConfig(n_message=2, n_sample=1), generate_pad(6, make_rng(0)),
                        message)

    @pytest.mark.parametrize(
        "message", [[1, 0], np.array([True, False]), np.array([1, 0], dtype=np.int64)],
        ids=["int-list", "bool", "int64"],
    )
    def test_integer_and_bool_messages_pass(self, message):
        t = run_session(SessionConfig(n_message=2, n_sample=1), generate_pad(6, make_rng(0)),
                        message)
        assert t.extracted_message.tolist() == [1, 0]

    def test_message_length_must_match_config(self):
        with pytest.raises(ValueError):
            run_session(
                SessionConfig(n_message=4, n_sample=1, seed=0),
                generate_pad(20, make_rng(0)),
                bits("10"),
            )


def hand_lineage(pad, draws, attacks):
    """The lineage as a loop of pair_states, simulate_photons, a count of the
    sampling bits announced wrong and the reference recycle_pad over the
    sessions' recorded draws (message, modified bits, sampling positions,
    uniforms): per session the pad it read, its decoded bits, whether its
    message came out exact and its check's error count; the halting session;
    and the final pad."""
    steps = []
    for k, (attack, (message, sent, positions, uniforms)) in enumerate(zip(attacks, draws)):
        n = sent.size
        state = keystore.pair_states(pad)[:n]
        _, decoded = kernels.simulate_photons(state, sent, (attack,), uniforms,
                                              np.zeros(n, dtype=np.uint8))
        n_errors = np.count_nonzero(decoded[positions] != sent[positions])
        exact = n_errors == 0 and np.array_equal(np.delete(decoded, positions), message)
        steps.append((pad, decoded, exact, n_errors))
        if n_errors:
            return steps, k + 1, None
        pad = recycle_pad(pad, n, positions)
    return steps, None, pad


def assert_same_pad(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.origin_indices, b.origin_indices)
        assert a.generation == b.generation


def recorded_lineage(monkeypatch, pad, config, attacks):
    """run_lineage with its per-session draws, keyed pair ids and decoded bits
    recorded, one row per session; a session's sampling positions are
    recorded within its row."""
    draws, pairs, decoded = [], [], []

    def draw(messages, *args):
        out = draw_sessions(messages, *args)
        sent, checked, _, uniforms = out
        draws.extend(zip(messages, sent, checked % sent.shape[1], uniforms))
        return out

    def keyed(*args):
        out = keyed_pairs(*args)
        pairs.extend(out[0])
        return out

    def step(*args):
        out = run_block(*args)
        decoded.extend(out[0][5])
        return out

    draw_sessions, keyed_pairs, run_block = (
        protocol._draw_sessions, protocol._keyed_pairs, protocol._run_block
    )
    monkeypatch.setattr(protocol, "_draw_sessions", draw)
    monkeypatch.setattr(protocol, "_keyed_pairs", keyed)
    monkeypatch.setattr(protocol, "_run_block", step)
    report, final = run_lineage(pad, config, attacks)
    return report, final, draws, pairs, decoded


def pad_for(sessions, n_message=64, n_sample=16, extra=0):
    """Exactly enough pad for ``sessions`` clean sessions, plus ``extra`` bits."""
    return 2 * (n_message + n_sample) + 2 * n_sample * (sessions - 1) + extra


class TestRunLineage:
    CONFIG = SessionConfig(n_message=64, n_sample=16, seed=12)
    IR_AT_2 = [NoAttack(), InterceptResend(), NoAttack(), NoAttack()]
    # probes at theta 0 disturb nothing, so every check passes
    MIXED = [NoAttack(), IndividualUTB(theta=0.0),
             IndividualUTB(theta=0.0, attack_basis=Basis.CROSS),
             IndividualUTB(theta=0.0, attack_basis=Basis.CROSS), NoAttack(),
             IndividualUTB(theta=0.0)]

    @pytest.mark.parametrize(
        "attacks,pad_bits,block_photons,input_sessions,halted_at",
        [
            ([NoAttack()] * 5, pad_for(5), protocol.BLOCK_PHOTONS, 0, None),
            (IR_AT_2, pad_for(4), protocol.BLOCK_PHOTONS, 0, 2),
            ([NoAttack()] * 5, pad_for(5), 2 * 80, 0, None),
            (IR_AT_2, pad_for(4), 3 * 80, 0, 2),
            ([NoAttack()] * 3, pad_for(3, extra=1), protocol.BLOCK_PHOTONS, 0, None),
            ([NoAttack()] * 3, pad_for(5), protocol.BLOCK_PHOTONS, 2, None),
            (MIXED, pad_for(6), protocol.BLOCK_PHOTONS, 0, None),
        ],
        ids=["clean-5", "intercept-resend-at-2", "clean-across-blocks",
             "intercept-resend-across-blocks", "odd-length-pad", "recycled-input-pad",
             "mixed-attacks-in-one-block"],
    )
    def test_equals_a_loop_of_sessions(
        self, attacks, pad_bits, block_photons, input_sessions, halted_at, monkeypatch
    ):
        pad = generate_pad(pad_bits, make_rng(5))
        if input_sessions:
            _, pad = run_lineage(pad, dataclasses.replace(self.CONFIG, seed=11),
                                 [NoAttack()] * input_sessions)
            assert pad.generation == input_sessions
        monkeypatch.setattr(protocol, "BLOCK_PHOTONS", block_photons)
        report, final, draws, pairs, decoded = recorded_lineage(
            monkeypatch, pad, self.CONFIG, attacks
        )
        want, want_halt, want_final = hand_lineage(pad, draws, attacks)
        sessions = lineage_v1(report)["sessions"]
        assert len(sessions) == len(want) <= len(pairs)
        # the pad each session leaves: the next session's, then the final one
        pads_after = [p for p, *_ in want[1:]] + [want_final]
        for k, (want_pad, want_decoded, want_exact, want_errors) in enumerate(want):
            # the pad bits (and their origins) the session keyed its photons with
            bit = 2 * pairs[k][:, None] + (0, 1)
            assert np.array_equal(pad.bits[bit].ravel(), want_pad.bits[: bit.size])
            assert np.array_equal(pad.origin_indices[bit].ravel(),
                                  want_pad.origin_indices[: bit.size])
            assert np.array_equal(decoded[k], want_decoded)
            assert sessions[k]["pad_bits_before"] == len(want_pad)
            assert sessions[k]["message_exact"] == want_exact
            assert sessions[k]["session"] == k + 1
            assert sessions[k]["accepted"] == (want_errors == 0)
            assert report["sessions"][k]["n_errors"] == want_errors
            assert sessions[k]["error_rate"] == want_errors / self.CONFIG.n_sample
            assert sessions[k]["pad_bits_after"] == (
                len(want_pad) if want_errors else len(pads_after[k])
            )
        assert report["halted_at_session"] == want_halt == halted_at
        assert_same_pad(final, want_final)
        assert report["final_pad_bits"] == (None if final is None else len(final))
        assert report["audit"]["announced_bits_reused"] == 0
        assert [s["attacked"] for s in sessions] == [
            a.kind != NoAttack.kind for a in attacks[: len(want)]
        ]
        if pad_bits % 2:  # the trailing bit is never keyed and survives
            assert final.origin_indices[-1] == pad.origin_indices[-1]

    @pytest.mark.parametrize(
        "attack", [NoAttack(), InterceptResend(), IndividualUTB(theta=np.pi / 8)],
        ids=["clean", "intercept-resend", "probe"],
    )
    @pytest.mark.parametrize(
        "pad_bits,input_sessions",
        [(pad_for(1), 0), (pad_for(1, extra=2 * 40), 0), (pad_for(1, extra=1), 0),
         (pad_for(3), 2)],
        ids=["exact-pad", "longer-pad", "odd-length-pad", "recycled-input-pad"],
    )
    # threshold 1 accepts every attacked session, and releases its message with errors
    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_a_session_is_a_one_row_lineage(self, attack, pad_bits, input_sessions, threshold):
        pad = generate_pad(pad_bits, make_rng(16))
        if input_sessions:
            _, pad = run_lineage(pad, dataclasses.replace(self.CONFIG, seed=17),
                                 [NoAttack()] * input_sessions)
            assert pad.generation == input_sessions
        config = dataclasses.replace(self.CONFIG, abort_threshold=threshold,
                                     allow_insecure_demo=True)
        report, final = run_lineage(pad, config, [attack])
        (session,) = lineage_v1(report)["sessions"]
        message_rng = make_rng(role_seed(config.seed, ROLE_MESSAGE))
        (message,) = draw_messages(message_rng, 1, config.n_message)
        t = run_session(config, pad, message, attack)
        assert t.error_report.n_errors == report["sessions"][0]["n_errors"]
        assert t.error_report.rate == session["error_rate"]
        assert t.error_report.accepted == session["accepted"]
        exact = t.extracted_message is not None and np.array_equal(t.extracted_message, message)
        assert exact == session["message_exact"]
        assert_same_pad(t.recycled_pad, final)

    @given(st.integers(0, 6), st.integers(1, 4), st.integers(1, 6), st.integers(0, 5),
           st.integers(1, 40), st.integers(0, 7), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_small_lineages_equal_the_hand_loop(
        self, n_message, n_sample, sessions, extra_bits, block_photons, attacked, seed
    ):
        config = SessionConfig(n_message=n_message, n_sample=n_sample, seed=seed)
        pad = generate_pad(pad_for(sessions, n_message, n_sample, extra_bits), make_rng(seed))
        attacks = [InterceptResend() if k == attacked else NoAttack() for k in range(sessions)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "BLOCK_PHOTONS", block_photons)
            report, final, draws, _, decoded = recorded_lineage(mp, pad, config, attacks)
        want, want_halt, want_final = hand_lineage(pad, draws, attacks)
        sessions = lineage_v1(report)["sessions"]
        assert [len(p) for p, *_ in want] == [s["pad_bits_before"] for s in sessions]
        assert [s["n_errors"] for s in report["sessions"]] == [n for *_, n in want]
        assert all(np.array_equal(d, w) for d, (_, w, *_) in zip(decoded, want))
        # short messages often come out exact in a rejected session, which releases none
        assert [s["message_exact"] for s in report["sessions"]] == [e for _, _, e, _ in want]
        assert report["halted_at_session"] == want_halt
        assert_same_pad(final, want_final)

    @pytest.mark.parametrize("block_photons", [1, 2 * 80, 3 * 80])
    def test_blocks_do_not_change_the_lineage(self, block_photons, monkeypatch):
        pad = generate_pad(pad_for(7), make_rng(8))
        attacks = [NoAttack()] * 4 + [IndividualUTB(theta=np.pi / 4)] + [NoAttack()] * 2
        want = run_lineage(pad, self.CONFIG, attacks)
        monkeypatch.setattr(protocol, "BLOCK_PHOTONS", block_photons)
        report, final = run_lineage(pad, self.CONFIG, attacks)
        assert report == want[0]
        assert_same_pad(final, want[1])

    @pytest.mark.parametrize("input_sessions", [0, 2])
    def test_a_lineage_of_no_sessions_returns_its_pad(self, input_sessions):
        pad = generate_pad(pad_for(3, extra=1), make_rng(4))
        if input_sessions:
            _, pad = run_lineage(pad, self.CONFIG, [NoAttack()] * input_sessions)
        report, final = run_lineage(pad, self.CONFIG, [])
        assert report == {
            "schema": "qotp-lineage-v2", "n_sample": 16, "initial_pad_bits": len(pad),
            "sessions": [], "halted_at_session": None, "final_pad_bits": len(pad),
            "audit": {"announced_bits_reused": 0, "all_messages_exact": True},
        }
        assert_same_pad(final, pad)

    def test_a_lineage_is_a_prefix_of_a_longer_one(self):
        pad = generate_pad(pad_for(6), make_rng(9))
        short, _ = run_lineage(pad, self.CONFIG, [NoAttack()] * 3)
        long, _ = run_lineage(pad, self.CONFIG, [NoAttack()] * 6)
        assert lineage_v1(long)["sessions"][:3] == lineage_v1(short)["sessions"]

    # a clean lineage, one halted by its check, one whose third block holds an
    # attacked session that the threshold accepts, and one of no sessions
    @pytest.mark.parametrize(
        "attacks,threshold,halted_at",
        [([NoAttack()] * 5, 0.0, None), (IR_AT_2, 0.0, 2),
         ([NoAttack()] * 4 + [IndividualUTB(theta=0.3)], 1.0, None), ([], 0.0, None)],
        ids=["clean", "halted", "attacked-accepted-late-block", "no-sessions"],
    )
    def test_reports_meet_the_lineage_schema(self, attacks, threshold, halted_at, monkeypatch):
        monkeypatch.setattr(protocol, "BLOCK_PHOTONS", 2 * 80)
        config = dataclasses.replace(self.CONFIG, abort_threshold=threshold,
                                     allow_insecure_demo=True)
        report, _ = run_lineage(generate_pad(pad_for(5), make_rng(18)), config, attacks)
        doc = json.loads(protocol.json_text(report))
        jsonschema.validate(doc, LINEAGE_SCHEMA)
        assert doc["halted_at_session"] == halted_at

    @pytest.mark.parametrize(
        "key", ["session", "pad_bits_before", "pad_bits_after", "accepted", "error_rate"]
    )
    def test_the_schema_rejects_each_derived_field(self, key):
        report, _ = run_lineage(generate_pad(pad_for(4), make_rng(19)), self.CONFIG, self.IR_AT_2)
        jsonschema.validate(report, LINEAGE_SCHEMA)
        report["sessions"][1][key] = lineage_v1(report)["sessions"][1][key]
        with pytest.raises(jsonschema.ValidationError, match=key):
            jsonschema.validate(report, LINEAGE_SCHEMA)

    PROBE = IndividualUTB(theta=0.0)

    # per block: its distinct attacks in order of first use, and its sessions' among them
    @pytest.mark.parametrize(
        "block_photons,blocks",
        [(protocol.BLOCK_PHOTONS, [((NoAttack(), PROBE), [0, 0, 0, 1, 0, 0])]),
         (4 * 80, [((NoAttack(), PROBE), [0, 0, 0, 1]), ((NoAttack(),), [0, 0])])],
        ids=["one-block", "two-blocks"],
    )
    def test_one_kernel_call_per_block_whatever_its_attacks(self, block_photons, blocks,
                                                             monkeypatch):
        calls = []

        def counting(*args):
            calls.append((args[2], args[4].tolist()))
            return simulate_photons(*args)

        simulate_photons = kernels.simulate_photons
        monkeypatch.setattr(kernels, "simulate_photons", counting)
        monkeypatch.setattr(protocol, "BLOCK_PHOTONS", block_photons)
        attacks = [NoAttack()] * 3 + [IndividualUTB(theta=0.0)] + [NoAttack()] * 2
        report, _ = run_lineage(generate_pad(pad_for(6), make_rng(10)), self.CONFIG, attacks)
        assert len(report["sessions"]) == 6
        # every photon of a session points at that session's attack
        assert calls == [(distinct, np.repeat(codes, 80).tolist()) for distinct, codes in blocks]

    @pytest.mark.parametrize("block_photons", [protocol.BLOCK_PHOTONS, 3 * 80])
    def test_exhaustion_only_after_every_earlier_session_passed(self, block_photons,
                                                                monkeypatch):
        monkeypatch.setattr(protocol, "BLOCK_PHOTONS", block_photons)
        pad = generate_pad(pad_for(3), make_rng(11))
        with pytest.raises(PadExhaustedError, match="at session 4: need 160 bits .* have 128"):
            run_lineage(pad, self.CONFIG, [NoAttack()] * 5)
        # a failed check before the pad runs out halts the lineage instead
        report, final = run_lineage(pad, self.CONFIG, [NoAttack()] * 2 + self.IR_AT_2[1:2] * 3)
        assert report["halted_at_session"] == 3 and final is None
        report, final = run_lineage(pad, self.CONFIG, [NoAttack()] * 3)
        assert report["halted_at_session"] is None and len(final) == 2 * 64

    def test_too_short_a_pad_exhausts_before_the_first_session(self):
        with pytest.raises(PadExhaustedError, match="at session 1: need 160 bits .* have 159"):
            run_lineage(generate_pad(159, make_rng(12)), self.CONFIG, [NoAttack()])

    def test_exhaustion_after_a_failed_check_halts_with_exit_2(self, capsys):
        # the pad keys 3 sessions; session 2 is attacked and caught first
        argv = ["recycle-demo", "--sessions", "5", "--pad-bits", str(pad_for(3)),
                "--attack", "intercept_resend", "--attack-session", "2", "--seed", "13"]
        assert cli.main(argv) == cli.EXIT_REJECTED
        assert "halted at session 2" in capsys.readouterr().out
        argv[argv.index("--attack-session") + 1] = "5"
        assert cli.main(argv) == cli.EXIT_ERROR
        assert "pad exhausted at session 4" in capsys.readouterr().err

    def test_block_step_matches_the_argpartition_and_doubling_references(self):
        """The threshold sampling mask and the per-session pair recurrence give
        the references' draws, pairs and head exactly: blocks of 1 to 819
        sessions, 0 to 1536 message bits, and checks of 1 to 512 bits or as
        many as the message bits (every photon, with no message bit)."""

        def assert_same(got, want, shape):
            for column, expected in zip(got, want, strict=True):
                assert np.asarray(column).dtype == np.asarray(expected).dtype, shape
                assert np.array_equal(column, expected), shape

        rng = make_rng(31)
        for n_message, sessions in itertools.product((0, 1, 64, 640, 1536), (1, 2, 100, 819)):
            for n_sample in sorted({1, 16, 160, 512, n_message} - {0}):
                shape = f"{sessions} x ({n_message}+{n_sample})"
                messages = draw_messages(rng, sessions, n_message)
                seed = int(rng.integers(2**63))
                drawn = protocol._draw_sessions(messages, make_rng(seed), n_sample)
                assert_same(drawn, draw_sessions_by_argpartition(messages, make_rng(seed), n_sample),
                            shape)
                unchecked, n = drawn[2], n_message + n_sample
                del drawn  # the uniforms hold the whole block's doubles
                # a head deep in a lineage: carried pairs out of order, fresh ones after
                carried, fresh = rng.permutation(3 * n_message)[:n_message], 3 * n_message
                assert_same(protocol._keyed_pairs(carried, fresh, unchecked, n),
                            keyed_pairs_by_doubling(carried, fresh, unchecked, n), shape)

    # Upper 0.1% points of the chi-square law with C(n, s) - 1 degrees of freedom.
    @pytest.mark.parametrize("n_message,n_sample,critical", [(3, 2, 27.877), (3, 3, 43.820)])
    def test_sample_positions_uniform_over_interleavings(self, n_message, n_sample, critical):
        rows = 40_000
        _, checked, _, _ = protocol._draw_sessions(
            np.zeros((rows, n_message), dtype=np.uint8), make_rng(15), n_sample
        )
        sample_mask = np.zeros((rows, n_message + n_sample), dtype=bool)
        sample_mask.ravel()[checked] = True
        assert np.all(sample_mask.sum(axis=1) == n_sample)
        subset = sample_mask @ (1 << np.arange(n_message + n_sample))
        counts = np.unique(subset, return_counts=True)[1]
        assert counts.size == math.comb(n_message + n_sample, n_sample)
        expected = rows / counts.size
        assert float(np.sum((counts - expected) ** 2 / expected)) < critical

    def test_audit_counts_bits_a_faulty_recycle_keeps(self, monkeypatch):
        def keeps_every_pair(carried, fresh, unchecked, n):
            sessions = unchecked.shape[0]
            head = np.concatenate((carried, np.arange(fresh, fresh + n - carried.size)))
            return np.tile(head, (sessions, 1)), head, fresh + n - carried.size

        pad = generate_pad(pad_for(2), make_rng(6))
        clean, _ = run_lineage(pad, self.CONFIG, [NoAttack()] * 2)
        assert clean["audit"]["announced_bits_reused"] == 0
        monkeypatch.setattr(protocol, "_keyed_pairs", keeps_every_pair)
        report, final = run_lineage(pad, self.CONFIG, [NoAttack()] * 2)
        # session 2 draws again the 2 pad bits of each of session 1's 16 checks
        assert report["audit"]["announced_bits_reused"] == 2 * 16
        assert final.generation == 2 and len(final) == len(pad)

    def test_audit_follows_a_recycled_input_pad(self):
        pad = generate_pad(pad_for(3, extra=2 * 16), make_rng(7))
        _, middle = run_lineage(pad, self.CONFIG, [NoAttack()])
        report, final = run_lineage(middle, dataclasses.replace(self.CONFIG, seed=13),
                                    [NoAttack()] * 2)
        assert report["audit"]["announced_bits_reused"] == 0
        assert final.generation == 3 and len(final) == len(pad) - 3 * 2 * 16

    @staticmethod
    def live_pad_by_flat_index(pad, carried, fresh, sessions):
        """The pad after the passed checks, through one flat index of the live bits."""
        n_pairs = len(pad) // 2
        live = np.concatenate((carried, np.arange(fresh, n_pairs)))
        keep = np.append(2 * live[:, None] + (0, 1), np.arange(2 * n_pairs, len(pad)))
        return pad.bits[keep], pad.generation + sessions, pad.origin_indices[keep]

    @pytest.mark.parametrize("pad_bits", [pad_for(3), pad_for(3, extra=1), pad_for(3, extra=33)])
    @pytest.mark.parametrize("input_sessions", [0, 2])
    def test_live_pad_takes_the_live_pairs_and_an_odd_pads_last_bit(self, pad_bits,
                                                                     input_sessions):
        pad = generate_pad(pad_bits, make_rng(8))
        if input_sessions:  # a recycled pad, whose ledger has gaps
            pad = run_lineage(pad, self.CONFIG, [NoAttack()] * input_sessions)[1]
            assert not np.array_equal(pad.origin_indices, np.arange(len(pad)))
        rng = make_rng(9)
        for fresh in (48, 64, len(pad) // 2):
            carried = np.sort(rng.choice(fresh, size=48, replace=False))
            got = protocol._live_pad(pad, carried, fresh, 3)
            want = self.live_pad_by_flat_index(pad, carried, fresh, 3)
            assert np.array_equal(got.bits, want[0])
            assert got.generation == want[1] == pad.generation + 3
            assert np.array_equal(got.origin_indices, want[2])

    def test_long_lineage_report(self, tmp_path, capsys):
        out = tmp_path / "long.json"
        assert cli.main(["recycle-demo", "--sessions", "20000", "--seed", "5",
                         "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert len(report["sessions"]) == 20000 and report["halted_at_session"] is None
        assert report["audit"] == {"announced_bits_reused": 0, "all_messages_exact": True}
        assert report["final_pad_bits"] == 128


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
        positions = t.sample_positions.tolist()
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

    def test_schema_valid_known_plaintext(self, tmp_path, capsys):
        # the note is the CLI's: run writes it on the attack entry
        out = tmp_path / "kp.json"
        argv = ["run", "--message-bits", "16", "--samples", "8", "--attack", "intercept_resend",
                "--known-plaintext", "--threshold", "1", "--insecure-demo", "--seed", "55",
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["attack"]["known_plaintext"] is True
        jsonschema.validate(doc, SCHEMA)

    @pytest.mark.parametrize(
        "inner", [NoAttack(), InterceptResend(), IndividualUTB(theta=np.pi / 8)]
    )
    @pytest.mark.parametrize("known_plaintext", [False, True])
    def test_json_text_is_the_compact_sorted_dict(self, inner, known_plaintext):
        message = make_rng(56).integers(0, 2, 40, dtype=np.uint8)
        pad = generate_pad(2 * 60, make_rng(57))
        cfg = SessionConfig(n_message=40, n_sample=20, seed=58,
                            abort_threshold=1.0, allow_insecure_demo=True)
        t = run_session(cfg, pad, message, inner)
        assert t.to_json() == json_text(t.to_json_dict())
        doc = known_plaintext_document(t) if known_plaintext else t.to_json_dict()
        text = json_text(doc)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
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
            assert ph["encoding"] == f"U{t.modified[i]}"
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

    def test_pad_pairs_label_their_states_by_their_first_bit(self):
        # the receiver's outcome label is the decoded bit XOR this label
        pad = PadKey(np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8))
        states = keystore.pair_states(pad)
        assert kernels.PREP_LABEL_OF_STATE[states].tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize(
        "attack,threshold",
        [(NoAttack(), 0.0), (InterceptResend(), 0.0), (InterceptResend(), 1.0),
         (IndividualUTB(theta=0.7), 1.0)],
    )
    def test_the_dropped_columns_follow_from_the_transcript(self, attack, threshold, monkeypatch):
        sent = []
        simulate = kernels.simulate_photons

        def recording(*args):
            sent.append((args, simulate(*args)))
            return sent[-1][1]

        monkeypatch.setattr(kernels, "simulate_photons", recording)
        message = make_rng(69).integers(0, 2, 300, dtype=np.uint8)
        cfg = SessionConfig(n_message=300, n_sample=100, seed=70, abort_threshold=threshold,
                            allow_insecure_demo=True)
        t = run_session(cfg, generate_pad(2 * 400, make_rng(71)), message, attack)
        doc = t.to_json_dict()
        # the outcome of each photon as sent: its decoded bit XOR its state's label
        [((state_idx, *_), (_, decoded))] = sent
        outcomes = decoded ^ kernels.PREP_LABEL_OF_STATE[state_idx]
        assert received_outcomes(doc) == outcomes.tolist()
        assert (t.extracted_message is None) == (extracted_message(doc) is None)
        if t.extracted_message is not None:
            assert extracted_message(doc) == t.extracted_message.tolist()

    @pytest.mark.parametrize("key", ["received_outcomes", "extracted_message", "posterior_plus"])
    def test_the_schema_rejects_each_dropped_field(self, key):
        message = make_rng(72).integers(0, 2, 16, dtype=np.uint8)
        cfg = SessionConfig(n_message=16, n_sample=8, seed=73, abort_threshold=1.0,
                            allow_insecure_demo=True)
        t = run_session(cfg, generate_pad(2 * 24, make_rng(74)), message, InterceptResend())
        doc = known_plaintext_document(t)
        jsonschema.validate(doc, SCHEMA)
        view = doc["secret_view"]
        if key == "posterior_plus":
            view["adversary"][key] = [[0.5] * 4] * 3
        else:
            view[key] = view["decoded_bits"]
        with pytest.raises(jsonschema.ValidationError, match=key):
            jsonschema.validate(doc, SCHEMA)

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
        message = make_rng(63).integers(0, 2, 30, dtype=np.uint8)
        pad = generate_pad(2 * 45, make_rng(64))
        cfg = SessionConfig(n_message=30, n_sample=15, seed=65, abort_threshold=threshold,
                            allow_insecure_demo=True)
        t = run_session(cfg, pad, message, inner)
        doc = known_plaintext_document(t) if known_plaintext else t.to_json_dict()
        jsonschema.validate(doc, SCHEMA)
        n_message, n_sample = doc["config"]["n_message"], doc["config"]["n_sample"]
        n = n_message + n_sample
        view = doc["secret_view"]
        assert len(view["pad_bits"]) == 2 * n
        for column in ("modified_bits", "decoded_bits"):
            assert len(view[column]) == n
        message = extracted_message(doc)
        assert (message is not None) == doc["public_view"]["error_report"]["accepted"]
        if message is not None:
            assert len(message) == n_message
        announced = doc["public_view"]["announced"]
        assert len(announced) == n and n - announced.count("2") == n_sample
        adversary = view["adversary"]
        if n_records == 0:
            assert adversary is None
            return
        assert len(adversary["records"]) == n
        assert max(map(int, adversary["records"])) < n_records

    def test_known_plaintext_transcript_under_7_bytes_per_photon(self, tmp_path, capsys):
        # the session benchmark's known-plaintext shape, as the CLI writes it
        out = tmp_path / "kp.json"
        argv = ["run", "--message-bits", "1536", "--samples", "512", "--attack", "utb",
                "--theta-deg", "22.5", "--known-plaintext", "--threshold", "1",
                "--insecure-demo", "--seed", "68", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        assert json.loads(out.read_text())["attack"]["known_plaintext"] is True
        assert len(out.read_bytes()) < 7 * 2048

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
