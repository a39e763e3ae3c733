"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line at its stated tolerance (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values marked as derived were computed beforehand with independent
oracles: a 30-digit evaluation of the closed forms, exhaustive enumeration of
the intercept-resend channel, and explicit 4-dim complex projection algebra.
"""

import json
import time

import numpy as np
import pytest

from qotp import cli
from qotp.adversary import (
    IndividualUTB,
    InterceptResend,
    NoAttack,
    record_likelihoods,
)
from qotp.analysis import (
    empirical_mutual_information,
    epsilon_tilde_min,
    i0_bound,
    i1_bound,
    small_dm_linear_bound,
)
from qotp.errors import PoleError
from qotp.keystore import generate_pad
from qotp.kernels import Basis
from qotp.protocol import SessionConfig, run_session
from qotp.rng import make_rng
from lineage_v1 import lineage_v1
from oracle import (
    MI_ESTIMATOR_SLACK,
    PREP_BASIS,
    PREP_LABEL,
    PREP_STATES,
    EncodingOp,
    EveRecord,
    _record_likelihood,
    apply_encoding,
    eigenstates,
    key_pairs,
    known_plaintext_infer,
    run_photon_batch,
    simulate_one_attack,
    utb_apply,
)
from transcript_v1 import attack_events, known_plaintext_document, posterior_plus_table


def report(num: int, desc: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {desc}{tail}")
    assert passed, f"criterion {num}: {desc}{tail}"


def test_criterion_01_clean_channel_exactness():
    start = time.perf_counter()
    ok = True
    for seed in range(100):
        message = make_rng(10_000 + seed).integers(0, 2, 256, dtype=np.uint8)
        pad = generate_pad(2 * (256 + 64), make_rng(20_000 + seed))
        t = run_session(
            SessionConfig(n_message=256, n_sample=64, seed=seed), pad, message
        )
        ok = ok and t.error_report.accepted and t.error_report.rate == 0.0
        ok = ok and np.array_equal(t.extracted_message, message)
    elapsed = time.perf_counter() - start
    report(
        1,
        "100 clean sessions: accepted, rate exactly 0, bit-exact extraction",
        ok and elapsed < 5.0,
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_02_intercept_resend_detection():
    start = time.perf_counter()
    pad = generate_pad(2 * 10_000, make_rng(31))
    t = run_session(
        SessionConfig(n_message=0, n_sample=10_000, seed=32), pad, [], InterceptResend()
    )
    elapsed = time.perf_counter() - start

    # exhaustive enumeration oracle: 4 states x 2 bases x Born outcomes
    oracle = 0.0
    for idx, s in enumerate(PREP_STATES):
        own = Basis.PLUS if idx < 2 else Basis.CROSS
        wrong = eigenstates(own)[1 - (idx % 2)]
        for eve_basis in Basis:
            eig = eigenstates(eve_basis)
            for outcome in (0, 1):
                p_out = abs(np.vdot(eig[outcome], s.amps)) ** 2
                oracle += 0.5 * p_out * abs(np.vdot(wrong, eig[outcome])) ** 2 / 4

    rate = t.error_report.rate
    ok = (
        abs(oracle - 0.25) < 1e-12
        and abs(rate - 0.25) < 0.013
        and not t.error_report.accepted
        and elapsed < 5.0
    )
    report(
        2,
        "intercept-resend: rate 0.25 +/- 0.013, rejected, enumeration oracle 1/4",
        ok,
        f"rate {rate:.4f}, oracle {oracle:.6f}, runtime {elapsed:.2f}s",
    )


def test_criterion_03_probe_attack_error_law():
    thetas = [0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4]
    ok = True
    details = []
    for i, theta in enumerate(thetas):
        batch = run_photon_batch(
            10_000, IndividualUTB(theta=theta), make_rng(40 + i)
        )
        matched = batch.prep_basis == 0
        d = 0.5 * np.sin(theta) ** 2
        rate = float(batch.errors[matched].mean())
        sigma = np.sqrt(d * (1 - d) / matched.sum())
        ok = ok and abs(rate - d) <= 3 * sigma
        details.append(f"{rate:.4f}~{d:.4f}")
    report(
        3,
        "attacked-basis error tracks (1/2)sin^2(theta) on the 5-point grid",
        ok,
        ", ".join(details),
    )


def test_criterion_04_i0_closed_form():
    grid = np.linspace(0.0, 0.25, 100)
    vals = i0_bound(grid)
    ok = (
        abs(i0_bound(0.25) - 0.6455) < 1e-3
        and i0_bound(0.0) == 0.0
        and bool(np.all(np.diff(vals) > 0))
    )
    report(4, "i0(0.25) = 0.6455 +/- 0.001, i0(0) = 0, monotone on [0, 0.25]", ok,
           f"i0(0.25) = {i0_bound(0.25):.6f}")


def test_criterion_05_linear_bound_figure():
    val = small_dm_linear_bound(0.05)
    report(5, "linear basis-information bound at 0.05 equals 0.4080 +/- 0.0005",
           abs(val - 0.4080) < 5e-4, f"value {val:.6f}")


def test_criterion_06_epsilon_and_i1_behavior():
    eps0 = epsilon_tilde_min(0.0)
    i1_0 = i1_bound(0.0)
    i1_small = i1_bound(1e-6)
    eps5 = epsilon_tilde_min(0.05)
    i1_5 = i1_bound(0.05)
    pole = 1.0 / (8.0 * np.sqrt(2.0))
    try:
        epsilon_tilde_min(pole)
        pole_ok = False
    except PoleError:
        pole_ok = True
    ok = (
        eps0 == 1.0
        and i1_0 == 0.0
        and i1_small < 1e-4
        and abs(eps5 - 1.875e-4) / 1.875e-4 < 1e-3
        and abs(i1_5 - 0.9974) / 0.9974 < 1e-3
        and pole_ok
    )
    report(
        6,
        "eps(0)=1, i1(0)=0, i1 -> 0 near 0, pole raises, 0.05 values match",
        ok,
        f"eps(0.05)={eps5:.4e}, i1(0.05)={i1_5:.6f}, i1(1e-6)={i1_small:.2e}",
    )


def test_criterion_07_information_ordering():
    n = 100_000
    batch = run_photon_batch(n, IndividualUTB(theta=np.pi / 4), make_rng(50))
    matched = batch.prep_basis == 0
    observed_d = float(batch.errors[matched].mean())

    # adversary vs message with no announcements: the probe is message-blind
    mi_message = empirical_mutual_information(
        np.bincount(2 * batch.enc_bits + batch.record, minlength=4).reshape(2, 2)
    )
    # adversary vs encoding once basis keys are announced (attacked subset)
    mi_announced = empirical_mutual_information(
        np.bincount(
            2 * batch.encoded_label[matched] + batch.record[matched], minlength=4
        ).reshape(2, 2)
    )
    # receiver channel is noiseless: error-free decode, one full bit per photon
    # (the plug-in MI equals the empirical marginal entropy, ~1 for coin bits)
    clean = run_photon_batch(n, NoAttack(), make_rng(51))
    bob_accuracy = float(np.mean(clean.decoded == clean.enc_bits))
    mi_ab = empirical_mutual_information(
        np.bincount(2 * clean.enc_bits + clean.decoded, minlength=4).reshape(2, 2)
    )

    ceiling = i0_bound(observed_d) + MI_ESTIMATOR_SLACK
    ok = (
        mi_message <= ceiling
        and mi_message < mi_announced
        and mi_announced <= ceiling
        and ceiling < 1.0
        and bob_accuracy == 1.0
        and mi_ab > 0.999
    )
    report(
        7,
        "information ordering: blind MI < announced MI <= i0(D) + slack < 1 = receiver",
        ok,
        f"blind {mi_message:.2e}, announced {mi_announced:.4f}, "
        f"i0({observed_d:.4f})+slack {ceiling:.4f}, receiver acc {bob_accuracy}",
    )


def test_criterion_08_pad_reuse_soundness(tmp_path):
    out = tmp_path / "demo.json"
    initial, n_s = 320, 16
    rc = cli.main(
        ["recycle-demo", "--sessions", "6", "--message-bits", "64", "--samples", str(n_s),
         "--pad-bits", str(initial), "--seed", "61", "--attack-session", "6",
         "--attack", "intercept_resend", "--out", str(out)]
    )
    doc = lineage_v1(json.loads(out.read_text()))
    five_clean = doc["sessions"][:5]
    ok = (
        rc == cli.EXIT_REJECTED
        and len(doc["sessions"]) == 6
        and all(s["accepted"] and s["message_exact"] for s in five_clean)
        and five_clean[-1]["pad_bits_after"] == initial - 5 * 2 * n_s
        and doc["audit"]["announced_bits_reused"] == 0
        and doc["halted_at_session"] == 6
        and doc["sessions"][5]["accepted"] is False
        and doc["final_pad_bits"] is None
    )
    report(
        8,
        "5 recycles shrink the pad by 2*Ns each, zero reuse; attacked 6th halts",
        ok,
        f"pad after 5 sessions {five_clean[-1]['pad_bits_after']}, "
        f"halted at {doc['halted_at_session']}",
    )


def test_criterion_09_ciphertext_uniformity():
    # P(outcome 1) of an observer in a fixed basis, over a uniformly random pad
    p1 = NoAttack().law()[:, :, :, 1].sum(axis=-1).mean(axis=0)  # [encoding, basis]
    ok = bool(np.all(np.abs(p1 - 0.5) <= 1e-15))
    details = []
    for bit in (0, 1):
        for basis in Basis:
            details.append(f"{basis.value}/{bit}: {float(p1[bit, basis.index])!r}")
    report(9, "fixed-basis observers see 50/50 outcomes for either message bit",
           ok, ", ".join(details))


def test_criterion_10_born_rule_oracle_equivalence():
    n = 100_000
    attacks = [None, (np.pi / 8, Basis.PLUS), (np.pi / 8, Basis.CROSS)]
    ok = True
    worst = -np.inf
    case = 0
    for a, attack in enumerate(attacks):
        for state_idx in range(4):
            case += 1
            meas = PREP_BASIS[state_idx]  # the receiver measures in the preparation basis
            # independent oracle: explicit complex projection algebra
            s = apply_encoding(EncodingOp.U0, PREP_STATES[state_idx])
            if attack is None:
                p1 = abs(np.vdot(eigenstates(meas)[1], s.amps)) ** 2
                model = NoAttack()
            else:
                theta, ab = attack
                joint = utb_apply(s, theta, ab)
                amps = eigenstates(meas).conj() @ joint.amps.reshape(2, 2)
                p1 = float(np.sum(np.abs(amps[1]) ** 2))
                model = IndividualUTB(theta=theta, attack_basis=ab)
            p1 = min(max(p1, 0.0), 1.0)
            bob, _ = simulate_one_attack(
                np.full(n, state_idx),
                np.zeros(n, dtype=np.int64),
                model,
                make_rng(91 + 8 * a + 2 * state_idx + meas.index).random(n),
            )
            freq = float(bob.mean())
            sigma = np.sqrt(p1 * (1 - p1) / n)
            ok = ok and abs(freq - p1) <= 3 * sigma
            worst = max(worst, abs(freq - p1) - 3 * sigma)
    report(
        10,
        "12 state/attack cells match exact projection probabilities (3 sigma)",
        ok,
        f"cells {case}, worst margin {worst:+.2e}",
    )


def oracle_error_probability(state_idx: int, enc: int, attack) -> float:
    """Exact P(decode error) for one photon from explicit state vectors."""
    s = apply_encoding(EncodingOp(enc), PREP_STATES[state_idx])
    prep = PREP_BASIS[state_idx]
    wrong_label = 1 - (PREP_LABEL[state_idx] ^ enc)
    wrong = eigenstates(prep)[wrong_label]
    if isinstance(attack, NoAttack):
        return abs(np.vdot(wrong, s.amps)) ** 2
    if isinstance(attack, InterceptResend):
        if attack.attack_basis is None:
            bases = [(Basis.PLUS, 0.5), (Basis.CROSS, 0.5)]
        else:
            bases = [(attack.attack_basis, 1.0)]
        total = 0.0
        for eve_basis, weight in bases:
            for eig in eigenstates(eve_basis):
                total += weight * abs(np.vdot(eig, s.amps)) ** 2 * abs(np.vdot(wrong, eig)) ** 2
        return total
    joint = utb_apply(s, attack.theta, attack.attack_basis)
    amps = eigenstates(prep).conj() @ joint.amps.reshape(2, 2)
    return float(np.sum(np.abs(amps[wrong_label]) ** 2))


def test_criterion_11_session_oracle_equivalence():
    n = 20_000
    attacks = [
        NoAttack(),
        InterceptResend(),
        InterceptResend(Basis.PLUS),
        InterceptResend(Basis.CROSS),
        IndividualUTB(theta=np.pi / 8, attack_basis=Basis.PLUS),
        IndividualUTB(theta=np.pi / 4, attack_basis=Basis.CROSS),
        IndividualUTB(theta=3 * np.pi / 16),
    ]
    ok = True
    worst = -np.inf
    cells = 0
    for k, attack in enumerate(attacks):
        pad = generate_pad(2 * n, make_rng(110 + k))
        cfg = SessionConfig(n_message=0, n_sample=n, seed=120 + k,
                            abort_threshold=1.0, allow_insecure_demo=True)
        t = run_session(cfg, pad, [], attack)
        errors = t.decoded != t.modified
        state_idx = np.array([p.state_index for p in key_pairs(t.pad.bits[: 2 * t.modified.size])])
        for idx in range(4):
            sel = state_idx == idx
            # exact expectation and variance given the photons' encodings
            p = np.array([oracle_error_probability(idx, int(m), attack) for m in (0, 1)])
            p_photon = p[t.modified[sel]]
            expected = p_photon.mean()
            sigma = np.sqrt(np.sum(p_photon * (1 - p_photon))) / sel.sum()
            margin = abs(errors[sel].mean() - expected) - (3 * sigma + 1e-12)
            ok = ok and margin <= 0
            worst = max(worst, margin)
            cells += 1
    report(
        11,
        "columnar sessions: decode errors per (state, attack) cell within 3 sigma of the oracle",
        ok,
        f"cells {cells}, {n} photons per attack, worst margin {worst:+.2e}",
    )


def test_criterion_12_known_plaintext_posteriors_match_oracle():
    # table level: every record kind, adversary basis/outcome or probe outcome,
    # state and encoding; posteriors for known bit 0, 1 and unknown
    attacks = [InterceptResend(basis) for basis in (None, *Basis)] + [
        IndividualUTB(theta=theta, attack_basis=basis)
        for basis in Basis
        for theta in (0.0, np.pi / 16, np.pi / 8, np.pi / 4)
    ]
    worst = 0.0
    for attack in attacks:
        table = record_likelihoods(attack)
        posterior = posterior_plus_table(attack)
        for r in range(table.shape[2]):
            if isinstance(attack, InterceptResend):
                fields = {"kind": "intercept_resend",
                          "eve_basis": (Basis.PLUS, Basis.CROSS)[r // 2], "eve_outcome": r % 2}
                # the oracle's record likelihood is conditional on Eve's
                # basis; the table also holds her choice of it
                if attack.attack_basis is None:
                    prior = 0.5
                else:
                    prior = float(fields["eve_basis"] is attack.attack_basis)
            else:
                fields = {"kind": "utb", "probe_outcome": r, "theta": attack.theta,
                          "attack_basis": attack.attack_basis}
                prior = 1.0
            for idx in range(4):
                for m in (0, 1):
                    encoded = apply_encoding(EncodingOp(m), PREP_STATES[idx])
                    oracle = _record_likelihood(EveRecord(photon_index=0, **fields), encoded.amps)
                    worst = max(worst, abs(table[idx, m, r] - prior * oracle))
            # photons 0 and 1 carry known bits 0 and 1, photon 2 a sample bit
            records = [EveRecord(photon_index=i, **fields) for i in range(3)]
            known_plaintext_infer(records, (0, 1), {2})
            for known, record in enumerate(records):
                worst = max(worst, abs(posterior[known, r] - record.posterior_plus))

    # session level: every event's posterior against the record-based oracle
    message = make_rng(130).integers(0, 2, 300, dtype=np.uint8)
    pad = generate_pad(2 * 400, make_rng(131))
    events = 0
    guesses_agree = True
    for k, attack in enumerate([InterceptResend(), IndividualUTB(theta=np.pi / 8),
                                IndividualUTB(theta=np.pi / 4, attack_basis=Basis.CROSS)]):
        cfg = SessionConfig(n_message=300, n_sample=100, seed=132 + k,
                            abort_threshold=1.0, allow_insecure_demo=True)
        t = run_session(cfg, pad, message, attack)
        session_events = attack_events(known_plaintext_document(t))
        oracle_records = [
            EveRecord(photon_index=ev.photon_index, kind=ev.kind, eve_basis=ev.eve_basis,
                      eve_outcome=ev.eve_outcome, probe_outcome=ev.probe_outcome,
                      theta=ev.theta, attack_basis=ev.attack_basis)
            for ev in session_events
        ]
        known_plaintext_infer(oracle_records, message,
                              set(t.sample_positions.tolist()))
        for ev, oracle in zip(session_events, oracle_records):
            worst = max(worst, abs(ev.posterior_plus - oracle.posterior_plus))
            if abs(oracle.posterior_plus - 0.5) > 1e-12:
                same = ev.inferred_basis_guess is oracle.inferred_basis_guess
                guesses_agree = guesses_agree and same
            events += 1
    report(
        12,
        "known-plaintext likelihood table and posteriors equal the record oracle to 1e-12",
        worst <= 1e-12 and guesses_agree and events == 3 * 400,
        f"{len(attacks)} record kinds, {events} session events, worst {worst:.1e}",
    )
