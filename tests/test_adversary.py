"""Attack-model tests: exact enumeration oracles for disturbance rates,
evidence records, known-plaintext inference, and the information/disturbance
tradeoff direction."""

import dataclasses
import inspect

import numpy as np
import pytest

from qotp import kernels
from qotp.adversary import (
    IndividualUTB,
    InterceptResend,
    NoAttack,
)
from qotp.kernels import Basis
from qotp.keystore import generate_pad
from qotp.protocol import SessionConfig, run_session
from qotp.rng import make_rng
from oracle import (
    KET_D,
    KET_H,
    KET_U,
    KET_V,
    PREP_LABEL,
    PREP_STATES,
    EveRecord,
    attack_photon,
    eigenstates,
    intercept_resend,
    key_pairs,
    known_plaintext_infer,
    measure,
    measure_photon_of_joint,
    run_photon_batch,
    utb_intercept,
)
from transcript_v1 import attack_events, known_plaintext_document, posterior_plus_table

OVERALL_UTB_ERR_PI4 = 0.19822330470336313  # (sin^2 + 1 - cos)/4 at pi/4


def ir_random_error_oracle() -> float:
    """Exhaustive enumeration: 4 encoded states x 2 adversary bases x Born
    outcomes, exact probability the receiver decodes the wrong bit."""
    total = 0.0
    for idx, s in enumerate(PREP_STATES):
        label = PREP_LABEL[idx]
        own_basis = Basis.PLUS if idx < 2 else Basis.CROSS
        wrong = eigenstates(own_basis)[1 - label]
        for eve_basis in Basis:
            eig = eigenstates(eve_basis)
            for outcome in (0, 1):
                p_out = abs(np.vdot(eig[outcome], s.amps)) ** 2
                p_err = abs(np.vdot(wrong, eig[outcome])) ** 2
                total += 0.5 * p_out * p_err  # fair coin on the adversary basis
    return total / 4


class TestDispatch:
    def test_no_attack_is_identity(self):
        fwd, rec = attack_photon(NoAttack(), KET_D, make_rng(0))
        assert fwd is KET_D and rec is None

    def test_zero_strength_probe(self):
        rng = make_rng(1)
        fwd, rec = attack_photon(IndividualUTB(theta=0.0), KET_U, rng)
        assert np.allclose(fwd.amps, np.kron(KET_U.amps, [1, 0]))
        outcome, probe = measure_photon_of_joint(fwd, Basis.CROSS, rng)
        assert outcome == 0 and np.allclose(probe.amps, [1, 0])

    def test_eigenstate_intercept_transparent(self):
        rng = make_rng(2)
        for _ in range(30):
            fwd, rec = attack_photon(
                InterceptResend(Basis.PLUS), KET_H, rng
            )
            assert rec.eve_outcome == 0
            assert np.allclose(fwd.amps, KET_H.amps)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            IndividualUTB(theta=1.0)


class TestInterceptResend:
    def test_matched_basis_no_disturbance(self):
        rng = make_rng(3)
        for _ in range(30):
            fwd, _ = intercept_resend(KET_U, Basis.CROSS, rng)
            assert np.allclose(fwd.amps, KET_U.amps)
            assert measure(fwd, Basis.CROSS, rng)[0] == 0

    def test_mismatched_basis_half_error(self):
        # plus-basis interception of |u>: receiver errs half the time
        rng = make_rng(4)
        n = 20_000
        errors = 0
        for _ in range(n):
            fwd, _ = intercept_resend(KET_U, Basis.PLUS, rng)
            errors += measure(fwd, Basis.CROSS, rng)[0] != 0
        assert abs(errors / n - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_random_basis_quarter_error_oracle(self):
        assert ir_random_error_oracle() == pytest.approx(0.25, abs=1e-12)

    def test_random_basis_quarter_error_empirical(self):
        batch = run_photon_batch(50_000, InterceptResend(), make_rng(5))
        sigma = np.sqrt(0.25 * 0.75 / 50_000)
        assert abs(batch.errors.mean() - 0.25) < 3 * sigma

    def test_detection_probability_over_sessions(self):
        # P(single sampled photon reveals the attack) = 1/4, so a session
        # with n_s samples escapes with probability (3/4)^n_s
        n_s, trials = 8, 400
        escapes = 0
        for k in range(trials):
            pad = generate_pad(2 * n_s, make_rng(1000 + k))
            t = run_session(
                SessionConfig(n_message=0, n_sample=n_s, seed=k), pad, [], InterceptResend()
            )
            escapes += t.error_report.accepted
        p_escape = 0.75**n_s
        sigma = np.sqrt(p_escape * (1 - p_escape) / trials)
        assert abs(escapes / trials - p_escape) < 3 * sigma


class TestProbeAttack:
    def test_direct_tap_returns_joint_and_record(self):
        fwd, rec = utb_intercept(KET_V, np.pi / 4, Basis.PLUS, make_rng(0), photon_index=3)
        assert fwd.dim == 4
        assert rec.photon_index == 3 and rec.kind == "utb"
        assert rec.theta == np.pi / 4 and rec.attack_basis is Basis.PLUS
        assert rec.probe_outcome is None  # read only after the receiver measures

    def test_matched_error_law(self):
        # attacked-basis photons err at (1/2) sin^2(theta)
        for theta in (np.pi / 8, np.pi / 4):
            batch = run_photon_batch(
                40_000, IndividualUTB(theta=theta), make_rng(int(theta * 1e6))
            )
            matched = batch.prep_basis == 0
            d = 0.5 * np.sin(theta) ** 2
            sigma = np.sqrt(d * (1 - d) / matched.sum())
            assert abs(batch.errors[matched].mean() - d) < 3 * sigma

    def test_overall_error_all_states(self):
        batch = run_photon_batch(50_000, IndividualUTB(theta=np.pi / 4), make_rng(8))
        sigma = np.sqrt(OVERALL_UTB_ERR_PI4 * (1 - OVERALL_UTB_ERR_PI4) / 50_000)
        assert abs(batch.errors.mean() - OVERALL_UTB_ERR_PI4) < 3 * sigma

    def test_zero_theta_probe_carries_nothing(self):
        pad = generate_pad(2 * 200, make_rng(9))
        t = run_session(
            SessionConfig(n_message=0, n_sample=200, seed=10),
            pad,
            [],
            IndividualUTB(theta=0.0),
        )
        assert t.error_report.rate == 0.0
        assert all(ev.probe_outcome == 0 for ev in attack_events(t.to_json_dict()))

    def test_tradeoff_direction_monotone(self):
        # receiver error and probe MAP accuracy both grow with theta
        thetas = [0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4]
        errs, accs = [], []
        for i, theta in enumerate(thetas):
            batch = run_photon_batch(30_000, IndividualUTB(theta=theta), make_rng(20 + i))
            matched = batch.prep_basis == 0
            errs.append(batch.errors[matched].mean())
            guess = batch.record[matched]  # probe=1 certifies the flipped eigenstate
            accs.append(np.mean(guess == batch.encoded_label[matched]))
        slack = 0.01
        assert all(b - a > -slack for a, b in zip(errs, errs[1:]))
        assert all(b - a > -slack for a, b in zip(accs, accs[1:]))


def error_mass(attack) -> float:
    """The exact chance that a photon decodes to the wrong bit: the cells of
    ``cell_probabilities`` whose receiver outcome, read in the prepared basis,
    is not the encoded bit."""
    cells = kernels.cell_probabilities(attack)  # [state, encoding, outcome, record]
    state, encoding, outcome = np.indices(cells.shape[:3])
    return float(cells[(outcome ^ kernels.PREP_LABEL_OF_STATE[state]) != encoding].sum())


def probe_error_mass(theta: float) -> float:
    """(d + (1 - cos theta)/2)/2 with d = sin^2(theta)/2: half the photons are
    in the attacked basis and err at d, the other half at (1 - cos theta)/2."""
    return (0.5 * np.sin(theta) ** 2 + (1 - np.cos(theta)) / 2) / 2


class TestExactErrorMass:
    def test_no_attack_never_errs(self):
        assert error_mass(NoAttack()) == 0.0

    @pytest.mark.parametrize("basis", [None, Basis.PLUS, Basis.CROSS], ids=["random", "plus", "cross"])
    def test_intercept_resend_errs_a_quarter(self, basis):
        assert error_mass(InterceptResend(basis)) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("basis", list(Basis), ids=[basis.value for basis in Basis])
    def test_probe_error_mass_closed_form(self, basis):
        for theta in np.linspace(0.0, np.pi / 4, 33):
            assert error_mass(IndividualUTB(theta, basis)) == pytest.approx(
                probe_error_mass(theta), abs=1e-12), theta

    # (1 - e)^16: the chance that a 16-bit check at threshold 0 passes
    @pytest.mark.parametrize(
        "attack,passes",
        [(IndividualUTB(np.pi / 16), 0.794), (IndividualUTB(np.pi / 8), 0.400),
         (IndividualUTB(3 * np.pi / 16), 0.131), (IndividualUTB(np.pi / 4), 0.029),
         (InterceptResend(), 0.010)],
        ids=["probe-pi-16", "probe-pi-8", "probe-3pi-16", "probe-pi-4", "intercept-resend"],
    )
    def test_a_16_bit_check_passes(self, attack, passes):
        assert (1 - error_mass(attack)) ** 16 == pytest.approx(passes, abs=1e-3)


class TestConstructorValidation:
    # the kernel trusts the attack it is handed: a basis outside the tables
    # would select a wrong cell, so the constructors reject it

    def test_theta_domain(self):
        with pytest.raises(ValueError, match="theta"):
            IndividualUTB(theta=2.0, attack_basis=Basis.PLUS)

    @pytest.mark.parametrize("theta", ["0.1", True, None], ids=["str", "bool", "none"])
    def test_theta_must_be_a_real_number(self, theta):
        # a string would fail the range check with a TypeError, and True would pass it as 1
        with pytest.raises(ValueError, match=r"^theta must hold real numbers, got dtype \S+$"):
            IndividualUTB(theta=theta)

    @pytest.mark.parametrize(
        "make,attack_basis",
        [(InterceptResend, basis) for basis in (2, -1, 1, "plus")]
        + [(lambda basis: IndividualUTB(theta=0.1, attack_basis=basis), basis)
           for basis in (2, -1, 1, "plus", None)],
    )
    def test_unknown_adversary_parameter(self, make, attack_basis):
        # None is a random basis per photon for intercept-resend only
        with pytest.raises(ValueError, match="attack_basis"):
            make(attack_basis)


class TestKnownPlaintext:
    def _session(self, attack, seed=30, n_message=600):
        message = make_rng(seed).integers(0, 2, n_message, dtype=np.uint8)
        ns = max(1, n_message // 4)
        pad = generate_pad(2 * (n_message + ns), make_rng(seed + 1))
        cfg = SessionConfig(
            n_message=n_message, n_sample=ns, seed=seed + 2,
            abort_threshold=1.0, allow_insecure_demo=True,
        )
        return run_session(cfg, pad, message, attack)

    def test_no_inner_attack_no_records(self):
        t = self._session(NoAttack())
        assert attack_events(known_plaintext_document(t)) == []

    def test_intercept_resend_inference_at_chance(self):
        # single-photon data plus the plaintext still leaves the basis opaque:
        # the per-basis likelihoods are equal by completeness, so accuracy
        # stays strictly below 1 (at coin-flip level)
        t = self._session(InterceptResend())
        events = attack_events(known_plaintext_document(t))
        assert len(events) > 0
        correct = 0
        pairs = key_pairs(t.pad.bits[: 2 * t.modified.size])
        for ev in events:
            assert ev.posterior_plus == pytest.approx(0.5, abs=1e-9)
            truth = pairs[ev.photon_index].basis
            correct += ev.inferred_basis_guess is truth
        n = len(events)
        accuracy = correct / n
        assert accuracy < 1.0
        assert abs(accuracy - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_zero_theta_probe_inference_at_chance(self):
        t = self._session(IndividualUTB(theta=0.0))
        for ev in attack_events(known_plaintext_document(t)):
            assert ev.posterior_plus == pytest.approx(0.5, abs=1e-9)

    def test_strong_probe_inference_still_at_chance(self):
        # even at maximal strength the probe outcome alone is basis-blind
        t = self._session(IndividualUTB(theta=np.pi / 4))
        for ev in attack_events(known_plaintext_document(t)):
            assert ev.posterior_plus == pytest.approx(0.5, abs=1e-9)

    def test_infer_without_records(self):
        assert known_plaintext_infer([], (1, 0, 1), {0}) == {}

    def test_basis_posterior_is_exactly_one_half_for_every_law(self):
        # within either basis the two keyed states average to I/2 whatever the
        # encoding bit, so no single-photon record can depend on the basis
        attacks = [NoAttack(), *(InterceptResend(b) for b in (None, *Basis))]
        attacks += [IndividualUTB(theta=float(theta), attack_basis=b)
                    for theta in np.linspace(0.0, np.pi / 4, 21) for b in Basis]
        assert len(attacks) == 1 + 3 + 42
        for attack in attacks:
            np.testing.assert_allclose(posterior_plus_table(attack), 0.5, rtol=0, atol=1e-15,
                                       err_msg=repr(attack))


class TestNoSignaling:
    def test_attack_interface_sees_only_the_state(self):
        params = list(inspect.signature(attack_photon).parameters)
        assert params == ["model", "s", "rng", "photon_index"]

    def test_records_hold_no_protocol_secrets(self):
        fields = {f.name for f in dataclasses.fields(EveRecord)}
        forbidden = {"basis_key", "pad", "message", "sample_positions", "sample_values"}
        assert fields.isdisjoint(forbidden)
