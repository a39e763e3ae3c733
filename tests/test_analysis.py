"""Closed-form bound values (frozen from a 30-digit independent evaluation),
their shape properties, and the empirical estimators."""

import numpy as np
import pytest

from qotp import kernels
from qotp.adversary import IndividualUTB, InterceptResend, record_likelihoods
from qotp.analysis import (
    BOUNDS_CSV_HEADER,
    ErrorSubset,
    MI_ESTIMATOR_SLACK,
    bounds_csv,
    d_of_theta,
    empirical_error_rate,
    empirical_mutual_information,
    epsilon_tilde_min,
    i0_bound,
    i1_bound,
    joint_counts,
    phi,
    probe_information_estimate,
    run_photon_batch,
    small_dm_linear_bound,
)
from qotp.errors import PoleError
from qotp.keystore import generate_pad
from qotp.protocol import SessionConfig, run_session
from qotp.quantum import Basis
from qotp.rng import make_rng

# frozen oracle values (30-digit evaluation, rounded to double)
PHI_HALF = 0.37744375108173434
I0_QUARTER = 0.6454210973347301
EPS_AT_005 = 1.8747771044771951e-4
I1_AT_005 = 0.9974088269951522
LIN_AT_005 = 0.4080557786387158
LIN_AT_01 = 0.8161115572774316
D_PI8 = 0.07322330470336312
POLE_DM = 1.0 / (8.0 * np.sqrt(2.0))  # ~0.08838834764831845


class TestPhi:
    def test_endpoints(self):
        assert phi(0.0) == 0.0
        assert phi(1.0) == 2.0

    def test_midpoint_frozen(self):
        assert phi(0.5) == pytest.approx(PHI_HALF, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi(-0.01)
        with pytest.raises(ValueError):
            phi(1.01)

    def test_increasing_and_convex(self):
        x = np.linspace(0, 1, 101)
        y = phi(x)
        assert np.all(np.diff(y) >= 0)
        assert np.all(np.diff(y, 2) >= -1e-12)
        assert y.min() >= 0 and y.max() <= 2


class TestI0:
    def test_quarter_frozen(self):
        assert i0_bound(0.25) == pytest.approx(I0_QUARTER, abs=1e-12)
        assert abs(i0_bound(0.25) - 0.6455) < 1e-3

    def test_endpoints(self):
        assert i0_bound(0.0) == 0.0
        assert i0_bound(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_on_quarter_range(self):
        d = np.linspace(0, 0.25, 100)
        assert np.all(np.diff(i0_bound(d)) > 0)

    def test_symmetry_d_and_one_minus_d(self):
        for d in (0.05, 0.1, 0.2, 0.25, 0.4):
            assert i0_bound(d) == pytest.approx(i0_bound(1 - d), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            i0_bound(1.01)
        with pytest.raises(ValueError):
            i0_bound(-0.01)


class TestDOfTheta:
    def test_values(self):
        assert d_of_theta(0.0) == 0.0
        assert d_of_theta(np.pi / 4) == pytest.approx(0.25, abs=1e-12)
        assert d_of_theta(np.pi / 8) == pytest.approx(D_PI8, abs=1e-12)

    def test_monotone(self):
        t = np.linspace(0, np.pi / 4, 50)
        d = d_of_theta(t)
        assert np.all(np.diff(d) > 0) and d[-1] == pytest.approx(0.25, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            d_of_theta(np.pi / 2)


class TestEpsilonTilde:
    def test_zero_is_one(self):
        assert epsilon_tilde_min(0.0) == 1.0

    def test_frozen_005(self):
        assert epsilon_tilde_min(0.05) == pytest.approx(EPS_AT_005, rel=1e-9)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            epsilon_tilde_min(POLE_DM)

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_tilde_min(0.26)


class TestI1:
    def test_zero_exactly(self):
        assert i1_bound(0.0) == 0.0

    def test_frozen_005(self):
        assert i1_bound(0.05) == pytest.approx(I1_AT_005, rel=1e-3)
        assert i1_bound(0.05) == pytest.approx(I1_AT_005, abs=1e-12)

    def test_continuity_at_zero(self):
        assert i1_bound(1e-6) < 1e-4

    def test_expression_decreasing_in_epsilon(self):
        # 1 - log2(1+e) + (e/(1+e)) log2 e falls from 1 to 0 over e in (0, 1]
        def g(e):
            return 1 - np.log2(1 + e) + (e / (1 + e)) * np.log2(e)

        grid = np.linspace(1e-6, 1.0, 200)
        vals = g(grid)
        assert np.all(np.diff(vals) < 0)
        assert g(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_pole_propagates(self):
        with pytest.raises(PoleError):
            i1_bound(POLE_DM)

    def test_finite_across_numerator_zero(self):
        # the epsilon expression's numerator crosses zero near d_m ~ 0.0497;
        # the e*log2(e) -> 0 convention keeps i1 finite through the region
        grid = np.linspace(0.048, 0.052, 41)
        vals = i1_bound(grid)
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0.9) and np.all(vals <= 1.0)


class TestLinearBound:
    def test_frozen_values(self):
        assert small_dm_linear_bound(0.05) == pytest.approx(LIN_AT_005, abs=1e-12)
        assert abs(small_dm_linear_bound(0.05) - 0.4080) < 5e-4
        assert small_dm_linear_bound(0.0) == 0.0
        assert small_dm_linear_bound(0.1) == pytest.approx(LIN_AT_01, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            small_dm_linear_bound(0.3)


class TestEmpiricalErrorRate:
    def _clean(self):
        message = make_rng(0).integers(0, 2, 64, dtype=np.uint8)
        pad = generate_pad(2 * 96, make_rng(1))
        return run_session(SessionConfig(n_message=64, n_sample=32, seed=2), pad, message)

    def test_no_attack_all_subsets_zero(self):
        t = self._clean()
        assert empirical_error_rate(t, ErrorSubset.ALL) == 0.0
        assert empirical_error_rate(t, ErrorSubset.SAMPLE_BITS) == 0.0

    def test_matched_subset_needs_probe_attack(self):
        with pytest.raises(ValueError):
            empirical_error_rate(self._clean(), ErrorSubset.MATCHED_ATTACK_BASIS)

    def test_probe_attack_matched_quarter(self):
        pad = generate_pad(2 * 10_000, make_rng(3))
        t = run_session(
            SessionConfig(n_message=0, n_sample=10_000, seed=4),
            pad,
            [],
            IndividualUTB(theta=np.pi / 4),
        )
        rate = empirical_error_rate(t, ErrorSubset.MATCHED_ATTACK_BASIS)
        n_matched = sum(1 for p in t.keys.pairs if p.basis is Basis.PLUS)
        assert abs(rate - 0.25) < 3 * np.sqrt(0.25 * 0.75 / n_matched)

    def test_intercept_resend_sample_quarter(self):
        pad = generate_pad(2 * 10_000, make_rng(5))
        t = run_session(
            SessionConfig(n_message=0, n_sample=10_000, seed=6), pad, [], InterceptResend()
        )
        assert abs(empirical_error_rate(t, ErrorSubset.SAMPLE_BITS) - 0.25) < 0.013


class TestMutualInformation:
    def test_independent_table_zero(self):
        assert empirical_mutual_information(np.full((2, 2), 25)) == 0.0

    def test_diagonal_table_one_bit(self):
        assert empirical_mutual_information(np.diag([50, 50])) == 1.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            empirical_mutual_information(np.zeros((2, 2)))

    def test_joint_counts(self):
        counts = joint_counts([0, 0, 1, 1, 1], [0, 1, 0, 1, 1], 2, 2)
        assert counts.tolist() == [[1, 1], [1, 2]]

    def test_probe_info_below_ceiling(self):
        batch = run_photon_batch(100_000, IndividualUTB(theta=np.pi / 4), make_rng(7))
        mi = probe_information_estimate(batch, Basis.PLUS)
        assert mi <= i0_bound(0.25) + MI_ESTIMATOR_SLACK
        # and well above zero: the probe does learn about the encoded state
        assert mi > 0.25


def exact_probe_information(theta: float, basis: Basis) -> float:
    """Exact I(encoded label; probe outcome) in bits over attacked-basis
    photons, whose two states and two encodings are equiprobable."""
    likelihoods = record_likelihoods(IndividualUTB(theta, basis).channel_spec())
    joint = np.zeros((2, 2))
    for state in np.flatnonzero(kernels.PREP_BASIS_OF_STATE == basis.index):
        for enc in (0, 1):
            joint[kernels.PREP_LABEL_OF_STATE[state] ^ enc] += likelihoods[state, enc] / 4
    return empirical_mutual_information(joint)


class TestExactProbeInformation:
    @pytest.mark.parametrize("basis", list(Basis))
    def test_below_i0_with_no_slack(self, basis):
        for theta in np.linspace(0.0, np.pi / 4, 201):
            assert exact_probe_information(theta, basis) <= i0_bound(d_of_theta(theta)), theta

    @pytest.mark.parametrize("basis", list(Basis))
    def test_value_at_full_strength(self, basis):
        assert exact_probe_information(np.pi / 4, basis) == pytest.approx(0.3112781, abs=1e-7)


class TestPerStateOracleEquivalence:
    """Transcript error rates per prepared state against exact projection
    probabilities (1000-photon sessions, 3 sigma per cell)."""

    # exact per-prepared-state error probabilities, marginalized over the
    # uniform encoding bit: intercept-resend (random basis) errs at 1/4 for
    # every state; under the pi/4 plus-basis tap a plus-prepared photon
    # travels as xi or xibar equally often (errors 0 and sin^2 average to
    # (1/2)sin^2 = 1/4) while either cross state costs (1 - cos)/2
    IR_EXPECTED = {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
    UTB_EXPECTED = {0: 0.25, 1: 0.25, 2: 0.14644660940672624, 3: 0.14644660940672624}

    @pytest.mark.parametrize(
        "attack,expected",
        [
            (InterceptResend(), IR_EXPECTED),
            (IndividualUTB(theta=np.pi / 4), UTB_EXPECTED),
        ],
    )
    def test_per_state_rates(self, attack, expected):
        pad = generate_pad(2 * 1000, make_rng(200))
        t = run_session(
            SessionConfig(n_message=0, n_sample=1000, seed=201), pad, [], attack
        )
        decoded = np.asarray(t.decoded, dtype=np.uint8)
        errors = decoded != t.mm.bits
        state_idx = np.array([p.state_index for p in t.keys.pairs])
        for idx, p_err in expected.items():
            sel = state_idx == idx
            rate = float(errors[sel].mean())
            sigma = np.sqrt(p_err * (1 - p_err) / sel.sum())
            assert abs(rate - p_err) <= 3 * sigma, f"state {idx}"


class TestBoundsCsv:
    def test_golden_rows(self):
        text = bounds_csv([0.0, 0.05])
        lines = text.strip().split("\n")
        assert lines[0] == BOUNDS_CSV_HEADER
        assert lines[1] == "0,0,0,0,1"
        d, i0v, i1v, lin, eps = lines[2].split(",")
        assert d == "0.05"
        assert float(i1v) == pytest.approx(I1_AT_005, rel=1e-9)
        assert float(lin) == pytest.approx(LIN_AT_005, rel=1e-9)
        assert float(eps) == pytest.approx(EPS_AT_005, rel=1e-6)

    def test_columns_match_scalar_functions(self):
        grid = [0.0, 0.02, 0.05, 0.1, 0.25]
        funcs = [i0_bound, i1_bound, small_dm_linear_bound, epsilon_tilde_min]
        rows = [line.split(",") for line in bounds_csv(grid).splitlines()[1:]]
        assert len(rows) == len(grid)
        for d, row in zip(grid, rows):
            values = [d] + [func(d) for func in funcs]
            assert all(np.isfinite(values))
            assert row == [f"{v:.10g}" for v in values]

    def test_pole_in_grid_rejected(self):
        with pytest.raises(PoleError):
            bounds_csv([0.0, POLE_DM, 0.1])
