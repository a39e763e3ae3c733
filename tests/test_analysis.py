"""Closed-form bound values (frozen from a 30-digit independent evaluation),
their shape properties, and the empirical estimators."""

import dataclasses
import types

import numpy as np
import pytest

import qotp
from qotp import analysis, kernels, keystore
from qotp.adversary import IndividualUTB, InterceptResend, record_likelihoods
from qotp.analysis import (
    BOUNDS_CSV_HEADER,
    SWEEP_CSV_HEADER,
    bounds_csv,
    d_of_theta,
    empirical_mutual_information,
    epsilon_tilde_min,
    i0_bound,
    i1_bound,
    phi,
    small_dm_linear_bound,
    sweep_csv,
    sweep_theta,
)
from qotp.errors import PoleError
from qotp.kernels import Basis, cell_probabilities
from qotp.keystore import generate_pad, pair_states
from qotp.protocol import SessionConfig, run_session
from qotp.rng import ROLE_SWEEP, make_rng, role_seed
from oracle import (
    MI_ESTIMATOR_SLACK,
    PREP_STATES,
    EncodingOp,
    apply_encoding,
    eigenstates,
    key_pairs,
    measure_photon_of_joint,
    pauli_cloner_law,
    probe_information_estimate,
    run_photon_batch,
    utb_apply,
)

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


class TestPauliClonerAttainsI0:
    """A genie told the basis that attains the i0 ceiling at every d: the
    Pauli cloner with a two-qubit probe, read in the eigenbasis of
    rho_0 - rho_1 (tests/oracle.py)."""

    D_GRID = np.linspace(0.0, 0.25, 201)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_receiver_error_mass_is_d(self, basis):
        for d in self.D_GRID:
            law = pauli_cloner_law(d, basis)
            label, bob, _ = np.indices(law.shape)
            assert law[label != bob].sum() == pytest.approx(d, abs=1e-12), d

    @pytest.mark.parametrize("basis", list(Basis))
    def test_label_probe_information_is_i0(self, basis):
        for d in self.D_GRID:
            mi = empirical_mutual_information(pauli_cloner_law(d, basis).sum(axis=1))
            assert mi == pytest.approx(i0_bound(d), abs=1e-12), d


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


# each closed-form function with a point inside its domain, the domain's
# upper end and the domain as its error names it
CLOSED_FORMS = [
    (phi, 0.5, 1.0, "phi domain is [0, 1]"),
    (i0_bound, 0.2, 1.0, "i0_bound domain is [0, 1]"),
    (d_of_theta, 0.3, np.pi / 4, "d_of_theta domain is [0, 0.785398]"),
    (epsilon_tilde_min, 0.05, 0.25, "epsilon_tilde_min domain is [0, 0.25]"),
    (i1_bound, 0.05, 0.25, "i1_bound domain is [0, 0.25]"),
    (small_dm_linear_bound, 0.05, 0.25, "small_dm_linear_bound domain is [0, 0.25]"),
]
# the name each closed form gives its argument
ARGUMENT = {phi: "x", i0_bound: "d", d_of_theta: "theta", epsilon_tilde_min: "d_m",
            i1_bound: "d_m", small_dm_linear_bound: "d_m"}
# values a float64 cast would parse or read as a number: "0.1" as 0.1, True as
# 1 and None as NaN
NON_NUMBERS = pytest.mark.parametrize("bad", ["0.1", True, None], ids=["str", "bool", "none"])


@pytest.mark.parametrize("func,inside,hi,domain", CLOSED_FORMS,
                         ids=[form[0].__name__ for form in CLOSED_FORMS])
class TestClosedFormBoundary:
    @pytest.mark.parametrize("wrap", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
    def test_scalar_gives_a_python_float(self, func, inside, hi, domain, wrap):
        value = func(wrap(inside))
        assert type(value) is float
        assert value == func(np.array([inside]))[0]

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_array_keeps_its_shape(self, func, inside, hi, domain, shape):
        out = func(np.full(shape, inside))
        assert type(out) is np.ndarray and out.shape == shape
        assert np.all(out == func(inside))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.01, "past"],
                             ids=["nan", "inf", "minus-inf", "negative", "past-the-end"])
    def test_rejected_values_are_listed_alone(self, func, inside, hi, domain, bad):
        bad = hi + 0.01 if bad == "past" else bad
        with pytest.raises(ValueError) as raised:
            func(np.array([[inside, bad], [inside, -1.0]]))
        assert str(raised.value) == f"{domain}, got {bad:.12g}, -1"
        with pytest.raises(ValueError) as raised:
            func(bad)
        assert str(raised.value) == f"{domain}, got {bad:.12g}"

    @NON_NUMBERS
    def test_non_numbers_are_refused(self, func, inside, hi, domain, bad):
        for value in bad, [bad, bad]:
            with pytest.raises(ValueError,
                               match=rf"^{ARGUMENT[func]} must hold real numbers, got dtype \S+$"):
                func(value)


class TestLinearBound:
    def test_frozen_values(self):
        assert small_dm_linear_bound(0.05) == pytest.approx(LIN_AT_005, abs=1e-12)
        assert abs(small_dm_linear_bound(0.05) - 0.4080) < 5e-4
        assert small_dm_linear_bound(0.0) == 0.0
        assert small_dm_linear_bound(0.1) == pytest.approx(LIN_AT_01, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            small_dm_linear_bound(0.3)


# Test-only Monte-Carlo helpers that the package once exported; they live in
# tests/oracle.py or are inlined where a test needs them.
FORMER_ANALYSIS_NAMES = (
    "ErrorSubset", "empirical_error_rate", "joint_counts", "run_photon_batch", "PhotonBatch",
)


def test_package_ships_no_test_only_helpers():
    assert [n for n in FORMER_ANALYSIS_NAMES if hasattr(qotp, n) or hasattr(analysis, n)] == []


# Names the keystore once exported; sessions key photon i straight from pad
# bits 2i and 2i+1 with keystore.pair_states.
FORMER_KEYSTORE_NAMES = ("BasisKeySequence", "draw_basis_keys")


def test_package_keys_photons_straight_from_the_pad():
    assert [n for n in FORMER_KEYSTORE_NAMES if hasattr(qotp, n) or hasattr(keystore, n)] == []


class TestEmpiricalErrorRate:
    def test_no_attack_all_subsets_zero(self):
        message = make_rng(0).integers(0, 2, 64, dtype=np.uint8)
        pad = generate_pad(2 * 96, make_rng(1))
        t = run_session(SessionConfig(n_message=64, n_sample=32, seed=2), pad, message)
        assert np.mean(t.decoded != t.modified) == 0.0
        assert t.error_report.rate == 0.0

    def test_probe_attack_matched_quarter(self):
        pad = generate_pad(2 * 10_000, make_rng(3))
        t = run_session(
            SessionConfig(n_message=0, n_sample=10_000, seed=4),
            pad,
            [],
            IndividualUTB(theta=np.pi / 4),
        )
        n = t.modified.size
        matched = kernels.PREP_BASIS_OF_STATE[pair_states(t.pad)[:n]] == Basis.PLUS.index
        rate = np.mean(t.decoded[matched] != t.modified[matched])
        n_matched = sum(1 for p in key_pairs(t.pad.bits[: 2 * n]) if p.basis is Basis.PLUS)
        assert abs(rate - 0.25) < 3 * np.sqrt(0.25 * 0.75 / n_matched)

    def test_intercept_resend_sample_quarter(self):
        pad = generate_pad(2 * 10_000, make_rng(5))
        t = run_session(
            SessionConfig(n_message=0, n_sample=10_000, seed=6), pad, [], InterceptResend()
        )
        assert abs(t.error_report.rate - 0.25) < 0.013


class TestMutualInformation:
    def test_independent_table_zero(self):
        assert empirical_mutual_information(np.full((2, 2), 25)) == 0.0

    def test_diagonal_table_one_bit(self):
        assert empirical_mutual_information(np.diag([50, 50])) == 1.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            empirical_mutual_information(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["table", "stack"])
    def test_non_finite_or_negative_count_rejected(self, bad, stacked):
        # a NaN must not drop out of the p > 0 mask and leave a silent 0.0
        table = np.array([[bad, 1.0], [1.0, 1.0]])
        counts = np.stack([np.ones((2, 2)), table]) if stacked else table
        with pytest.raises(ValueError, match="^counts must be finite, nonnegative 2-D tables$"):
            empirical_mutual_information(counts)

    @pytest.mark.parametrize("counts", [[["1", "2"], ["3", "4"]], [[True, False], [False, True]],
                                        [[None, 1], [1, 1]]], ids=["str", "bool", "none"])
    def test_non_number_counts_refused(self, counts):
        with pytest.raises(ValueError, match=r"^counts must hold real numbers, got dtype \S+$"):
            empirical_mutual_information(counts)

    @pytest.mark.parametrize("counts", [np.zeros((2, 2)), np.zeros((3, 2, 2)), [1.0, 2.0]],
                             ids=["zero-table", "zero-stack", "one-axis"])
    def test_zero_total_or_flat_counts_rejected_with_their_message(self, counts):
        message = ("^counts table must have positive total$" if np.ndim(counts) > 1
                   else "^counts must be finite, nonnegative 2-D tables$")
        with pytest.raises(ValueError, match=message):
            empirical_mutual_information(counts)

    def test_stack_with_one_empty_table_rejected(self):
        stack = np.stack([np.diag([5, 5]), np.zeros((2, 2)), np.full((2, 2), 3)])
        with pytest.raises(ValueError, match="^counts table must have positive total$"):
            empirical_mutual_information(stack)

    def test_stacked_estimate_is_the_tablewise_estimate_exactly(self):
        rng = make_rng(2024)
        stack = rng.integers(1, 10 ** rng.integers(1, 10, size=(2000, 1, 1)), size=(2000, 2, 2))
        stack[rng.random(stack.shape) < 0.2] = 0
        stack = stack[stack.sum(axis=(1, 2)) > 0][:1900]
        assert len(stack) == 1900
        stacked = empirical_mutual_information(stack)
        assert stacked.shape == (len(stack),)
        for i, table in enumerate(stack):
            assert stacked[i] == empirical_mutual_information(table), table
        nested = empirical_mutual_information(stack.reshape(380, 5, 2, 2))
        assert np.array_equal(nested.ravel(), stacked)

    def test_table_estimate_is_a_python_float(self):
        assert type(empirical_mutual_information(np.diag([3, 1]))) is float

    def test_probe_info_below_ceiling(self):
        batch = run_photon_batch(100_000, IndividualUTB(theta=np.pi / 4), make_rng(7))
        mi = probe_information_estimate(batch, Basis.PLUS)
        assert mi <= i0_bound(0.25) + MI_ESTIMATOR_SLACK
        # and well above zero: the probe does learn about the encoded state
        assert mi > 0.25


def exact_probe_information(theta: float, basis: Basis) -> float:
    """Exact I(encoded label; probe outcome) in bits over attacked-basis
    photons, whose two states and two encodings are equiprobable."""
    likelihoods = record_likelihoods(IndividualUTB(theta, basis))
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


STATE, ENC, BOB, PROBE = np.indices((4, 2, 2, 2))
MATCHED = {basis: kernels.PREP_BASIS_OF_STATE[STATE] == basis.index for basis in Basis}
ERROR = (BOB != kernels.PREP_LABEL_OF_STATE[STATE]) != ENC
ENCODED_LABEL = kernels.PREP_LABEL_OF_STATE[STATE] ^ ENC
SWEEP_THETAS = np.linspace(0.0, np.pi / 4, 201)


def oracle_cell_probabilities(theta: float, basis: Basis) -> np.ndarray:
    """P[state, encoding, receiver outcome, probe outcome] from the state-vector
    core: the tap joins each encoded state to a probe, the receiver measures in
    the preparation basis, and the probe's conditional state gives its law."""
    law = np.zeros((4, 2, 2, 2))
    for state in range(4):
        meas = Basis.PLUS if kernels.PREP_BASIS_OF_STATE[state] == 0 else Basis.CROSS
        for enc in (0, 1):
            joint = utb_apply(apply_encoding(EncodingOp(enc), PREP_STATES[state]), theta, basis)
            rotated = eigenstates(meas).conj() @ joint.amps.reshape(2, 2)
            for bob in (0, 1):
                p_bob = float(np.sum(np.abs(rotated[bob]) ** 2))
                if p_bob < 1e-15:
                    continue
                # a uniform of 0 forces outcome 1 and one just below 1 outcome 0
                forced = 0.0 if bob else np.nextafter(1.0, 0.0)
                outcome, probe = measure_photon_of_joint(
                    joint, meas, types.SimpleNamespace(random=lambda u=forced: u)
                )
                assert outcome == bob
                law[state, enc, bob] = p_bob * np.abs(probe.amps) ** 2 / 8
    return law


class TestCellProbabilities:
    """The exact law a sweep draws each point's histogram from."""

    @pytest.mark.parametrize("basis", list(Basis))
    def test_matches_state_vector_oracle(self, basis):
        for theta in (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4):
            got = cell_probabilities(IndividualUTB(theta, basis))
            np.testing.assert_allclose(
                got, oracle_cell_probabilities(theta, basis), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("basis", list(Basis))
    def test_is_a_distribution_with_uniform_pads(self, basis):
        # theta = 0 is on the grid: there some cells are impossible, and a
        # multinomial draw rejects an entry of -1e-16 in place of 0
        for theta in SWEEP_THETAS:
            law = cell_probabilities(IndividualUTB(theta, basis))
            assert law.min() >= 0.0, theta
            assert abs(law.sum() - 1.0) <= 1e-12, theta
            np.testing.assert_allclose(law.sum(axis=(2, 3)), 1 / 8, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_matched_error_mass_is_half_d(self, basis):
        # attacked-basis photons carry half the mass
        for theta in SWEEP_THETAS:
            law = cell_probabilities(IndividualUTB(theta, basis))
            mass = law[MATCHED[basis] & ERROR].sum()
            assert 2 * mass == pytest.approx(d_of_theta(theta), abs=1e-12), theta

    @pytest.mark.parametrize("basis", list(Basis))
    def test_matched_probe_information_is_exact(self, basis):
        matched = MATCHED[basis]
        for theta in SWEEP_THETAS:
            law = cell_probabilities(IndividualUTB(theta, basis))
            joint = np.bincount(
                2 * ENCODED_LABEL[matched] + PROBE[matched], weights=law[matched], minlength=4
            )
            mi = empirical_mutual_information(joint.reshape(2, 2))
            assert mi == pytest.approx(exact_probe_information(theta, basis), abs=1e-12), theta

    @pytest.mark.parametrize("basis", list(Basis))
    def test_sweep_rows_reduce_to_the_exact_law(self, basis):
        # at 10^12 photons per point every row statistic sits within about
        # 1e-6 of the value its reduction gives on the exact law
        thetas = [0.0, np.pi / 8, np.pi / 4]
        for theta, point in zip(thetas, sweep_theta(thetas, 10**12, 5, basis)):
            law = cell_probabilities(IndividualUTB(theta, basis))
            assert point.d_matched_empirical == pytest.approx(d_of_theta(theta), abs=1e-5)
            assert point.d_overall_empirical == pytest.approx(law[ERROR].sum(), abs=1e-5)
            mi = exact_probe_information(theta, basis)
            assert point.mi_empirical == pytest.approx(mi, abs=1e-5)


def loop_sweep_counts(thetas, n_photons, seed, basis=Basis.PLUS):
    """Each grid point's histogram, drawn in its own multinomial call, point
    after point, from the sweep's one stream."""
    rng = make_rng(role_seed(seed, ROLE_SWEEP))
    for theta in thetas:
        law = cell_probabilities(IndividualUTB(theta, basis)).ravel()
        yield theta, rng.multinomial(n_photons, law).reshape(STATE.shape)


def loop_sweep_rows(thetas, n_photons, seed, basis):
    """Each grid point's row reduced on its own from its own draw: the
    reference the column path must equal."""
    matched = MATCHED[basis]
    rows = []
    for theta, counts in loop_sweep_counts(thetas, n_photons, seed, basis):
        joint = np.bincount(
            2 * ENCODED_LABEL[matched] + PROBE[matched], weights=counts[matched], minlength=4
        )
        d = d_of_theta(theta)
        rows.append((
            theta,
            d,
            float(counts[matched & ERROR].sum() / counts[matched].sum()),
            float(counts[ERROR].sum() / n_photons),
            empirical_mutual_information(joint.reshape(2, 2)),
            i0_bound(d),
        ))
    return rows


def row_values(points):
    return [dataclasses.astuple(point) for point in points]


class TestSweepRows:
    """Row i depends only on (seed, theta_0..theta_i, n_photons, basis): the
    points draw in grid order from one stream, so a grid's rows are the first
    rows of any grid that extends it."""

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("n_photons", [1_000, 200_000, 10**12])
    def test_columns_equal_the_pointwise_reduction(self, basis, n_photons):
        for seed in range(20):
            thetas = np.linspace(0.0, np.pi / 4, 2 + seed % 7).tolist()
            got = row_values(sweep_theta(thetas, n_photons, seed, basis))
            assert got == loop_sweep_rows(thetas, n_photons, seed, basis), seed

    def test_changing_the_last_theta_keeps_the_earlier_rows(self):
        thetas = np.linspace(0.0, np.pi / 4, 6).tolist()
        before = row_values(sweep_theta(thetas, 50_000, 8))
        after = row_values(sweep_theta([*thetas[:-1], 0.3], 50_000, 8))
        assert after[:-1] == before[:-1]
        assert after[-1] != before[-1]

    @pytest.mark.parametrize("basis", list(Basis))
    def test_a_longer_grid_extends_a_shorter_one(self, basis):
        thetas = [0.7, 0.0, 0.3, np.pi / 4, 0.3, 0.1]
        full = row_values(sweep_theta(thetas, 50_000, 8, basis))
        for k in range(1, len(thetas)):
            assert row_values(sweep_theta(thetas[:k], 50_000, 8, basis)) == full[:k], k

    def test_streams_follow_the_index_not_the_theta(self):
        thetas = [0.2, 0.4, 0.6]
        forward = row_values(sweep_theta(thetas, 50_000, 8))
        backward = row_values(sweep_theta(thetas[::-1], 50_000, 8))
        assert backward != forward[::-1]
        assert [row[0] for row in backward] == thetas[::-1]

    def test_empty_grid(self, monkeypatch):
        # as a bound table does, a sweep refuses a grid with no point
        draws = []
        monkeypatch.setattr(analysis, "make_rng", lambda seed: draws.append(seed))
        with pytest.raises(ValueError) as raised:
            sweep_theta([], 1_000, 8)
        assert str(raised.value) == "a sweep's theta grid must not be empty, got shape (0,)"
        assert draws == []
        assert sweep_csv([]) == SWEEP_CSV_HEADER + "\n"

    @pytest.mark.parametrize("n_photons", [1000.9, 1000.0, "1000", np.float64(1000), True],
                             ids=["fraction", "whole-float", "str", "np-float", "bool"])
    def test_photon_count_must_be_an_integer(self, monkeypatch, n_photons):
        # 1000.9 would draw 1000 photons and divide the error count by 1000.9
        draws = []
        monkeypatch.setattr(analysis, "make_rng", lambda seed: draws.append(seed))
        with pytest.raises(ValueError, match=r"^n_photons must be an integer, got "):
            sweep_theta([0.1, 0.3], n_photons, 3)
        assert draws == []

    def test_numpy_photon_count_gives_the_rows_of_an_int(self):
        thetas = [0.1, 0.3]
        assert sweep_theta(thetas, np.int64(1000), 3) == sweep_theta(thetas, 1000, 3)

    @pytest.mark.parametrize("n_photons,message", [
        (0, "a sweep needs at least 1 photon per grid point, got 0"),
        (2**63, f"a sweep takes at most {2**63 - 1} photons per grid point, got {2**63}"),
    ], ids=["zero", "past-int64"])
    def test_photon_count_range_messages(self, n_photons, message):
        with pytest.raises(ValueError) as raised:
            sweep_theta([0.1, 0.3], n_photons, 3)
        assert str(raised.value) == message

    def test_float_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            sweep_theta([0.1, 0.3], 100, 1.5)

    @pytest.mark.parametrize("thetas", [[[0.1, 0.3]], 0.3], ids=["2-d", "scalar"])
    def test_grid_that_is_not_1d_rejected(self, thetas):
        with pytest.raises(ValueError, match=r"^a sweep's theta grid must be 1-D, got shape "):
            sweep_theta(thetas, 100, 3)

    def test_first_point_without_an_attacked_basis_photon_is_named(self):
        # one photon per point, which lands in the attacked basis half the time
        thetas = [0, 0.5, 0.7]
        named = set()
        for seed in range(20):
            empty = [theta for theta, counts in loop_sweep_counts(thetas, 1, seed)
                     if counts[MATCHED[Basis.PLUS]].sum() == 0]
            if not empty:
                assert len(sweep_theta(thetas, 1, seed)) == len(thetas), seed
                continue
            with pytest.raises(ValueError) as raised:
                sweep_theta(thetas, 1, seed)
            assert str(raised.value) == (
                f"sweep point theta={empty[0]:.10g} drew no attacked-basis photon among 1"), seed
            named.add(thetas.index(empty[0]))
        assert named - {0}

    @pytest.mark.parametrize("bad,message", [
        (1.0, r"^theta must lie in \[0, pi/4\], got "),
        (float("nan"), r"^theta must lie in \[0, pi/4\], got "),
        ("0.1", r"^thetas must hold real numbers, got dtype <U"),
        (None, r"^thetas must hold real numbers, got dtype object$"),
    ], ids=["past-pi-over-4", "nan", "str", "none"])
    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_bad_theta_is_rejected_before_any_draw(self, monkeypatch, bad, message, where):
        # [0, 0.5, 0.7] at one photon per point would raise on its empty point
        # were any point drawn first
        thetas = [0, 0.5, 0.7]
        thetas.insert(where, bad)
        draws = []
        monkeypatch.setattr(analysis, "make_rng", lambda seed: draws.append(seed))
        with pytest.raises(ValueError, match=message):
            sweep_theta(thetas, 1, 3)
        assert draws == []

    @NON_NUMBERS
    def test_a_grid_of_non_numbers_is_refused(self, bad):
        # True beside numbers is promoted to 1.0, which the range check names
        with pytest.raises(ValueError, match=r"^thetas must hold real numbers, got dtype \S+$"):
            sweep_theta([bad, bad], 1000, 1)


class TestGridTable:
    """A sweep reads its grid's stacked probe laws and theory columns from one
    read-only table, cached per grid by its float64 bytes and the basis."""

    @pytest.mark.parametrize("basis", list(Basis))
    def test_stacked_laws_equal_the_per_point_laws(self, basis):
        drawn = np.random.default_rng(7).uniform(0.0, np.pi / 4, 2000)
        thetas = np.concatenate([[0.0, np.pi / 4], drawn])
        laws = analysis._grid_table(thetas.tobytes(), basis)[0]
        assert laws.shape == (thetas.size, STATE.size)
        for theta, row in zip(thetas.tolist(), laws):
            law = kernels.prep_basis_cells(IndividualUTB(theta, basis).law())
            assert np.array_equal(row, law.ravel()), theta

    def test_cache_keys_on_exact_bits(self):
        # -0.0 == 0.0, so a key that compared floats would hand the second grid
        # the first grid's table
        analysis._grid_table.cache_clear()
        assert sweep_csv(sweep_theta([0.0, 0.1], 1000, 1)).split("\n")[1] == "0,0,0,0,0,0"
        assert sweep_csv(sweep_theta([-0.0, 0.1], 1000, 1)).split("\n")[1] == "-0,0,0,0,0,0"
        assert analysis._grid_table.cache_info().misses == 2

    @pytest.mark.parametrize("basis", list(Basis))
    def test_cold_and_warm_sweeps_agree(self, basis):
        thetas = np.linspace(0.0, np.pi / 4, 9)
        analysis._grid_table.cache_clear()
        cold = sweep_csv(sweep_theta(thetas, 50_000, 4, basis))
        assert analysis._grid_table.cache_info().misses == 1
        assert sweep_csv(sweep_theta(thetas, 50_000, 4, basis)) == cold
        assert analysis._grid_table.cache_info().hits == 1

    def test_cached_arrays_are_read_only(self):
        thetas = np.array([0.0, 0.3, np.pi / 4])
        sweep_theta(thetas, 1000, 1)
        for column in analysis._grid_table(thetas.tobytes(), Basis.PLUS):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5


# Upper 0.1% points of the chi-square law by degrees of freedom (cells of
# positive probability less one): 8 cells at theta = 0, 22 above it.
CHI2_CRITICAL_999 = {7: 24.322, 21: 46.797}


class TestKernelHistogramAgainstCellProbabilities:
    """The kernel's binned photons follow the law the sweep samples from."""

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("theta", [0.0, np.pi / 8, np.pi / 4])
    def test_chi_square(self, theta, basis):
        n = 200_000
        attack = IndividualUTB(theta, basis)
        batch = run_photon_batch(n, attack, make_rng(4100))
        cell = 8 * batch.state_idx + 4 * batch.enc_bits + 2 * batch.bob_outcome + batch.record
        counts = np.bincount(cell, minlength=32)
        law = cell_probabilities(attack).ravel()
        possible = law > 0
        assert counts[~possible].sum() == 0
        expected = n * law[possible]
        chi2 = float(np.sum((counts[possible] - expected) ** 2 / expected))
        assert chi2 < CHI2_CRITICAL_999[possible.sum() - 1]


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
        errors = decoded != t.modified
        state_idx = np.array([p.state_index for p in key_pairs(t.pad.bits[: 2 * t.modified.size])])
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

    def test_eps_tilde_is_evaluated_once_per_table(self, monkeypatch):
        # the i1 and eps_tilde columns share one evaluation
        calls = []
        core = analysis._eps_tilde

        def counting(arr):
            calls.append(arr.copy())
            return core(arr)

        monkeypatch.setattr(analysis, "_eps_tilde", counting)
        grid = [0.0, 0.02, 0.05, 0.1, 0.25]
        bounds_csv(grid)
        assert [arr.tolist() for arr in calls] == [grid]

    @pytest.mark.parametrize("grid", [[[0.0, 0.01], [0.02, 0.05]], [], [[]]],
                             ids=["2-d", "empty", "2-d-empty"])
    def test_grid_that_is_not_a_nonempty_column_rejected(self, grid):
        with pytest.raises(ValueError, match=r"^a bound table needs a nonempty 1-D d grid, got "
                                             r"shape \("):
            bounds_csv(grid)

    @NON_NUMBERS
    def test_non_number_grid_refused(self, bad):
        with pytest.raises(ValueError, match=r"^d_grid must hold real numbers, got dtype \S+$"):
            bounds_csv([bad, bad])

    def test_pole_in_grid_rejected(self):
        with pytest.raises(PoleError):
            bounds_csv([0.0, POLE_DM, 0.1])
