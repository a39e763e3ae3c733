"""Exact-value and statistical tests for the 1-2 qubit state-vector core."""

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qotp
from qotp.kernels import Basis
from qotp.rng import make_rng
from oracle import (
    BasisKeyPair,
    EncodingOp,
    KET_D,
    KET_H,
    KET_U,
    KET_V,
    PREP_STATES,
    StateVector,
    apply_encoding,
    eigenstates,
    measure,
    measure_photon_of_joint,
    state_from_basis_key,
    states_equal_up_to_phase,
    utb_apply,
)

R = np.sqrt(0.5)


def utb_matrix(theta: float, attack_basis: Basis) -> np.ndarray:
    """Independent oracle: the probe tap as an explicit 4x4 unitary.

    Defined by its action on the probe-|0> sector plus an orthogonal
    completion of the probe-|1> sector.
    """
    eig = eigenstates(attack_basis)
    xi, xb = eig[0], eig[1]
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    ct, st_ = np.cos(theta), np.sin(theta)
    cols = {
        0: np.kron(xi, e0),
        1: ct * np.kron(xb, e0) + st_ * np.kron(xi, e1),
        2: ct * np.kron(xi, e1) - st_ * np.kron(xb, e0),
        3: np.kron(xb, e1),
    }
    basis_in = [np.kron(xi, e0), np.kron(xb, e0), np.kron(xi, e1), np.kron(xb, e1)]
    u = np.zeros((4, 4), dtype=complex)
    for k, vec in enumerate(basis_in):
        u += np.outer(cols[k], vec.conj())
    return u


# Oracle names that the package itself once exported.
FORMER_PACKAGE_NAMES = (
    "BasisKeyPair", "EncodingOp", "KET_D", "KET_H", "KET_U", "KET_V", "StateVector",
    "apply_encoding", "measure", "measure_photon_of_joint", "state_from_basis_key",
    "states_equal_up_to_phase", "utb_apply", "EveRecord", "IRStrategy", "attack_photon",
    "intercept_resend", "known_plaintext_infer", "utb_intercept",
)


def test_package_ships_no_oracle():
    # production code cannot reach the state-vector core: it lives with the tests
    assert importlib.util.find_spec("qotp.quantum") is None
    assert [name for name in FORMER_PACKAGE_NAMES if hasattr(qotp, name)] == []


class TestPreparationStates:
    def test_basis_key_map_exact(self):
        assert np.allclose(state_from_basis_key(BasisKeyPair(0, 0)).amps, [1, 0])
        assert np.allclose(state_from_basis_key(BasisKeyPair(1, 1)).amps, [0, 1])
        assert np.allclose(state_from_basis_key(BasisKeyPair(0, 1)).amps, [R, R])
        assert np.allclose(state_from_basis_key(BasisKeyPair(1, 0)).amps, [R, -R])

    def test_leading_amplitude_real_nonnegative(self):
        for pair in [(0, 0), (1, 1), (0, 1), (1, 0)]:
            s = state_from_basis_key(BasisKeyPair(*pair))
            lead = next(a for a in s.amps if abs(a) > 1e-12)
            assert lead.imag == 0 and lead.real > 0

    def test_orthonormality_and_unbiasedness(self):
        for s in PREP_STATES:
            assert abs(np.linalg.norm(s.amps) - 1) < 1e-12
        assert abs(np.vdot(KET_H.amps, KET_V.amps)) < 1e-12
        assert abs(np.vdot(KET_U.amps, KET_D.amps)) < 1e-12
        for a in (KET_H, KET_V):
            for b in (KET_U, KET_D):
                assert abs(np.vdot(a.amps, b.amps)) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_basis_of_pair(self):
        assert BasisKeyPair(0, 0).basis is Basis.PLUS
        assert BasisKeyPair(1, 1).basis is Basis.PLUS
        assert BasisKeyPair(0, 1).basis is Basis.CROSS
        assert BasisKeyPair(1, 0).basis is Basis.CROSS

    def test_illegal_bits_rejected(self):
        with pytest.raises(ValueError):
            BasisKeyPair(2, 0)


class TestEncoding:
    def test_swap_encoding_action_table(self):
        # U1: H -> -V, V -> H, u -> d, d -> -u
        assert np.allclose(apply_encoding(EncodingOp.U1, KET_H).amps, [0, -1])
        assert np.allclose(apply_encoding(EncodingOp.U1, KET_V).amps, [1, 0])
        assert np.allclose(apply_encoding(EncodingOp.U1, KET_U).amps, [R, -R])
        assert np.allclose(apply_encoding(EncodingOp.U1, KET_D).amps, [-R, -R])

    def test_identity_encoding(self):
        for s in PREP_STATES:
            assert np.allclose(apply_encoding(EncodingOp.U0, s).amps, s.amps)

    def test_u1_unitary(self):
        m = EncodingOp.U1.matrix
        assert np.allclose(m @ m.conj().T, np.eye(2))

    def test_basis_preserving_up_to_phase(self):
        partners = {0: KET_V, 1: KET_H, 2: KET_D, 3: KET_U}
        for idx, s in enumerate(PREP_STATES):
            out = apply_encoding(EncodingOp.U1, s)
            assert states_equal_up_to_phase(out, partners[idx])


class TestMeasure:
    def test_eigenstates_deterministic(self):
        rng = make_rng(0)
        for _ in range(50):
            assert measure(KET_U, Basis.CROSS, rng)[0] == 0
            assert measure(KET_D, Basis.CROSS, rng)[0] == 1
            assert measure(KET_H, Basis.PLUS, rng)[0] == 0

    def test_global_phase_irrelevant(self):
        rng = make_rng(1)
        minus_v = StateVector(np.array([0, -1.0]))
        for _ in range(50):
            outcome, collapsed = measure(minus_v, Basis.PLUS, rng)
            assert outcome == 1
            assert np.allclose(collapsed.amps, [0, 1])

    def test_born_frequencies_cross_on_h(self):
        # |<u|H>|^2 = 1/2; n = 1e5, 3 sigma binomial band
        rng = make_rng(12345)
        n = 100_000
        ones = sum(measure(KET_H, Basis.CROSS, rng)[0] for _ in range(n))
        assert abs(ones / n - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_collapse_is_eigenstate(self):
        rng = make_rng(2)
        for _ in range(20):
            outcome, collapsed = measure(KET_H, Basis.CROSS, rng)
            expected = eigenstates(Basis.CROSS)[outcome]
            assert np.allclose(collapsed.amps, expected)

    def test_own_basis_reproduces_prepared_state(self):
        # zero-error clean channel: prepared eigenstate comes back certainly
        rng = make_rng(3)
        for pair_bits in [(0, 0), (1, 1), (0, 1), (1, 0)]:
            pair = BasisKeyPair(*pair_bits)
            s = state_from_basis_key(pair)
            for _ in range(25):
                outcome, collapsed = measure(s, pair.basis, rng)
                assert outcome == pair.eigenstate_label
                assert states_equal_up_to_phase(collapsed, s)


class TestProbeTap:
    def test_invariant_eigenstate_passes_untouched(self):
        out = utb_apply(KET_H, np.pi / 8, Basis.PLUS)
        assert np.allclose(out.amps, [1, 0, 0, 0])

    def test_maximal_tap_on_flipped_eigenstate(self):
        out = utb_apply(KET_V, np.pi / 4, Basis.PLUS)
        assert np.allclose(out.amps, [0, R, R, 0])

    def test_zero_strength_is_identity(self):
        out = utb_apply(KET_U, 0.0, Basis.PLUS)
        assert np.allclose(out.amps, np.kron(KET_U.amps, [1, 0]))

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            utb_apply(KET_H, -0.1, Basis.PLUS)
        with pytest.raises(ValueError):
            utb_apply(KET_H, np.pi / 2, Basis.PLUS)

    def test_norm_preserved_on_grid(self):
        for theta in np.linspace(0, np.pi / 4, 9):
            for basis in Basis:
                for s in PREP_STATES:
                    out = utb_apply(s, theta, basis)
                    assert abs(np.linalg.norm(out.amps) - 1) < 1e-9

    def test_matches_explicit_unitary_oracle(self):
        probe0 = np.array([1.0, 0.0])
        for theta in (0.0, np.pi / 8, np.pi / 4):
            for basis in Basis:
                u = utb_matrix(theta, basis)
                assert np.allclose(u @ u.conj().T, np.eye(4)), "completion must be unitary"
                for s in PREP_STATES:
                    expected = u @ np.kron(s.amps, probe0)
                    got = utb_apply(s, theta, basis).amps
                    assert np.allclose(got, expected, atol=1e-12)


class TestJointMeasurement:
    def test_product_state(self):
        rng = make_rng(4)
        joint = StateVector(np.array([1.0, 0, 0, 0]))
        for _ in range(20):
            outcome, probe = measure_photon_of_joint(joint, Basis.PLUS, rng)
            assert outcome == 0
            assert np.allclose(probe.amps, [1, 0])

    def test_schmidt_pair(self):
        # (|1>|0> + |0>|1>)/sqrt(2): outcome 0 w.p. 1/2, probe collapses to |1>
        rng = make_rng(5)
        joint = StateVector(np.array([0, R, R, 0]))
        n = 20_000
        zeros = 0
        for _ in range(n):
            outcome, probe = measure_photon_of_joint(joint, Basis.PLUS, rng)
            if outcome == 0:
                zeros += 1
                assert np.allclose(probe.amps, [0, 1])
            else:
                assert np.allclose(probe.amps, [1, 0])
        assert abs(zeros / n - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_tapped_u_measured_cross(self):
        # hand-computed projection: P(d) = (1-cos(pi/4))^2/4 + sin^2(pi/4)/4
        expected_pd = 0.14644660940672624
        joint64 = utb_apply(KET_U, np.pi / 4, Basis.PLUS)
        # amplitude-level oracle, no sampling
        eig = eigenstates(Basis.CROSS)
        amps = eig.conj() @ joint64.amps.reshape(2, 2)
        assert float(np.sum(np.abs(amps[1]) ** 2)) == pytest.approx(expected_pd, abs=1e-12)
        # sampled frequency agrees
        rng = make_rng(6)
        n = 20_000
        hits = sum(
            measure_photon_of_joint(joint64, Basis.CROSS, rng)[0] for _ in range(n)
        )
        sigma = np.sqrt(expected_pd * (1 - expected_pd) / n)
        assert abs(hits / n - expected_pd) < 3 * sigma


class TestPhaseEquality:
    def test_examples(self):
        minus_v = StateVector(np.array([0, -1.0]))
        assert states_equal_up_to_phase(minus_v, KET_V)
        assert not states_equal_up_to_phase(KET_U, KET_D)
        wobbly = StateVector(np.array([1 + 1e-12, 0]) / np.linalg.norm([1 + 1e-12, 0]))
        assert states_equal_up_to_phase(KET_H, wobbly, tol=1e-9)

    @given(st.floats(min_value=0, max_value=2 * np.pi), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_any_global_phase_matches(self, angle, idx):
        s = PREP_STATES[idx]
        rotated = StateVector(np.exp(1j * angle) * s.amps)
        assert states_equal_up_to_phase(rotated, s)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            states_equal_up_to_phase(KET_H, StateVector(np.array([1.0, 0, 0, 0])))


class TestStateVectorValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0]))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0, 0]))
