"""Batch-kernel tests: with pinned uniforms every outcome must flip exactly at
the projection probability of the object-level simulator, and batch
statistics must match those probabilities."""

import numpy as np
import pytest

from qotp import kernels
from qotp.adversary import IndividualUTB, InterceptResend, NoAttack
from qotp.kernels import Basis
from qotp.rng import make_rng
from oracle import (
    PREP_STATES,
    EncodingOp,
    apply_encoding,
    attack_photon,
    eigenstates,
    eve_measure_probe,
    measure,
    measure_photon_of_joint,
    utb_apply,
)

# Distance of a pinned uniform from the decision threshold; the kernel's real
# arithmetic and the oracle's complex arithmetic agree far closer than this.
EDGE = 1e-12


class PinnedStream:
    """A random stream that hands out fixed uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def either_side(p):
    """Uniforms just below and just above p that lie in [0, 1)."""
    return [u for u in (p - EDGE, p + EDGE) if 0.0 <= u < 1.0]


def oracle_photon(state_idx, enc, meas, model, u):
    """One photon through the object-level chain, which draws the pinned
    uniforms in the kernel's column roles (0 adversary basis, 1 adversary
    outcome or probe, 2 receiver).  Returns (receiver outcome, record)."""
    u0, u1, u2 = u
    if isinstance(model, InterceptResend):
        order = [u0, u1, u2] if model.attack_basis is None else [u1, u2]
    elif isinstance(model, IndividualUTB):
        order = [u2, u1]
    else:
        order = [u2]
    rng = PinnedStream(order)
    s = apply_encoding(EncodingOp(enc), PREP_STATES[state_idx])
    travelling, record = attack_photon(model, s, rng)
    if travelling.dim == 4:
        outcome, probe = measure_photon_of_joint(travelling, meas, rng)
        eve_measure_probe(record, probe, rng)
    else:
        outcome, _ = measure(travelling, meas, rng)
    assert rng.values == []
    return outcome, record


def kernel_photon(state_idx, enc, meas, model, u):
    bob, record = kernels.simulate_photons(
        [state_idx], [enc], [meas.index], model, uniforms=np.array([u]),
    )
    return int(bob[0]), int(record[0])


def pinned_cells(model, s, meas):
    """(uniforms, expected kernel output) on both sides of every decision the
    oracle's projection probabilities define for one encoded state."""
    e1 = eigenstates(meas)[1]
    if isinstance(model, NoAttack):
        p_bob = abs(np.vdot(e1, s.amps)) ** 2
        return [((0.5, 0.5, u2), (int(u2 < p_bob), -1)) for u2 in either_side(p_bob)]
    cells = []
    if isinstance(model, InterceptResend):
        if model.attack_basis is None:
            choices = [(Basis.PLUS, 0.5 - EDGE), (Basis.CROSS, 0.5 + EDGE)]
        else:
            choices = [(model.attack_basis, 0.5)]
        for eve_basis, u0 in choices:
            eig = eigenstates(eve_basis)
            p_eve = abs(np.vdot(eig[1], s.amps)) ** 2
            for u1 in either_side(p_eve):
                eo = int(u1 < p_eve)
                p_bob = abs(np.vdot(e1, eig[eo])) ** 2
                for u2 in either_side(p_bob):
                    cells.append(((u0, u1, u2), (int(u2 < p_bob), 2 * eve_basis.index + eo)))
        return cells
    joint = utb_apply(s, model.theta, model.attack_basis)
    amps = eigenstates(meas).conj() @ joint.amps.reshape(2, 2)
    p_bob = float(np.sum(np.abs(amps[1]) ** 2))
    for u2 in either_side(p_bob):
        bob = int(u2 < p_bob)
        p_probe = float(abs(amps[bob, 1]) ** 2 / np.sum(np.abs(amps[bob]) ** 2))
        for u1 in either_side(p_probe):
            cells.append(((0.5, u1, u2), (bob, int(u1 < p_probe))))
    return cells


CHANNELS = [NoAttack()] + [InterceptResend(basis) for basis in (None, *Basis)] + [
    IndividualUTB(theta=theta, attack_basis=basis)
    for basis in Basis
    for theta in (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4)
]


def channel_id(model):
    if isinstance(model, InterceptResend):
        return f"ir-{model.describe()['ir_basis']}"
    if isinstance(model, IndividualUTB):
        return f"utb-{model.attack_basis.value}-{model.theta:.4f}"
    return "none"


@pytest.mark.parametrize("model", CHANNELS, ids=channel_id)
def test_pinned_uniforms_flip_at_oracle_probabilities(model):
    # every cell: 4 states x 2 encodings x 2 receiver bases, each adversary
    # basis and outcome; a uniform just below an oracle probability must give
    # outcome 1 and one just above it outcome 0, in the kernel and the oracle
    checked = 0
    for state_idx in range(4):
        for enc in (0, 1):
            s = apply_encoding(EncodingOp(enc), PREP_STATES[state_idx])
            for meas in Basis:
                for u, expected in pinned_cells(model, s, meas):
                    got = kernel_photon(state_idx, enc, meas, model, u)
                    assert got == expected, (state_idx, enc, meas, u)
                    bob, record = oracle_photon(state_idx, enc, meas, model, u)
                    assert bob == expected[0]
                    if isinstance(model, InterceptResend):
                        assert 2 * record.eve_basis.index + record.eve_outcome == expected[1]
                    elif isinstance(model, IndividualUTB):
                        assert record.probe_outcome == expected[1]
                    checked += 1
    assert checked >= 16


def oracle_p1(vec, meas: Basis) -> float:
    """P(outcome 1) of a single-photon amplitude vector measured in ``meas``."""
    return float(abs(np.vdot(eigenstates(meas)[1], vec)) ** 2)


def encoded_state(state_idx, enc):
    return apply_encoding(EncodingOp(enc), PREP_STATES[state_idx])


CELLS = [(s, e, meas) for s in range(4) for e in (0, 1) for meas in Basis]


def cell_index(state_idx, enc, basis: Basis) -> int:
    return 4 * state_idx + 2 * enc + basis.index


class TestTablesAgainstOracle:
    # every table entry against the oracle's projection probability

    def test_clean_table(self):
        for s, e, meas in CELLS:
            got = kernels.CLEAN_P1[cell_index(s, e, meas)]
            assert got == pytest.approx(oracle_p1(encoded_state(s, e).amps, meas), abs=1e-12)

    def test_forward_table(self):
        for eve_basis in Basis:
            for eve_out, eig in enumerate(eigenstates(eve_basis)):
                for meas in Basis:
                    got = kernels.FORWARD_P1[4 * eve_basis.index + 2 * eve_out + meas.index]
                    assert got == pytest.approx(oracle_p1(eig, meas), abs=1e-12)

    @pytest.mark.parametrize(
        "model", [m for m in CHANNELS if isinstance(m, IndividualUTB)], ids=channel_id
    )
    def test_probe_tables(self, model):
        # theta = 0 is included in both bases: there probe outcome 1 and some
        # receiver outcomes have probability 0, and the tables must be built
        # without a 0/0 (pytest turns a RuntimeWarning into a failure)
        p1, pp1 = kernels.probe_tables(model.theta, model.attack_basis.index)
        for s, e, meas in CELLS:
            joint = utb_apply(encoded_state(s, e), model.theta, model.attack_basis)
            # amps[receiver outcome, probe outcome]
            amps = eigenstates(meas).conj() @ joint.amps.reshape(2, 2)
            probs = np.abs(amps) ** 2
            cell = cell_index(s, e, meas)
            assert p1[cell] == pytest.approx(probs[1].sum(), abs=1e-12)
            for outcome in (0, 1):
                p_outcome = probs[outcome].sum()
                expected = probs[outcome, 1] / p_outcome if p_outcome > 1e-12 else 0.0
                assert pp1[2 * cell + outcome] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("model", CHANNELS[1:], ids=channel_id)
def test_eve_outcome_tables_match_likelihoods(model):
    # the kernel's adversary-outcome probabilities and the known-plaintext
    # likelihood table state the same physics
    likelihood = model.likelihoods()
    for s in range(4):
        for e in (0, 1):
            if isinstance(model, InterceptResend):
                for eve_basis in Basis:
                    p_one = kernels.CLEAN_P1[cell_index(s, e, eve_basis)]
                    got = likelihood[s, e, 2 * eve_basis.index:2 * eve_basis.index + 2]
                    np.testing.assert_allclose(got, [1.0 - p_one, p_one], rtol=0, atol=1e-12)
                continue
            p1, pp1 = kernels.probe_tables(model.theta, model.attack_basis.index)
            for meas in Basis:
                cell = cell_index(s, e, meas)
                # the probe outcome's marginal does not depend on the receiver basis
                p_probe = (1.0 - p1[cell]) * pp1[2 * cell] + p1[cell] * pp1[2 * cell + 1]
                assert p_probe == pytest.approx(likelihood[s, e, 1], abs=1e-12)


class TestAgainstExactProjections:
    def exact_outcome_prob(self, state_idx, enc_bit, meas: Basis, attack=None):
        """Object-level oracle: P(outcome 1) from explicit amplitudes."""
        s = apply_encoding(EncodingOp(enc_bit), PREP_STATES[state_idx])
        if attack is None:
            e1 = eigenstates(meas)[1]
            p1 = float(abs(np.vdot(e1, s.amps)) ** 2)
        else:
            theta, basis = attack
            joint = utb_apply(s, theta, basis)
            amps = eigenstates(meas).conj() @ joint.amps.reshape(2, 2)
            p1 = float(np.sum(np.abs(amps[1]) ** 2))
        return min(max(p1, 0.0), 1.0)

    @pytest.mark.parametrize("state_idx", [0, 1, 2, 3])
    @pytest.mark.parametrize("meas", [Basis.PLUS, Basis.CROSS])
    def test_clean_channel_frequencies(self, state_idx, meas):
        n = 50_000
        rng = make_rng(state_idx * 10 + meas.index)
        bob, _ = kernels.simulate_photons(
            np.full(n, state_idx),
            np.zeros(n, dtype=np.int64),
            np.full(n, meas.index),
            NoAttack(),
            rng=rng,
        )
        p1 = self.exact_outcome_prob(state_idx, 0, meas)
        sigma = np.sqrt(p1 * (1 - p1) / n)
        assert abs(bob.mean() - p1) <= 3 * sigma  # sigma = 0 demands exactness

    @pytest.mark.parametrize("state_idx", [0, 1, 2, 3])
    @pytest.mark.parametrize("meas", [Basis.PLUS, Basis.CROSS])
    @pytest.mark.parametrize("attack_basis", [Basis.PLUS, Basis.CROSS])
    def test_probe_attack_frequencies(self, state_idx, meas, attack_basis):
        n = 50_000
        theta = np.pi / 8
        rng = make_rng(1000 + state_idx * 100 + meas.index * 10 + attack_basis.index)
        bob, _ = kernels.simulate_photons(
            np.full(n, state_idx),
            np.zeros(n, dtype=np.int64),
            np.full(n, meas.index),
            IndividualUTB(theta=theta, attack_basis=attack_basis),
            rng=rng,
        )
        p1 = self.exact_outcome_prob(state_idx, 0, meas, attack=(theta, attack_basis))
        sigma = np.sqrt(p1 * (1 - p1) / n)
        assert abs(bob.mean() - p1) <= 3 * sigma

    def test_probe_conditional_distribution(self):
        # P(probe=1 | photon outcome) against the explicit joint amplitudes
        n = 100_000
        theta = np.pi / 4
        rng = make_rng(77)
        state_idx = 2  # |u>, attacked in the plus basis, measured cross
        bob, probe = kernels.simulate_photons(
            np.full(n, state_idx),
            np.zeros(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
            IndividualUTB(theta=theta, attack_basis=Basis.PLUS),
            rng=rng,
        )
        s = PREP_STATES[state_idx]
        joint = utb_apply(s, theta, Basis.PLUS)
        amps = eigenstates(Basis.CROSS).conj() @ joint.amps.reshape(2, 2)
        for outcome in (0, 1):
            sel = bob == outcome
            p_probe1 = float(abs(amps[outcome, 1]) ** 2 / np.sum(np.abs(amps[outcome]) ** 2))
            freq = probe[sel].mean()
            sigma = np.sqrt(p_probe1 * (1 - p_probe1) / sel.sum())
            assert abs(freq - p_probe1) <= 3 * sigma


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernels.simulate_photons(
                np.zeros(4, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
                np.zeros(4, dtype=np.int64),
                NoAttack(),
                rng=make_rng(0),
            )

    def test_needs_randomness_source(self):
        with pytest.raises(ValueError):
            kernels.simulate_photons(
                np.zeros(4, dtype=np.int64),
                np.zeros(4, dtype=np.int64),
                np.zeros(4, dtype=np.int64),
                NoAttack(),
            )

    @pytest.mark.parametrize(
        "column,value,name",
        [(0, -1, "state_idx"), (0, 4, "state_idx"), (1, -1, "enc_bits"), (1, 2, "enc_bits"),
         (2, -1, "meas_basis"), (2, 2, "meas_basis")],
    )
    def test_out_of_range_column(self, column, value, name):
        # numpy would wrap a negative index to a valid cell; each column is
        # range-checked before any lookup
        columns = [np.zeros(4, dtype=np.int64) for _ in range(3)]
        columns[column][2] = value
        with pytest.raises(ValueError, match=name):
            kernels.simulate_photons(*columns, NoAttack(), rng=make_rng(0))

    @pytest.mark.parametrize(
        "column,name", [(0, "state_idx"), (1, "enc_bits"), (2, "meas_basis")]
    )
    def test_float_column(self, column, name):
        # a float would be truncated to a valid cell (2.7 runs as state 2)
        columns = [[2], [0], [1]]
        columns[column] = [0.9]
        with pytest.raises(ValueError, match=name):
            kernels.simulate_photons(*columns, NoAttack(), rng=make_rng(0))

    def test_integer_and_bool_columns_pass(self):
        # H swapped to -V read in plus, and d kept read in cross: both give outcome 1
        bob, _ = kernels.simulate_photons(
            [0, 3], np.array([1, 0], dtype=np.uint8), np.array([False, True]), NoAttack(),
            rng=make_rng(0),
        )
        assert bob.tolist() == [1, 1]
