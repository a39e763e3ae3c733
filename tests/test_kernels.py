"""Batch-kernel tests: every entry of each attack's exact law must equal the
object-level simulator's projection probability, pinned uniforms must pick
the outcomes on either side of each cumulative edge of that law, and batch
statistics must match those probabilities."""

import numpy as np
import pytest

from qotp import kernels, protocol
from qotp.adversary import (
    IndividualUTB,
    InterceptResend,
    NoAttack,
    record_likelihoods,
)
from qotp.kernels import Basis
from qotp.keystore import generate_pad
from qotp.protocol import SessionConfig, run_lineage
from qotp.rng import make_rng
from oracle import (
    PREP_BASIS,
    PREP_STATES,
    EncodingOp,
    apply_encoding,
    attack_law,
    eigenstates,
    simulate_one_attack,
    utb_apply,
)

# Distance of a pinned uniform from a cumulative edge; the kernel's real
# arithmetic and the oracle's complex arithmetic agree far closer than this.
EDGE = 1e-12
# An oracle probability below this is an impossible event computed in
# floating point: the kernel's law must hold an exact 0 there.
IMPOSSIBLE = 1e-24

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
def test_law_matches_oracle_projections(model):
    # every (state, encoding) cell, both receiver bases, every receiver
    # outcome and record
    np.testing.assert_allclose(model.law(), attack_law(model), rtol=0, atol=1e-12)


@pytest.mark.parametrize("model", CHANNELS, ids=channel_id)
def test_law_is_exactly_zero_on_impossible_events(model):
    law, oracle = model.law(), attack_law(model)
    impossible = oracle < IMPOSSIBLE
    assert np.all(law[impossible] == 0.0)
    assert np.all(law[~impossible] > 0.0)


@pytest.mark.parametrize("model", CHANNELS, ids=channel_id)
def test_record_marginal_is_the_same_in_both_receiver_bases(model):
    # Eve's record cannot depend on the basis the receiver measures in later
    marginal = model.law().sum(axis=3)  # [state, encoding, receiver basis, record]
    np.testing.assert_allclose(marginal[:, :, 0], marginal[:, :, 1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(record_likelihoods(model), marginal[:, :, 0], rtol=0, atol=0)


def prep_basis_rows(law):
    """The rows [cell, pair] of ``law`` the receiver samples, measuring in the
    preparation basis: a cell is 2 * state + encoding, and a pair is the row
    index n_records * receiver outcome + record."""
    return law[np.arange(4), :, kernels.PREP_BASIS_OF_STATE].reshape(8, -1)


def pinned_photons(oracle):
    """(cell, uniform, expected pair) columns for uniforms EDGE below and
    above every cumulative edge of each cell's oracle row and at both ends of
    [0, 1): each must pick the nearest possible pair on its side."""
    cells, uniforms, pairs = [], [], []
    for cell, row in enumerate(prep_basis_rows(oracle)):
        possible = np.flatnonzero(row >= IMPOSSIBLE)
        pins = [(0.0, possible[0]), (np.nextafter(1.0, 0.0), possible[-1])]
        for k, edge in enumerate(np.cumsum(row)[:-1]):
            if edge - EDGE >= 0.0:
                pins.append((edge - EDGE, possible[possible <= k][-1]))
            if edge + EDGE < 1.0:
                pins.append((edge + EDGE, possible[possible > k][0]))
        for u, pair in pins:
            cells.append(cell)
            uniforms.append(u)
            pairs.append(pair)
    return np.array(cells), np.array(uniforms), np.array(pairs)


@pytest.mark.parametrize("model", CHANNELS, ids=channel_id)
def test_pinned_uniforms_pick_the_pair_beside_each_edge(model):
    oracle = attack_law(model)
    n_records = oracle.shape[-1]
    cells, uniforms, pairs = pinned_photons(oracle)
    record, decoded = kernels.simulate_photons(cells // 2, cells % 2, (model,), uniforms,
                                               np.zeros(cells.size, dtype=np.uint8))
    # the receiver's outcome is the pair's, and decoded is 1 where it is not the label
    label = kernels.PREP_LABEL_OF_STATE[cells // 2]
    assert decoded.tolist() == ((pairs // n_records) != label).tolist()
    if n_records == 1:
        assert record.tolist() == [-1] * pairs.size
    else:
        assert record.tolist() == (pairs % n_records).tolist()
    # no pair the oracle calls impossible is ever drawn
    drawn = (decoded ^ label) * n_records + np.maximum(record, 0)
    assert np.all(prep_basis_rows(oracle)[cells, drawn] >= IMPOSSIBLE)


def test_a_stacked_table_gives_each_photon_its_own_attacks_pairs():
    # every channel's pinned photons in one call, each through its own
    # attack's rows of one table padded to intercept-resend's eight pairs
    pinned = [pinned_photons(attack_law(model)) for model in CHANNELS]
    cells, uniforms = (np.concatenate([columns[i] for columns in pinned]) for i in (0, 1))
    attack_idx = np.repeat(np.arange(len(CHANNELS)), [columns[0].size for columns in pinned])
    stacked = kernels.simulate_photons(cells // 2, cells % 2, tuple(CHANNELS), uniforms,
                                       attack_idx)
    alone = [kernels.simulate_photons(c // 2, c % 2, (model,), u, np.zeros(c.size, dtype=np.uint8))
             for model, (c, u, _) in zip(CHANNELS, pinned)]
    for got, want in zip(stacked, zip(*alone)):
        assert got.tolist() == np.concatenate(want).tolist()


@pytest.mark.parametrize("model", CHANNELS, ids=channel_id)
def test_edges_are_the_normalised_cumulative_prep_basis_rows(model):
    rows = np.cumsum(prep_basis_rows(model.law()), axis=1)
    edges, *_ = kernels._pair_tables((model,))
    assert edges.shape == (rows.shape[1] - 1, 8)
    assert np.array_equal(edges, (rows[:, :-1] / rows[:, -1:]).T)


@pytest.mark.parametrize("model", CHANNELS, ids=channel_id)
def test_cell_probabilities_is_the_prep_basis_slice(model):
    # the slice of the law, indexed by hand, bit for bit
    cells = kernels.cell_probabilities(model)
    by_hand = model.law()[np.arange(4), :, kernels.PREP_BASIS_OF_STATE] / 8
    assert (cells.dtype, cells.shape) == (by_hand.dtype, by_hand.shape)
    assert cells.tobytes() == by_hand.tobytes()


@pytest.mark.parametrize("model", CHANNELS, ids=channel_id)
def test_the_stacked_tables_are_cached_and_read_only(model):
    tables = kernels._pair_tables((model,))
    assert kernels._pair_tables((model,)) is tables
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0


def test_the_stacked_tables_are_the_only_kernel_cache():
    # no cache keeps an attack's law or its slice beside the stacked tables
    assert not hasattr(kernels, "law_of")
    caches = [name for name, value in vars(kernels).items() if hasattr(value, "cache_info")]
    assert caches == ["_pair_tables"]


def test_a_lineage_builds_each_law_once_per_stacked_table(law_calls, monkeypatch):
    # blocks of two 8-photon sessions: the first stacks (clean,), the second
    # (clean, probe), so the clean law is built for two tables and the probe's
    # for one; the same shapes again build nothing
    monkeypatch.setattr(protocol, "BLOCK_PHOTONS", 16)
    clean, probe = NoAttack(), IndividualUTB(theta=np.pi / 8)
    config = SessionConfig(n_message=4, n_sample=4, seed=5)
    for _ in range(2):
        pad = generate_pad(2 * (8 + 3 * 4), make_rng(6))
        run_lineage(pad, config, [clean, clean, clean, probe])
        assert law_calls == [clean, clean, probe]
    assert kernels._pair_tables.cache_info().currsize == 2


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
    def test_clean_channel_frequencies(self, state_idx):
        n = 50_000
        meas = PREP_BASIS[state_idx]
        rng = make_rng(state_idx * 10 + meas.index)
        bob, _ = simulate_one_attack(
            np.full(n, state_idx), np.zeros(n, dtype=np.int64), NoAttack(), rng.random(n)
        )
        p1 = self.exact_outcome_prob(state_idx, 0, meas)
        sigma = np.sqrt(p1 * (1 - p1) / n)
        assert abs(bob.mean() - p1) <= 3 * sigma  # sigma = 0 demands exactness

    @pytest.mark.parametrize("state_idx", [0, 1, 2, 3])
    @pytest.mark.parametrize("attack_basis", [Basis.PLUS, Basis.CROSS])
    def test_probe_attack_frequencies(self, state_idx, attack_basis):
        n = 50_000
        theta = np.pi / 8
        meas = PREP_BASIS[state_idx]
        rng = make_rng(1000 + state_idx * 100 + meas.index * 10 + attack_basis.index)
        bob, _ = simulate_one_attack(
            np.full(n, state_idx),
            np.zeros(n, dtype=np.int64),
            IndividualUTB(theta=theta, attack_basis=attack_basis),
            rng.random(n),
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
        bob, probe = simulate_one_attack(
            np.full(n, state_idx),
            np.zeros(n, dtype=np.int64),
            IndividualUTB(theta=theta, attack_basis=Basis.PLUS),
            rng.random(n),
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


class ShortRows:
    """A law with three records, so rows of 6 pairs, whose every row falls
    1e-15 short of 1 and ends in impossible pairs, as rounding could leave it."""

    def law(self):
        law = np.zeros((4, 2, 2, 2, 3))
        law[..., 0, 0] = 0.25
        law[..., 0, 2] = 0.25
        law[..., 1, 0] = 0.5 - 1e-15
        return law


def test_six_pair_rows_short_of_one_give_only_possible_pairs():
    uniforms = [0.0, 0.3, 0.6, 0.75, np.nextafter(1.0, 0.0)]
    bob, record = simulate_one_attack([0, 3, 1, 2, 3], [0, 1, 0, 1, 0], ShortRows(), uniforms)
    assert bob.tolist() == [0, 0, 1, 1, 1]
    assert record.tolist() == [0, 2, 0, 0, 0]


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernels.simulate_photons(
                np.zeros(4, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
                (NoAttack(),),
                make_rng(0).random(4),
                np.zeros(4, dtype=np.uint8),
            )

    def test_one_uniform_per_photon(self):
        with pytest.raises(ValueError, match="uniforms"):
            kernels.simulate_photons([0, 1], [0, 0], (NoAttack(),), np.zeros((2, 3)), [0, 0])

    def test_needs_randomness_source(self):
        with pytest.raises(TypeError, match="uniforms"):
            kernels.simulate_photons(
                np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), (NoAttack(),),
                attack_idx=np.zeros(4, dtype=np.uint8),
            )

    @pytest.mark.parametrize(
        "column,value,name",
        [(0, -1, "state_idx"), (0, 4, "state_idx"), (1, -1, "enc_bits"), (1, 2, "enc_bits")],
    )
    def test_out_of_range_column(self, column, value, name):
        # numpy would wrap a negative index to a valid cell; each column is
        # range-checked before any lookup
        columns = [np.zeros(4, dtype=np.int64) for _ in range(2)]
        columns[column][2] = value
        with pytest.raises(ValueError, match=name):
            kernels.simulate_photons(*columns, (NoAttack(),), make_rng(0).random(4), [0] * 4)

    @pytest.mark.parametrize(
        "column,value,dtype,name",
        [(0, -1, np.int8, "state_idx"), (1, -1, np.int8, "enc_bits"),
         (0, 4, np.uint8, "state_idx"), (1, 2, np.uint16, "enc_bits"),
         (0, 2**63, np.uint64, "state_idx"), (1, 2**63, np.uint64, "enc_bits")],
    )
    def test_out_of_range_narrow_column(self, column, value, dtype, name):
        # a narrow signed -1 or a wide unsigned value is caught at any width
        columns = [np.zeros(4, dtype=dtype) for _ in range(2)]
        columns[column][2] = value
        with pytest.raises(ValueError, match=name):
            kernels.simulate_photons(*columns, (NoAttack(),), make_rng(0).random(4), [0] * 4)

    @pytest.mark.parametrize("attack_idx", [[0, 2], [-1, 0], [0, 0, 0], [0.0, 1.0], [0]],
                             ids=["past-the-attacks", "negative", "too-long", "float",
                                  "one-for-all"])
    def test_bad_attack_idx(self, attack_idx):
        with pytest.raises(ValueError, match="attack_idx"):
            kernels.simulate_photons([0, 1], [0, 0], (NoAttack(), InterceptResend()),
                                     make_rng(0).random(2), attack_idx)

    @pytest.mark.parametrize("column,name", [(0, "state_idx"), (1, "enc_bits")])
    def test_float_column(self, column, name):
        # a float would be truncated to a valid cell (2.7 runs as state 2)
        columns = [[2], [0]]
        columns[column] = [0.9]
        with pytest.raises(ValueError, match=name):
            kernels.simulate_photons(*columns, (NoAttack(),), make_rng(0).random(1), [0])

    def test_integer_and_bool_columns_pass(self):
        # H swapped to -V read in plus, and d kept read in cross: both give
        # outcome 1, so H decodes to 1 and d, whose label is 1, to 0
        _, decoded = kernels.simulate_photons(
            np.array([0, 3], dtype=np.uint8), np.array([True, False]), (NoAttack(),),
            make_rng(0).random(2), np.array([False, False]),
        )
        assert decoded.tolist() == [1, 0]
