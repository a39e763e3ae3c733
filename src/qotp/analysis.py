"""Closed-form information bounds and the empirical estimators that connect
Monte-Carlo runs to them.

All information quantities are in bits (base-2 logs).  The bound family:

* ``i0_bound(d)``     -- ceiling on what an individual probe attack can learn
                         about the encoding operation when measuring bases are
                         announced afterwards, as a function of the error rate
                         ``d`` the attack inflicts.
* ``epsilon_tilde_min`` / ``i1_bound`` -- ceiling on what the adversary can
                         learn about the measuring bases themselves, with a
                         declared pole at d_m = 1/(8*sqrt(2)); evaluated
                         verbatim, no smoothing.
* ``small_dm_linear_bound`` -- the small-d_m linear relaxation of i1.

Empirical quantities (error rates, plug-in mutual information) come from
session transcripts or from batched kernel runs with uniformly random pads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .adversary import AttackModel, IndividualUTB
from .errors import PoleError
from .quantum import Basis
from .rng import ROLE_SWEEP, RandomStream, make_rng, role_seed

# Plug-in MI estimator slack for seeded bound comparisons at n = 1e5
# (estimator bias is O(cells/n); at most 8 cells here).
MI_ESTIMATOR_SLACK = 0.02

_LN2 = np.log(2.0)
_POLE_DM = 1.0 / (8.0 * np.sqrt(2.0))


def _listed(values: np.ndarray) -> str:
    return ", ".join(f"{v:.12g}" for v in values)


def _eval(x, domain_lo, domain_hi, func, name):
    scalar = np.isscalar(x) or np.asarray(x).ndim == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    outside = ~((arr >= domain_lo) & (arr <= domain_hi))  # NaN is outside too
    if np.any(outside):
        raise ValueError(
            f"{name} domain is [{domain_lo:g}, {domain_hi:g}], got {_listed(arr[outside])}"
        )
    out = func(arr)
    return float(out[0]) if scalar else out


def phi(x):
    """(1+x)log2(1+x) + (1-x)log2(1-x) on [0, 1], with 0*log 0 = 0 at x = 1."""

    def f(arr):
        out = (1.0 + arr) * np.log2(1.0 + arr)
        rest = 1.0 - arr
        mask = rest > 0
        extra = np.zeros_like(arr)
        extra[mask] = rest[mask] * np.log2(rest[mask])
        return out + extra

    return _eval(x, 0.0, 1.0, f, "phi")


def i0_bound(d):
    """Encoding-information ceiling (1/2) phi(2 sqrt(d(1-d))).

    Symmetric under d <-> 1-d and maximal (= 1) at d = 1/2; the protocol
    regime is d in [0, 1/4].
    """

    def f(arr):
        t = np.minimum(2.0 * np.sqrt(arr * (1.0 - arr)), 1.0)
        return 0.5 * phi(t)

    return _eval(d, 0.0, 1.0, f, "i0_bound")


def d_of_theta(theta):
    """Error rate (1/2) sin^2(theta) inflicted on attacked-basis photons."""
    return _eval(theta, 0.0, np.pi / 4, lambda t: 0.5 * np.sin(t) ** 2, "d_of_theta")


def epsilon_tilde_min(d_m, pole_tol: float = 1e-9):
    """Minimum of the basis-information parameter over attacks at error d_m.

    Evaluated verbatim: ((1 - 4 sqrt(sqrt(2 - 8 d) d)) / (1 - 8 sqrt(2) d))^2
    on [0, 1/4].  The denominator vanishes at d = 1/(8 sqrt(2)) ~ 0.08839;
    evaluation within ``pole_tol`` of the pole raises PoleError.
    """

    def f(arr):
        den = 1.0 - 8.0 * np.sqrt(2.0) * arr
        near = np.abs(den) < pole_tol
        if np.any(near):
            raise PoleError(
                f"epsilon_tilde_min has a pole at d_m = {_POLE_DM:.12g}; "
                f"got {_listed(arr[near])}"
            )
        num = 1.0 - 4.0 * np.sqrt(np.sqrt(2.0 - 8.0 * arr) * arr)
        return (num / den) ** 2

    return _eval(d_m, 0.0, 0.25, f, "epsilon_tilde_min")


def i1_bound(d_m, pole_tol: float = 1e-9):
    """Basis-information ceiling 1 - log2(1+e) + (e/(1+e)) log2 e at
    e = epsilon_tilde_min(d_m); e log2 e -> 0 as e -> 0."""

    def f(arr):
        e = np.asarray(epsilon_tilde_min(arr, pole_tol=pole_tol), dtype=np.float64)
        term = np.zeros_like(e)
        mask = e > 0
        term[mask] = (e[mask] / (1.0 + e[mask])) * np.log2(e[mask])
        return 1.0 - np.log2(1.0 + e) + term

    return _eval(d_m, 0.0, 0.25, f, "i1_bound")


def small_dm_linear_bound(d_m):
    """Small-d_m linear ceiling (4 sqrt(2) / ln 2) d_m on [0, 1/4]."""
    slope = 4.0 * np.sqrt(2.0) / _LN2
    return _eval(d_m, 0.0, 0.25, lambda arr: slope * arr, "small_dm_linear_bound")


class ErrorSubset(Enum):
    SAMPLE_BITS = "sample"
    MATCHED_ATTACK_BASIS = "matched"
    ALL = "all"


def empirical_error_rate(transcript, subset: ErrorSubset) -> float:
    """Fraction of decode errors over a chosen photon subset of a transcript.

    MATCHED_ATTACK_BASIS keeps photons whose preparation basis equals the
    probe attack's basis (the subset on which the d_of_theta law holds).
    Raises ValueError when the subset is empty or undefined.
    """
    truth = transcript.mm.bits
    decoded = np.asarray(transcript.decoded, dtype=np.uint8)
    n = truth.size
    if subset is ErrorSubset.ALL:
        mask = np.ones(n, dtype=bool)
    elif subset is ErrorSubset.SAMPLE_BITS:
        mask = np.zeros(n, dtype=bool)
        mask[transcript.mm.sample_positions] = True
    else:
        spec = transcript.attack.channel_spec()
        if spec.kind != kernels.ATTACK_UTB:
            raise ValueError("matched-basis subset needs a probe attack with a basis")
        mask = kernels.PREP_BASIS_OF_STATE[transcript.keys.state_idx] == spec.attack_basis
    if not mask.any():
        raise ValueError(f"error rate undefined over empty subset {subset}")
    return float(np.mean(decoded[mask] != truth[mask]))


def joint_counts(xs, ys, nx: int, ny: int) -> np.ndarray:
    """Contingency table of paired integer labels."""
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape:
        raise ValueError("label arrays must align")
    flat = xs * ny + ys
    return np.bincount(flat, minlength=nx * ny).reshape(nx, ny)


def empirical_mutual_information(counts) -> float:
    """Plug-in estimate sum p(a,e) log2[p(a,e)/(p(a)p(e))] in bits."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 2 or np.any(c < 0):
        raise ValueError("counts must be a nonnegative 2-D table")
    total = c.sum()
    if total <= 0:
        raise ValueError("counts table must have positive total")
    p = c / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    terms = np.zeros_like(p)
    terms[mask] = p[mask] * np.log2(p[mask] / (px @ py)[mask])
    return float(terms.sum())


@dataclass
class PhotonBatch:
    """Column-oriented result of one batched channel run."""

    state_idx: np.ndarray
    enc_bits: np.ndarray
    prep_basis: np.ndarray
    meas_basis: np.ndarray
    bob_outcome: np.ndarray
    eve_basis: np.ndarray
    eve_outcome: np.ndarray

    @property
    def decoded(self) -> np.ndarray:
        """Decoded bits; meaningful where meas_basis equals prep_basis."""
        return (self.bob_outcome != kernels.PREP_LABEL_OF_STATE[self.state_idx]).astype(np.uint8)

    @property
    def errors(self) -> np.ndarray:
        return self.decoded != self.enc_bits

    @property
    def encoded_label(self) -> np.ndarray:
        """In-basis eigenstate label of the encoded (travelling) state."""
        return kernels.PREP_LABEL_OF_STATE[self.state_idx] ^ self.enc_bits.astype(np.int64)


def run_photon_batch(
    n: int,
    attack: AttackModel,
    rng: RandomStream,
    state_idx: np.ndarray | None = None,
    enc_bits: np.ndarray | None = None,
    meas_basis: np.ndarray | str = "prep",
) -> PhotonBatch:
    """Run n photons with uniformly random pads/bits unless columns are pinned.

    ``meas_basis`` is "prep" (receiver uses each photon's preparation basis,
    the protocol behavior), "plus"/"cross" (a fixed-basis observer), or an
    explicit (n,) array.
    """
    if state_idx is None:
        state_idx = rng.integers(0, 4, size=n, dtype=np.int64)
    else:
        state_idx = np.broadcast_to(np.asarray(state_idx, dtype=np.int64), (n,)).copy()
    if enc_bits is None:
        enc_bits = rng.integers(0, 2, size=n, dtype=np.int64)
    else:
        enc_bits = np.broadcast_to(np.asarray(enc_bits, dtype=np.int64), (n,)).copy()
    prep_basis = kernels.PREP_BASIS_OF_STATE[state_idx]
    if isinstance(meas_basis, str):
        if meas_basis == "prep":
            mb = prep_basis.copy()
        elif meas_basis == "plus":
            mb = np.zeros(n, dtype=np.int64)
        elif meas_basis == "cross":
            mb = np.ones(n, dtype=np.int64)
        else:
            raise ValueError(f"unknown measurement-basis selector {meas_basis!r}")
    else:
        mb = np.broadcast_to(np.asarray(meas_basis, dtype=np.int64), (n,)).copy()
    spec = attack.channel_spec()
    bob, eve_basis, eve_out = kernels.simulate_photons(
        state_idx, enc_bits, mb, spec.kind, spec.ir_strategy, spec.theta, spec.attack_basis,
        rng=rng,
    )
    return PhotonBatch(
        state_idx=state_idx,
        enc_bits=enc_bits,
        prep_basis=prep_basis,
        meas_basis=mb,
        bob_outcome=bob,
        eve_basis=eve_basis,
        eve_outcome=eve_out,
    )


def probe_information_estimate(batch: PhotonBatch, attack_basis: Basis) -> float:
    """Plug-in MI between the encoded eigenstate label and the probe outcome
    over attacked-basis photons: what the probe learns about the encoding once
    the basis key of each photon is handed to the adversary afterwards."""
    matched = batch.prep_basis == attack_basis.index
    return empirical_mutual_information(
        joint_counts(batch.encoded_label[matched], batch.eve_outcome[matched], 2, 2)
    )


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    d_theory: float
    d_matched_empirical: float
    d_overall_empirical: float
    mi_empirical: float
    i0_at_d: float


def sweep_theta(
    thetas,
    n_photons: int,
    seed: int,
    attack_basis: Basis = Basis.PLUS,
) -> list[SweepPoint]:
    """One Monte-Carlo batch per theta; grid point i runs on the stream
    seeded by ``role_seed(seed, ROLE_SWEEP, i)``."""
    if n_photons < 1:
        raise ValueError(f"a sweep needs at least 1 photon per grid point, got {n_photons}")
    points = []
    for i, theta in enumerate(thetas):
        rng = make_rng(role_seed(seed, ROLE_SWEEP, i))
        batch = run_photon_batch(
            n_photons, IndividualUTB(theta=float(theta), attack_basis=attack_basis), rng
        )
        matched = batch.prep_basis == attack_basis.index
        if not matched.any():
            raise ValueError(
                f"sweep point theta={float(theta):.10g} drew no attacked-basis photon "
                f"among {n_photons}"
            )
        errors = batch.errors
        d_theory = d_of_theta(float(theta))
        points.append(
            SweepPoint(
                theta=float(theta),
                d_theory=d_theory,
                d_matched_empirical=float(errors[matched].mean()),
                d_overall_empirical=float(errors.mean()),
                mi_empirical=probe_information_estimate(batch, attack_basis),
                i0_at_d=i0_bound(d_theory),
            )
        )
    return points


SWEEP_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepPoint))
BOUNDS_CSV_HEADER = "d,i0,i1,linear,eps_tilde"


def _csv(header: str, rows) -> str:
    lines = [header, *(",".join(f"{v:.10g}" for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


def sweep_csv(points: list[SweepPoint]) -> str:
    return _csv(SWEEP_CSV_HEADER, map(dataclasses.astuple, points))


def bounds_csv(d_grid) -> str:
    """Bound curves over a d_m grid in [0, 1/4]; the pole must not be in the
    grid (PoleError names the offending point)."""
    d = np.atleast_1d(np.asarray(d_grid, dtype=np.float64))
    if d.size == 0:
        raise ValueError("a bound table needs at least 1 grid point")
    columns = [d, i0_bound(d), i1_bound(d), small_dm_linear_bound(d), epsilon_tilde_min(d)]
    return _csv(BOUNDS_CSV_HEADER, zip(*(c.tolist() for c in columns)))
