"""Closed-form information bounds, the plug-in mutual-information estimator,
and the probe-strength sweep that sets one against the other.

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

A sweep grid's probe laws (``adversary.probe_law`` sliced by
``kernels.prep_basis_cells``) and theory columns are one read-only table, built
in one pass and cached per grid.  One multinomial call draws every point's
histogram, in grid order, from one stream; rows are columns over the stack.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import adversary, kernels
from .kernels import Basis
from .rng import ROLE_SWEEP, make_rng, role_seed

_LINEAR_SLOPE = 4.0 * np.sqrt(2.0) / np.log(2.0)  # of small_dm_linear_bound
POLE_DM = 1.0 / (8.0 * np.sqrt(2.0))
_POLE_TOL = 1e-9


class PoleError(ValueError):
    """Raised when a bound is evaluated at (or too close to) its singular point."""


def _listed(values: np.ndarray) -> str:
    return ", ".join(f"{v:.12g}" for v in values)


def _eval(x, domain_lo, domain_hi, func, name, arg):
    arr = kernels.real_array(arg, x)
    inside = (arr >= domain_lo) & (arr <= domain_hi)  # NaN is outside too
    if not inside.all():
        raise ValueError(
            f"{name} domain is [{domain_lo:g}, {domain_hi:g}], got {_listed(arr[~inside])}"
        )
    return func(arr) if arr.ndim else float(func(arr[None])[0])  # a float for a 0-d x


def _phi(arr: np.ndarray) -> np.ndarray:
    rest = 1.0 - arr
    mask = rest > 0
    extra = np.zeros_like(arr)
    extra[mask] = rest[mask] * np.log2(rest[mask])
    return (1.0 + arr) * np.log2(1.0 + arr) + extra


def phi(x):
    """(1+x)log2(1+x) + (1-x)log2(1-x) on [0, 1], with 0*log 0 = 0 at x = 1."""
    return _eval(x, 0.0, 1.0, _phi, "phi", "x")


def i0_bound(d):
    """Encoding-information ceiling (1/2) phi(2 sqrt(d(1-d))).

    Symmetric under d <-> 1-d and maximal (= 1) at d = 1/2; the protocol
    regime is d in [0, 1/4].
    """

    return _eval(d, 0.0, 1.0, _i0, "i0_bound", "d")


def _i0(arr: np.ndarray) -> np.ndarray:
    # phi's argument lies in [0, 1] for every d in [0, 1]
    return 0.5 * _phi(np.minimum(2.0 * np.sqrt(arr * (1.0 - arr)), 1.0))


def d_of_theta(theta):
    """Error rate (1/2) sin^2(theta) inflicted on attacked-basis photons."""
    return _eval(theta, 0.0, np.pi / 4, _d_of_theta, "d_of_theta", "theta")


def _d_of_theta(arr: np.ndarray) -> np.ndarray:
    return 0.5 * np.sin(arr) ** 2


def _eps_tilde(arr: np.ndarray) -> np.ndarray:
    near = on_pole(arr)
    if np.any(near):
        raise PoleError(f"epsilon_tilde_min has a pole at d_m = {POLE_DM:.12g}; "
                        f"got {_listed(arr[near])}")
    num = 1.0 - 4.0 * np.sqrt(np.sqrt(2.0 - 8.0 * arr) * arr)
    return (num / (1.0 - 8.0 * np.sqrt(2.0) * arr)) ** 2


def epsilon_tilde_min(d_m):
    """Minimum of the basis-information parameter over attacks at error d_m.

    Evaluated verbatim: ((1 - 4 sqrt(sqrt(2 - 8 d) d)) / (1 - 8 sqrt(2) d))^2
    on [0, 1/4].  The denominator vanishes at d = 1/(8 sqrt(2)) ~ 0.08839;
    evaluation within 1e-9 of the pole raises PoleError.
    """
    return _eval(d_m, 0.0, 0.25, _eps_tilde, "epsilon_tilde_min", "d_m")


def on_pole(d_m) -> np.ndarray:
    """Whether each d_m is too near the pole for ``epsilon_tilde_min`` to evaluate."""
    return np.abs(1.0 - 8.0 * np.sqrt(2.0) * np.asarray(d_m, dtype=np.float64)) < _POLE_TOL


def _i1(e: np.ndarray) -> np.ndarray:
    term = np.zeros_like(e)
    mask = e > 0
    term[mask] = (e[mask] / (1.0 + e[mask])) * np.log2(e[mask])
    return 1.0 - np.log2(1.0 + e) + term


def i1_bound(d_m):
    """Basis-information ceiling 1 - log2(1+e) + (e/(1+e)) log2 e at
    e = epsilon_tilde_min(d_m); e log2 e -> 0 as e -> 0."""
    return _eval(d_m, 0.0, 0.25, lambda arr: _i1(_eps_tilde(arr)), "i1_bound", "d_m")


def small_dm_linear_bound(d_m):
    """Small-d_m linear ceiling (4 sqrt(2) / ln 2) d_m on [0, 1/4]."""
    return _eval(d_m, 0.0, 0.25, lambda arr: _LINEAR_SLOPE * arr, "small_dm_linear_bound", "d_m")


def empirical_mutual_information(counts) -> float | np.ndarray:
    """Plug-in estimate sum p(a,e) log2[p(a,e)/(p(a)p(e))] in bits of a 2-D
    count table, as a float, or of each table of a stack along the leading
    axes, as an array."""
    c = kernels.real_array("counts", counts)
    if c.ndim < 2 or not np.all((c >= 0) & (c < np.inf)):  # NaN fails both
        raise ValueError("counts must be finite, nonnegative 2-D tables")
    if np.any(c.sum(axis=(-2, -1)) <= 0):
        raise ValueError("counts table must have positive total")
    mi = _mutual_information(c)
    return float(mi) if c.ndim == 2 else mi


def _mutual_information(c: np.ndarray) -> np.ndarray:
    """The estimate of each table of a float64 stack whose totals are positive."""
    p = c / c.sum(axis=(-2, -1), keepdims=True)
    outer = p.sum(axis=-1, keepdims=True) * p.sum(axis=-2, keepdims=True)
    ratio = np.divide(p, outer, out=np.ones_like(p), where=p > 0)
    return (p * np.log2(ratio)).sum(axis=(-2, -1))


class SweepPoint(NamedTuple):
    theta: float
    d_theory: float
    d_matched_empirical: float
    d_overall_empirical: float
    mi_empirical: float
    i0_at_d: float


# Coordinates of the sweep histogram cells [state, encoding, receiver outcome,
# probe outcome], with a trailing axis for the tallies each cell adds to: it
# is an error or not, and its one-hot place in the (encoded label, probe) joint.
_STATE, _ENC, _BOB, _PROBE = np.indices((4, 2, 2, 2))[..., None]
_ERROR = (_BOB != kernels.PREP_LABEL_OF_STATE[_STATE]) != _ENC
_JOINT_CELL = 2 * (kernels.PREP_LABEL_OF_STATE[_STATE] ^ _ENC) + _PROBE == np.arange(4)


def _tally(attack_basis: Basis) -> np.ndarray:
    """[cell, tally]: 1 where a cell adds to the matched, matched-error, error or joint tally."""
    matched = kernels.PREP_BASIS_OF_STATE[_STATE] == attack_basis.index
    tally = np.concatenate([matched, matched & _ERROR, _ERROR, matched & _JOINT_CELL], axis=-1)
    return tally.reshape(_STATE.size, -1)


_TALLY = {basis: _tally(basis) for basis in Basis}


@functools.lru_cache(maxsize=8)
def _grid_table(grid: bytes, attack_basis: Basis) -> tuple[np.ndarray, ...]:
    """The read-only probe laws [point, cell], d_theory and i0_at_d of a checked grid."""
    thetas = np.frombuffer(grid)
    adversary.check_probe(thetas, attack_basis)
    # cos and sin per point, as IndividualUTB.law takes them: its law bit for bit
    cos_sin = [(np.cos(theta), np.sin(theta)) for theta in thetas.tolist()]
    cos, sin = np.array(cos_sin).T.reshape(2, -1, 1, 1, 1)
    laws = kernels.prep_basis_cells(adversary.probe_law(cos, sin, attack_basis))
    d_theory = _d_of_theta(thetas)
    table = (laws.reshape(thetas.size, -1), d_theory, _i0(d_theory))
    for column in table:
        column.flags.writeable = False
    return table


def sweep_theta(
    thetas, n_photons: int, seed: int, attack_basis: Basis = Basis.PLUS
) -> list[SweepPoint]:
    """One Monte-Carlo histogram per theta, all drawn in grid order from the
    one stream seeded by ``role_seed(seed, ROLE_SWEEP)``: row i depends on the
    seed and theta_0..theta_i, so a grid that extends another keeps its rows.
    Each histogram of ``n_photons`` photons is one multinomial draw from its
    point's exact law, so a point costs the same at any photon count.  Every
    theta is checked before the first draw."""
    n_photons = kernels.index_value("n_photons", n_photons, 1)  # not a float it divides by
    thetas = kernels.real_array("thetas", thetas)
    if thetas.ndim != 1:
        raise ValueError(f"a sweep's theta grid must be 1-D, got shape {thetas.shape}")
    if not thetas.size:
        raise ValueError(f"a sweep's theta grid must not be empty, got shape {thetas.shape}")
    # keyed by the grid's bytes, so that -0.0 and 0.0 make two grids
    laws, d_theory, i0 = _grid_table(thetas.tobytes(), attack_basis)
    # one row per law, in order: the draws of len(laws) calls on one stream
    counts = make_rng(role_seed(seed, ROLE_SWEEP)).multinomial(n_photons, laws)
    tallies = counts @ _TALLY[attack_basis]  # exact integer sums
    n_matched, n_matched_errors, n_errors = tallies[:, :3].T
    empty = np.flatnonzero(n_matched == 0)
    if empty.size:
        raise ValueError(
            f"sweep point theta={thetas[empty[0]]:.10g} drew no attacked-basis photon "
            f"among {n_photons}"
        )
    # each joint table sums to its point's matched count, checked above
    mi = _mutual_information(tallies[:, 3:].reshape(-1, 2, 2).astype(np.float64))
    d_matched, d_overall = n_matched_errors / n_matched, n_errors / n_photons
    columns = (thetas, d_theory, d_matched, d_overall, mi, i0)
    return list(map(SweepPoint._make, zip(*(column.tolist() for column in columns))))


SWEEP_CSV_HEADER = ",".join(SweepPoint._fields)
BOUNDS_CSV_HEADER = "d,i0,i1,linear,eps_tilde"


def _csv(header: str, rows) -> str:
    """The header, then each row of floats through one ``%.10g`` template, which
    formats every float64 as ``f"{v:.10g}"`` does."""
    template = ",".join(["%.10g"] * (header.count(",") + 1))
    return "\n".join([header, *(template % row for row in rows)]) + "\n"


def sweep_csv(points: list[SweepPoint]) -> str:
    return _csv(SWEEP_CSV_HEADER, points)


def bounds_csv(d_grid) -> str:
    """Bound curves over a d_m grid in [0, 1/4], checked once by
    ``epsilon_tilde_min``; the pole must not be in the grid (PoleError names
    the offending point)."""
    d = np.atleast_1d(kernels.real_array("d_grid", d_grid))
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"a bound table needs a nonempty 1-D d grid, got shape {d.shape}")
    e = epsilon_tilde_min(d)
    columns = [d, _i0(d), _i1(e), _LINEAR_SLOPE * d, e]
    return _csv(BOUNDS_CSV_HEADER, zip(*(c.tolist() for c in columns)))
