"""Two-phase learning-rate selection by regret-bound minimization.

For a run that consumes oracle 1 (noise level gamma1, data fraction beta1)
before oracle 2 with rates c1/t then c2/t, the leading term of the expected
squared distance to the optimum is

    B(c1, c2) = 4*g1*beta1^(2*lam*c2 - 1)*c1^2 / (T*(2*lam*c1 - 1))
              + 4*g2*(1 - beta1^(2*lam*c2 - 1))*c2^2 / (T*(2*lam*c2 - 1)),

valid for 2*lam*c1 > 1, with the continuous log limit at 2*lam*c2 = 1.
Optimizing c1 alone gives c1* = 1/lam regardless of the noise levels, which
reduces the search to the one-dimensional minimization over c2 done here.
The selector evaluates both data orders and keeps the better one.

Each search evaluates a 400-point log grid in one array call, then refines
around its best point by golden section, one plain-float point at a time.
What does not change within a search is built once per search: a scalar
evaluator (``_bound_evaluator``) holds 2*lam, 4*g1, 4*g2, the logs of beta1,
the first term's T*(2*lam*c1 - 1), np.exp, np.expm1 and the branch tolerance,
and ``golden_section`` binds its step and tolerance once. What does not change
with the order is built once per lam: the c2 grid is shared by both orders of
``select_rates``.
The bits do not change: hoisting a product that the formula already
evaluates first keeps every rounding, and the evaluator runs the array path's
operations in the same order. Nothing is kept past one public call.

The grids are ``np.geomspace(lo, hi, GRID_POINTS)`` without its generic path
(dtype promotion, sign rotation, the call through linspace and logspace):
``_log_grid`` runs numpy's own operations on float64 in numpy's order, so it
returns the same array. Those are log10 of both ends; arange(GRID_POINTS)
times (b - a)/(GRID_POINTS - 1), plus a; the last entry set to b; 10 to the
power of each entry; and both ends set back to lo and hi. A search evaluates
its own grid through ``_bound_values``, the array core of ``two_phase_bound``
without its argument checks. Those checks cannot fail there, for the
minimiser built the rates: c1 = 1/lam, or a shared-rate grid that starts at
(1 + 1e-9)/(2*lam), so 2*lam*c1 > 1 and c2 > 0. What is left, 2*lam*c
finite on the whole grid, is one check of lam (``_search_grid``) before the
grid is built; an overflowing bound still raises.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FRACTION, POSITIVE_FINITE, check_counts, check_reals, reject_bools
from .oracles import NoiseLevel

logger = logging.getLogger(__name__)

# Width of the analytic-limit branch around 2*lam*c2 = 1, in 2*lam*c2 units.
BRANCH_TOL = 1e-9

# Search domain for c2, in units of 1/lam.
C2_DOMAIN_LO = 1e-6
C2_DOMAIN_HI = 1e3
GRID_POINTS = 400
GOLDEN_REL_TOL = 1e-8

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class PreconditionViolated(ValueError):
    """The first-phase rate does not satisfy 2*lam*c1 > 1."""


class DomainError(ValueError):
    """Inputs outside the domain where an interval formula is defined."""


@dataclass(frozen=True)
class BoundInputs:
    """Noise levels, first-phase data fraction, curvature, and horizon."""

    gamma1_sq: float
    gamma2_sq: float
    beta1: float
    lam: float
    T: int

    def __post_init__(self):
        check_reals({"gamma1_sq": self.gamma1_sq, "gamma2_sq": self.gamma2_sq,
                     "lam": self.lam}, POSITIVE_FINITE)
        check_reals({"beta1": self.beta1}, FRACTION)
        check_counts({"T": self.T})
        # Plain floats, so that numpy scalars cannot send the bound's scalar branch into
        # numpy-scalar arithmetic, which warns on overflow where float arithmetic does not.
        for name in ("gamma1_sq", "gamma2_sq", "beta1", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))


def _beta_terms(beta1: float, k2):
    """beta1^(k2-1) and 1 - beta1^(k2-1), stable near k2 = 1."""
    e = np.asarray(k2, dtype=np.float64) - 1.0
    log_beta = math.log(beta1)
    bexp = np.exp(e * log_beta)
    one_minus = -np.expm1(e * log_beta)
    return bexp, one_minus


def _bound_evaluator(inputs: BoundInputs, c1: float | None) -> Callable[[float], float]:
    """B(c1, c2) as a function of one plain-float c2; B(c, c) as a function of c if c1 is None.

    Everything that does not depend on the evaluated rate (2*lam, 4*g1, 4*g2, the two
    logs of beta1 and, for a fixed c1, the first term's T*(2*lam*c1 - 1)) is computed
    once here, with the operation order of the array path, and np.exp, np.expm1 and the
    tolerances are bound once, so each point costs a few float operations, builds no
    tuple and gives the array path's bits. The rates are not checked: the
    caller validates them. A bound that overflows still raises ValueError.
    """
    two_lam, T = 2.0 * inputs.lam, inputs.T
    four_g1, four_g2 = 4.0 * inputs.gamma1_sq, 4.0 * inputs.gamma2_sq
    log_beta, log_inv_beta = math.log(inputs.beta1), math.log(1.0 / inputs.beta1)
    first_den = None if c1 is None else T * (two_lam * c1 - 1.0)
    exp, expm1, tol, inf = np.exp, np.expm1, BRANCH_TOL, math.inf

    def bound(c2: float) -> float:
        e = two_lam * c2 - 1.0
        # With c1 = c2 the first term's 2*lam*c1 - 1 is e itself.
        if c1 is None:
            c, den = c2, T * e
        else:
            c, den = c1, first_den
        if abs(e) <= tol:
            bexp, second = 1.0, four_g2 * c2 * c2 * log_inv_beta / T
        else:
            x = e * log_beta
            bexp = float(exp(x))
            second = four_g2 * -float(expm1(x)) * c2 * c2 / (T * e)
        out = four_g1 * bexp * c * c / den + second
        if not out < inf:
            raise ValueError(f"the bound overflows at c1={c}, c2={c2}")
        return out

    return bound


def two_phase_bound(inputs: BoundInputs, c1, c2):
    """Leading regret-bound constant B(c1, c2); c1 and c2 broadcast as arrays.

    Returns a float when both rates are scalars. Every entry of c1 must
    satisfy 2*lam*c1 > 1, every entry of c2 must be positive, 2*lam*c1 and
    2*lam*c2 must be finite, and so must the bound itself: one that overflows
    raises ValueError. A bool rate raises ValueError. Inside
    |2*lam*c2 - 1| <= BRANCH_TOL the removable singularity is replaced by its
    limit: first-phase exponent 0 and second term 4*g2*c2^2*log(1/beta1)/T.

    Scalar rates are checked here and then evaluated by ``_bound_evaluator``,
    the plain-float path the minimisers call point by point. It keeps the array
    path's operation order and calls np.exp/np.expm1, not math.exp/math.expm1,
    which can round differently, so both paths give the same bits. Array rates
    are checked here and then evaluated by ``_bound_values``, which the
    minimisers call on their own grids.
    """
    reject_bools({"c1": c1, "c2": c2})
    lam = inputs.lam
    if isinstance(c1, (int, float)) and isinstance(c2, (int, float)):
        c1, c2 = float(c1), float(c2)
        k1 = 2.0 * lam * c1
        if not k1 > 1.0:
            raise PreconditionViolated(f"need 2*lam*c1 > 1, got {k1}")
        if not k1 < math.inf:
            raise ValueError(f"2*lam*c1 must be finite, got c1={c1}")
        if not c2 > 0:
            raise ValueError("c2 must be positive")
        if not 2.0 * lam * c2 - 1.0 < math.inf:
            raise ValueError(f"2*lam*c2 must be finite, got c2={c2}")
        return _bound_evaluator(inputs, c1)(c2)
    # The extremes are checked as plain floats before any array product, so an infinite
    # 2*lam*c raises ValueError and no numpy warning. (2*lam)*c is monotone in c, so its
    # extremes are those of the array's product; a NaN entry makes min() NaN, which
    # fails the comparison. A term that still overflows is caught after the products.
    c1 = np.asarray(c1, dtype=np.float64)
    k1_min, c1_max = 2.0 * lam * float(c1.min()), float(c1.max())
    if not k1_min > 1.0:
        raise PreconditionViolated(f"need 2*lam*c1 > 1, got {k1_min}")
    if not 2.0 * lam * c1_max < math.inf:
        raise ValueError(f"2*lam*c1 must be finite, got c1={c1_max}")
    c2 = np.asarray(c2, dtype=np.float64)
    c2_max = float(c2.max())
    if not c2.min() > 0:
        raise ValueError("c2 must be positive")
    if not 2.0 * lam * c2_max < math.inf:
        raise ValueError(f"2*lam*c2 must be finite, got c2={c2_max}")
    out = _bound_values(inputs, c1, c2)
    return float(out) if out.ndim == 0 else out


def _bound_values(inputs: BoundInputs, c1, c2: np.ndarray) -> np.ndarray:
    """B(c1, c2) over a float64 array c2 and a float or float64 array c1, unchecked.

    The rates must be valid as ``two_phase_bound`` checks them; a bound that
    overflows still raises ValueError.
    """
    lam, T, beta1 = inputs.lam, inputs.T, inputs.beta1
    k1, k2 = 2.0 * lam * c1, 2.0 * lam * c2
    e = k2 - 1.0
    bexp, one_minus = _beta_terms(beta1, k2)

    # The limit branch swaps entries in with np.where, which only selects: a grid with no
    # point at the limit skips it and gives the same bits.
    at_limit = np.abs(e) <= BRANCH_TOL
    limit = bool(at_limit.any())
    if limit:
        bexp, e = np.where(at_limit, 1.0, bexp), np.where(at_limit, 1.0, e)
    with np.errstate(over="ignore", invalid="ignore"):
        first = 4.0 * inputs.gamma1_sq * bexp * c1 * c1 / (T * (k1 - 1.0))
        second = 4.0 * inputs.gamma2_sq * one_minus * c2 * c2 / (T * e)
        if limit:
            second_limit = 4.0 * inputs.gamma2_sq * c2 * c2 * math.log(1.0 / beta1) / T
            second = np.where(at_limit, second_limit, second)
        out = first + second
    if not out.max() < math.inf:
        raise ValueError(f"the bound overflows for some c1 up to {float(np.max(c1))}, "
                         f"c2 up to {float(c2.max())}")
    return out


def _phase_constant(c, gamma_first_sq: float, gamma_second_sq: float,
                    beta_first: float, lam: float):
    """T-free leading constant with the first-phase rate pinned at 1/lam."""
    c = np.asarray(c, dtype=np.float64)
    k = 2.0 * lam * c
    e = k - 1.0
    bexp, one_minus = _beta_terms(beta_first, k)
    at_limit = np.abs(e) <= BRANCH_TOL
    first = 4.0 * gamma_first_sq * np.where(at_limit, 1.0, bexp) / (lam * lam)
    safe_e = np.where(at_limit, 1.0, e)
    second = np.where(
        at_limit,
        4.0 * gamma_second_sq * c * c * math.log(1.0 / beta_first),
        4.0 * gamma_second_sq * one_minus * c * c / safe_e,
    )
    out = first + second
    return float(out) if out.ndim == 0 else out


def _check_phase_inputs(c, levels: dict, beta: dict, lam) -> None:
    """Raise ValueError naming the first input of a phase constant out of its range.

    c is a rate constant in (0, inf) or an array of them, each level and lam a number in
    (0, inf) and the first-phase fraction ``beta`` one in (0, 1).
    """
    reject_bools({"c": c})
    c_values = np.asarray(c)
    if c_values.dtype.kind not in "iuf" or not np.all((c_values > 0) & (c_values < math.inf)):
        raise ValueError(f"c must be a number in (0, inf) or an array of them, got {c!r}")
    check_reals({**levels, "lam": lam}, POSITIVE_FINITE)
    check_reals(beta, FRACTION)


def clean_first_constant(c, gamma_c_sq: float, gamma_n_sq: float,
                         beta_c: float, lam: float):
    """Leading bound constant for the clean-then-noisy order at second rate c."""
    _check_phase_inputs(c, {"gamma_c_sq": gamma_c_sq, "gamma_n_sq": gamma_n_sq},
                        {"beta_c": beta_c}, lam)
    return _phase_constant(c, gamma_c_sq, gamma_n_sq, beta_c, lam)


def noisy_first_constant(c, gamma_c_sq: float, gamma_n_sq: float,
                         beta_n: float, lam: float):
    """Same with the roles swapped: noisy data first, clean data second."""
    _check_phase_inputs(c, {"gamma_c_sq": gamma_c_sq, "gamma_n_sq": gamma_n_sq},
                        {"beta_n": beta_n}, lam)
    return _phase_constant(c, gamma_n_sq, gamma_c_sq, beta_n, lam)


def golden_section(f: Callable[[float], float], lo: float, hi: float) -> tuple:
    """Golden-section minimization on [lo, hi] to GOLDEN_REL_TOL; returns the best point seen.

    f is called one point at a time, in the order lo, hi, then the interior
    points, and only at points the search uses.
    """
    invphi, tol = _INVPHI, GOLDEN_REL_TOL
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi < best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol * max(abs(a), abs(b), 1e-300):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        if f1 < best_f:
            best_x, best_f = x1, f1
        if f2 < best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def _log_grid(lo: float, hi: float) -> np.ndarray:
    """np.geomspace(lo, hi, GRID_POINTS) for 0 < lo < hi < inf: numpy's operations, in its order."""
    a, b = np.log10(lo), np.log10(hi)
    y = np.arange(GRID_POINTS, dtype=np.float64)
    y *= (b - a) / (GRID_POINTS - 1)
    y += a
    y[-1] = b
    grid = np.power(10.0, y)
    grid[0], grid[-1] = lo, hi
    return grid


def _search_grid(lam: float, shared: bool) -> np.ndarray:
    """The log grid a search evaluates: the c2 domain, or the shared rate's if shared.

    The shared rate's domain starts just above 1/(2*lam), where 2*lam*c > 1. A lam
    so extreme that 2*lam*c overflows at the domain's top (below about 6e-306 or
    above about 9e307) raises ValueError before any array is built.
    """
    hi = C2_DOMAIN_HI / lam
    if not 2.0 * lam * hi < math.inf:
        raise ValueError(f"2*lam*c must be finite on the rate search's domain, got lam={lam}")
    return _log_grid((1.0 + 1e-9) / (2.0 * lam) if shared else C2_DOMAIN_LO / lam, hi)


def _minimize_on_grid(inputs: BoundInputs, grid: np.ndarray, shared: bool) -> tuple:
    """argmin over c of B(1/lam, c), or of B(c, c) if shared: the grid, then golden section.

    The grid, built by ``_search_grid``, is evaluated in one unchecked array call;
    the refinement calls one scalar evaluator, built once for the whole search.
    """
    c1 = None if shared else 1.0 / inputs.lam
    values = _bound_values(inputs, grid if shared else c1, grid)
    i = int(np.argmin(values))
    if i in (0, len(grid) - 1):
        logger.warning("rate minimizer hit the search-domain boundary at c2=%g", grid[i])
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    x, fx = golden_section(_bound_evaluator(inputs, c1), lo, hi)
    if values[i] < fx:
        return float(grid[i]), float(values[i])
    return float(x), float(fx)


def minimize_phase2_rate(inputs: BoundInputs) -> tuple:
    """argmin_c2 B(1/lam, c2) over a log grid plus golden-section refinement.

    The bound can be multimodal in c2 (a decaying exponential plus a convex
    term), so a coarse 400-point log grid brackets the minimum before the
    unimodal refinement.
    """
    return _minimize_on_grid(inputs, _search_grid(inputs.lam, shared=False), shared=False)


def minimize_single_rate(inputs: BoundInputs) -> tuple:
    """argmin_c B(c, c): one shared rate constant for both phases.

    The shared rate must satisfy 2*lam*c > 1, so the search domain starts
    just above 1/(2*lam).
    """
    return _minimize_on_grid(inputs, _search_grid(inputs.lam, shared=True), shared=True)


@dataclass(frozen=True)
class RateSelection:
    """Chosen order and rates, the winning bound constant, and both curves' minima."""

    order: str          # "clean_first" | "noisy_first"
    c1: float
    c2: float
    bound_value: float
    clean_first_rate: float
    clean_first_value: float
    noisy_first_rate: float
    noisy_first_value: float

    def to_dict(self) -> dict:
        # The fields are a str and floats, set in field order, so a copy of the
        # instance dict equals asdict's deep copy.
        return dict(vars(self))


def select_rates(gamma_c_sq: float, gamma_n_sq: float, beta_c: float, lam: float) -> RateSelection:
    """Pick the data order and rate pair with the smaller bound constant.

    Both orders are minimized with the first rate pinned at 1/lam; ties go to
    clean-first. The c2 grid depends on lam alone, so both orders are searched
    on one grid, built after the inputs are checked.
    """
    check_reals({"gamma_c_sq": gamma_c_sq, "gamma_n_sq": gamma_n_sq, "lam": lam}, POSITIVE_FINITE)
    check_reals({"beta_c": beta_c}, FRACTION)
    beta_n = 1.0 - beta_c
    cn = BoundInputs(gamma_c_sq, gamma_n_sq, beta_c, lam, T=1)
    nc = BoundInputs(gamma_n_sq, gamma_c_sq, beta_n, lam, T=1)
    grid = _search_grid(cn.lam, shared=False)
    c_cn, v_cn = _minimize_on_grid(cn, grid, shared=False)
    c_nc, v_nc = _minimize_on_grid(nc, grid, shared=False)
    if v_cn <= v_nc:
        order, c2, value = "clean_first", c_cn, v_cn
    else:
        order, c2, value = "noisy_first", c_nc, v_nc
    return RateSelection(order=order, c1=1.0 / lam, c2=c2, bound_value=value,
                         clean_first_rate=c_cn, clean_first_value=v_cn,
                         noisy_first_rate=c_nc, noisy_first_value=v_nc)


@dataclass(frozen=True)
class RateInterval:
    """Analytic bracket for 2*lam*c2* in one of the two asymptotic regimes.

    lo and hi are dimensionless (units of 2*lam*c2). The brackets hold for
    sufficiently large noise ratios; loglog_negative flags the regime where
    the log log(1/beta) term is negative (beta > 1/e), kept as the formula
    states.
    """

    lo: float
    hi: float
    regime: str
    loglog_negative: bool = False


def _check_levels(gamma_c_sq: float, gamma_n_sq: float) -> None:
    """Raise ValueError unless 0 < gamma_c_sq < gamma_n_sq < inf, as both brackets need."""
    check_reals({"gamma_c_sq": gamma_c_sq, "gamma_n_sq": gamma_n_sq}, POSITIVE_FINITE)
    if not gamma_c_sq < gamma_n_sq:
        raise ValueError(f"need gamma_c_sq < gamma_n_sq, got gamma_c_sq={gamma_c_sq!r} "
                         f"and gamma_n_sq={gamma_n_sq!r}")


def noisy_first_rate_interval(gamma_c_sq: float, gamma_n_sq: float,
                              beta_n: float, lam: float) -> RateInterval:
    """Bracket for the optimal second-phase rate when the noisy data goes first.

    2*lam*c2* in [1 + (2 log r + log log(1/beta_n)) / log(1/beta_n),
                  1 + (2 log 4r + log log(1/beta_n)) / log(1/beta_n)]
    with r = gamma_n / gamma_c; natural logs throughout.
    """
    check_reals({"lam": lam}, POSITIVE_FINITE)
    _check_levels(gamma_c_sq, gamma_n_sq)
    check_reals({"beta_n": beta_n}, FRACTION, DomainError)
    ratio = math.sqrt(gamma_n_sq / gamma_c_sq)
    log_inv_beta = math.log(1.0 / beta_n)
    loglog = math.log(log_inv_beta)
    lo = 1.0 + (2.0 * math.log(ratio) + loglog) / log_inv_beta
    hi = 1.0 + (2.0 * math.log(4.0 * ratio) + loglog) / log_inv_beta
    return RateInterval(lo, hi, regime="noisy_first", loglog_negative=loglog < 0)


def clean_first_rate_interval(gamma_c_sq: float, gamma_n_sq: float,
                              beta_c: float) -> RateInterval:
    """Bracket when the clean data goes first: [s, 8s/beta_c], s = (gamma_n/gamma_c)^-2."""
    _check_levels(gamma_c_sq, gamma_n_sq)
    check_reals({"beta_c": beta_c}, FRACTION, DomainError)
    s = gamma_c_sq / gamma_n_sq
    return RateInterval(s, 8.0 * s / beta_c, regime="clean_first")


@dataclass(frozen=True)
class C2Bracket:
    """Second-phase rates of one data order at the upper and at the lower noise bounds.

    c2_upper is the rate the selector picks at the upper bounds, with the order.
    """

    order: str
    c2_lower: float
    c2_upper: float


def c2_bracket(noise_clean: NoiseLevel, noise_noisy: NoiseLevel,
               beta_c: float, lam: float) -> C2Bracket:
    """Fix the order by the upper-bound selection, then re-minimise that order at the lower bounds.

    Selecting independently at both bounds can pick different orders, whose
    rates do not bracket anything on one curve.
    """
    sel = select_rates(noise_clean.gamma_sq, noise_noisy.gamma_sq, beta_c, lam)
    if sel.order == "clean_first":
        lower = BoundInputs(noise_clean.gamma_sq_lower, noise_noisy.gamma_sq_lower,
                            beta_c, lam, T=1)
    else:
        lower = BoundInputs(noise_noisy.gamma_sq_lower, noise_clean.gamma_sq_lower,
                            1.0 - beta_c, lam, T=1)
    c2_lower, _ = minimize_phase2_rate(lower)
    return C2Bracket(order=sel.order, c2_lower=c2_lower, c2_upper=sel.c2)

