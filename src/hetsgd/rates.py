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
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .core import is_integer
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
        # Plain floats, so that numpy scalars cannot send the bound's scalar branch into
        # numpy-scalar arithmetic, which warns on overflow where float arithmetic does not.
        for name in ("gamma1_sq", "gamma2_sq", "beta1", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0 < self.gamma1_sq < math.inf and 0 < self.gamma2_sq < math.inf):
            raise ValueError(f"noise levels must be positive and finite, got "
                             f"{self.gamma1_sq} and {self.gamma2_sq}")
        if not 0.0 < self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in (0, 1), got {self.beta1}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not is_integer(self.T) or self.T < 1:
            raise ValueError(f"T must be a positive integer, got {self.T!r}")


def _beta_terms(beta1: float, k2):
    """beta1^(k2-1) and 1 - beta1^(k2-1), stable near k2 = 1."""
    e = np.asarray(k2, dtype=np.float64) - 1.0
    log_beta = math.log(beta1)
    bexp = np.exp(e * log_beta)
    one_minus = -np.expm1(e * log_beta)
    return bexp, one_minus


def two_phase_bound(inputs: BoundInputs, c1, c2):
    """Leading regret-bound constant B(c1, c2); c1 and c2 broadcast as arrays.

    Returns a float when both rates are scalars. Every entry of c1 must
    satisfy 2*lam*c1 > 1, every entry of c2 must be positive, 2*lam*c1 and
    2*lam*c2 must be finite, and so must the bound itself: one that overflows
    raises ValueError. Inside |2*lam*c2 - 1| <= BRANCH_TOL the removable
    singularity is replaced by its limit: first-phase exponent 0 and second
    term 4*g2*c2^2*log(1/beta1)/T.

    Scalar rates take a plain-float path with the array path's operation
    order. It calls np.exp/np.expm1, not math.exp/math.expm1, which can round
    differently, so both paths give the same bits.
    """
    lam, T, beta1 = inputs.lam, inputs.T, inputs.beta1
    if isinstance(c1, (int, float)) and isinstance(c2, (int, float)):
        c1, c2 = float(c1), float(c2)
        k1 = 2.0 * lam * c1
        if not k1 > 1.0:
            raise PreconditionViolated(f"need 2*lam*c1 > 1, got {k1}")
        if not k1 < math.inf:
            raise ValueError(f"2*lam*c1 must be finite, got c1={c1}")
        if not c2 > 0:
            raise ValueError("c2 must be positive")
        e = 2.0 * lam * c2 - 1.0
        if not e < math.inf:
            raise ValueError(f"2*lam*c2 must be finite, got c2={c2}")
        if abs(e) <= BRANCH_TOL:
            bexp, second = 1.0, 4.0 * inputs.gamma2_sq * c2 * c2 * math.log(1.0 / beta1) / T
        else:
            x = e * math.log(beta1)
            bexp = float(np.exp(x))
            second = 4.0 * inputs.gamma2_sq * -float(np.expm1(x)) * c2 * c2 / (T * e)
        out = float(4.0 * inputs.gamma1_sq * bexp * c1 * c1 / (T * (k1 - 1.0)) + second)
        if not out < math.inf:
            raise ValueError(f"the bound overflows at c1={c1}, c2={c2}")
        return out
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
    k1, k2 = 2.0 * lam * c1, 2.0 * lam * c2
    e = k2 - 1.0
    bexp, one_minus = _beta_terms(beta1, k2)

    at_limit = np.abs(e) <= BRANCH_TOL
    with np.errstate(over="ignore", invalid="ignore"):
        first = 4.0 * inputs.gamma1_sq * np.where(at_limit, 1.0, bexp) * c1 * c1 \
            / (T * (k1 - 1.0))
        safe_e = np.where(at_limit, 1.0, e)
        second_generic = 4.0 * inputs.gamma2_sq * one_minus * c2 * c2 / (T * safe_e)
        second_limit = 4.0 * inputs.gamma2_sq * c2 * c2 * math.log(1.0 / beta1) / T
        second = np.where(at_limit, second_limit, second_generic)
        out = first + second
    if not out.max() < math.inf:
        raise ValueError(f"the bound overflows for some c1 up to {c1_max}, c2 up to {c2_max}")
    return float(out) if out.ndim == 0 else out


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


def clean_first_constant(c, gamma_c_sq: float, gamma_n_sq: float,
                         beta_c: float, lam: float):
    """Leading bound constant for the clean-then-noisy order at second rate c."""
    return _phase_constant(c, gamma_c_sq, gamma_n_sq, beta_c, lam)


def noisy_first_constant(c, gamma_c_sq: float, gamma_n_sq: float,
                         beta_n: float, lam: float):
    """Same with the roles swapped: noisy data first, clean data second."""
    return _phase_constant(c, gamma_n_sq, gamma_c_sq, beta_n, lam)


def golden_section(f: Callable[[float], float], lo: float, hi: float) -> tuple:
    """Golden-section minimization on [lo, hi] to GOLDEN_REL_TOL; returns the best point seen.

    f is called one point at a time, in the order lo, hi, then the interior
    points, and only at points the search uses.
    """
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi < best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > GOLDEN_REL_TOL * max(abs(a), abs(b), 1e-300):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        for x, fx in ((x1, f1), (x2, f2)):
            if fx < best_f:
                best_x, best_f = x, fx
    return best_x, best_f


def _grid_then_golden(f: Callable[[float], float], grid: np.ndarray, values: np.ndarray) -> tuple:
    i = int(np.argmin(values))
    if i in (0, len(grid) - 1):
        logger.warning("rate minimizer hit the search-domain boundary at c2=%g", grid[i])
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    x, fx = golden_section(f, lo, hi)
    if values[i] < fx:
        return float(grid[i]), float(values[i])
    return float(x), float(fx)


def minimize_phase2_rate(inputs: BoundInputs) -> tuple:
    """argmin_c2 B(1/lam, c2) over a log grid plus golden-section refinement.

    The bound can be multimodal in c2 (a decaying exponential plus a convex
    term), so a coarse 400-point log grid brackets the minimum before the
    unimodal refinement.
    """
    lam = inputs.lam
    grid = np.geomspace(C2_DOMAIN_LO / lam, C2_DOMAIN_HI / lam, GRID_POINTS)
    values = two_phase_bound(inputs, 1.0 / lam, grid)
    return _grid_then_golden(lambda c: two_phase_bound(inputs, 1.0 / lam, c), grid, values)


def minimize_single_rate(inputs: BoundInputs) -> tuple:
    """argmin_c B(c, c): one shared rate constant for both phases.

    The shared rate must satisfy 2*lam*c > 1, so the search domain starts
    just above 1/(2*lam).
    """
    lam = inputs.lam
    lo = (1.0 + 1e-9) / (2.0 * lam)
    hi = C2_DOMAIN_HI / lam
    grid = np.geomspace(lo, hi, GRID_POINTS)
    values = two_phase_bound(inputs, grid, grid)
    return _grid_then_golden(lambda c: two_phase_bound(inputs, c, c), grid, values)


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
        return asdict(self)


def select_rates(gamma_c_sq: float, gamma_n_sq: float, beta_c: float, lam: float) -> RateSelection:
    """Pick the data order and rate pair with the smaller bound constant.

    Both orders are minimized with the first rate pinned at 1/lam; ties go to
    clean-first.
    """
    if not 0.0 < beta_c < 1.0:
        raise ValueError("beta_c must be in (0, 1)")
    beta_n = 1.0 - beta_c
    cn = BoundInputs(gamma_c_sq, gamma_n_sq, beta_c, lam, T=1)
    nc = BoundInputs(gamma_n_sq, gamma_c_sq, beta_n, lam, T=1)
    c_cn, v_cn = minimize_phase2_rate(cn)
    c_nc, v_nc = minimize_phase2_rate(nc)
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


def noisy_first_rate_interval(gamma_c_sq: float, gamma_n_sq: float,
                              beta_n: float, lam: float) -> RateInterval:
    """Bracket for the optimal second-phase rate when the noisy data goes first.

    2*lam*c2* in [1 + (2 log r + log log(1/beta_n)) / log(1/beta_n),
                  1 + (2 log 4r + log log(1/beta_n)) / log(1/beta_n)]
    with r = gamma_n / gamma_c; natural logs throughout.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    if not 0.0 < gamma_c_sq < gamma_n_sq < math.inf:
        raise ValueError(f"need 0 < gamma_c_sq < gamma_n_sq < inf, got gamma_c_sq={gamma_c_sq!r} "
                         f"and gamma_n_sq={gamma_n_sq!r}")
    if not 0.0 < beta_n < 1.0:
        raise DomainError(f"beta_n must be in (0, 1), got {beta_n}")
    ratio = math.sqrt(gamma_n_sq / gamma_c_sq)
    log_inv_beta = math.log(1.0 / beta_n)
    loglog = math.log(log_inv_beta)
    lo = 1.0 + (2.0 * math.log(ratio) + loglog) / log_inv_beta
    hi = 1.0 + (2.0 * math.log(4.0 * ratio) + loglog) / log_inv_beta
    return RateInterval(lo, hi, regime="noisy_first", loglog_negative=loglog < 0)


def clean_first_rate_interval(gamma_c_sq: float, gamma_n_sq: float,
                              beta_c: float) -> RateInterval:
    """Bracket when the clean data goes first: [s, 8s/beta_c], s = (gamma_n/gamma_c)^-2."""
    if not 0.0 < gamma_c_sq < gamma_n_sq < math.inf:
        raise ValueError(f"need 0 < gamma_c_sq < gamma_n_sq < inf, got gamma_c_sq={gamma_c_sq!r} "
                         f"and gamma_n_sq={gamma_n_sq!r}")
    if not 0.0 < beta_c < 1.0:
        raise DomainError(f"beta_c must be in (0, 1), got {beta_c}")
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
    if noise_clean.gamma_sq_lower > noise_clean.gamma_sq or \
            noise_noisy.gamma_sq_lower > noise_noisy.gamma_sq:
        raise ValueError("lower noise bounds must not exceed upper bounds")
    sel = select_rates(noise_clean.gamma_sq, noise_noisy.gamma_sq, beta_c, lam)
    if sel.order == "clean_first":
        lower = BoundInputs(noise_clean.gamma_sq_lower, noise_noisy.gamma_sq_lower,
                            beta_c, lam, T=1)
    else:
        lower = BoundInputs(noise_noisy.gamma_sq_lower, noise_clean.gamma_sq_lower,
                            1.0 - beta_c, lam, T=1)
    c2_lower, _ = minimize_phase2_rate(lower)
    return C2Bracket(order=sel.order, c2_lower=c2_lower, c2_upper=sel.c2)

