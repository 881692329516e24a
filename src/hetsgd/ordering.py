"""Data-order analysis for two-oracle SGD runs.

Unrolling the (projection-free) update w_{t+1} = w_t - eta_t * G(w_t) with
eta_t = c/t shows that the step-t noise vector enters the final iterate with
coefficient

    delta_t = (c/t) * prod_{s=t+1..T} (1 - c*lam/s),

and the expected squared gap between a noisy run and its noiseless twin is
sum_t delta_t^2 * E||Z_t||^2. Whether delta_t decreases, stays flat, or
increases in t is decided by the sign of 1 - c*lam, which is what makes the
optimal data order depend on the rate constant: clean data first for
c < 1/lam, noisy data first for c > 1/lam, and a tie at c = 1/lam.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import check_counts


@dataclass(frozen=True)
class NoiseWeights:
    """Per-step coefficients delta_t of the injected noise in the final iterate."""

    deltas: np.ndarray
    c: float
    lam: float
    T: int


def noise_weights(c: float, lam: float, T: int) -> NoiseWeights:
    """Compute delta_t for t = 1..T in log space with sign tracking.

    Factors 1 - c*lam/s can be negative (c > 1/lam) or exactly zero (c*lam an
    integer <= T); signs are accumulated separately so the magnitudes stay in
    log space.
    """
    if not (0.0 < c < np.inf and 0.0 < lam < np.inf):
        raise ValueError(f"need c > 0, lam > 0, both finite, got c={c!r} and lam={lam!r}")
    check_counts({"T": T})
    if T == 1:
        return NoiseWeights(np.array([c]), c, lam, 1)
    s = np.arange(2, T + 1, dtype=np.float64)
    factors = 1.0 - c * lam / s
    zero = factors == 0.0
    with np.errstate(divide="ignore"):
        logs = np.where(zero, 0.0, np.log(np.abs(np.where(zero, 1.0, factors))))
    neg = (factors < 0.0).astype(np.int64)

    # Suffix aggregates over s = t+1..T for each t = 1..T (empty suffix at t=T).
    suffix_log = np.zeros(T)
    suffix_log[:-1] = np.cumsum(logs[::-1])[::-1]
    suffix_neg = np.zeros(T, dtype=np.int64)
    suffix_neg[:-1] = np.cumsum(neg[::-1])[::-1]
    suffix_zero = np.zeros(T, dtype=bool)
    suffix_zero[:-1] = np.cumsum(zero[::-1])[::-1] > 0

    t = np.arange(1, T + 1, dtype=np.float64)
    deltas = np.exp(np.log(c / t) + suffix_log) * np.where(suffix_neg % 2 == 0, 1.0, -1.0)
    deltas[suffix_zero] = 0.0
    return NoiseWeights(deltas, c, lam, T)


def expected_deviation(weights: NoiseWeights, step_noise_sq: Sequence[float]) -> float:
    """Closed-form E||v_{T+1} - w_{T+1}||^2 = sum_t delta_t^2 * E||Z_t||^2."""
    variances = np.asarray(step_noise_sq, dtype=np.float64)
    if variances.shape != weights.deltas.shape:
        raise ValueError(
            f"schedule length {variances.shape} does not match T={weights.T}")
    if not variances.min() >= 0.0:             # NaN fails too
        raise ValueError(f"step_noise_sq must be >= 0, got {variances.min()}")
    return float(np.sum(weights.deltas ** 2 * variances))


def two_level_schedule(pattern_noisy: np.ndarray, v_clean_sq: float, v_noisy_sq: float) -> np.ndarray:
    """Per-step variance schedule from a boolean mask (True = noisy oracle)."""
    pattern_noisy = np.asarray(pattern_noisy, dtype=bool)
    return np.where(pattern_noisy, v_noisy_sq, v_clean_sq)


@dataclass(frozen=True)
class OrderingVerdict:
    best: str                    # "clean_first" | "noisy_first" | "tie"
    deviation_clean_first: float
    deviation_noisy_first: float
    deviation_arbitrary: float


def compare_orders(c: float, lam: float, T_clean: int, T_noisy: int,
                   v_clean_sq: float, v_noisy_sq: float,
                   arbitrary_pattern: np.ndarray) -> OrderingVerdict:
    """Closed-form deviations of clean-first, noisy-first, and one interleaving.

    ``arbitrary_pattern`` is a boolean mask of length T_clean + T_noisy with
    exactly T_noisy True entries (noisy steps). Ties are declared when
    clean-first and noisy-first agree to relative 1e-12, which happens
    exactly at c = 1/lam.
    """
    if not 0.0 <= v_clean_sq <= v_noisy_sq < np.inf:
        raise ValueError(f"expected 0 <= v_clean_sq <= v_noisy_sq < inf, got v_clean_sq="
                         f"{v_clean_sq!r} and v_noisy_sq={v_noisy_sq!r}")
    T = T_clean + T_noisy
    weights = noise_weights(c, lam, T)
    arbitrary_pattern = np.asarray(arbitrary_pattern, dtype=bool)
    if arbitrary_pattern.shape != (T,) or int(arbitrary_pattern.sum()) != T_noisy:
        raise ValueError("pattern must have length T with T_noisy noisy steps")

    cf = np.zeros(T, dtype=bool)
    cf[T_clean:] = True
    nf = np.zeros(T, dtype=bool)
    nf[:T_noisy] = True
    dev_cf = expected_deviation(weights, two_level_schedule(cf, v_clean_sq, v_noisy_sq))
    dev_nf = expected_deviation(weights, two_level_schedule(nf, v_clean_sq, v_noisy_sq))
    dev_ao = expected_deviation(weights, two_level_schedule(arbitrary_pattern, v_clean_sq, v_noisy_sq))

    scale = max(abs(dev_cf), abs(dev_nf), 1e-300)
    if abs(dev_cf - dev_nf) <= 1e-12 * scale:
        best = "tie"
    elif dev_cf < dev_nf:
        best = "clean_first"
    else:
        best = "noisy_first"
    return OrderingVerdict(best, dev_cf, dev_nf, dev_ao)
