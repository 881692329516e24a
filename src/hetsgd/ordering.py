"""Data-order analysis for two-oracle SGD runs.

Unrolling the (projection-free) update w_{t+1} = w_t - eta_t * G(w_t) with
eta_t = c/t shows that the step-t noise vector enters the final iterate with
coefficient

    delta_t = (c/t) * prod_{s=t+1..T} (1 - c*lam/s),

and the expected squared gap between a noisy run and its noiseless twin is
sum_t delta_t^2 * E||Z_t||^2. Whether delta_t decreases, stays flat, or
increases in t is decided by the sign of 1 - c*lam, which is what makes the
optimal data order depend on the rate constant: clean data first for
c < 1/lam, noisy data first for c > 1/lam, and a tie at c = 1/lam. The tie is
exact only for gradients that do not depend on w. Under linear loss both orders
end at one iterate, as tests/test_sgd.py pins in
test_clean_and_noisy_first_end_at_one_iterate_at_c_one_over_lam_under_linear_loss.
Under logistic and hinge loss, unprojected, noisy-first leads at c*lam = 1 by
about 8 standard errors (ROADMAP.md, item 11's table).

Only the factors 1 - c*lam/s with s <= c*lam are negative or zero, and they
come first, so ``noise_weights`` tracks signs and zeros over that prefix
alone (none at all when c*lam < 2); it gives the bits of the full
computation, for a product by +1.0 and a select that keeps every entry change
nothing. Its logs, suffix sums and exponentials are written in place, into
arrays it made itself.

``compare_orders`` gives its verdict from one table: the per-step variances
of clean-first, noisy-first and the given interleaving are the rows of one
(3, T) array, filled by slices and one masked fill, multiplied in place by
delta_t^2 (squared once) and summed by one ``np.add.reduce(axis=1)``. Each
deviation keeps ``expected_deviation``'s bits: every entry is the same
product delta_t^2 * variance, and numpy sums each contiguous row with the
same pairwise summation that ``np.sum`` runs over the 1-D product. The
measured runs are in BENCH_order_table.json.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import NONNEGATIVE_FINITE, POSITIVE_FINITE, check_counts, check_reals

# exp(x) is finite exactly for x <= log(largest float).
_LOG_MAX = math.log(sys.float_info.max)


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
    log space. The factors rise with s (float division and subtraction are
    monotone), so the nonpositive ones form a prefix, empty when c*lam < 2,
    and signs and zeros are tracked over that prefix alone. A delta past the
    float range, which only a factor below -1 at the head of that prefix can
    give, raises ValueError naming c, lam and T.
    """
    check_reals({"c": c, "lam": lam}, POSITIVE_FINITE)
    check_counts({"T": T})
    if T == 1:
        return NoiseWeights(np.array([c]), c, lam, 1)
    t = np.arange(1, T + 1, dtype=np.float64)
    factors = 1.0 - c * lam / t[1:]          # s = t + 1 = 2..T
    # factors[:k] <= 0; none when the first factor, at s = 2, is positive.
    k = 0 if factors[0] > 0.0 else int(np.searchsorted(factors, 0.0, side="right"))
    # Only a factor below -1 (c*lam/s > 2) has a positive log, so only then can a delta
    # leave the float range; such factors come first.
    steep = factors[0] < -1.0
    if k:
        head = factors[:k]                   # a view: |factor|, zeros as 1, before the logs
        neg, zero = head < 0.0, head == 0.0
        np.abs(head, out=head)
        head[zero] = 1.0
    logs = np.log(factors, out=factors)

    # Suffix sums over s = t+1..T for each t = 1..T (empty suffix at t=T), written
    # backwards by one cumsum over the reversed logs.
    deltas = np.empty(T)
    deltas[-1] = 0.0
    np.cumsum(logs[::-1], out=deltas[-2::-1])
    deltas += np.log(np.divide(c, t, out=t), out=t)     # log(c/t), in t's own buffer
    if k:
        head_deltas = deltas[:k]     # a view: the suffixes that reach into the prefix
        zeroed = np.cumsum(zero[::-1])[::-1] > 0        # a zero factor makes the delta zero
        if steep and not np.max(head_deltas, where=~zeroed, initial=-math.inf) <= _LOG_MAX:
            raise ValueError(_overflow("the noise weights", c, lam, T))
    np.exp(deltas, out=deltas)
    if k:
        head_deltas[np.cumsum(neg[::-1])[::-1] % 2 == 1] *= -1.0
        head_deltas[zeroed] = 0.0
    return NoiseWeights(deltas, c, lam, T)


def _overflow(what: str, c: float, lam: float, T: int) -> str:
    return f"{what} overflow the float range at c={c!r}, lam={lam!r}, T={T}"


def expected_deviation(weights: NoiseWeights, step_noise_sq: Sequence[float]) -> float:
    """Closed-form E||v_{T+1} - w_{T+1}||^2 = sum_t delta_t^2 * E||Z_t||^2.

    Every variance must be finite and >= 0; a NaN, negative or infinite one raises
    ValueError, as does a sum past the float range.
    """
    variances = np.asarray(step_noise_sq, dtype=np.float64)
    if variances.shape != weights.deltas.shape:
        raise ValueError(
            f"schedule length {variances.shape} does not match T={weights.T}")
    lo, hi = variances.min(), variances.max()
    if not (lo >= 0.0 and hi < math.inf):      # NaN fails too
        raise ValueError(f"step_noise_sq must be >= 0 and finite, got values from {lo} to {hi}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(weights.deltas ** 2 * variances))
    if not total < math.inf:                    # NaN fails too
        raise ValueError(_overflow("the weighted squares", weights.c, weights.lam, weights.T))
    return total


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

    ``arbitrary_pattern`` is a mask of length T_clean + T_noisy, of bools or
    0/1 entries, with exactly T_noisy noisy (True or 1) steps. Ties are
    declared when clean-first and noisy-first agree to relative 1e-12, which
    happens exactly at c = 1/lam; runs tie there only for gradients that do not
    depend on w. The three deviations are the row sums of one table (the module
    docstring says more on both) and give expected_deviation's bits; one past
    the float range raises ValueError naming c, lam and T.
    """
    check_reals({"v_clean_sq": v_clean_sq, "v_noisy_sq": v_noisy_sq}, NONNEGATIVE_FINITE)
    if not v_clean_sq <= v_noisy_sq:
        raise ValueError(f"need v_clean_sq <= v_noisy_sq, got v_clean_sq={v_clean_sq!r} "
                         f"and v_noisy_sq={v_noisy_sq!r}")
    check_counts({"T_clean": T_clean, "T_noisy": T_noisy})
    pattern = np.asarray(arbitrary_pattern)
    if pattern.dtype != bool:
        bad = pattern[(pattern != 0) & (pattern != 1)]
        if bad.size:
            raise ValueError(f"pattern entries must be bools or 0/1, got {bad[0]!r}")
    pattern = pattern.astype(bool, copy=False)
    T = T_clean + T_noisy
    if pattern.shape != (T,) or np.count_nonzero(pattern) != T_noisy:
        raise ValueError("pattern must have length T with T_noisy noisy steps")
    deltas_sq = noise_weights(c, lam, T).deltas

    # One row per order: clean-first, noisy-first, the given pattern.
    schedules = np.empty((3, T))
    schedules[0, :T_clean] = v_clean_sq
    schedules[0, T_clean:] = v_noisy_sq
    schedules[1, :T_noisy] = v_noisy_sq
    schedules[1, T_noisy:] = v_clean_sq
    schedules[2] = v_clean_sq
    np.putmask(schedules[2], pattern, v_noisy_sq)
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(deltas_sq, out=deltas_sq)
        schedules *= deltas_sq
        deviations = np.add.reduce(schedules, axis=1)
    dev_cf, dev_nf, dev_ao = deviations.tolist()
    if not (math.isfinite(dev_cf) and math.isfinite(dev_nf) and math.isfinite(dev_ao)):
        raise ValueError(_overflow("the weighted squares", c, lam, T))

    scale = max(abs(dev_cf), abs(dev_nf), 1e-300)
    if abs(dev_cf - dev_nf) <= 1e-12 * scale:
        best = "tie"
    elif dev_cf < dev_nf:
        best = "clean_first"
    else:
        best = "noisy_first"
    return OrderingVerdict(best, dev_cf, dev_nf, dev_ao)
