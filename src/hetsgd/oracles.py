"""Noisy gradient oracles over finite datasets.

An oracle wraps a dataset behind a seeded random permutation and, per call,
returns an unbiased noisy gradient of the regularized objective averaged
over the next ``batch_size`` examples. Four noise mechanisms are provided:

* ``clean``      -- no extra noise, sampling noise only;
* ``local_dp``   -- additive noise with density proportional to
                    exp(-(epsilon/2) ||z||), giving per-example local
                    differential privacy at level epsilon;
* ``rcn``        -- random classification noise: each label is flipped with
                    probability sigma and the gradient of the unbiased
                    surrogate loss is returned;
* ``gaussian``   -- additive isotropic Gaussian noise with a prescribed
                    second moment (a generic zero-mean noise source used by
                    the data-ordering analysis).

An oracle serves ``budget // batch_size`` batches, k = 0, 1, ..., and is a
set of read-only tables. At construction it draws from its own seed the
example permutation (batch k is ``order[k*b:(k+1)*b]``) and its whole
budget's noise: one batch-mean noise vector per batch for ``local_dp`` and
``gaussian``, one flip mask per batch for ``rcn``. ``call(w, k)`` reads
batch k from those tables and is the reference path; the batched engine in
``sgd`` reads the same tables, so any number of runs can share one oracle's
draws.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (FLIP_RATE, NONNEGATIVE, POSITIVE, Dataset, ObjectiveSpec, check_counts,
                   check_reals, gradient_scales, is_integer, margin_scales, margins)

# Each oracle kind and the level field it reads, with that field's range; clean reads none.
_LEVELS = {"clean": (None, None), "local_dp": ("epsilon", POSITIVE), "rcn": ("sigma", FLIP_RATE),
           "gaussian": ("noise_sq", NONNEGATIVE)}
KINDS = tuple(_LEVELS)

# Bound on ||lam*w + grad loss||^2 over the feasible ball: ||w|| <= 1/lam and
# ||grad loss|| <= 1 give (1 + 1)^2 = 4.
DATA_TERM_BOUND = 4.0


class BudgetExhausted(RuntimeError):
    """Raised when a batch index lies outside the batches an oracle's budget holds."""


@dataclass(frozen=True)
class NoiseLevel:
    """Second-moment bound gamma_sq >= E||G(w)||^2 and a lower-bound variant."""

    gamma_sq: float
    gamma_sq_lower: float

    def __post_init__(self):
        check_reals({"gamma_sq": self.gamma_sq, "gamma_sq_lower": self.gamma_sq_lower},
                    NONNEGATIVE)
        if not self.gamma_sq >= self.gamma_sq_lower:
            raise ValueError(f"need gamma_sq >= gamma_sq_lower, got gamma_sq={self.gamma_sq!r} "
                             f"and gamma_sq_lower={self.gamma_sq_lower!r}")


def dp_noise_level(epsilon: float, d: int, batch_size: int = 1) -> NoiseLevel:
    """Noise level of the local-DP oracle at privacy epsilon in d dimensions.

    gamma_sq = 4 + 4(d^2 + d)/(epsilon^2 * b); the lower variant drops the
    (loose) data-term constant 4.
    """
    check_reals({"epsilon": epsilon}, POSITIVE)
    check_counts({"d": d, "batch_size": batch_size})
    noise_part = 4.0 * (d * d + d) / (epsilon * epsilon * batch_size)
    return NoiseLevel(DATA_TERM_BOUND + noise_part, noise_part)


def rcn_noise_level(sigma: float) -> NoiseLevel:
    """Noise level of the label-flip oracle: 3 + 1/(1 - 2 sigma)^2.

    No separate lower bound exists for this mechanism, so both fields
    coincide and interval heuristics built on them degenerate to a point.
    """
    check_reals({"sigma": sigma}, FLIP_RATE)
    g = 3.0 + 1.0 / (1.0 - 2.0 * sigma) ** 2
    return NoiseLevel(g, g)


def sample_privacy_noise(epsilon: float, d: int, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Draw ``size`` rows from the density rho(z) proportional to exp(-(epsilon/2)||z||).

    The radius follows Gamma(shape=d, scale=2/epsilon) and the direction is
    uniform on the unit sphere (a normalized Gaussian vector), so
    E[Z] = 0 and E||Z||^2 = 4(d^2 + d)/epsilon^2.
    """
    check_reals({"epsilon": epsilon}, POSITIVE)
    check_counts({"d": d})
    # A zero-step oracle (budget below its batch size) draws no rows.
    if not is_integer(size) or size < 0:
        raise ValueError(f"size must be an integer >= 0, got {size!r}")
    radii = rng.standard_gamma(d, size=size) * (2.0 / epsilon)
    z = rng.standard_normal((size, d))
    z *= (radii / np.linalg.norm(z, axis=1))[:, None]
    return z


def rcn_scales(objective: ObjectiveSpec, m: np.ndarray, f, keep, sigma, denom) -> np.ndarray:
    """Scales S * f of the flip-corrected surrogate gradient (S * f) * u.

    u = -y * x is the signed example under the true label y, m = w'u its margin,
    and f = -1 where the observed label is flipped, else +1, so the observed
    example is f * u. With phi from ``margin_scales``,
    S = ((1 - sigma) * phi(f * m) + sigma * phi(-f * m)) / (1 - 2 sigma);
    ``keep`` = 1 - sigma and ``denom`` = 1 - 2 sigma are passed in so that a
    caller stepping many times computes them once.
    """
    fm = f * m
    return (keep * margin_scales(objective, fm) + sigma * margin_scales(objective, -fm)) \
        / denom * f


def rcn_surrogate_gradient(objective: ObjectiveSpec, w: np.ndarray, x: np.ndarray,
                           y_observed: float, sigma: float) -> np.ndarray:
    """Gradient of the flip-corrected surrogate loss at an observed label.

    ((1 - sigma) * grad(w, x, y_obs) - sigma * grad(w, x, -y_obs)) / (1 - 2 sigma),
    whose expectation over the label flip equals the clean-loss gradient.
    """
    check_reals({"sigma": sigma}, FLIP_RATE)
    u = -float(y_observed) * np.asarray(x, dtype=np.float64)
    m = margins(np.asarray(w, dtype=np.float64), u[None, :])
    return rcn_scales(objective, m, 1.0, 1.0 - sigma, sigma, 1.0 - 2.0 * sigma)[0] * u


@dataclass(frozen=True)
class OracleSpec:
    """Which mechanism backs an oracle, its call budget, and its seed."""

    kind: str
    budget: int
    batch_size: int = 1
    rng_seed: int = 0
    epsilon: Optional[float] = None
    sigma: Optional[float] = None
    noise_sq: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        check_counts({"budget": self.budget, "batch_size": self.batch_size})
        reads, in_range = _LEVELS[self.kind]
        for name in ("epsilon", "sigma", "noise_sq"):
            if name != reads and getattr(self, name) is not None:
                raise ValueError(f"a {self.kind} oracle reads no {name}, "
                                 f"got {name}={getattr(self, name)!r}")
        if reads:
            check_reals({reads: getattr(self, reads)}, in_range)

    def noise_level(self, d: int) -> NoiseLevel:
        if self.kind == "clean":
            return NoiseLevel(DATA_TERM_BOUND, DATA_TERM_BOUND)
        if self.kind == "local_dp":
            return dp_noise_level(self.epsilon, d, self.batch_size)
        if self.kind == "rcn":
            return rcn_noise_level(self.sigma)
        extra = self.noise_sq / self.batch_size
        return NoiseLevel(DATA_TERM_BOUND + extra, extra)


def _draw_noise(spec: OracleSpec, d: int, rng: np.random.Generator) -> tuple:
    """(batch-mean noise (steps, d) or None, label flips (steps, b) or None) for a whole budget."""
    b = spec.batch_size
    steps = spec.budget // b
    if spec.kind == "local_dp":
        z = sample_privacy_noise(spec.epsilon, d, rng, size=steps * b)
        return z.reshape(steps, b, d).mean(axis=1), None
    if spec.kind == "gaussian":
        z = rng.standard_normal((steps * b, d))
        return z.reshape(steps, b, d).mean(axis=1) * np.sqrt(spec.noise_sq / d), None
    if spec.kind == "rcn":
        return None, (rng.random(steps * b) < spec.sigma).reshape(steps, b)
    return None, None


class GradientOracle:
    """Read-only tables over one dataset: a seeded permutation and every batch's noise.

    Two oracles built from the same spec and dataset traverse examples in
    the same order and hold identical noise tables, which is what makes the
    noiseless-twin construction exact: ``twin()`` returns an oracle over the
    same permutation with all extra noise forced to zero.
    """

    def __init__(self, spec: OracleSpec, objective: ObjectiveSpec, dataset: Dataset):
        if spec.budget > len(dataset):
            raise ValueError(
                f"budget {spec.budget} exceeds dataset size {len(dataset)}")
        self.spec = spec
        self.objective = objective
        self.dataset = dataset
        perm_ss, noise_ss = np.random.SeedSequence(spec.rng_seed).spawn(2)
        self.order = np.random.default_rng(perm_ss).permutation(len(dataset))
        self.noise_means, self.flips = _draw_noise(spec, dataset.d, np.random.default_rng(noise_ss))
        for table in (self.order, self.noise_means, self.flips):
            if table is not None:
                table.flags.writeable = False

    def twin(self) -> "GradientOracle":
        twin = copy.copy(self)
        twin.noise_means = twin.flips = None
        return twin

    @property
    def steps_total(self) -> int:
        return self.spec.budget // self.spec.batch_size

    def call(self, w: np.ndarray, k) -> np.ndarray:
        """Average of lam*w + grad loss + Z over batch k.

        ``k`` is an integer, giving shape (d,), or an integer array, giving
        one gradient per entry, shape (len(k), d). A k outside
        [0, steps_total) raises BudgetExhausted, one that is not an integer
        ValueError.
        """
        k = np.asarray(k)
        if k.dtype.kind not in "iu":
            raise ValueError(f"batch index must be an integer, got dtype {k.dtype}")
        if k.size and not 0 <= k.min() <= k.max() < self.steps_total:
            raise BudgetExhausted(f"oracle serves batches 0..{self.steps_total - 1}, "
                                  f"asked for {k.min()}..{k.max()}")
        spec = self.spec
        b = spec.batch_size
        idx = self.order[k[..., None] * b + np.arange(b)]
        U = -self.dataset.y[idx][..., None] * self.dataset.X[idx]

        if self.flips is not None:
            sigma = spec.sigma
            s = rcn_scales(self.objective, margins(w, U), np.where(self.flips[k], -1.0, 1.0),
                           1.0 - sigma, sigma, 1.0 - 2.0 * sigma)
        else:
            s = gradient_scales(self.objective, w, U)
        g = self.objective.lam * w + np.einsum("...b,...bd->...d", s, U) / b
        if self.noise_means is not None:
            g = g + self.noise_means[k]
        return g
