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

Each oracle may be called at most ``budget`` examples' worth of times.
At construction it draws its whole budget's noise up front from its own
seed: one batch-mean noise vector per step for ``local_dp`` and
``gaussian``, one flip mask per step for ``rcn``. ``call`` indexes those
tables and is the scalar reference path; the batched engine in ``sgd`` reads
the same tables, so any number of runs can share one oracle's draws.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, ObjectiveSpec, gradient_scales, loss_gradient

KINDS = ("clean", "local_dp", "rcn", "gaussian")

# Bound on ||lam*w + grad loss||^2 over the feasible ball: ||w|| <= 1/lam and
# ||grad loss|| <= 1 give (1 + 1)^2 = 4.
DATA_TERM_BOUND = 4.0


class BudgetExhausted(RuntimeError):
    """Raised when fewer than batch_size examples remain in the budget."""


@dataclass(frozen=True)
class NoiseLevel:
    """Second-moment bound gamma_sq >= E||G(w)||^2 and a lower-bound variant."""

    gamma_sq: float
    gamma_sq_lower: float

    def __post_init__(self):
        if not (self.gamma_sq >= self.gamma_sq_lower >= 0.0):
            raise ValueError("need gamma_sq >= gamma_sq_lower >= 0")

    @property
    def gamma(self) -> float:
        return float(np.sqrt(self.gamma_sq))


def dp_noise_level(epsilon: float, d: int, batch_size: int = 1) -> NoiseLevel:
    """Noise level of the local-DP oracle at privacy epsilon in d dimensions.

    gamma_sq = 4 + 4(d^2 + d)/(epsilon^2 * b); the lower variant drops the
    (loose) data-term constant 4.
    """
    if not epsilon > 0 or d < 1 or batch_size < 1:
        raise ValueError("epsilon, d and batch_size must be positive")
    noise_part = 4.0 * (d * d + d) / (epsilon * epsilon * batch_size)
    return NoiseLevel(DATA_TERM_BOUND + noise_part, noise_part)


def rcn_noise_level(sigma: float) -> NoiseLevel:
    """Noise level of the label-flip oracle: 3 + 1/(1 - 2 sigma)^2.

    No separate lower bound exists for this mechanism, so both fields
    coincide and interval heuristics built on them degenerate to a point.
    """
    if not 0.0 <= sigma < 0.5:
        raise ValueError(f"sigma must be in [0, 0.5), got {sigma}")
    g = 3.0 + 1.0 / (1.0 - 2.0 * sigma) ** 2
    return NoiseLevel(g, g)


def sample_privacy_noise(epsilon: float, d: int, rng: np.random.Generator,
                         size: Optional[int] = None) -> np.ndarray:
    """Draw from the density rho(z) proportional to exp(-(epsilon/2)||z||).

    The radius follows Gamma(shape=d, scale=2/epsilon) and the direction is
    uniform on the unit sphere (a normalized Gaussian vector), so
    E[Z] = 0 and E||Z||^2 = 4(d^2 + d)/epsilon^2.
    """
    if not epsilon > 0 or d < 1:
        raise ValueError("epsilon and d must be positive")
    n = 1 if size is None else int(size)
    radii = rng.standard_gamma(d, size=n) * (2.0 / epsilon)
    z = rng.standard_normal((n, d))
    z *= (radii / np.linalg.norm(z, axis=1))[:, None]
    return z[0] if size is None else z


def rcn_flip_label(y: float, sigma: float, rng: np.random.Generator) -> float:
    """Return -y with probability sigma, else y."""
    if not 0.0 <= sigma < 0.5:
        raise ValueError(f"sigma must be in [0, 0.5), got {sigma}")
    return -y if rng.random() < sigma else y


def rcn_surrogate_gradient(objective: ObjectiveSpec, w: np.ndarray, x: np.ndarray,
                           y_observed: float, sigma: float) -> np.ndarray:
    """Gradient of the flip-corrected surrogate loss at an observed label.

    ((1 - sigma) * grad(w, x, y_obs) - sigma * grad(w, x, -y_obs)) / (1 - 2 sigma),
    whose expectation over the label flip equals the clean-loss gradient.
    """
    if sigma >= 0.5:
        raise ValueError("sigma must be < 0.5")
    g_obs = loss_gradient(objective, w, x, y_observed)
    g_neg = loss_gradient(objective, w, x, -y_observed)
    return ((1.0 - sigma) * g_obs - sigma * g_neg) / (1.0 - 2.0 * sigma)


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
        if self.budget < 1:
            raise ValueError("budget must be a positive integer")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if self.kind == "local_dp" and (self.epsilon is None or not self.epsilon > 0):
            raise ValueError("local_dp oracle needs epsilon > 0")
        if self.kind == "rcn" and (self.sigma is None or not 0.0 <= self.sigma < 0.5):
            raise ValueError("rcn oracle needs sigma in [0, 0.5)")
        if self.kind == "gaussian" and (self.noise_sq is None or not self.noise_sq >= 0):
            raise ValueError("gaussian oracle needs noise_sq >= 0")

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


@dataclass
class OracleCallRecord:
    gradient: np.ndarray
    calls_consumed: int
    injected_noise: Optional[np.ndarray] = None


class GradientOracle:
    """A seeded permutation cursor over one dataset, with its noise drawn up front.

    Two oracles built from the same spec and dataset traverse examples in
    the same order and hold identical noise tables, which is what makes the
    noiseless-twin construction exact: ``twin()`` returns a fresh oracle
    over the same permutation with all extra noise forced to zero.
    """

    def __init__(self, spec: OracleSpec, objective: ObjectiveSpec, dataset: Dataset,
                 record_noise: bool = False, suppress_noise: bool = False):
        if spec.budget > len(dataset):
            raise ValueError(
                f"budget {spec.budget} exceeds dataset size {len(dataset)}")
        self.spec = spec
        self.objective = objective
        self.dataset = dataset
        self.record_noise = record_noise
        self.suppress_noise = suppress_noise
        perm_ss, noise_ss = np.random.SeedSequence(spec.rng_seed).spawn(2)
        self._order = np.random.default_rng(perm_ss).permutation(len(dataset))
        self.noise_means: Optional[np.ndarray] = None
        self.flips: Optional[np.ndarray] = None
        if not suppress_noise:
            self.noise_means, self.flips = _draw_noise(spec, dataset.d,
                                                       np.random.default_rng(noise_ss))
        self.reset()

    def reset(self) -> None:
        self._consumed = 0
        self.noise_log: list[np.ndarray] = []

    def twin(self) -> "GradientOracle":
        twin = copy.copy(self)
        twin.record_noise = False
        twin.suppress_noise = True
        twin.noise_means = twin.flips = None
        twin.reset()
        return twin

    @property
    def order(self) -> np.ndarray:
        """The example permutation; batch k is order[k*b:(k+1)*b]."""
        return self._order

    @property
    def consumed(self) -> int:
        return self._consumed

    @property
    def steps_total(self) -> int:
        return self.spec.budget // self.spec.batch_size

    @property
    def steps_remaining(self) -> int:
        return (self.spec.budget - self._consumed) // self.spec.batch_size

    def _noise_at(self, step: int) -> np.ndarray:
        return np.zeros(self.dataset.d) if self.noise_means is None else self.noise_means[step]

    def take(self, steps: int) -> int:
        """Reserve the next ``steps`` batches for a run; return the first one's index.

        The cursor and noise log then read as if ``call`` had served them.
        """
        b = self.spec.batch_size
        if steps < 0 or self._consumed + steps * b > self.spec.budget:
            raise BudgetExhausted(
                f"oracle budget {self.spec.budget} cannot serve {steps} batches of {b}")
        first = self._consumed // b
        if self.record_noise:
            self.noise_log.extend(self._noise_at(k).copy() for k in range(first, first + steps))
        self._consumed += steps * b
        return first

    def call(self, w: np.ndarray) -> OracleCallRecord:
        """Average of lam*w + grad loss + Z over the next batch of examples."""
        spec = self.spec
        b = spec.batch_size
        if self._consumed + b > spec.budget:
            raise BudgetExhausted(
                f"oracle budget {spec.budget} cannot serve another batch of {b}")
        step = self._consumed // b
        idx = self._order[self._consumed:self._consumed + b]
        self._consumed += b
        Xb = self.dataset.X[idx]
        yb = self.dataset.y[idx]

        if self.flips is not None:
            y_obs = np.where(self.flips[step], -yb, yb)
            s_obs = gradient_scales(self.objective, w, Xb, y_obs)
            s_neg = gradient_scales(self.objective, w, Xb, -y_obs)
            s = ((1.0 - spec.sigma) * s_obs - spec.sigma * s_neg) / (1.0 - 2.0 * spec.sigma)
        else:
            s = gradient_scales(self.objective, w, Xb, yb)
        data_grad = (Xb.T @ s) / b

        z_bar = None if self.noise_means is None else self.noise_means[step]
        g = self.objective.lam * w + data_grad
        if z_bar is not None:
            g = g + z_bar
        injected = None
        if self.record_noise:
            self.noise_log.append(self._noise_at(step).copy())
            injected = None if z_bar is None else z_bar.copy()
        return OracleCallRecord(gradient=g, calls_consumed=self._consumed,
                                injected_noise=injected)
