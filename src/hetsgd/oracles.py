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
set of read-only tables: the example permutation (batch k is
``order[k*b:(k+1)*b]``), drawn from one seed of its own, and its whole budget's
noise (one batch-mean noise vector per batch for ``local_dp`` and
``gaussian``, one flip mask per batch for ``rcn``), drawn from a second seed of
its own. Construction keeps only the seeds: each table is drawn on first use.
``draw_tables`` draws the tables of many oracles at once into one buffer of
each kind (the permutations into one, the noise tables into one behind a row
of zeros, the flip masks likewise); the batched engine in ``sgd`` reads such
buffers in place, so the permutations, noise and flip tables of one engine call
exist once. Where a table lies does not change its values. ``call(w, k)`` reads
batch k from the tables and is the reference path; any number of runs can
share one oracle's draws. Drawing the whole budget up front changed the noise
streams once, relative to versions that drew noise call by call: across that
change a seed gives statistically equivalent, not identical, results; within a
version it gives the same bytes.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (FLIP_RATE, NONNEGATIVE, POSITIVE, Dataset, ObjectiveSpec, check_counts,
                   check_labels, check_reals, gradient_scales, is_integer, margin_scales,
                   margins)

# Each oracle kind and the level field it reads, with that field's range; clean reads none.
_LEVELS = {"clean": (None, None), "local_dp": ("epsilon", POSITIVE), "rcn": ("sigma", FLIP_RATE),
           "gaussian": ("noise_sq", NONNEGATIVE)}
KINDS = tuple(_LEVELS)

# ``sample_privacy_noise`` normalises its rows about this many bytes of them at a time.
NOISE_BLOCK_BYTES = 1 << 17

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

    The Gaussian rows are drawn into the (size, d) array that is returned and
    scaled there in place, ``NOISE_BLOCK_BYTES`` of rows at a time: a block's
    squares go into one block-sized buffer, so the call holds one (size, d)
    array, the radii and that buffer, not the squares of every row beside the
    rows. Each row's norm is ``np.linalg.norm(z, axis=1)``'s arithmetic (the sum
    of the squares, then sqrt), so the rows have its bits.
    """
    check_reals({"epsilon": epsilon}, POSITIVE)
    check_counts({"d": d})
    # A zero-step oracle (budget below its batch size) draws no rows.
    if not is_integer(size) or size < 0:
        raise ValueError(f"size must be an integer >= 0, got {size!r}")
    radii = rng.standard_gamma(d, size=size) * (2.0 / epsilon)
    z = rng.standard_normal((size, d))
    rows = max(1, NOISE_BLOCK_BYTES // (8 * d))
    sq = np.empty((min(rows, size), d))
    for lo in range(0, size, rows):
        block = z[lo:lo + rows]
        norm = np.sqrt(np.add.reduce(np.multiply(block, block, out=sq[:len(block)]), axis=1))
        block *= (radii[lo:lo + rows] / norm)[:, None]
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
    check_labels({"y_observed": y_observed})
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


# The kinds whose oracles hold a batch-mean noise table; rcn oracles hold a flip table.
_NOISE_KINDS = ("local_dp", "gaussian")


def _draw_noise(oracle: "GradientOracle", out: np.ndarray) -> None:
    """Write an oracle's whole budget of batch-mean noise (steps, d), or for rcn its label
    flips (steps, b), into ``out``; out= writes the allocating calls' bytes."""
    spec, d, rng = oracle.spec, oracle.dataset.d, np.random.default_rng(oracle._noise_seed)
    b = spec.batch_size
    steps = spec.budget // b
    if spec.kind == "local_dp":
        z = sample_privacy_noise(spec.epsilon, d, rng, size=steps * b)
        z.reshape(steps, b, d).mean(axis=1, out=out)
    elif spec.kind == "gaussian":
        rng.standard_normal((steps * b, d)).reshape(steps, b, d).mean(axis=1, out=out)
        out *= np.sqrt(spec.noise_sq / d)
    else:
        np.less(rng.random(steps * b), spec.sigma, out=out.reshape(-1))


def _into_one_buffer(group, name: str, lead: int, sizes, width: int, dtype, fill) -> None:
    """Give each oracle of ``group`` its table ``name``, a row block of one read-only buffer.

    The buffer's rows hold ``width`` entries: ``lead`` rows of zeros, then each oracle's
    ``sizes`` rows in turn; ``fill(oracle, block)`` writes an oracle's values into its block.
    """
    ends = np.cumsum([lead, *sizes]).tolist()
    buffer = np.zeros((ends[-1], width), dtype=dtype)
    for o, lo, hi in zip(group, ends, ends[1:]):
        fill(o, buffer[lo:hi])
    buffer.flags.writeable = False
    for o, lo, hi in zip(group, ends, ends[1:]):
        setattr(o, name, buffer[lo:hi])


def _draw_permutation(oracle: "GradientOracle", out: np.ndarray) -> None:
    """Write the oracle's permutation into the first n entries of ``out``, row by row: the
    bytes of Generator.permutation(n)."""
    n = len(oracle.dataset)
    perm = out.reshape(-1)[:n]
    perm[:] = np.arange(n)
    np.random.default_rng(oracle._perm_seed).shuffle(perm)


def draw_tables(oracles) -> None:
    """Draw the tables of those ``oracles`` that hold none yet, into one buffer of each kind.

    The permutations fill row blocks of one (rows, b) ``np.intp`` buffer, each from a
    row's start, so that the engine reads it as one batch per row (b = 1 where the
    oracles' batch sizes differ); the batch-mean noise tables become row blocks of one
    (1 + rows, d) float buffer and the flip masks row blocks of one (1 + rows, b) bool
    buffer; all are read-only. Row 0 of the noise and flip buffers holds zeros (no
    noise, no flip): the engine reads it for twin rows and noiseless oracles. Each
    oracle draws from its own seeds, so its values do not depend on which oracles share
    its buffers. The oracles with noise or flips to draw must share d and batch size.
    """
    pending = {id(o): o for o in oracles}.values()
    permuting = [o for o in pending if "order" not in vars(o)]
    noisy = [o for o in pending if o.spec.kind in _NOISE_KINDS and "noise_means" not in vars(o)]
    flipping = [o for o in pending if o.spec.kind == "rcn" and "flips" not in vars(o)]
    shapes = {(o.dataset.d, o.spec.batch_size) for o in noisy + flipping}
    if len(shapes) > 1:
        raise ValueError(f"oracles drawn into one buffer must share d and batch size, "
                         f"got (d, b) in {sorted(shapes)}")
    if permuting:
        sizes = {o.spec.batch_size for o in permuting}
        width = sizes.pop() if len(sizes) == 1 else 1
        _into_one_buffer(permuting, "order", 0, [-(-len(o.dataset) // width) for o in permuting],
                         width, np.intp, _draw_permutation)
        for o in permuting:     # its n entries, read row by row
            o.order = o.order.reshape(-1)[:len(o.dataset)]
    if shapes:
        (d, b), = shapes
        for group, name, width, dtype in ((noisy, "noise_means", d, np.float64),
                                          (flipping, "flips", b, bool)):
            if group:
                _into_one_buffer(group, name, 1, [o.steps_total for o in group], width, dtype,
                                 _draw_noise)


class GradientOracle:
    """Read-only tables over one dataset: a seeded permutation and every batch's noise.

    Two oracles built from the same spec and dataset traverse examples in
    the same order and hold identical noise tables, which is what makes the
    noiseless-twin construction exact: ``twin()`` returns an oracle over the
    same permutation with all extra noise forced to zero. ``noise_means`` is
    None for clean and rcn oracles and ``flips`` None for all but rcn.
    Construction keeps the seeds only: ``order`` and the one noise table a kind
    holds are drawn on first read, into buffers of their own, unless
    ``draw_tables`` has drawn them with others before. A ``local_dp`` oracle
    needs examples of norm at most 1, which its noise is calibrated for.
    """

    def __init__(self, spec: OracleSpec, objective: ObjectiveSpec, dataset: Dataset):
        if spec.budget > len(dataset):
            raise ValueError(
                f"budget {spec.budget} exceeds dataset size {len(dataset)}")
        if spec.kind == "local_dp" and not dataset.max_square_norm <= (1.0 + 1e-9) ** 2:
            raise ValueError(f"a local_dp oracle needs examples of norm at most 1, got a "
                             f"dataset whose largest norm is {dataset.max_feature_norm()!r}")
        self.spec = spec
        self.objective = objective
        self.dataset = dataset
        self._perm_seed, self._noise_seed = np.random.SeedSequence(spec.rng_seed).spawn(2)
        if spec.kind not in _NOISE_KINDS:
            self.noise_means = None
        if spec.kind != "rcn":
            self.flips = None

    def __getattr__(self, name: str):
        # Called only for an attribute not set yet: a table this oracle draws on first read.
        if name not in ("order", "noise_means", "flips"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        draw_tables([self])
        return vars(self)[name]

    def twin(self) -> "GradientOracle":
        self.order      # drawn before the copy, so that the twin shares this permutation
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
