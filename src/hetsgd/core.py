"""Losses, gradients, projection, and objective evaluation for regularized
linear classification.

The objective throughout is

    f(w) = lam/2 * ||w||^2 + (1/n) * sum_i loss(w, x_i, y_i)

over the Euclidean ball of a configurable radius (default 1/lam). Three
losses are supported: logistic, hinge, and the plain linear loss -y w'x.
Each is a function of the margin w'u of the signed example u = -y*x, and its
gradient is phi(w'u) * u, which is how ``gradient_scales`` takes examples: a
logistic gradient at batch size 1 is then three array calls (the margin, expit
and the product). All functions here but ``scale_into_ball``, which scales the
rows of its argument in place, are pure and safe to call concurrently.

scipy is imported on first use (``load_expit``), not with the package, so a
process that only plans rates never loads it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

LOSSES = ("logistic", "hinge", "linear")


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Regularization strength, loss name, and feasible-set radius.

    ``radius=None`` picks the conventional 1/lam ball. ``np.inf`` disables
    projection entirely.
    """

    lam: float
    loss: str = "logistic"
    radius: float | None = None

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")
        if self.radius is None:
            object.__setattr__(self, "radius", 1.0 / self.lam)
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass
class Dataset:
    """Feature matrix X (n, d) with labels y in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match number of rows in X")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features must be finite")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.X[indices], self.y[indices])

    def max_feature_norm(self) -> float:
        if len(self) == 0:
            return 0.0
        with np.errstate(over="ignore"):
            norm = np.max(np.linalg.norm(self.X, axis=1))
            if not np.isfinite(norm):   # squares of entries above ~1e154 overflow
                peak = np.max(np.abs(self.X))
                norm = peak * np.max(np.linalg.norm(self.X / peak, axis=1))
        return float(norm)

    def normalized(self) -> "Dataset":
        """Rescale features by the max norm over the dataset so ||x|| <= 1."""
        scale = self.max_feature_norm()
        if scale == 0.0:
            return Dataset(self.X.copy(), self.y.copy())
        X = self.X
        if np.isinf(scale):             # a norm beyond the float range: shrink the entries first
            X = X / np.max(np.abs(X))
            scale = float(np.max(np.linalg.norm(X, axis=1)))
        return Dataset(X / scale, self.y.copy())


def _check_dims(w: np.ndarray, X: np.ndarray) -> None:
    if X.shape[-1] != w.shape[-1]:
        raise ValueError(f"dimension mismatch: w has d={w.shape[-1]}, x has d={X.shape[-1]}")


@functools.cache
def load_expit():
    """scipy's logistic sigmoid ufunc ``expit``, importing scipy.special on the first call.

    Loading scipy.special costs about 0.3 s, which only a process that evaluates a
    logistic gradient needs to pay. Its 1/(1 + exp(-x)) uses libm's exp, which numpy's
    SIMD exp does not match bit for bit, so no numpy formula stands in for it.
    """
    from scipy.special import expit
    return expit


def margins(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """w'u per signed example; w of shape (rows, d) takes U of shape (rows, b, d) row by row."""
    if w.ndim == 1:
        return U @ w
    return np.einsum("rbd,rd->rb", U, w)


def loss_values(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example loss over the rows of X."""
    w = np.asarray(w, dtype=np.float64)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_dims(w, X)
    margins = y * (X @ w)
    if spec.loss == "logistic":
        return np.logaddexp(0.0, -margins)
    if spec.loss == "hinge":
        return np.maximum(0.0, 1.0 - margins)
    return -margins


def margin_scales(spec: ObjectiveSpec, m: np.ndarray) -> np.ndarray:
    """phi(m) at margins m = w'u, so that the loss gradient at signed example u is phi * u.

    logistic: phi = sigmoid(m); hinge: phi = 1 on the active branch m >= -1 (the kink
    included), else 0; linear: phi = 1.
    """
    if spec.loss == "logistic":
        return load_expit()(m)
    if spec.loss == "hinge":
        return np.where(m >= -1.0, 1.0, 0.0)
    return np.ones_like(m)


def gradient_scales(spec: ObjectiveSpec, w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """phi_i with per-example loss gradient phi_i * u_i at signed examples u_i = -y_i * x_i.

    Every margin loss sees an example x and its label y only through u, since
    y w'x = -w'u (see ``margin_scales``). A batch of weight vectors w (rows, d)
    takes signed examples U (rows, b, d).
    """
    w = np.asarray(w, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    if U.ndim < 2:
        U = np.atleast_2d(U)
    _check_dims(w, U)
    if spec.loss == "linear":
        return np.ones(U.shape[:-1])
    return margin_scales(spec, margins(w, U))


def loss_gradient(spec: ObjectiveSpec, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient of the per-example loss term (excludes the lam*w part)."""
    u = -float(y) * np.asarray(x, dtype=np.float64)
    return gradient_scales(spec, w, u[None, :])[0] * u


def mean_loss_gradient(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    U = -np.asarray(y, dtype=np.float64)[:, None] * np.atleast_2d(np.asarray(X, dtype=np.float64))
    return (U.T @ gradient_scales(spec, w, U)) / U.shape[0]


def full_objective(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """lam/2 ||w||^2 plus the mean loss over the dataset."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    w = np.asarray(w, dtype=np.float64)
    reg = 0.5 * spec.lam * float(w @ w)
    return reg + float(np.mean(loss_values(spec, w, X, y)))


def norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of w, or of each row of a matrix w, with no overflow in the squares.

    Each row is divided by its largest magnitude before squaring, as in
    ``_project_far``; a row that is not finite has norm NaN.
    """
    peak = np.max(np.abs(w), axis=-1)
    peak = np.where(peak > 0, peak, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        v = w / (peak if w.ndim == 1 else peak[:, None])
        sq = v @ v if w.ndim == 1 else np.einsum("rd,rd->r", v, v)
        return np.sqrt(sq) * peak


def _project_far(w: np.ndarray, radius: float) -> np.ndarray:
    """Rows of w whose norm overflows, or whose factor radius/norm underflows, on the sphere.

    Each row is divided by its largest magnitude before squaring; a row that is not
    finite comes back as NaN.
    """
    peak = np.max(np.abs(w), axis=-1, keepdims=True)
    v = w / np.where(np.isfinite(peak), peak, np.nan)
    return v * (radius / np.sqrt(np.sum(v * v, axis=-1, keepdims=True)))


def scale_into_ball(w: np.ndarray, sq: np.ndarray, radius: float) -> np.ndarray:
    """Scale in place each row of w outside the ball onto its sphere; return which rows.

    ``sq`` holds the squared row norms of w, as ``np.einsum("rd,rd->r", w, w)`` gives
    them, so a caller that has them already passes them in. A row is outside when
    its norm exceeds the radius or is not finite (NaN included). Rows inside are
    multiplied by exactly 1.0. A row whose squared norm overflows, or whose factor
    radius/norm underflows, takes ``_project_far``; a row that is not finite becomes NaN.
    """
    nrm = np.sqrt(sq)
    scale = radius / np.maximum(nrm, radius)
    far = ~(scale > 0)          # NaN, or 0 where the norm or radius/norm left the range
    scale[far] = 1.0
    w *= scale[:, None]
    if far.any():
        w[far] = _project_far(w[far], radius)
    return ~(nrm <= radius)


def project(w: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the ball of the given radius. Idempotent.

    A matrix is projected row by row. Input that already lies inside the ball
    (every row of it, for a matrix) is returned as is. A row that is not finite
    comes back as NaN.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    w = np.asarray(w, dtype=np.float64)
    if not math.isfinite(radius):
        return w
    if w.ndim == 2:
        sq = np.einsum("rd,rd->r", w, w)
        # Every row inside, so each factor would be 1.0. A correctly rounded sqrt is
        # monotone, so this is max_r sqrt(sq[r]) <= radius; NaN fails it and is scaled.
        if math.sqrt(sq.max(initial=0.0)) <= radius:
            return w
        out = w.copy()
        scale_into_ball(out, sq, radius)
        return out
    with np.errstate(over="ignore"):        # a norm beyond the float range takes _project_far
        nrm = float(np.linalg.norm(w))
    if nrm <= radius:
        return w
    scale = radius / nrm
    return w * scale if scale > 0 else _project_far(w, radius)
