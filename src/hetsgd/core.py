"""Losses, gradients, projection, and objective evaluation for regularized
linear classification.

The objective throughout is

    f(w) = lam/2 * ||w||^2 + (1/n) * sum_i loss(w, x_i, y_i)

over the Euclidean ball of a configurable radius (default 1/lam). Three
losses are supported: logistic, hinge, and the plain linear loss -y w'x.
All functions here are pure and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

LOSSES = ("logistic", "hinge", "linear")


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


def _margins(w: np.ndarray, X: np.ndarray, y) -> np.ndarray:
    """y * <w, x>; with w of shape (rows, d) and X of shape (rows, b, d), row by row."""
    if w.ndim == 1:
        return y * (X @ w)
    return y * np.einsum("rbd,rd->rb", X, w)


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


def loss_value(spec: ObjectiveSpec, w: np.ndarray, x: np.ndarray, y: float) -> float:
    return float(loss_values(spec, w, np.asarray(x)[None, :], np.asarray([y]))[0])


def gradient_scales(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Scalar s_i with per-example loss gradient s_i * x_i.

    logistic: s = -y * sigmoid(-y w'x); hinge: s = -y on the active branch
    (margin <= 1, the kink included); linear: s = -y. A batch of weight
    vectors w (rows, d) takes examples X (rows, b, d) and labels y (rows, b).
    """
    w = np.asarray(w, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2:
        X = np.atleast_2d(X)
    _check_dims(w, X)
    if spec.loss == "logistic":
        ny = -y         # negation is exact: ny * expit(ny * w'x) == -y * expit(-(y * w'x))
        return ny * expit(_margins(w, X, ny))
    if spec.loss == "hinge":
        return np.where(_margins(w, X, y) <= 1.0, -y, 0.0)
    return -np.asarray(y, dtype=np.float64)


def loss_gradient(spec: ObjectiveSpec, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient of the per-example loss term (excludes the lam*w part)."""
    x = np.asarray(x, dtype=np.float64)
    s = gradient_scales(spec, w, x[None, :], np.asarray([y], dtype=np.float64))
    return s[0] * x


def mean_loss_gradient(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    s = gradient_scales(spec, w, X, y)
    return (X.T @ s) / X.shape[0]


def full_objective(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """lam/2 ||w||^2 plus the mean loss over the dataset."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    w = np.asarray(w, dtype=np.float64)
    reg = 0.5 * spec.lam * float(w @ w)
    return reg + float(np.mean(loss_values(spec, w, X, y)))


def project(w: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the ball of the given radius. Idempotent.

    A matrix is projected row by row. Input that already lies inside the ball
    (every row of it, for a matrix) is returned as is.
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
        return w * (radius / np.maximum(np.sqrt(sq), radius))[:, None]
    nrm = float(np.linalg.norm(w))
    if nrm <= radius:
        return w
    return w * (radius / nrm)
