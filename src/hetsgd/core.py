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
import numbers
from dataclasses import dataclass

import numpy as np

LOSSES = ("logistic", "hinge", "linear")


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_counts(counts: dict) -> None:
    """Raise ValueError naming the first entry of ``counts`` that is not an integer >= 1."""
    for name, value in counts.items():
        if not is_integer(value) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


# Ranges of real-valued inputs, as (the range in words, its test); NaN lies in none.
POSITIVE_FINITE = ("in (0, inf)", lambda v: 0 < v < math.inf)
POSITIVE = ("in (0, inf]", lambda v: v > 0)
NONNEGATIVE_FINITE = ("in [0, inf)", lambda v: 0 <= v < math.inf)
NONNEGATIVE = ("in [0, inf]", lambda v: v >= 0)
FRACTION = ("in (0, 1)", lambda v: 0 < v < 1)
FLIP_RATE = ("in [0, 0.5)", lambda v: 0 <= v < 0.5)


def check_reals(values: dict, in_range: tuple, error: type = ValueError) -> None:
    """Raise ``error`` naming the first entry of ``values`` not a real number in ``in_range``.

    ``in_range`` is one of the (words, test) ranges above. A bool is not a number here:
    float() and numpy take True as 1.0, so it would otherwise run as a plausible number.
    """
    words, test = in_range
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)):
            raise error(f"{name} must be a number, not a bool, got {value!r}")
        # float first: it is the common case, and an ABC check costs several type checks.
        if not (isinstance(value, (float, numbers.Real)) and test(value)):
            raise error(f"{name} must be a number {words}, got {value!r}")


def reject_bools(values: dict) -> None:
    """Raise ValueError naming the first entry of ``values`` that is a bool or a bool array.

    For inputs that may be arrays; a scalar real takes ``check_reals``.
    """
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)) or getattr(value, "dtype", None) == np.bool_:
            raise ValueError(f"{name} must be a number, not a bool, got {value!r}")


def check_labels(values: dict) -> None:
    """Raise ValueError naming the first entry of ``values`` that holds a label not -1 or +1.

    An entry is one label or an array of them. A bool is not a label: numpy takes
    True as 1.0, so it would otherwise run as the label +1. A sequence that mixes
    bools with numbers converts to a number array, so its items are looked at one
    by one; an ndarray is judged by its dtype.
    """
    for name, value in values.items():
        y = np.asarray(value)
        if y.ndim and not isinstance(value, np.ndarray):
            bools = [v for v in np.asarray(value, dtype=object).flat
                     if isinstance(v, (bool, np.bool_))]
            if bools:
                raise ValueError(f"labels must be -1 or +1, got {bools[0]!r} in {name}")
        bad = ~np.isin(y, (-1, 1)) if y.dtype.kind in "iuf" else np.ones(y.shape, dtype=bool)
        if bad.any():
            raise ValueError(f"labels must be -1 or +1, got {y[bad][0].item()!r} in {name}")


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
        check_reals({"lam": self.lam}, POSITIVE_FINITE)
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {LOSSES}")
        if self.radius is None:
            object.__setattr__(self, "radius", 1.0 / self.lam)
        check_reals({"radius": self.radius}, POSITIVE)


@dataclass
class Dataset:
    """Feature matrix X (n, d) with labels y in {-1, +1}, not changed after construction."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        labels = self.y
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match number of rows in X")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features must be finite")
        check_labels({"y": labels})

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def objective(self, spec: ObjectiveSpec, w: np.ndarray) -> float:
        """``full_objective`` over this dataset, without checking the labels again."""
        return _objective(spec, w, self.X, self.y)

    def subset(self, indices) -> "Dataset":
        return Dataset(self.X[indices], self.y[indices])

    def checked_rows(self, rows=None) -> np.ndarray:
        """``rows`` (None: every row) as a read-only ``np.intp`` array of row indices.

        Anything but a 1-d integer array of distinct indices in [0, n) raises a one-line
        ValueError naming ``rows``. An array this returned is returned as it is when passed
        in again, so that the many oracles over one row set (a driver's split) check it once.
        """
        checked = self.__dict__.setdefault("_checked_rows", {})
        if rows is None:
            if None not in checked:
                checked[None] = self.checked_rows(np.arange(len(self)))
            return checked[None]
        if checked.get(id(rows)) is rows:
            return rows
        r = np.asarray(rows)
        if r.ndim != 1:
            raise ValueError(f"rows must be a 1-d array of row indices, got shape {r.shape}")
        if r.size and r.dtype.kind not in "iu":
            raise ValueError(f"rows must be integers, got dtype {r.dtype}")
        if r.size and not (r.min() >= 0 and r.max() < len(self)):
            raise ValueError(f"rows must lie in [0, {len(self)}), got {r.min()}..{r.max()}")
        r = r.astype(np.intp)
        counts = np.bincount(r, minlength=len(self))
        if counts.max(initial=0) > 1:
            raise ValueError(f"rows must be distinct, got row {int(counts.argmax())} "
                             f"{int(counts.max())} times")
        r.flags.writeable = False
        checked[id(r)] = r
        return r

    @functools.cached_property
    def max_square_norm(self) -> float:
        """The largest ||x||^2 over the rows (0.0 for none, inf past the float range),
        computed once per dataset: the one-einsum test that the rows lie in a ball."""
        with np.errstate(over="ignore"):
            return float(np.einsum("nd,nd->n", self.X, self.X).max(initial=0.0))

    def max_feature_norm(self) -> float:
        return max_row_norm(self.X)

    def normalized(self) -> "Dataset":
        """Rescale features by the max norm over the dataset so ||x|| <= 1."""
        return Dataset(unit_scaled(self.X), self.y.copy())


def max_row_norm(X: np.ndarray) -> float:
    """The largest Euclidean row norm of a matrix (0.0 for no rows), past the float range too."""
    if len(X) == 0:
        return 0.0
    with np.errstate(over="ignore"):
        norm = np.max(np.linalg.norm(X, axis=1))
        if not np.isfinite(norm):   # squares of entries above ~1e154 overflow
            peak = np.max(np.abs(X))
            norm = peak * np.max(np.linalg.norm(X / peak, axis=1))
    return float(norm)


def unit_scaled(X: np.ndarray) -> np.ndarray:
    """A new array: X divided by its largest row norm, so that every row has norm at most 1.

    A matrix of zero rows comes back copied. The loaders build their one ``Dataset`` from
    this, so that its input scans run once.
    """
    scale = max_row_norm(X)
    if scale == 0.0:
        return X.copy()
    if np.isinf(scale):             # a norm beyond the float range: shrink the entries first
        X = X / np.max(np.abs(X))
        scale = float(np.max(np.linalg.norm(X, axis=1)))
    return X / scale


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
    """Per-example loss over the rows of X.

    One (n,) array is made: the margins y * (X @ w) go into it and the loss is written
    over them, operation by operation, with the bits of the allocating formulas. w, X
    and y are only read.
    """
    w = np.asarray(w, dtype=np.float64)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_dims(w, X)
    m = X @ w
    m *= y
    if spec.loss == "logistic":
        return np.logaddexp(0.0, np.negative(m, out=m), out=m)
    if spec.loss == "hinge":
        return np.maximum(0.0, np.subtract(1.0, m, out=m), out=m)
    return np.negative(m, out=m)


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
    U = np.atleast_2d(np.asarray(U, dtype=np.float64))
    _check_dims(w, U)
    return margin_scales(spec, margins(w, U))


def loss_gradient(spec: ObjectiveSpec, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient of the per-example loss term (excludes the lam*w part)."""
    check_labels({"y": y})
    u = -float(y) * np.asarray(x, dtype=np.float64)
    return gradient_scales(spec, w, u[None, :])[0] * u


def mean_loss_gradient(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    check_labels({"y": y})
    U = -np.asarray(y, dtype=np.float64)[:, None] * np.atleast_2d(np.asarray(X, dtype=np.float64))
    return (U.T @ gradient_scales(spec, w, U)) / U.shape[0]


def full_objective(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """lam/2 ||w||^2 plus the mean loss over the dataset; labels other than -1 and +1 raise.

    ``Dataset.objective`` gives the same value over a dataset, whose labels were checked
    once, when it was made. Either holds one (n,) array, the per-example losses
    (``loss_values``), while it runs, and nothing after.
    """
    check_labels({"y": y})
    return _objective(spec, w, X, y)


def _objective(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    w = np.asarray(w, dtype=np.float64)
    reg = 0.5 * spec.lam * float(w @ w)
    # np.mean's sum and division, over the one (n,) array loss_values makes, which goes
    # when this returns.
    return reg + float(np.add.reduce(loss_values(spec, w, X, y))) / X.shape[0]


def norms(W: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a matrix W, with no overflow in the squares.

    Each row is divided by its largest magnitude before squaring, as in
    ``_project_far``; a row that is not finite has norm NaN.
    """
    peak = np.max(np.abs(W), axis=1)
    peak = np.where(peak > 0, peak, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        v = W / peak[:, None]
        return np.sqrt(np.einsum("rd,rd->r", v, v)) * peak


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
    check_reals({"radius": radius}, POSITIVE)
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
