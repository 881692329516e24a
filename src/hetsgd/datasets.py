"""Dataset construction: synthetic generation, random projection, file ingestion.

All paths normalize features so that max ||x|| = 1 over the dataset, which
keeps per-example loss gradients inside the unit ball as the oracle noise
calibrations assume.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FLIP_RATE, Dataset, check_counts, check_reals, unit_scaled

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


class EmptyFileError(ValueError):
    pass


class InconsistentDimensionError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-hyperplane binary classification data.

    Gaussian features, labels sign(w_true . x) flipped independently with
    base rate flip_rate.
    """

    d: int
    n: int
    flip_rate: float = 0.0

    def __post_init__(self):
        check_counts({"d": self.d, "n": self.n})
        check_reals({"flip_rate": self.flip_rate}, FLIP_RATE)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    w_true = rng.standard_normal(spec.d)
    w_true /= np.linalg.norm(w_true)
    X = rng.standard_normal((spec.n, spec.d))
    y = np.where(X @ w_true >= 0.0, 1.0, -1.0)
    if spec.flip_rate > 0.0:
        flips = rng.random(spec.n) < spec.flip_rate
        y = np.where(flips, -y, y)
    return Dataset(unit_scaled(X), y)


def sign_projection_matrix(d_in: int, d_out: int, seed: int) -> np.ndarray:
    """(d_in, d_out) matrix of i.i.d. +-1/sqrt(d_out) entries."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    signs = rng.integers(0, 2, size=(d_in, d_out)) * 2 - 1
    return signs.astype(np.float64) / np.sqrt(d_out)


def random_projection(data: Dataset, d_out: int, seed: int) -> Dataset:
    """Project features to d_out dimensions with a seeded sign matrix, then renormalize."""
    check_counts({"d_out": d_out})
    if d_out > data.d:
        raise ValueError(f"d_out={d_out} exceeds input dimension {data.d}")
    P = sign_projection_matrix(data.d, d_out, seed)
    return Dataset(unit_scaled(data.X @ P), data.y)


def _map_label(raw: float, path, line_number: int) -> float:
    if raw in (-1.0, 1.0):
        return raw
    if raw == 0.0:
        return -1.0
    raise ParseError(path, line_number, f"label must be -1, 0, or +1, got {raw}")


def ingest_csv(path) -> Dataset:
    """Load a label-first CSV; 0/1 labels are mapped to -1/+1."""
    path = Path(path)
    rows = []
    labels = []
    d = None
    with path.open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ParseError(path, line_number, "need a label and at least one feature")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(path, line_number, f"non-numeric field ({exc})") from None
            if not all(map(math.isfinite, values[1:])):
                raise ParseError(path, line_number, "non-finite feature")
            if d is None:
                d = len(values) - 1
            elif len(values) - 1 != d:
                raise InconsistentDimensionError(
                    f"{path}:{line_number}: row has {len(values) - 1} features, expected {d}")
            labels.append(_map_label(values[0], path, line_number))
            rows.append(values[1:])
    if not rows:
        raise EmptyFileError(f"{path}: no data rows")
    logger.info("ingested %s: %d rows, %d features", path, len(rows), d)
    return Dataset(unit_scaled(np.asarray(rows)), np.asarray(labels))


def ingest_libsvm(path) -> Dataset:
    """Load sparse 'label idx:value ...' rows (1-based indices, each once) as dense features."""
    path = Path(path)
    entries = []
    labels = []
    max_index = 0
    with path.open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                raw_label = float(parts[0])
            except ValueError:
                raise ParseError(path, line_number, f"bad label field {parts[0]!r}") from None
            labels.append(_map_label(raw_label, path, line_number))
            row = {}
            for token in parts[1:]:
                if ":" not in token:
                    raise ParseError(path, line_number, f"expected idx:value, got {token!r}")
                idx_str, val_str = token.split(":", 1)
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise ParseError(path, line_number, f"bad feature token {token!r}") from None
                if idx < 1:
                    raise ParseError(path, line_number, "feature indices are 1-based")
                if not math.isfinite(val):
                    raise ParseError(path, line_number, f"non-finite feature {token!r}")
                if idx in row:
                    raise ParseError(path, line_number, f"feature index {idx} given twice")
                row[idx] = val
                max_index = max(max_index, idx)
            entries.append(row)
    if not entries:
        raise EmptyFileError(f"{path}: no data rows")
    X = np.zeros((len(entries), max_index))
    for i, row in enumerate(entries):
        for idx, val in row.items():
            X[i, idx - 1] = val
    logger.info("ingested %s: %d rows, %d features", path, len(entries), max_index)
    return Dataset(unit_scaled(X), np.asarray(labels))
