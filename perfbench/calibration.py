"""Machine-speed calibration timed next to every measured call.

The benchmark runs on shared cores whose speed drifts by tens of percent
over seconds to minutes, and the drift moves different kinds of code by
different amounts. Three fixed kernels sample it: small-vector steps bound by
Python dispatch (like b=1 SGD), batched steps with privacy-noise sampling at
d=54 and b=50, and a vectorised objective over 5000 rows. The calibration
reading is the geometric mean of each kernel's time over its reference time,
so 1.0 means reference speed and 1.2 a machine 20% slower. The kernels use
numpy only, never hetsgd, so a change to hetsgd moves a scaled timing exactly
as it moves the raw one.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Each kernel's time at reference speed (2-core x86-64 VM, Python 3.11, numpy 2.4).
REFERENCE_S = (0.030, 0.022, 0.018)


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x10 = rng.standard_normal((64, 10))
        self.x10 /= np.linalg.norm(self.x10, axis=1, keepdims=True)
        self.x54 = rng.standard_normal((5000, 54))
        self.x54 /= np.linalg.norm(self.x54, axis=1).max()
        self.y54 = np.where(rng.random(5000) < 0.5, -1.0, 1.0)
        self()    # the first reading in a process runs cold and reads about twice too slow

    def _dispatch_steps(self) -> None:
        w = np.zeros(10)
        for i in range(3000):
            x = self.x10[i & 63]
            g = 1e-3 * w + x * (1.0 / (1.0 + np.exp(float(x @ w))))
            w = w - (100.0 / (i + 1)) * g
            n = float(np.linalg.norm(w))
            if n > 1e3:
                w = w * (1e3 / n)

    def _noisy_batches(self) -> None:
        rng = np.random.default_rng(1)
        w = np.zeros(54)
        for i in range(200):
            lo = (i * 50) % 4950
            xb, yb = self.x54[lo:lo + 50], self.y54[lo:lo + 50]
            s = -yb / (1.0 + np.exp(yb * (xb @ w)))
            radii = rng.standard_gamma(54, size=50)
            dirs = rng.standard_normal((50, 54))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            g = 1e-3 * w + (xb.T @ s) / 50 + (radii[:, None] * dirs).mean(axis=0)
            w = w - (1000.0 / (i + 1)) * g
            n = float(np.linalg.norm(w))
            if n > 1e3:
                w = w * (1e3 / n)

    def _objective(self) -> None:
        w = np.full(54, 0.01)
        for _ in range(60):
            np.logaddexp(0.0, -self.y54 * (self.x54 @ w)).mean()

    def __call__(self) -> float:
        """Current slowness: 1.0 at reference speed, larger when slower."""
        ratios = []
        for kernel, ref in zip((self._dispatch_steps, self._noisy_batches, self._objective),
                               REFERENCE_S):
            t0 = time.perf_counter()
            kernel()
            ratios.append((time.perf_counter() - t0) / ref)
        return math.prod(ratios) ** (1.0 / len(ratios))


def reference_speed(durations: list, slowness: list) -> list:
    """Durations at reference speed; slowness holds a reading before each and one after the last."""
    return [d / ((a + b) / 2) for d, a, b in zip(durations, slowness, slowness[1:])]
