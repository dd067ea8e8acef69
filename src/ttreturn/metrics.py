"""Running performance metrics: mean landing point, distance error, scatter."""

from __future__ import annotations

import numpy as np


def running_metrics(points, target) -> tuple[np.ndarray, float, float]:
    """Mean landing point, distance of the mean to the target, and the
    population standard deviation of the landing points (1/i weighting)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)
    r_bar = pts.mean(axis=0)
    dx, dy = (target - r_bar).tolist()
    eps = float(np.sqrt(dx * dx + dy * dy))
    sigma = float(np.sqrt(np.mean(np.sum((pts - r_bar) ** 2, axis=1))))
    return r_bar, eps, sigma


class MetricsState:
    """Keeps landing points in a doubling (n, 2) buffer; recomputes metrics exactly."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self._buf = np.empty((64, 2))
        self.count = 0

    def update(self, r_landing) -> tuple[np.ndarray, float, float]:
        if self.count == len(self._buf):
            self._buf = np.concatenate([self._buf, np.empty_like(self._buf)])
        self._buf[self.count] = r_landing
        self.count += 1
        return running_metrics(self._buf[: self.count], self.target)
