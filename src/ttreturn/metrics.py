"""Running performance metrics: mean landing point, distance error, scatter."""

from __future__ import annotations

from math import inf, sqrt

import numpy as np

from .errors import NonFiniteStep


class MetricsState:
    """Count, mean and sum of squared deviations of the landings so far: Welford's O(1) update."""

    def __init__(self, target):
        self.tx, self.ty = map(float, target)
        self.count = 0
        self.mx = self.my = self.m2 = 0.0

    def update(self, x: float, y: float) -> tuple[np.ndarray, float, float]:
        """Add the landing (x, y); the mean landing point, its distance to the target and the population
        scatter (1/count weighting). NonFiniteStep for a non-finite one (or a square that overflows)."""
        self.count += 1
        dx, dy = x - self.mx, y - self.my
        self.mx += dx / self.count
        self.my += dy / self.count
        self.m2 += dx * (x - self.mx) + dy * (y - self.my)
        ex, ey = self.tx - self.mx, self.ty - self.my
        eps2, sigma2 = ex * ex + ey * ey, self.m2 / self.count
        if not (eps2 < inf and 0.0 <= sigma2 < inf):  # NaN fails both
            raise NonFiniteStep(f"landing {self.count}: the running mean or scatter is not finite")
        return np.array([self.mx, self.my]), sqrt(eps2), sqrt(sigma2)
