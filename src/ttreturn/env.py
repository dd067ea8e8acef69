"""Simulated interception environment.

Replaces the physical system: a ball launcher with trajectory jitter, a
ground-truth interception pipeline with deliberately mismatched physics
parameters, and additive anisotropic landing noise.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from math import ceil, cos, hypot, inf, sin

import numpy as np

from .arm import BASE, REST_AZIMUTH, InterceptionEvent, InterceptionPolicy, interception_event
from .ballistics import Physics, euler_flight, propagate_to_landing
from .errors import InfeasibleRegion, MissedBall
from .greybox import predict_landings
from .metrics import running_metrics

# The ground truth deliberately differs from greybox.MODEL (drag 0.12 vs
# 0.106, restitution 0.72/-0.78/0.72 vs 0.75, a finer step) so that the
# online optimizer only ever sees approximate gradients.
TRUTH = Physics(k_drag=0.12, dt=5e-4, restitution=(0.72, -0.78, 0.72))
MISS_TOLERANCE = 0.1  # share of missed trials at which a variance estimate is refused


@dataclass
class SampledTrajectory:
    """Ball samples SAMPLE_DT apart, kept as the flight kernel wrote them: the whole
    unaimed flight, or an aimed launch's window around its crossing (`launch`)."""

    rows: list  # 6 n floats: p, v of each sample in turn
    _xy: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def xy(self) -> np.ndarray:
        """(2, n) horizontal positions of the samples, built on the first call."""
        if self._xy is None:
            self._xy = np.fromiter(self.rows[0::6] + self.rows[1::6], float).reshape(2, -1)
        return self._xy

    def __len__(self) -> int:
        return len(self.rows) // 6


@dataclass
class EnvConfig:
    """The launcher's nominal state and per-component Gaussian jitter, and the landing noise."""

    nominal_state: np.ndarray = field(default_factory=lambda: np.array([-0.15, 3.9, 1.10, 0.0, -8.3, 3.3]))
    jitter_std: np.ndarray = field(default_factory=lambda: np.array([0.005, 0.005, 0.005, 0.015, 0.025, 0.015]))
    landing_noise_std: np.ndarray = field(default_factory=lambda: np.array([0.10, 0.23]))


T_MAX = 3.0  # [s] launch sampling horizon
SAMPLE_DT = 0.002  # [s] launch integration step, one sample per step
# launch steps taken while the sample clock, accumulated step by step, reads < T_MAX
LAUNCH_STEPS = int(np.count_nonzero(np.cumsum(np.r_[0.0, np.full(ceil(T_MAX / SAMPLE_DT) + 1, SAMPLE_DT)]) < T_MAX))
Y_PAST = -1.2  # [m] a y well past the arm workspace: an unaimed launch stops there


def stop_past(start, theta1: float) -> float:
    """y past which a launch from the 6-state `start` has crossed base azimuth theta1.

    Gravity is vertical, so each Euler step keeps the direction of the horizontal
    velocity, and the ball stays on the line p0 + s v0. If that line meets the theta1
    ray (s, r >= 0) at y_c, the first crossing pair of a launch stepped at SAMPLE_DT
    lies above y_c + 2 SAMPLE_DT vy0 - 1 mm. Otherwise, or if vy0 >= 0 or the path
    is within 1e-6 rad of parallel to the ray, the stop is Y_PAST.
    """
    y_far, (bx, by, _) = Y_PAST, BASE.tolist()
    x0, y0, _, vx, vy, _ = start
    ux, uy = cos(REST_AZIMUTH + theta1), sin(REST_AZIMUTH + theta1)
    det = vx * uy - vy * ux
    if not (vy < 0.0 and abs(det) > 1e-6 * hypot(vx, vy)):
        return y_far
    dx, dy = bx - x0, by - y0
    s, r = (dx * uy - dy * ux) / det, (dx * vy - dy * vx) / det
    if not (s >= 0.0 and r >= 0.0):
        return y_far
    return max(y_far, y0 + s * vy + 2.0 * SAMPLE_DT * vy - 1e-3)


def launch(cfg: EnvConfig, rng: np.random.Generator, aim: float | None = None) -> SampledTrajectory:
    """Launch one ball: jitter the nominal state and integrate at SAMPLE_DT with TRUTH's drag.

    The flight stops at the table, the floor or a y well behind the workspace, or
    after LAUNCH_STEPS steps (T_MAX); unaimed, it keeps every state from the start.
    `aim=theta1` also stops it at y_stop = `stop_past`, just past base azimuth
    theta1, and keeps only the states at or below y_keep, two samples and 1 mm above
    the crossing: a window of whole samples of the unaimed launch that holds its
    first crossing pair, or its stop state alone if the ball meets the floor or the
    table, or the step cap runs out, before y_keep.
    """
    jitter = rng.normal(0.0, 1.0, size=6) * cfg.jitter_std
    start, rows = (cfg.nominal_state + jitter).tolist(), []
    y_stop = Y_PAST if aim is None else stop_past(start, aim)
    y_keep = y_stop - 4.0 * SAMPLE_DT * start[4] + 2e-3 if y_stop > Y_PAST else inf
    euler_flight(start, TRUTH.k_drag, SAMPLE_DT, LAUNCH_STEPS, y_stop, samples=rows, y_keep=y_keep)
    return SampledTrajectory(rows)


def observe(phi: InterceptionPolicy, cfg: EnvConfig, rng: np.random.Generator) -> tuple[np.ndarray, InterceptionEvent]:
    """The draws of one interception in their order, without its flight: the launch aimed at theta1,
    its interception event (NoCrossing/OutOfReach for a missed ball) and the landing noise.
    Returns the event's pre-impact state and the (2,) noise as one row of 8 floats, and the event."""
    event = interception_event(launch(cfg, rng, aim=phi.theta1), phi.theta1)
    return np.concatenate((event.xi_minus, rng.normal(0.0, 1.0, size=2) * cfg.landing_noise_std)), event


def observed_landings(phis: list, rows: np.ndarray) -> list:
    """The noisy landing of each policy from its row of observe: the pre-impact states fly
    as one block at TRUTH (predict_landings), and each landing gets its row's noise."""
    landings = predict_landings(phis, rows[:, :6], TRUTH)
    return [landing + noise for landing, noise in zip(landings, rows[:, 6:])]


def intercept(
    phi: InterceptionPolicy, cfg: EnvConfig, rng: np.random.Generator
) -> tuple[np.ndarray, InterceptionEvent]:
    """One full interception: observe, then the hit and the flight of the grey-box
    return (propagate_to_landing) at TRUTH's physics plus the landing noise, and the event."""
    row, event = observe(phi, cfg, rng)
    return propagate_to_landing(phi, event, TRUTH).landing_point + row[6:], event


def estimate_variance(
    phi: InterceptionPolicy,
    n_trials: int,
    cfg: EnvConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Sample mean and scalar landing scatter of a fixed policy; after the hits' flight errors,
    InfeasibleRegion when at least MISS_TOLERANCE = 0.1 of the trials miss or fewer than two land."""
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2")
    rows = []
    for _ in range(n_trials):
        with suppress(MissedBall):
            rows.append(observe(phi, cfg, rng)[0])
    points = observed_landings([phi] * len(rows), np.array(rows).reshape(-1, 8))
    misses = n_trials - len(rows)
    if misses >= MISS_TOLERANCE * n_trials or len(rows) < 2:
        raise InfeasibleRegion(f"{misses} of {n_trials} trials missed the ball")
    mean, _, sigma = running_metrics(points, np.zeros(2))
    return mean, sigma
