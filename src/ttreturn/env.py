"""Simulated interception environment.

Replaces the physical system: a ball launcher with trajectory jitter, a
ground-truth interception pipeline with deliberately mismatched physics
parameters, and additive anisotropic landing noise.
"""

from __future__ import annotations

import ctypes
from contextlib import suppress
from dataclasses import dataclass, field
from math import ceil, cos, hypot, inf, sin

import numpy as np

from .arm import BASE, REST_AZIMUTH, InterceptionEvent, InterceptionPolicy, interception_event
from .ballistics import Physics, euler_flight, propagate_to_landing
from .errors import InfeasibleRegion, MissedBall
from .metrics import running_metrics

# The ground truth deliberately differs from greybox.MODEL (drag 0.12 vs
# 0.106, restitution 0.72/-0.78/0.72 vs 0.75, a finer step) so that the
# online optimizer only ever sees approximate gradients.
TRUTH = Physics(k_drag=0.12, dt=5e-4, restitution=(0.72, -0.78, 0.72))
MISS_TOLERANCE = 0.1  # share of missed trials at which a variance estimate is refused


@dataclass(eq=False)
class SampledTrajectory:
    """Ball samples SAMPLE_DT apart, kept as the flight kernel wrote them: the whole
    unaimed flight, or an aimed launch's window around its crossing (`launch`)."""

    rows: np.ndarray  # (6 n,) float64: p, v of each sample in turn, a view of samples
    samples: ctypes.Array = field(init=False, repr=False)  # 6 n doubles that arm's kernel search reads

    def __post_init__(self) -> None:
        """Copy the given 6 n floats into samples (ValueError for another shape) and view them as rows."""
        rows = np.ascontiguousarray(self.rows, dtype=float)
        if rows.ndim != 1 or len(rows) % 6:
            raise ValueError(f"rows must be 6 n floats, got shape {rows.shape}")
        self.samples = (ctypes.c_double * len(rows)).from_buffer_copy(rows)
        self.rows = np.frombuffer(self.samples)

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
    start = (cfg.nominal_state + jitter).tolist()
    y_stop = Y_PAST if aim is None else stop_past(start, aim)
    y_keep = y_stop - 4.0 * SAMPLE_DT * start[4] + 2e-3 if y_stop > Y_PAST else inf
    return SampledTrajectory(euler_flight(start, TRUTH.k_drag, SAMPLE_DT, LAUNCH_STEPS, y_stop, True, y_keep)[3])


def intercept(
    phi: InterceptionPolicy, cfg: EnvConfig, rng: np.random.Generator
) -> tuple[np.ndarray, InterceptionEvent]:
    """One full interception: the launch aimed at theta1, its event (NoCrossing/OutOfReach
    for a miss) and the landing noise, drawn in that order, then the grey-box return
    (propagate_to_landing) at TRUTH, which draws nothing. Returns landing + noise and the event."""
    event = interception_event(launch(cfg, rng, aim=phi.theta1), phi.theta1)
    noise = rng.normal(0.0, 1.0, size=2) * cfg.landing_noise_std
    return propagate_to_landing(phi, event, TRUTH).landing_point + noise, event


def estimate_variance(
    phi: InterceptionPolicy,
    n_trials: int,
    cfg: EnvConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Sample mean and scalar landing scatter of a fixed policy, its trials intercepted in turn (a hit's
    flight error raised at once); InfeasibleRegion when MISS_TOLERANCE = 0.1 of them miss or < 2 land."""
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2")
    points = []
    for _ in range(n_trials):
        with suppress(MissedBall):
            points.append(intercept(phi, cfg, rng)[0])
    misses = n_trials - len(points)
    if misses >= MISS_TOLERANCE * n_trials or len(points) < 2:
        raise InfeasibleRegion(f"{misses} of {n_trials} trials missed the ball")
    mean, _, sigma = running_metrics(points, np.zeros(2))
    return mean, sigma
