"""Simulated interception environment.

Replaces the physical system: a ball launcher with trajectory jitter, a
ground-truth interception pipeline with deliberately mismatched physics
parameters, and additive anisotropic landing noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .arm import ArmGeometry, InterceptionEvent, InterceptionPolicy, base_azimuth, interception_event, racket_rotation, racket_velocity
from .ballistics import BallState, FlightParams, euler_flight, propagate_to_landing
from .errors import InfeasibleRegion, MissedBall
from .impact import ImpactParams, racket_impact
from .metrics import running_metrics

# Default ground truth deliberately differs from the predictor models
# (drag 0.12 vs 0.106, restitution 0.72/-0.78/0.72 vs 0.75) so that the
# online optimizer only ever sees approximate gradients.
TRUTH_K_DRAG = 0.12
TRUTH_RESTITUTION = (0.72, -0.78, 0.72)
TRUTH_DT = 5e-4

# Standard table footprint in the world frame (surface height lives in
# FlightParams.z_table); the arm stands beside the table, base ground
# point at the origin.
TABLE_CENTER = np.array([-1.1, 0.25])
TABLE_SIZE = np.array([1.525, 2.74])


def on_table(point: np.ndarray) -> bool:
    """Whether a horizontal point lies within the table footprint."""
    return bool(np.all(np.abs(np.asarray(point)[:2] - TABLE_CENTER) <= TABLE_SIZE / 2.0))


@dataclass
class SampledTrajectory:
    """Dense time-sampled ball trajectory."""

    times: np.ndarray   # (n,)
    states: np.ndarray  # (n, 6)
    _azimuth: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def azimuth(self, geom: ArmGeometry) -> np.ndarray:
        """base_azimuth of every sample, cached for the last geometry asked."""
        key = (geom.base.tobytes(), geom.rest_normal.tobytes())
        if self._azimuth[0] != key:
            az = base_azimuth(self.states[:, :3], geom)
            az.flags.writeable = False
            self._azimuth = (key, az)
        return self._azimuth[1]

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class LauncherConfig:
    """Nominal launch state plus per-component Gaussian jitter."""

    nominal_state: BallState = field(
        default_factory=lambda: BallState(
            p=np.array([-0.15, 3.9, 1.10]), v=np.array([0.0, -8.3, 3.3])
        )
    )
    jitter_std: np.ndarray = field(
        default_factory=lambda: np.array([0.005, 0.005, 0.005, 0.015, 0.025, 0.015])
    )
    sample_dt: float = 0.002

    def __post_init__(self) -> None:
        self.jitter_std = np.asarray(self.jitter_std, dtype=float)
        if self.sample_dt <= 0:
            raise ValueError("sample_dt must be > 0")
        if np.any(self.jitter_std < 0):
            raise ValueError("jitter_std must be >= 0")


@dataclass
class EnvConfig:
    truth_flight: FlightParams = field(
        default_factory=lambda: FlightParams(k_drag=TRUTH_K_DRAG, dt=TRUTH_DT)
    )
    truth_impact: ImpactParams = field(
        default_factory=lambda: ImpactParams(restitution=np.array(TRUTH_RESTITUTION))
    )
    geom: ArmGeometry = field(default_factory=ArmGeometry)
    landing_noise_std: np.ndarray = field(default_factory=lambda: np.array([0.10, 0.23]))
    launcher: LauncherConfig = field(default_factory=LauncherConfig)

    def __post_init__(self) -> None:
        self.landing_noise_std = np.asarray(self.landing_noise_std, dtype=float)
        if np.any(self.landing_noise_std < 0):
            raise ValueError("landing_noise_std must be >= 0")


@dataclass
class InterceptDiagnostics:
    """Side information of one interception (noise-free landing included)."""

    noiseless_landing: np.ndarray
    event: InterceptionEvent
    incoming: SampledTrajectory


def launch(cfg: LauncherConfig, flight: FlightParams, rng: np.random.Generator) -> SampledTrajectory:
    """Launch one ball: jitter the nominal state, integrate, sample densely.

    Sampling stops once the ball drops to the table plane or has passed well
    behind the launch-facing side of the workspace.
    """
    jitter = rng.normal(0.0, 1.0, size=6) * cfg.jitter_std
    start = cfg.nominal_state.as_vector() + jitter

    y_stop = -1.2  # [m] well past the arm workspace
    t_max = 3.0
    # sample clock accumulated step by step; steps are taken while it reads < t_max
    clock = np.cumsum(np.r_[0.0, np.full(ceil(t_max / cfg.sample_dt) + 1, cfg.sample_dt)])
    table = (*TABLE_CENTER.tolist(), *(TABLE_SIZE / 2.0).tolist(), y_stop)
    flat = start.tolist()  # the flight appends each sample after the start
    n_max = int(np.count_nonzero(clock < t_max))
    euler_flight(flat, flight, cfg.sample_dt, n_max, table=table, samples=flat)
    states = np.array(flat).reshape(-1, 6)
    return SampledTrajectory(times=clock[: len(states)], states=states)


def intercept(
    phi: InterceptionPolicy, cfg: EnvConfig, rng: np.random.Generator
) -> tuple[np.ndarray, InterceptDiagnostics]:
    """One full interception: launch, hit, fly, land, add landing noise.

    Raises NoCrossing/OutOfReach (a missed ball) when the policy cannot
    intercept the launched trajectory.
    """
    incoming = launch(cfg.launcher, cfg.truth_flight, rng)
    event = interception_event(incoming, cfg.geom, phi.theta1)
    gamma = racket_rotation(phi)
    v_r = racket_velocity(event, cfg.geom)
    xi_plus = racket_impact(event.xi_minus, gamma, v_r, cfg.truth_impact)
    record = propagate_to_landing(xi_plus, cfg.truth_flight)

    noise = rng.normal(0.0, 1.0, size=2) * cfg.landing_noise_std
    r_landing = record.landing_point + noise
    return r_landing, InterceptDiagnostics(
        noiseless_landing=record.landing_point,
        event=event,
        incoming=incoming,
    )


def estimate_variance(
    phi: InterceptionPolicy,
    n_trials: int,
    cfg: EnvConfig,
    rng: np.random.Generator,
    miss_tolerance: float = 0.1,
) -> tuple[np.ndarray, float]:
    """Sample mean and scalar landing scatter of a fixed policy."""
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2")
    points = []
    misses = 0
    for _ in range(n_trials):
        try:
            r, _ = intercept(phi, cfg, rng)
            points.append(r)
        except MissedBall:
            misses += 1
    if misses >= miss_tolerance * n_trials or len(points) < 2:
        raise InfeasibleRegion(f"{misses} of {n_trials} trials missed the ball")
    mean, _, sigma = running_metrics(points, np.zeros(2))
    return mean, sigma
