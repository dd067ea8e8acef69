"""Kinematics of the 4-DoF interception arm.

The base yaw angle selects where along the incoming ball path the racket
meets the ball (azimuth crossing); the two link angles follow from planar
inverse kinematics; the wrist angle tilts the racket. Only the base yaw
carries a nonzero rate at interception time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import acos, atan2, cos, pi, sin, sqrt

import numpy as np

from .ballistics import BallState
from .errors import NoCrossing, OutOfReach

REACH_MARGIN = 0.01  # [m] keep-out from both inverse-kinematics singularities


@dataclass
class InterceptionPolicy:
    """The two decision variables: base yaw and racket tilt at interception."""

    theta1: float  # [rad]
    theta4: float  # [rad]

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta4])


@dataclass
class ArmGeometry:
    """Concrete arm realization: base pivot, link lengths, rest orientation."""

    base: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.8]))
    l1: float = 0.5    # [m]
    l2: float = 0.45   # [m] includes the racket offset
    rest_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    theta1_dot: float = 6.0  # [rad/s] base yaw rate at interception

    def __post_init__(self) -> None:
        self.base = np.asarray(self.base, dtype=float)
        self.rest_normal = np.asarray(self.rest_normal, dtype=float)
        if self.l1 <= 0 or self.l2 <= 0:
            raise ValueError("link lengths must be positive")
        n = np.linalg.norm(self.rest_normal)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("rest_normal must be a unit vector")


@dataclass
class InterceptionEvent:
    """Interception time, pre-impact ball state and the solved arm angles."""

    t_ic: float
    xi_minus: BallState
    theta2: float
    theta3: float
    racket_pos: np.ndarray

    def __post_init__(self) -> None:
        self.racket_pos = np.asarray(self.racket_pos, dtype=float)


def base_azimuth(points: np.ndarray, geom: ArmGeometry) -> np.ndarray:
    """Azimuth of points as seen from the base pivot.

    Zero along the rest-normal direction, positive counterclockwise about +z.
    """
    points = np.atleast_2d(points)
    d = points - geom.base
    ref = atan2(geom.rest_normal[1], geom.rest_normal[0])
    az = np.arctan2(d[:, 1], d[:, 0]) - ref
    return np.mod(az + pi, 2.0 * pi) - pi


def interception_event(incoming, geom: ArmGeometry, theta1: float) -> InterceptionEvent:
    """First (interpolated) sample at which the ball crosses base azimuth theta1.

    `incoming` is a SampledTrajectory (times, states and cached azimuths).
    """
    times, states = incoming.times, incoming.states
    az = incoming.azimuth(geom)
    rel = np.mod(az - theta1 + pi, 2.0 * pi) - pi

    # first genuine crossing: a pair that is no wrap jump and either starts
    # on the azimuth or ends on it or across it
    a, b = rel[:-1], rel[1:]
    hit = ~(np.abs(b - a) > pi) & ((a == 0.0) | (a * b < 0.0) | (b == 0.0))
    if not hit.any():
        raise NoCrossing(f"ball path never reaches base azimuth {theta1:.3f} rad")
    idx = int(hit.argmax())
    u = 0.0 if a[idx] == 0.0 else a[idx] / (a[idx] - b[idx])

    t_ic = times[idx] + u * (times[idx + 1] - times[idx])
    xi = states[idx] + u * (states[idx + 1] - states[idx])
    p = xi[:3]

    dist = float(np.linalg.norm(p - geom.base))
    lo = abs(geom.l1 - geom.l2) + REACH_MARGIN
    hi = geom.l1 + geom.l2 - REACH_MARGIN
    if not (lo <= dist <= hi):
        raise OutOfReach(f"target at {dist:.3f} m outside reach [{lo:.3f}, {hi:.3f}] m")

    # planar two-link inverse kinematics in the yawed vertical plane, elbow up
    d = p - geom.base
    d_h = sqrt(d[0] ** 2 + d[1] ** 2)
    w = d[2]
    c3 = (dist**2 - geom.l1**2 - geom.l2**2) / (2.0 * geom.l1 * geom.l2)
    c3 = min(1.0, max(-1.0, c3))
    gamma = acos(c3)
    theta3 = -gamma
    theta2 = atan2(w, d_h) + atan2(geom.l2 * sin(gamma), geom.l1 + geom.l2 * c3)

    return InterceptionEvent(
        t_ic=float(t_ic),
        xi_minus=BallState.from_vector(xi),
        theta2=theta2,
        theta3=theta3,
        racket_pos=p.copy(),
    )


def forward_kinematics(geom: ArmGeometry, theta1: float, theta2: float, theta3: float) -> np.ndarray:
    """Racket center position for the given joint angles."""
    ref = atan2(geom.rest_normal[1], geom.rest_normal[0])
    a = ref + theta1
    u_r = np.array([cos(a), sin(a), 0.0])
    radial = geom.l1 * cos(theta2) + geom.l2 * cos(theta2 + theta3)
    height = geom.l1 * sin(theta2) + geom.l2 * sin(theta2 + theta3)
    return geom.base + radial * u_r + np.array([0.0, 0.0, height])


def _rot_z(a: float) -> np.ndarray:
    c, s = cos(a), sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(a: float) -> np.ndarray:
    c, s = cos(a), sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def racket_rotation(phi: InterceptionPolicy) -> np.ndarray:
    """Racket orientation relative to its rest configuration: Rz(theta1) Rx(theta4)."""
    return _rot_z(phi.theta1) @ _rot_x(phi.theta4)


def racket_rotation_jacobian(phi: InterceptionPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Analytic derivatives of the racket orientation w.r.t. both policy angles."""
    c1, s1 = cos(phi.theta1), sin(phi.theta1)
    d_rz = np.array([[-s1, -c1, 0.0], [c1, -s1, 0.0], [0.0, 0.0, 0.0]])
    c4, s4 = cos(phi.theta4), sin(phi.theta4)
    d_rx = np.array([[0.0, 0.0, 0.0], [0.0, -s4, -c4], [0.0, c4, -s4]])
    return d_rz @ _rot_x(phi.theta4), _rot_z(phi.theta1) @ d_rx


def racket_velocity(event: InterceptionEvent, geom: ArmGeometry) -> np.ndarray:
    """Racket center velocity: pure base-yaw rotation, all other joint rates zero."""
    r = event.racket_pos - geom.base
    return geom.theta1_dot * np.array([-r[1], r[0], 0.0])

