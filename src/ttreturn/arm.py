"""Kinematics of the 4-DoF interception arm.

The base yaw angle selects where along the incoming ball path the racket
meets the ball (azimuth crossing), which must lie within the two links'
reach; the wrist angle tilts the racket. Only the base yaw carries a nonzero
rate at interception time.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from math import cos, pi, sin

import numpy as np

from .errors import NoCrossing, OutOfReach
from .kernel import KERNEL, constants, pointer

REACH_MARGIN = 0.01  # [m] keep-out from the fully folded and fully stretched arm
CROSS_TOL = 1e-9     # [m] |c| below which a sample may lie on either side of theta1
# Base azimuth of the racket normal at rest, +y (racket_rotation rotates from it,
# and the impact model's normal restitution acts along the racket's y axis).
REST_AZIMUTH = pi / 2  # [rad]
# The rig: base pivot, reach of the 0.5 m and 0.45 m links (the latter includes the
# racket offset) less REACH_MARGIN, and the base yaw rate at interception.
BASE = np.array([0.0, 0.0, 0.8])  # [m]
REACH = (abs(0.5 - 0.45) + REACH_MARGIN, 0.5 + 0.45 - REACH_MARGIN)  # [m]
THETA1_DOT = 6.0  # [rad/s]
# ttr_crossings' constants, one theta1, and one record: xi_minus (6), dxi_dtheta1 (6),
# 1.0 if that slope is set, the crossing's distance from BASE and the outcome
GEOMETRY, THETA1, EVENT = ctypes.c_double * 8, ctypes.c_double * 1, ctypes.c_double * 15
CROSSED, NO_CROSSING, OUT_OF_REACH = range(3)  # ttr_crossings' outcomes


@dataclass
class InterceptionPolicy:
    """The two decision variables: base yaw and racket tilt at interception."""

    theta1: float  # [rad]
    theta4: float  # [rad]


@dataclass
class InterceptionEvent:
    """Pre-impact ball state at the crossing, and its slope in theta1."""

    xi_minus: np.ndarray  # (6,) p, v; the racket meets the ball at p
    dxi_dtheta1: tuple | None = None  # 6 floats d(xi_minus)/d(theta1); None for a degenerate pair


def interception_event(incoming, theta1: float) -> InterceptionEvent:
    """First (interpolated) sample of `incoming` (a SampledTrajectory) at which the ball
    crosses base azimuth theta1, in one kernel call (ttr_crossings in flight.c).

    With a and b the base azimuths (from REST_AZIMUTH about the pivot BASE) of two
    consecutive samples relative to theta1, wrapped to [-pi, pi), the pair crosses if
    it is no wrap jump (|b - a| <= pi) and a == 0, a b < 0 or b == 0. Only candidate
    pairs are tested, in order: a and the half-plane sign c = ux (y - by) - uy (x - bx),
    u the direction of theta1, agree in sign wherever |c| exceeds CROSS_TOL, so a pair
    is a candidate unless both of its c, clipped to that band, sit on the same edge.
    xi_minus = row + u (after - row), u = a / (a - b); dxi_dtheta1 = (row - after) /
    (a - b), the same floats for every theta1 on the pair, or None if a == b or a - b
    rounds to 0. NoCrossing without a crossing pair, OutOfReach outside REACH of BASE.
    """
    out = EVENT()
    KERNEL.ttr_crossings(1, THETA1(theta1), incoming.samples, len(incoming), geometry(), out)
    if out[14] == NO_CROSSING:
        raise NoCrossing(f"ball path never reaches base azimuth {theta1:.3f} rad")
    if out[14] == OUT_OF_REACH:
        lo, hi = REACH
        raise OutOfReach(f"target at {out[13]:.3f} m outside reach [{lo:.3f}, {hi:.3f}] m")
    return InterceptionEvent(np.frombuffer(out)[:6], tuple(out[6:12]) if out[12] else None)


def crossings(incoming, theta1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """interception_event for each of the (B,) theta1 on one trajectory, in one kernel call:
    the (B, 6) pre-impact states and the (B,) mask of the policies that hit (a miss's row is junk)."""
    theta1 = np.array(theta1, dtype=float).reshape(-1)
    records = np.empty((len(theta1), EVENT._length_))
    KERNEL.ttr_crossings(len(theta1), pointer(theta1), incoming.samples, len(incoming), geometry(), pointer(records))
    return records[:, :6], records[:, 14] == CROSSED


def geometry() -> ctypes.Array:
    """ttr_crossings' constants as this module holds them now: the base pivot, the rest
    azimuth, CROSS_TOL and its square, and the reach band."""
    return constants(GEOMETRY, *BASE.tolist(), REST_AZIMUTH, CROSS_TOL, CROSS_TOL**2, *REACH)


def racket_rotation(phi: InterceptionPolicy) -> np.ndarray:
    """Racket orientation relative to its rest configuration: Rz(theta1) Rx(theta4), entry by entry."""
    c1, s1, c4, s4 = cos(phi.theta1), sin(phi.theta1), cos(phi.theta4), sin(phi.theta4)
    return np.array([[c1, -s1 * c4, s1 * s4], [s1, c1 * c4, -c1 * s4], [0.0, s4, c4]])


def racket_rotation_jacobian(phi: InterceptionPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Analytic derivatives of the racket orientation w.r.t. both policy angles."""
    c1, s1, c4, s4 = cos(phi.theta1), sin(phi.theta1), cos(phi.theta4), sin(phi.theta4)
    return (np.array([[-s1, -c1 * c4, c1 * s4], [c1, -s1 * c4, s1 * s4], [0.0, 0.0, 0.0]]),
            np.array([[0.0, s1 * s4, s1 * c4], [0.0, -c1 * s4, -c1 * c4], [0.0, c4, -s4]]))


def racket_velocity(event: InterceptionEvent) -> np.ndarray:
    """Racket center velocity: pure base-yaw rotation at THETA1_DOT, all other joint rates zero."""
    r = event.xi_minus[:3] - BASE
    return THETA1_DOT * np.array([-r[1], r[0], 0.0])

