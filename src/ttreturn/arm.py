"""Kinematics of the 4-DoF interception arm.

The base yaw angle selects where along the incoming ball path the racket
meets the ball (azimuth crossing), which must lie within the two links'
reach; the wrist angle tilts the racket. Only the base yaw carries a nonzero
rate at interception time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, pi, sin, sqrt

import numpy as np

from .errors import NoCrossing, OutOfReach

REACH_MARGIN = 0.01  # [m] keep-out from the fully folded and fully stretched arm
CROSS_TOL = 1e-9     # [m] |c| below which a sample may lie on either side of theta1
SEARCH_CHUNK = 64    # policies per (chunk, samples) array of the block crossing search
# Base azimuth of the racket normal at rest, +y (racket_rotation rotates from it,
# and the impact model's normal restitution acts along the racket's y axis).
REST_AZIMUTH = pi / 2  # [rad]
# The rig: base pivot, reach of the 0.5 m and 0.45 m links (the latter includes the
# racket offset) less REACH_MARGIN, and the base yaw rate at interception.
BASE = np.array([0.0, 0.0, 0.8])  # [m]
REACH = (abs(0.5 - 0.45) + REACH_MARGIN, 0.5 + 0.45 - REACH_MARGIN)  # [m]
THETA1_DOT = 6.0  # [rad/s]


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


def base_azimuth(x: float, y: float) -> float:
    """Azimuth of the horizontal position (x, y) as seen from the base pivot, with libm's atan2.

    Zero along the racket's rest normal (REST_AZIMUTH), positive counterclockwise about +z.
    """
    return (atan2(y - BASE[1], x - BASE[0]) - REST_AZIMUTH + pi) % (2.0 * pi) - pi


@np.errstate(invalid="ignore", over="ignore")  # an overflowed launch's inf/NaN samples only miss
def interception_event(incoming, theta1: float) -> InterceptionEvent:
    """First (interpolated) sample at which the ball crosses base azimuth theta1.

    `incoming` is a SampledTrajectory. With a and b the base azimuths of two
    consecutive samples relative to theta1, wrapped to [-pi, pi), the pair
    crosses if it is no wrap jump (|b - a| <= pi) and a == 0, a b < 0 or
    b == 0. Only candidate pairs are tested, in order: a and the half-plane
    sign c = ux (y - by) - uy (x - bx), with u the direction of theta1, have
    the same sign wherever |c| exceeds CROSS_TOL, so a pair is a candidate
    unless both of its c, clipped to that band, sit on the same edge.

    xi_minus = row + u (after - row), u = a / (a - b), and a - b is the wrapped
    difference of the two samples' azimuths, free of theta1: dxi_dtheta1 = (row
    - after) / (a - b), the same floats for every theta1 on the pair, or None if
    a == b == 0 (the pair lies on the azimuth) or a - b rounds to 0.
    """
    bx, by, bz = BASE.tolist()
    xy = incoming.xy()
    c = cos(REST_AZIMUTH + theta1) * (xy[1] - by) - sin(REST_AZIMUTH + theta1) * (xy[0] - bx)
    c = np.minimum(np.maximum(c, -CROSS_TOL), CROSS_TOL)
    pairs = (c[:-1] * c[1:] < CROSS_TOL**2).nonzero()[0]

    rows, tau = incoming.rows, 2.0 * pi

    az = lambda i: base_azimuth(rows[6 * i], rows[6 * i + 1])
    wrap = lambda angle: (angle + pi) % tau - pi

    for idx in pairs.tolist():
        za, zb = az(idx), az(idx + 1)
        a, b = wrap(za - theta1), wrap(zb - theta1)
        if not abs(b - a) > pi and (a == 0.0 or a * b < 0.0 or b == 0.0):
            break
    else:
        raise NoCrossing(f"ball path never reaches base azimuth {theta1:.3f} rad")
    u = 0.0 if a == 0.0 else a / (a - b)

    row, after = rows[6 * idx : 6 * idx + 6], rows[6 * idx + 6 : 6 * idx + 12]
    xi = [p + u * (q - p) for p, q in zip(row, after)]
    span = wrap(za - zb)  # a - b, free of theta1
    dxi = None if a == b or span == 0.0 else tuple([(p - q) / span for p, q in zip(row, after)])
    dx, dy, dz = xi[0] - bx, xi[1] - by, xi[2] - bz

    dist = sqrt(dx * dx + dy * dy + dz * dz)
    lo, hi = REACH
    if not (lo <= dist <= hi):
        raise OutOfReach(f"target at {dist:.3f} m outside reach [{lo:.3f}, {hi:.3f}] m")
    return InterceptionEvent(np.array(xi), dxi)


@np.errstate(invalid="ignore", over="ignore")  # as interception_event
def interception_states(incoming, theta1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """interception_event's crossing search, interpolation and reach check for an
    array of theta1 on one trajectory, SEARCH_CHUNK policies at a time: the (B, 6)
    pre-impact states and the (B,) mask of the policies that hit (a miss's row is junk)."""
    x, y = incoming.xy()
    az = np.array([base_azimuth(*p) for p in zip(incoming.rows[0::6], incoming.rows[1::6])])
    turns = [REST_AZIMUTH + t for t in theta1.tolist()]
    cos_t, sin_t = np.array([(cos(t), sin(t)) for t in turns]).reshape(-1, 2).T[..., None]
    idx, u = np.full(len(theta1), -1), np.zeros(len(theta1))
    for s in range(0, len(theta1), SEARCH_CHUNK):
        t = theta1[s : s + SEARCH_CHUNK, None]
        c = cos_t[s : s + SEARCH_CHUNK] * (y - BASE[1]) - sin_t[s : s + SEARCH_CHUNK] * (x - BASE[0])
        c = np.clip(c, -CROSS_TOL, CROSS_TOL)  # the values of interception_event's minimum(maximum())
        row, i = np.divmod(np.flatnonzero(c[:, :-1] * c[:, 1:] < CROSS_TOL**2), len(x) - 1)  # candidates
        a, b = ((az[i + j] - t[row, 0] + pi) % (2.0 * pi) - pi for j in (0, 1))
        ok = np.flatnonzero(~(abs(b - a) > pi) & ((a == 0.0) | (a * b < 0.0) | (b == 0.0)))
        row, first = np.unique(row[ok], return_index=True)
        a, b, idx[s + row] = a[ok[first]], b[ok[first]], i[ok[first]]
        u[s + row] = np.divide(a, a - b, out=np.zeros_like(a), where=a != 0.0)
    states = np.array(incoming.rows).reshape(-1, 6)
    xi = states[idx] + u[:, None] * (states[idx + 1] - states[idx])
    d = xi[:, :3] - BASE
    dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    lo, hi = REACH
    return xi, (idx >= 0) & (lo <= dist) & (dist <= hi)


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

