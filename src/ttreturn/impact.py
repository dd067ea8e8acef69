"""Linear racket-ball impact model and its policy Jacobian, on plain floats: the scalar
reference of the impact that ballistics.propagate_to_landing makes in the kernel
(flight.c's ttr_return), in the same order, so the two agree bit for bit."""

from __future__ import annotations

import numpy as np

from .arm import (THETA1_DOT, InterceptionEvent, InterceptionPolicy, racket_rotation, racket_rotation_jacobian,
                  racket_velocity)
from .ballistics import Physics, no_event_tangent


def _mul(a, x, transpose: bool = False) -> list:
    """A x (A^T x if `transpose`) for a 3x3 A of rows, each sum taken left to right (flight.c's mul)."""
    rows = zip(*a) if transpose else a
    return [r[0] * x[0] + r[1] * x[1] + r[2] * x[2] for r in rows]


def _reflect(g, e, d, x) -> tuple[list, list]:
    """q = E (D^T x) in the racket frame, E = diag(e), and G q in the world (flight.c's reflect)."""
    q = [k * w for k, w in zip(e, _mul(d, x, transpose=True))]
    return q, _mul(g, q)


def racket_impact(
    xi_minus: np.ndarray,
    gamma: np.ndarray,
    v_racket: np.ndarray,
    physics: Physics,
) -> np.ndarray:
    """Instantaneous impact of the 6-state xi_minus: position unchanged, relative
    velocity mapped by the diagonal physics.restitution in the racket rest frame,
    G E G^T (v - v_racket) + v_racket with G = gamma."""
    xi, g, v_r = (np.asarray(a, dtype=float).tolist() for a in (xi_minus, gamma, v_racket))
    _, v = _reflect(g, physics.restitution, g, [a - b for a, b in zip(xi[3:], v_r)])
    return np.array(xi[:3] + [a + b for a, b in zip(v, v_r)])


def impact_state_jacobian(
    phi: InterceptionPolicy, event: InterceptionEvent, physics: Physics, coupled: bool
) -> np.ndarray:
    """Derivative of the post-impact 6-state w.r.t. the policy (6x2).

    Frozen-event convention: the interception point and pre-impact velocity
    are treated as policy-independent, so only the racket rotation is
    differentiated and the position rows are zero: each angle's column is
    dG q + G E dG^T rel, with q = E G^T rel and rel = v - v_r. `coupled` adds
    the event's motion to the theta1 column: dxi = event.dxi_dtheta1 in the
    position rows and G E G^T (dxi[3:] - dv_r) + dv_r in the velocity rows, where
    dv_r = THETA1_DOT (-dxi[1], dxi[0], 0); SingularGradient if dxi is None.
    """
    e, g = physics.restitution, racket_rotation(phi).tolist()
    v_r = racket_velocity(event).tolist()
    rel = [a - b for a, b in zip(event.xi_minus[3:].tolist(), v_r)]
    q, _ = _reflect(g, e, g, rel)
    columns = []
    for d_g in racket_rotation_jacobian(phi):
        d_g = d_g.tolist()
        columns.append([0.0, 0.0, 0.0] + [a + b for a, b in zip(_mul(d_g, q), _reflect(g, e, d_g, rel)[1])])
    if coupled:
        dxi = event.dxi_dtheta1
        if dxi is None:
            raise no_event_tangent()
        dv_r = [THETA1_DOT * -dxi[1], THETA1_DOT * dxi[0], THETA1_DOT * 0.0]
        _, d_v = _reflect(g, e, g, [a - b for a, b in zip(dxi[3:], dv_r)])
        columns[0] = [*dxi[:3], *(c + (a + b) for c, a, b in zip(columns[0][3:], d_v, dv_r))]
    return np.array(columns).T
