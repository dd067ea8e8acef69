"""Linear racket-ball impact model and its policy Jacobian."""

from __future__ import annotations

import numpy as np

from .arm import (BASE, THETA1_DOT, InterceptionEvent, InterceptionPolicy, racket_rotation, racket_rotation_jacobian,
                  racket_velocity)
from .ballistics import Physics
from .errors import SingularGradient


def racket_impact(
    xi_minus: np.ndarray,
    gamma: np.ndarray,
    v_racket: np.ndarray,
    physics: Physics,
) -> np.ndarray:
    """Instantaneous impact of the 6-state xi_minus: position unchanged, relative
    velocity mapped by the diagonal physics.restitution in the racket rest frame."""
    m = np.diag(physics.restitution)
    return np.concatenate([xi_minus[:3], gamma @ m @ gamma.T @ (xi_minus[3:] - v_racket) + v_racket])


def racket_impacts(xi_minus: np.ndarray, theta1: np.ndarray, theta4: np.ndarray, physics: Physics) -> np.ndarray:
    """racket_impact of (B, 6) pre-impact states with each policy's racket_rotation and
    racket_velocity, as stacked products in their order: (B, 6) post-impact states."""
    c1, s1, c4, s4 = np.cos(theta1), np.sin(theta1), np.cos(theta4), np.sin(theta4)
    o, z = np.ones(len(theta1)), np.zeros(len(theta1))
    rz = np.stack((c1, -s1, z, s1, c1, z, z, z, o), axis=-1).reshape(-1, 3, 3)
    gamma = np.matmul(rz, np.stack((o, z, z, z, c4, -s4, z, s4, c4), axis=-1).reshape(-1, 3, 3))
    r = xi_minus[:, :3] - BASE
    v_r = THETA1_DOT * np.column_stack((-r[:, 1], r[:, 0], z))
    m = np.matmul(np.matmul(gamma, np.diag(physics.restitution)), gamma.transpose(0, 2, 1))
    return np.hstack((xi_minus[:, :3], np.matmul(m, (xi_minus[:, 3:] - v_r)[:, :, None])[:, :, 0] + v_r))


def impact_state_jacobian(
    phi: InterceptionPolicy, event: InterceptionEvent, physics: Physics, coupled: bool
) -> np.ndarray:
    """Derivative of the post-impact 6-state w.r.t. the policy (6x2).

    Frozen-event convention: the interception point and pre-impact velocity
    are treated as policy-independent, so only the racket rotation is
    differentiated and the position rows are zero. `coupled` adds the event's
    motion to the theta1 column: dxi = event.dxi_dtheta1 in the position rows
    and G M G^T (dxi[3:] - dv_r) + dv_r in the velocity rows, where dv_r =
    THETA1_DOT (-dxi[1], dxi[0], 0); SingularGradient if dxi is None.
    """
    m = np.diag(physics.restitution)
    gamma = racket_rotation(phi)
    d_g1, d_g4 = racket_rotation_jacobian(phi)
    rel = event.xi_minus[3:] - racket_velocity(event)

    jac = np.zeros((6, 2))
    for col, d_g in enumerate((d_g1, d_g4)):
        jac[3:, col] = (d_g @ m @ gamma.T + gamma @ m @ d_g.T) @ rel
    if coupled:
        if event.dxi_dtheta1 is None:
            raise SingularGradient("crossing pair lies on the theta1 azimuth: no event tangent")
        dxi = np.array(event.dxi_dtheta1)
        dv_r = THETA1_DOT * np.array([-dxi[1], dxi[0], 0.0])
        jac[:3, 0] = dxi[:3]
        jac[3:, 0] += gamma @ m @ gamma.T @ (dxi[3:] - dv_r) + dv_r
    return jac
