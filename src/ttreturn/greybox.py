"""First-principles landing-point predictor with analytic policy gradients.

Composes the interception geometry, the racket impact and the drag flight
into a map from the two-dimensional policy to the landing point, plus its
2x2 Jacobian assembled by the chain rule.
"""

from __future__ import annotations

import numpy as np

from .arm import InterceptionEvent, InterceptionPolicy, interception_event
from .ballistics import LandingRecord, Physics, propagate_to_landing, return_landings

# The predictor's physics: drag, return-flight step and restitution of the first-principles model.
MODEL = Physics(k_drag=0.106, dt=1e-3, restitution=(0.75, -0.75, 0.75))


def predict_landing(phi: InterceptionPolicy, incoming, physics: Physics) -> np.ndarray:
    """Landing point of the return for the given policy and incoming ball."""
    return propagate_to_landing(phi, interception_event(incoming, phi.theta1), physics).landing_point


def predict_landings(phis: list[InterceptionPolicy], xi_minus: np.ndarray, physics: Physics) -> list:
    """propagate_to_landing's landing point of each policy at its row of the (B, 6) pre-impact
    states, as one block of kernel returns (return_landings); the first row that fails raises."""
    return return_landings(xi_minus, [(phi.theta1, phi.theta4) for phi in phis], physics)


def central_difference(f, phi: InterceptionPolicy, step: float) -> np.ndarray:
    """2x2 central-difference Jacobian of f(policy) -> 2-vector at phi."""
    jac = np.zeros((2, 2))
    for col, (d1, d4) in enumerate(((step, 0.0), (0.0, step))):
        hi = f(InterceptionPolicy(phi.theta1 + d1, phi.theta4 + d4))
        lo = f(InterceptionPolicy(phi.theta1 - d1, phi.theta4 - d4))
        jac[:, col] = (hi - lo) / (2 * step)
    return jac


def predict_landing_with_gradient(
    phi: InterceptionPolicy, event: InterceptionEvent, physics: Physics, coupled: bool = False
) -> tuple[LandingRecord, np.ndarray]:
    """Flight record at the policy, intercepted at `event`, and the 2x2 Jacobian
    of its landing point by the chain rule, in both modes, from one kernel return:
    the impact Jacobian (with the event tangent if `coupled`) pushed through the
    flight steps, then through the shortened last step."""
    record = propagate_to_landing(phi, event, physics, "coupled" if coupled else "frozen")
    return record, record.jacobian
