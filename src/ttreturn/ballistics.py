"""Discrete free flight of the ball with quadratic drag, and the grey-box return.

Explicit Euler steps of fixed length, terminated by a drag-free prediction of
the time left until the ball reaches the table plane; the final step is
shortened accordingly. Every step runs in the compiled kernel, flight.c, in
the kernel library built at import (kernel.load_kernel): `euler_flight` flies one
launch or return flight; `propagate_to_landing` makes one whole grey-box
return (racket impact, full steps, closed-form last step and, on request, the
2x2 landing Jacobian) in one call, and `return_landings` a block of them. The
Jacobian pushes the impact's policy tangent through the full steps as the
flight takes them, then differentiates the last step; no per-step state is
stored. remaining_time_gradient and landing_state_jacobian are the kernel's
scalar reference for the last step.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .arm import BASE, THETA1_DOT, InterceptionEvent, InterceptionPolicy
from .errors import MaxStepsExceeded, NegativeDiscriminant, SimulationError, SingularGradient
from .kernel import KERNEL, constants, pointer

# Gravity points along -z with this magnitude, in the flight and its drag-free drop prediction.
G_VERTICAL = 9.8  # [m/s^2]
Z_TABLE = 0.76  # [m] height of the table plane every flight lands on
TABLE_CENTER, TABLE_HALF = (-1.1, 0.25), (1.525 / 2.0, 2.74 / 2.0)  # [m] the table's footprint in the world frame

# Numerical thresholds of the flight kernels.
DISCRIMINANT_FLOOR = 1e-12    # below this the remaining-time gradient is singular
MAX_STEPS = 4000  # full steps a return flight may take before MaxStepsExceeded


@dataclass(frozen=True)
class Physics:
    """The physics in which the grey-box model (greybox.MODEL) and the simulated
    truth (env.TRUTH) differ; gravity is G_VERTICAL along -z and the table plane
    is at z = Z_TABLE for both."""

    k_drag: float                             # [1/m] quadratic drag
    dt: float                                 # [s] full step of the return flight
    restitution: tuple[float, float, float]   # racket rest frame diagonal; the negative entry is along the normal


@dataclass
class LandingRecord:
    """Where the full steps of a return stopped, where it landed, and how the landing moves."""

    k_max: int                # number of full steps
    t_last: float             # [s] shortened final step length
    landing_point: np.ndarray  # (2,) [m]
    stop: np.ndarray          # (6,) state after the full steps
    jacobian: np.ndarray | None = None  # (2, 2) d(landing_point)/d(theta1, theta4), if asked for


STATE, COLUMNS, FOOTPRINT = ctypes.c_double * 6, ctypes.c_double * 12, ctypes.c_double * 4
SAMPLE_ROOM = 16  # states a flight's first samples buffer holds: an aimed launch keeps about 8
# ttr_return's constants and record (stop, k_max, t_last, landing, Jacobian, discriminant)
RIG, RECORD = ctypes.c_double * 11, ctypes.c_double * 15
LANDED, NO_LANDING, NO_PLANE, SINGULAR = range(4)  # ttr_return's outcomes
JACOBIANS = (None, "frozen", "coupled")  # its Jacobian modes, by number


def euler_flight(
    row, k_drag: float, dt: float, max_steps: int, y_stop: float | None = None,
    samples: bool = False, y_keep: float = inf, tangent: np.ndarray | None = None,
) -> tuple[tuple, int, np.ndarray | None, np.ndarray | None]:
    """Explicit Euler steps of the drag flight, in the compiled kernel (flight.c).

    The package's one flight loop. Returns the 6-tuple state it stopped at, the
    number of steps taken, the pushed tangent (or None) and the kept samples (or
    None). The stop rule is one of:

    - no `y_stop` (a return flight): stop before the first step whose
      drag-free prediction ends at or below the table plane, i.e. once the
      drag-free remaining time is at most dt; raise
      MaxStepsExceeded if that does not happen within `max_steps` steps;
    - a `y_stop` (a launch): stop after the first step that ends at or below
      the table plane on the footprint (TABLE_CENTER, TABLE_HALF), at or
      below the floor z = 0, or at y <= y_stop; at most `max_steps`.

    With `samples`, the kernel keeps the six floats of each state at or below
    y = `y_keep` (by default every state), the start among them, or the stop
    state alone if it kept none before it, and they come back as one (6 k,)
    float64 array that views the ctypes buffer the kernel wrote from its start (its
    `base`); a flight that keeps more than SAMPLE_ROOM states flies again into a
    buffer of the size it reported, and the kernel never writes past a buffer. A 6x2
    `tangent` is pushed through the steps inside the loop on 12 doubles (ValueError for
    another shape): each step maps (dp, dv) to (dp + dt dv, dv - dt k (|v| dv + v (v . dv)
    / |v|)) with its own v, before the update.
    """
    px, py, pz, vx, vy, vz = row
    if tangent is not None and np.shape(tangent) != (6, 2):
        raise ValueError(f"tangent must be 6x2, got shape {np.shape(tangent)}")
    table = None if y_stop is None else constants(FOOTPRINT, *TABLE_CENTER, *TABLE_HALF)
    capacity = 6 * SAMPLE_ROOM if samples else 0
    while True:  # a second time only if the kept samples outgrew the first buffer
        state, kept, push = STATE(px, py, pz, vx, vy, vz), ctypes.c_int64(0), None
        if tangent is not None:
            push = COLUMNS(*np.asarray(tangent, dtype=float).T.ravel().tolist())
        kept_rows = (ctypes.c_double * capacity)() if samples else None
        n = KERNEL.ttr_flight(state, float(k_drag), dt, max_steps, G_VERTICAL, Z_TABLE, table,
                              -inf if y_stop is None else y_stop, y_keep, kept_rows, capacity, kept, push)
        if 6 * kept.value <= capacity:
            break
        capacity = 6 * kept.value
    if n < 0:
        raise no_landing(max_steps)
    return (tuple(state), n, None if push is None else np.array(push).reshape(2, 6).T,
            None if kept_rows is None else np.frombuffer(kept_rows, count=6 * kept.value))


def no_landing(max_steps: int) -> MaxStepsExceeded:
    """The error of a flight still in the air after max_steps full steps."""
    return MaxStepsExceeded(f"no landing within {max_steps} steps")


def refused(outcome: int, disc: float) -> SimulationError:
    """The typed error of a return that the kernel refused with `outcome`, given the
    discriminant of its last step's drag-free drop (see ttr_return)."""
    if outcome == NO_LANDING:
        return no_landing(MAX_STEPS)
    if outcome == NO_PLANE:
        return NegativeDiscriminant(f"ball cannot reach the table plane: discriminant = {disc:.3e}")
    return SingularGradient(f"discriminant {disc:.3e} at or below floor")


def no_event_tangent() -> SingularGradient:
    """The error of a coupled gradient at an event without a theta1 tangent."""
    return SingularGradient("crossing pair lies on the theta1 azimuth: no event tangent")


def rig(physics: Physics) -> ctypes.Array:
    """ttr_return's constants: the physics, gravity, the table plane, the discriminant
    floor, the base yaw rate and the base pivot's x and y, as the modules hold them now."""
    return constants(RIG, physics.k_drag, physics.dt, *physics.restitution, G_VERTICAL, Z_TABLE,
                     DISCRIMINANT_FLOOR, THETA1_DOT, *BASE.tolist()[:2])


def propagate_to_landing(
    phi: InterceptionPolicy, event: InterceptionEvent, physics: Physics, jacobian: str | None = None
) -> LandingRecord:
    """The grey-box return of `phi` at the interception `event`, in one kernel call (ttr_return).

    The racket at Rz(theta1) Rx(theta4), moving at racket_velocity, meets the ball at
    event.xi_minus; the post-impact state takes full steps of physics.dt, at most
    MAX_STEPS, while the drag-free remaining time exceeds dt, then a last step of that
    time, t_last, whose Euler position update is interpolated onto the plane.
    `jacobian` "frozen" adds the 2x2 landing Jacobian with the event held fixed,
    "coupled" with the event moving along event.dxi_dtheta1. With the event held at a
    base policy only the racket orientation varies with phi, and the finite differences
    of that map are what the frozen Jacobian matches. Raises MaxStepsExceeded,
    NegativeDiscriminant or SingularGradient (see refused and no_event_tangent).
    racket_impact, impact_state_jacobian and landing_state_jacobian are its reference.
    """
    mode, dxi = JACOBIANS.index(jacobian), None
    if jacobian == "coupled":
        if event.dxi_dtheta1 is None:
            raise no_event_tangent()
        dxi = STATE(*event.dxi_dtheta1)
    out = RECORD()
    outcome = KERNEL.ttr_return(STATE(*event.xi_minus.tolist()), phi.theta1, phi.theta4, rig(physics), MAX_STEPS,
                                mode, dxi, out)
    if outcome != LANDED:
        raise refused(outcome, out[14])
    record = np.frombuffer(out)  # the record's arrays are views of the kernel's output
    return LandingRecord(int(out[6]), out[7], record[8:10], record[:6], record[10:14].reshape(2, 2) if mode else None)


def return_landings(xi_minus: np.ndarray, policies: np.ndarray, physics: Physics) -> list:
    """propagate_to_landing's landing point of each row of the (B, 6) pre-impact states and
    the (B, 2) policies (theta1, theta4), in one kernel call that loops its row function
    (ttr_returns); the first row that does not land raises its error, and no later row flies."""
    rows = np.array(xi_minus, dtype=float, order="C").reshape(-1, 6)
    policies = np.array(policies, dtype=float, order="C").reshape(-1, 2)
    if len(policies) != len(rows):
        raise ValueError(f"{len(rows)} pre-impact states but {len(policies)} policies")
    landings, out, outcome = np.empty((len(rows), 2)), RECORD(), ctypes.c_int64(LANDED)
    if KERNEL.ttr_returns(len(rows), pointer(rows), pointer(policies), rig(physics), MAX_STEPS, pointer(landings),
                          out, outcome) < len(rows):
        raise refused(outcome.value, out[14])
    return list(landings)


def remaining_time_gradient(xi) -> np.ndarray:
    """Gradient of the drag-free remaining time max(v_z / g + sqrt(disc), 0) until the
    ball at the 6-state xi reaches the table plane, with respect to xi, in ttr_return's
    order; SingularGradient where disc is at or below DISCRIMINANT_FLOOR."""
    vz, pz = float(xi[5]), float(xi[2])
    rise = vz / G_VERTICAL
    disc = rise * rise + 2.0 * (pz - Z_TABLE) / G_VERTICAL
    if disc <= DISCRIMINANT_FLOOR:
        raise refused(SINGULAR, disc)
    root = sqrt(disc)
    grad = np.zeros(6)
    grad[2] = 1.0 / (G_VERTICAL * root)
    grad[5] = 1.0 / G_VERTICAL + vz / (G_VERTICAL * G_VERTICAL * root)
    return grad


def landing_state_jacobian(record: LandingRecord, tangent) -> np.ndarray:
    """The 2x2 Jacobian of the record's landing point, its last step applied to the 6x2
    `tangent` pushed through its full steps, on plain floats: ttr_return's reference.

    Per column (dp, dv): t_last moves by dt = t_last'(stop) . (dp, dv), the end
    q = p + t_last v by dq = dp + t_last dv + v dt, and the landing p + s (q - p),
    s = (Z_TABLE - p_z) / (q_z - p_z), by s dq + (1 - s) dp + (q - p) ds (dq if q_z = p_z).
    """
    px, py, pz, vx, vy, vz = record.stop.tolist()
    t = record.t_last
    dt_dpz, dt_dvz = remaining_time_gradient(record.stop)[[2, 5]].tolist()
    u, w = Z_TABLE - pz, (pz + t * vz) - pz
    delta = ((px + t * vx) - px, (py + t * vy) - py)
    columns = []
    for dpx, dpy, dpz, dvx, dvy, dvz in np.asarray(tangent, dtype=float).T.tolist():
        d_t = dt_dpz * dpz + dt_dvz * dvz
        dq = (dpx + t * dvx + vx * d_t, dpy + t * dvy + vy * d_t, dpz + t * dvz + vz * d_t)
        if w == 0.0:
            columns.append(dq[:2])
            continue
        s, ds = u / w, ((u - w) * dpz - u * dq[2]) / (w * w)
        columns.append([s * dq[i] + (1.0 - s) * dp + delta[i] * ds for i, dp in enumerate((dpx, dpy))])
    return np.array(columns).T
