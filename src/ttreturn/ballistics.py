"""Discrete free flight of the ball with quadratic drag.

Explicit Euler steps of fixed length, terminated by a drag-free prediction of
the time left until the ball reaches the table plane; the final step is
shortened accordingly. One scalar kernel, `euler_flight`, takes every full
step of the package but those of dataset labels and variance trials, which
`euler_landings` flies on arrays in its own lockstep loop, every row to its
end; every flight ends in the one closed-form last step, `final_step`. The
analytic Jacobian of the landing point pushes a tangent through the full steps
as the flight takes them, then differentiates the last step's position rows;
no per-step state is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

from .errors import MaxStepsExceeded, NegativeDiscriminant, SingularGradient

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
    """Where the full steps of a flight stopped, and where it landed."""

    k_max: int                # number of full steps
    t_last: float             # [s] shortened final step length
    landing_point: np.ndarray  # (2,) [m]
    stop: np.ndarray          # (6,) state after the full steps
    tangent: np.ndarray | None = None  # (6, 2) tangent pushed through the full steps


def euler_flight(
    row, k_drag: float, dt: float, max_steps: int, y_stop: float | None = None,
    samples: list | None = None, y_keep: float = inf, tangent: np.ndarray | None = None,
) -> tuple[tuple, int, np.ndarray | None]:
    """Explicit Euler steps of the drag flight on plain floats.

    The package's scalar per-step drag update. Returns the 6-tuple state it
    stopped at, the number of steps taken and the pushed tangent (or None).
    The stop rule is one of:

    - no `y_stop` (a return flight): stop before the first step whose
      drag-free prediction ends at or below the table plane, i.e. once the
      drag-free remaining time (`remaining_time`) is at most dt; raise
      MaxStepsExceeded if that does not happen within `max_steps` steps;
    - a `y_stop` (a launch): stop after the first step that ends at or below
      the table plane on the footprint (TABLE_CENTER, TABLE_HALF), at or
      below the floor z = 0, or at y <= y_stop; at most `max_steps`.

    `samples`, if given, is an empty list that the kernel extends by the six
    floats of each state at or below y = `y_keep` (by default every state), the
    start among them, or by the stop state alone if it kept none before it. A
    6x2 `tangent` is pushed through the steps inside the loop on 12 plain floats
    (ValueError for another shape): each step maps (dp, dv) to (dp + dt dv,
    dv - dt k (|v| dv + v (v . dv) / |v|)) with its own v, before the update.
    """
    px, py, pz, vx, vy, vz = row
    k_drag, z_plane = float(k_drag), Z_TABLE  # locals: read on every step
    land, contact = y_stop is None, y_stop is not None
    if land:
        # for a real root, t_rem <= dt  <=>  vz <= g dt and p_z + dt vz - g dt^2 / 2 <= Z_TABLE
        vz_top = G_VERTICAL * dt
        z_top = z_plane + 0.5 * G_VERTICAL * dt * dt
    else:
        (cx, cy), (hx, hy) = TABLE_CENTER, TABLE_HALF
    keep, push, scale = samples is not None, tangent is not None, dt * k_drag
    if push:
        if np.shape(tangent) != (6, 2):
            raise ValueError(f"tangent must be 6x2, got shape {np.shape(tangent)}")
        (pxa, pxb), (pya, pyb), (pza, pzb), (ax, bx), (ay, by), (az, bz) = np.asarray(tangent, dtype=float).tolist()
        sax = say = saz = sbx = sby = sbz = 0.0  # sums of the columns' dv; dp moves by dt times them
    if keep and py <= y_keep:
        samples.extend((px, py, pz, vx, vy, vz))
    for n in range(max_steps):
        if land and vz <= vz_top and pz + dt * vz <= z_top:
            break
        speed = sqrt(vx * vx + vy * vy + vz * vz)
        if push:  # dv -= dt k |v| dv + (dt k / |v|) (v . dv) v, column a then column b
            damp, cross = scale * speed, scale / speed if speed > 0.0 else 0.0
            along = cross * (vx * ax + vy * ay + vz * az)
            sax, say, saz = sax + ax, say + ay, saz + az
            ax -= damp * ax + along * vx
            ay -= damp * ay + along * vy
            az -= damp * az + along * vz
            along = cross * (vx * bx + vy * by + vz * bz)
            sbx, sby, sbz = sbx + bx, sby + by, sbz + bz
            bx -= damp * bx + along * vx
            by -= damp * by + along * vy
            bz -= damp * bz + along * vz
        drag = k_drag * speed
        px += dt * vx
        py += dt * vy
        pz += dt * vz
        vx -= dt * (drag * vx)
        vy -= dt * (drag * vy)
        vz += dt * (-G_VERTICAL - drag * vz)
        if keep and py <= y_keep:
            samples.extend((px, py, pz, vx, vy, vz))
        if contact and (
            pz <= 0.0 or py <= y_stop or (pz <= z_plane and abs(px - cx) <= hx and abs(py - cy) <= hy)
        ):
            n += 1
            break
    else:
        n = max_steps
        if land and not (vz <= vz_top and pz + dt * vz <= z_top):
            raise no_landing(max_steps)
    stop = (px, py, pz, vx, vy, vz)
    if keep and not samples:
        samples.extend(stop)
    if not push:
        return stop, n, None
    columns = ((pxa + dt * sax, pya + dt * say, pza + dt * saz, ax, ay, az),
               (pxb + dt * sbx, pyb + dt * sby, pzb + dt * sbz, bx, by, bz))
    return stop, n, np.array(columns).T


def euler_landings(starts: np.ndarray, physics: Physics) -> tuple[np.ndarray, np.ndarray]:
    """`euler_flight(row, physics.k_drag, physics.dt, MAX_STEPS)` for
    each row of a (B, 6) array, in lockstep on (B,) arrays with the same
    arithmetic in the same order, until no row flies or MAX_STEPS. Returns (B, 6)
    stop states and (B,) step counts; a row still flying after MAX_STEPS has
    count -1 and keeps its start.
    """
    dt, k_drag, max_steps = physics.dt, float(physics.k_drag), MAX_STEPS
    vz_top = G_VERTICAL * dt
    z_top = Z_TABLE + 0.5 * G_VERTICAL * dt * dt
    stops = np.array(starts, dtype=float).reshape(-1, 6)
    steps = np.full(len(stops), -1)
    active = np.arange(len(stops))
    px, py, pz, vx, vy, vz = stops.T.copy()
    with np.errstate(all="ignore"):  # a non-finite row goes on as NaN, as in euler_flight
        for n in range(max_steps + 1):
            landed = (vz <= vz_top) & (pz + dt * vz <= z_top)
            if landed.any():
                stops[active[landed]] = np.column_stack((px, py, pz, vx, vy, vz))[landed]
                steps[active[landed]] = n
                flying = ~landed
                active = active[flying]
                px, py, pz, vx, vy, vz = (c[flying] for c in (px, py, pz, vx, vy, vz))
            if n == max_steps or not len(active):
                break
            drag = k_drag * np.sqrt(vx * vx + vy * vy + vz * vz)
            px += dt * vx
            py += dt * vy
            pz += dt * vz
            vx -= dt * (drag * vx)
            vy -= dt * (drag * vy)
            vz += dt * (-G_VERTICAL - drag * vz)
    return stops, steps


def landing_outcomes(starts: np.ndarray, physics: Physics) -> list:
    """Each row's landing point, as propagate_to_landing gives it, or the first failing row's
    SimulationError raised: the rows fly in euler_landings, then each one's final_step."""
    stops, steps = euler_landings(starts, physics)
    landings = []
    for k, stop in zip(steps.tolist(), stops.tolist()):
        if k < 0:
            raise no_landing(MAX_STEPS)
        landings.append(final_step(stop)[1])
    return landings


def no_landing(max_steps: int) -> MaxStepsExceeded:
    """The error of a flight still in the air after max_steps full steps."""
    return MaxStepsExceeded(f"no landing within {max_steps} steps")


def remaining_time(xi: np.ndarray) -> float:
    """Drag-free prediction of the time until the ball reaches the table plane."""
    vz = float(xi[5])
    pz = float(xi[2])
    disc = (vz / G_VERTICAL) ** 2 + 2.0 * (pz - Z_TABLE) / G_VERTICAL
    if disc < 0.0:
        raise NegativeDiscriminant(
            f"ball cannot reach the table plane: discriminant = {disc:.3e}"
        )
    return max(vz / G_VERTICAL + sqrt(disc), 0.0)


def remaining_time_gradient(xi: np.ndarray) -> np.ndarray:
    """Gradient of the remaining-time prediction with respect to the 6-state."""
    vz = float(xi[5])
    pz = float(xi[2])
    disc = (vz / G_VERTICAL) ** 2 + 2.0 * (pz - Z_TABLE) / G_VERTICAL
    if disc <= DISCRIMINANT_FLOOR:
        raise SingularGradient(f"discriminant {disc:.3e} at or below floor")
    s = sqrt(disc)
    grad = np.zeros(6)
    grad[2] = 1.0 / (G_VERTICAL * s)
    grad[5] = 1.0 / G_VERTICAL + vz / (G_VERTICAL**2 * s)
    return grad


def propagate_to_landing(
    xi_plus: np.ndarray, physics: Physics, tangent: np.ndarray | None = None
) -> LandingRecord:
    """Propagate a post-impact state until the ball reaches the table plane.

    Full steps of physics.dt, at most MAX_STEPS, are taken while the predicted
    remaining time exceeds dt; the last step (final_step) uses the (shortened)
    remaining time. Its Euler position update misses the plane by a
    sub-millimeter residual, so the landing point is linearly interpolated
    onto the plane along the last step. A ball that cannot reach the plane
    raises NegativeDiscriminant from the state the flight stopped at.
    A 6x2 `tangent` is pushed through the full steps (landing_state_jacobian).
    """
    xi = np.asarray(xi_plus, dtype=float).tolist()
    stop, k_max, pushed = euler_flight(xi, physics.k_drag, physics.dt, MAX_STEPS, tangent=tangent)
    t_last, landing = final_step(stop)
    return LandingRecord(k_max=k_max, t_last=t_last, landing_point=landing, stop=np.array(stop), tangent=pushed)


def final_step(stop) -> tuple[float, np.ndarray]:
    """The shortened last step from the stop state, in closed form: its length t_last
    and the (2,) landing point, where the step's position update p + t_last v is
    interpolated onto the plane (NegativeDiscriminant if it cannot be reached)."""
    px, py, pz, vx, vy, vz = stop
    t_last = remaining_time(stop)
    # Euler's position update leaves out the g t_last^2 / 2 drop that t_last solves for
    dz = (pz + t_last * vz) - pz
    frac = (Z_TABLE - pz) / dz if dz != 0.0 else 1.0
    return t_last, np.array((px + frac * ((px + t_last * vx) - px), py + frac * ((py + t_last * vy) - py)))


def landing_state_jacobian(record: LandingRecord) -> np.ndarray:
    """Sensitivity of the landing point to the post-impact state, applied to
    the 6x2 tangent given to propagate_to_landing: the 2x2 landing-point
    Jacobian (column pairs of the identity give the 2x6 one two columns at a time).

    The flight pushed the tangent through the full steps. The last step's
    position rows, with the state dependence of its length t_last, are
    [I | t_last I] + v (dt_last/dxi); this differentiates them and the
    interpolation onto the plane (its fraction follows the z row).
    """
    if record.tangent is None:
        raise ValueError("record carries no tangent: pass one to propagate_to_landing")
    start, t = record.stop, record.t_last
    j_q = np.hstack((np.eye(3), t * np.eye(3))) + np.outer(start[3:], remaining_time_gradient(start))
    delta = (start[:3] + t * start[3:]) - start[:3]
    w = delta[2]
    if w == 0.0:
        return j_q[:2] @ record.tangent
    u = Z_TABLE - start[2]
    s = u / w
    ds_dxi = ((u - w) * np.eye(6)[2] - u * j_q[2]) / w**2
    return (s * j_q[:2] + (1.0 - s) * np.eye(2, 6) + np.outer(delta[:2], ds_dxi)) @ record.tangent
