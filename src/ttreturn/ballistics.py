"""Discrete free flight of the ball with quadratic drag.

Explicit Euler steps of fixed length, terminated by a drag-free prediction of
the time left until the ball reaches the table plane; the final step is
shortened accordingly. Every full step of the package runs in one compiled
kernel, flight.c, in the kernel library built at import (load_kernel):
`euler_flight` flies one row, `euler_landings` a block of return flights;
every flight ends in the one closed-form last step, `final_step`. The
analytic Jacobian of the landing point pushes a tangent through the full
steps as the flight takes them, then differentiates the last step's position
rows; no per-step state is stored.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from dataclasses import dataclass
from math import inf, sqrt
from pathlib import Path

import numpy as np

from .errors import MaxStepsExceeded, NegativeDiscriminant, SingularGradient

# Gravity points along -z with this magnitude, in the flight and its drag-free drop prediction.
G_VERTICAL = 9.8  # [m/s^2]
Z_TABLE = 0.76  # [m] height of the table plane every flight lands on
TABLE_CENTER, TABLE_HALF = (-1.1, 0.25), (1.525 / 2.0, 2.74 / 2.0)  # [m] the table's footprint in the world frame

# Numerical thresholds of the flight kernels.
DISCRIMINANT_FLOOR = 1e-12    # below this the remaining-time gradient is singular


MAX_STEPS = 4000  # full steps a return flight may take before MaxStepsExceeded

# The kernel's build: no -ffast-math and no -march, and no contraction into fused
# multiply-adds, which would change the last bits on hosts that have them.
CC_COMMAND = ("cc", "-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")


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


def load_kernel() -> ctypes.CDLL:
    """The package's kernel library: every C source beside this module (flight.c,
    mlp.c), compiled by CC_COMMAND into one library once per sources and command.

    The library is cached beside the sources as __pycache__/kernel-<sha256 of the
    sorted sources and the command>.so, built under a temporary name and moved into
    place, and loaded with the argtypes of every entry declared. A build that fails
    raises ImportError with the command and the compiler's stderr.
    """
    sources = sorted(Path(__file__).parent.glob("*.c"))
    digest = hashlib.sha256(b"\0".join(s.name.encode() + b"\0" + s.read_bytes() for s in sources)
                            + "\0".join(CC_COMMAND).encode()).hexdigest()
    library = sources[0].parent / "__pycache__" / f"kernel-{digest}.so"
    if not library.exists():
        import subprocess  # only a build needs it, and it costs about 0.5 MB of memory

        library.parent.mkdir(exist_ok=True)
        partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
        command = [*CC_COMMAND, "-o", str(partial), *map(str, sources), "-lm"]
        try:
            built = subprocess.run(command, capture_output=True, text=True, errors="replace")
        except OSError as exc:
            raise ImportError(f"cannot build the kernel library: {' '.join(command)}: {exc}") from exc
        if built.returncode != 0:
            partial.unlink(missing_ok=True)
            raise ImportError(f"cannot build the kernel library: {' '.join(command)}\n{built.stderr}")
        os.replace(partial, library)
    kernel = ctypes.CDLL(str(library))
    doubles, c_double, c_int64 = ctypes.POINTER(ctypes.c_double), ctypes.c_double, ctypes.c_int64
    int64s, f64, i64, mutable = ctypes.POINTER(c_int64), np.float64, np.int64, "C_CONTIGUOUS, WRITEABLE"
    array = lambda dtype, ndim, flags="C_CONTIGUOUS": np.ctypeslib.ndpointer(dtype, ndim, flags=flags)
    kernel.ttr_flight.argtypes = (doubles, c_double, c_double, c_int64, c_double, c_double, doubles, c_double,
                                  doubles, c_int64, int64s, doubles)
    kernel.ttr_flight.restype = c_int64
    kernel.ttr_landings.argtypes = (array(f64, 2, mutable), c_int64, array(i64, 1, mutable),
                                    c_double, c_double, c_int64, c_double, c_double)
    kernel.ttr_landings.restype = None
    kernel.ttr_mlp.argtypes = (array(f64, 1), int64s, c_int64, array(f64, 1), doubles, doubles, doubles)
    kernel.ttr_mlp.restype = None
    kernel.ttr_adam_epoch.argtypes = (*[array(f64, 1, mutable)] * 3, int64s, int64s, c_int64, array(f64, 1),
                                      array(f64, 1), array(f64, 2), c_int64, c_int64, array(i64, 1), c_int64,
                                      array(f64, 1, mutable))
    kernel.ttr_adam_epoch.restype = None
    return kernel


KERNEL = load_kernel()
STATE, COLUMNS, CONTACT = ctypes.c_double * 6, ctypes.c_double * 12, ctypes.c_double * 5


def euler_flight(
    row, k_drag: float, dt: float, max_steps: int, y_stop: float | None = None,
    samples: list | None = None, y_keep: float = inf, tangent: np.ndarray | None = None,
) -> tuple[tuple, int, np.ndarray | None]:
    """Explicit Euler steps of the drag flight, in the compiled kernel (flight.c).

    The package's one flight loop. Returns the 6-tuple state it stopped at, the
    number of steps taken and the pushed tangent (or None). The stop rule is one of:

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
    6x2 `tangent` is pushed through the steps inside the loop on 12 doubles
    (ValueError for another shape): each step maps (dp, dv) to (dp + dt dv,
    dv - dt k (|v| dv + v (v . dv) / |v|)) with its own v, before the update.
    The buffers are sized from `max_steps`, so the kernel cannot write past them.
    """
    px, py, pz, vx, vy, vz = row
    state, push, kept = STATE(px, py, pz, vx, vy, vz), None, ctypes.c_int64(0)
    if tangent is not None:
        if np.shape(tangent) != (6, 2):
            raise ValueError(f"tangent must be 6x2, got shape {np.shape(tangent)}")
        push = COLUMNS(*np.asarray(tangent, dtype=float).T.ravel().tolist())
    contact = None if y_stop is None else CONTACT(y_stop, *TABLE_CENTER, *TABLE_HALF)
    # left uninitialised: the kernel writes each kept state before it is read, and zeroing
    # 6 (max_steps + 1) doubles would cost about a tenth of an aimed launch
    capacity = 6 * max_steps + 6
    kept_rows = None if samples is None else (ctypes.c_double * capacity).from_buffer(np.empty(capacity))
    n = KERNEL.ttr_flight(state, float(k_drag), dt, max_steps, G_VERTICAL, Z_TABLE, contact, y_keep,
                          kept_rows, capacity, kept, push)
    if samples is not None:
        samples.extend(kept_rows[:6 * kept.value])
    if n < 0:
        raise no_landing(max_steps)
    return tuple(state), n, None if push is None else np.array(push).reshape(2, 6).T


def euler_landings(starts: np.ndarray, physics: Physics) -> tuple[np.ndarray, np.ndarray]:
    """`euler_flight(row, physics.k_drag, physics.dt, MAX_STEPS)` for each row of a
    (B, 6) array, in one kernel call. Returns (B, 6) stop states and (B,) step
    counts; a row still flying after MAX_STEPS has count -1 and keeps its start.
    """
    stops = np.array(starts, dtype=float, order="C").reshape(-1, 6)
    steps = np.empty(len(stops), dtype=np.int64)
    KERNEL.ttr_landings(stops, len(stops), steps, float(physics.k_drag), physics.dt, MAX_STEPS, G_VERTICAL, Z_TABLE)
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
