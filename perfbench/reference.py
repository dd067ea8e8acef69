"""A fixed reference kernel, sampled while untraced work runs.

On a shared host the same work can take up to 1.6x longer from one minute to
the next, so raw times of separate runs scatter widely. While a set-up or a
pass runs, a SIGALRM timer runs this kernel every `PERIOD_S` seconds in the
same thread and records how long it took. `at_reference_speed` rescales a
raw time by the kernel's nominal over its sampled duration: the time the
work would take at the speed where the kernel takes `REFERENCE_KERNEL_S`.
This cancels most of the host's swings.

The kernel mixes the kinds of work ttreturn spends its time on: a scalar
drag-flight Euler loop, per-step 6x6 Jacobian products and small-batch tanh
layers. It is the benchmark's own code, so no change to ttreturn moves it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025  # one sample per 25 ms of wall time; about 2-3% of a pass
# the kernel's mean duration on the machine the benchmark was written on
# (Intel Xeon, 2.1 GHz, Python 3.11.7, numpy 2.4.6) in its faster state
REFERENCE_KERNEL_S = 6e-4


def at_reference_speed(raw_s: float, samples: list[float]) -> float:
    """Raw seconds rescaled to the speed where the kernel takes REFERENCE_KERNEL_S."""
    return raw_s * REFERENCE_KERNEL_S / statistics.mean(samples)


class SpeedSampler:
    """Context manager that times the kernel on a wall-clock timer.

    `spent` is the time taken by the samples so far; `clock()` is
    `time.perf_counter()` minus `spent`, so phases timed with it exclude the
    sampling.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        rng = np.random.default_rng(0)
        self._eye = np.eye(6)
        self._batch = rng.uniform(-1.0, 1.0, (64, 4))
        self._weights = [rng.uniform(-0.5, 0.5, (4, 4)) for _ in range(4)]
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None
        self.kernel()  # first call pays one-off costs

    def kernel(self) -> float:
        k_drag, g_z, dt = 0.12, -9.8, 5e-4
        px, py, pz, vx, vy, vz = 0.0, 0.0, 1.0, -3.0, -4.0, 2.0
        rows = []
        for _ in range(60):
            speed = math.sqrt(vx * vx + vy * vy + vz * vz)
            ax, ay, az = -k_drag * speed * vx, -k_drag * speed * vy, -k_drag * speed * vz + g_z
            px, py, pz = px + dt * vx, py + dt * vy, pz + dt * vz
            vx, vy, vz = vx + dt * ax, vy + dt * ay, vz + dt * az
            rows.append((px, py, pz, vx, vy, vz))
        states = np.array(rows)

        eye, product = self._eye, self._eye
        for k in range(0, 60, 3):
            v = states[k, 3:]
            speed = float(np.linalg.norm(v))
            step = eye.copy()
            step[0:3, 3:6] = dt * eye[:3, :3]
            step[3:6, 3:6] = eye[:3, :3] - dt * k_drag * (speed * eye[:3, :3] + np.outer(v, v) / speed)
            product = step @ product

        a = self._batch
        for w in self._weights:
            a = np.tanh(a @ w.T + 0.1)
        grad = (a - 0.5) / len(a)
        for w in reversed(self._weights):
            grad = (grad @ w) * (1.0 - a ** 2)
        return float(product[0, 0]) + float(grad.sum())

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # work shorter than one period still gets a sample
            self._sample(None, None)
