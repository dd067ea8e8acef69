"""Approximate online projected gradient descent over interception policies."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .arm import InterceptionPolicy
from .errors import AbortedRun, MissedBall, NonFiniteStep
from .metrics import MetricsState

CSV_HEADER = "iter,theta1,theta4,land_x,land_y,alpha,loss,eps,sigma,rbar_x,rbar_y"
FAILURE_CAP = 20  # more consecutive missed balls than this abort a run


def cell(v) -> str:
    """A CSV cell: a str as is, any other value (also an integer) with 9 significant digits."""
    return v if isinstance(v, str) else f"{v:.9g}"


def csv_artifact(path, comments, columns: str, rows, footer=()) -> None:
    """Write a CSV artifact, in a directory made if missing: its `# ` comment lines, its
    column line, one line of cells per row and its `# ` footer lines. The rows are
    written as they are drawn, so a row iterator that raises leaves the rows before."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as f:
        f.writelines(f"# {line}\n" for line in comments)
        f.write(columns + "\n")
        f.writelines(",".join(map(cell, row)) + "\n" for row in rows)
        f.writelines(f"# {line}\n" for line in footer)


@dataclass
class FeasibleSet:
    """Box of joint-angle limits for the policy."""

    theta1_bounds: tuple[float, float]
    theta4_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        for lo, hi in (self.theta1_bounds, self.theta4_bounds):
            if not lo < hi:
                raise ValueError("bounds must satisfy lower < upper")

    def contains(self, phi: InterceptionPolicy) -> bool:
        return (
            self.theta1_bounds[0] <= phi.theta1 <= self.theta1_bounds[1]
            and self.theta4_bounds[0] <= phi.theta4 <= self.theta4_bounds[1]
        )


def project(phi: InterceptionPolicy, k: FeasibleSet) -> InterceptionPolicy:
    """Closed-form metric projection onto the feasible box."""
    t1 = min(max(phi.theta1, k.theta1_bounds[0]), k.theta1_bounds[1])
    t4 = min(max(phi.theta4, k.theta4_bounds[0]), k.theta4_bounds[1])
    return InterceptionPolicy(theta1=t1, theta4=t4)


def gd_update(
    phi: InterceptionPolicy,
    r_landing: np.ndarray,
    r_target: np.ndarray,
    jac: np.ndarray,
    alpha: float,
    k: FeasibleSet,
) -> InterceptionPolicy:
    """One projected gradient step using the predictor Jacobian as Part 1
    and the observed landing error as Part 2: alpha J^T e on plain floats, each
    sum in row order."""
    ex, ey = (np.asarray(r_landing, dtype=float) - np.asarray(r_target, dtype=float)).tolist()
    (j11, j14), (j21, j24) = np.asarray(jac, dtype=float).tolist()
    return project(InterceptionPolicy(theta1=phi.theta1 - alpha * (j11 * ex + j21 * ey),
                                      theta4=phi.theta4 - alpha * (j14 * ex + j24 * ey)), k)


@dataclass
class IterationRecord:
    i: int
    phi: InterceptionPolicy
    r_landing: np.ndarray
    alpha: float
    loss: float
    eps: float
    sigma: float
    r_bar: np.ndarray


@dataclass
class RunLog:
    """Per-iteration log of one online run and its count of missed balls."""

    records: list[IterationRecord] = field(default_factory=list)
    n_failures: int = 0

    def to_csv(self, path, comments: tuple[str, ...]) -> None:
        """Write the log after the `comments` (the run's provenance) and its failures= line."""
        csv_artifact(path, (*comments, f"failures={self.n_failures}"), CSV_HEADER, (
            (str(r.i), r.phi.theta1, r.phi.theta4, *r.r_landing.tolist(), r.alpha, r.loss, r.eps, r.sigma,
             *r.r_bar.tolist()) for r in self.records))


def run_online(
    env,
    gradient,
    r_target,
    phi1: InterceptionPolicy,
    n_iters: int,
    alpha1: float,
    k: FeasibleSet,
    seed: int = 0,
) -> RunLog:
    """Run the online loop: intercept, observe, projected gradient step.

    `env` is a callable (phi, rng) -> (r_landing, event) that may raise
    a MissedBall error; a miss is retried with a fresh launch and no policy
    update, and more than FAILURE_CAP = 20 misses in a row raise AbortedRun with
    the log so far. gradient(phi, event) gives the predictor's 2x2 Jacobian
    at the env's interception event; iteration i steps alpha1 / sqrt(i). A non-finite
    landing or Jacobian raises NonFiniteStep before the metrics or gradient see it.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if alpha1 <= 0:
        raise ValueError("alpha1 must be > 0")
    if not k.contains(phi1):
        raise ValueError("initial policy outside the feasible set")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r_target = np.asarray(r_target, dtype=float)
    metrics = MetricsState(r_target)
    log = RunLog()

    phi = phi1
    for i in range(1, n_iters + 1):
        consecutive = 0
        while True:
            try:
                r_landing, event = env(phi, rng)
                break
            except MissedBall:
                consecutive += 1
                log.n_failures += 1
                if consecutive > FAILURE_CAP:
                    raise AbortedRun(f"{consecutive} consecutive missed balls at iteration {i}", log)

        if not all(map(math.isfinite, np.ravel(r_landing).tolist())):
            raise NonFiniteStep(f"iteration {i}: r_landing is not finite: {np.ravel(r_landing)}")
        r_bar, eps, sigma = metrics.update(r_landing)
        alpha = alpha1 / math.sqrt(i)
        loss = 0.5 * float(np.sum((r_landing - r_target) ** 2))
        log.records.append(
            IterationRecord(
                i=i,
                phi=phi,
                r_landing=np.asarray(r_landing, dtype=float),
                alpha=alpha,
                loss=loss,
                eps=eps,
                sigma=sigma,
                r_bar=r_bar,
            )
        )
        jac = gradient(phi, event)
        if not all(map(math.isfinite, np.ravel(jac).tolist())):
            raise NonFiniteStep(f"iteration {i}: jac is not finite: {np.ravel(jac)}")
        phi = gd_update(phi, r_landing, r_target, jac, alpha, k)
    return log
