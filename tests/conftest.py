"""Shared fixtures, the independent fine-step reference integrator and a run-CSV reader."""

import copy
import sys

import numpy as np
import pytest

from ttreturn.arm import InterceptionPolicy
from ttreturn.env import EnvConfig
from ttreturn.harness import nominal_trajectory
from ttreturn.optimizer import CSV_HEADER, IterationRecord, RunLog


def fine_step_landing(xi_plus: np.ndarray, k_drag: float, z_table: float, dt: float = 1e-5):
    """Reference landing point: plain Euler at a fine step, written without
    reusing any library propagation code, with linear interpolation onto the
    table plane, from the post-impact 6-state xi_plus."""
    g = np.array([0.0, 0.0, -9.8])
    p = np.array(xi_plus[:3], dtype=float)
    v = np.array(xi_plus[3:], dtype=float)
    prev = np.concatenate([p, v])
    t = 0.0
    while t < 30.0:
        a = -k_drag * np.linalg.norm(v) * v + g
        p = p + dt * v
        v = v + dt * a
        t += dt
        cur = np.concatenate([p, v])
        if p[2] <= z_table and v[2] < 0.0:
            s = (z_table - prev[2]) / (cur[2] - prev[2])
            return (prev + s * (cur - prev))[:2]
        prev = cur
    raise AssertionError("reference integration did not land")


def read_run_csv(path) -> tuple[RunLog, dict[str, str]]:
    """Parse a run CSV written by RunLog.to_csv back into a RunLog and its
    provenance lines ({"seed": ..., "config": ...})."""
    provenance, records = {}, []
    with open(path) as f:
        for line in f.read().splitlines():
            if line.startswith("# "):
                key, value = line[2:].split("=", 1)
                provenance[key] = value
            elif line != CSV_HEADER:
                i, t1, t4, lx, ly, alpha, loss, eps, sigma, bx, by = line.split(",")
                records.append(IterationRecord(
                    i=int(i), phi=InterceptionPolicy(float(t1), float(t4)),
                    r_landing=np.array([float(lx), float(ly)]), alpha=float(alpha), loss=float(loss),
                    eps=float(eps), sigma=float(sigma), r_bar=np.array([float(bx), float(by)]),
                ))
    return RunLog(records, n_failures=int(provenance.pop("failures"))), provenance


@pytest.fixture(scope="session")
def env_cfg() -> EnvConfig:
    return EnvConfig()


@pytest.fixture(scope="session")
def noiseless_env_cfg(env_cfg) -> EnvConfig:
    cfg = copy.deepcopy(env_cfg)
    cfg.landing_noise_std = np.zeros(2)
    cfg.jitter_std = np.zeros(6)
    return cfg


@pytest.fixture(scope="session")
def nominal_traj(env_cfg):
    return nominal_trajectory(env_cfg)


@pytest.fixture
def zero_yaw_rate(monkeypatch):
    """THETA1_DOT = 0 in every ttreturn module that binds it: the racket stands still at impact."""
    for name, module in list(sys.modules.items()):
        if name.startswith("ttreturn") and hasattr(module, "THETA1_DOT"):
            monkeypatch.setattr(module, "THETA1_DOT", 0.0)
