"""Shared fixtures and the independent fine-step reference integrator."""

import copy

import numpy as np
import pytest

from ttreturn.env import EnvConfig
from ttreturn.greybox import GreyboxParams
from ttreturn.harness import nominal_trajectory


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


@pytest.fixture(scope="session")
def env_cfg() -> EnvConfig:
    return EnvConfig()


@pytest.fixture(scope="session")
def noiseless_env_cfg(env_cfg) -> EnvConfig:
    cfg = copy.deepcopy(env_cfg)
    cfg.landing_noise_std = np.zeros(2)
    cfg.launcher.jitter_std = np.zeros(6)
    return cfg


@pytest.fixture(scope="session")
def nominal_traj(env_cfg):
    return nominal_trajectory(env_cfg)


@pytest.fixture(scope="session")
def greybox_params() -> GreyboxParams:
    return GreyboxParams()
