import math

import numpy as np
import pytest

from mildsolve import Control, StateVector, TrajectoryGrid
from mildsolve.cli import build_system
from mildsolve.config import RunConfig


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_trajectory(rng, n_t, dim, scale=1.0, T=1.0, norm_kind=2):
    states = scale * rng.standard_normal((n_t + 1, dim))
    return TrajectoryGrid(T, states, norm_kind)


def constant_control(value, n_t, T=1.0, channels=1):
    return Control(T, np.full((channels, n_t), float(value)))


def diagnostic_system(dim, xi0_scale=0.02, p=1.0):
    """The diagnostic's heat system in dimension `dim` (eigenvalues -k^2,
    identity bilinear field), built by `build_system` as `reachset` builds it:
    (semigroup, fields, certificate for the ball |u|_p <= 1 on [0, 1]), and
    the constant initial state of 2-norm `xi0_scale`."""
    cfg = RunConfig.from_dict({
        "system": {"semigroup": {"kind": "heat", "dim": dim},
                   "fields": [{"kind": "bilinear", "identity": True}]},
        "control": {"p": p}})
    sg, fields, cert = build_system(cfg, dim)
    return sg, fields, cert, StateVector(np.full(dim, xi0_scale / math.sqrt(dim)))


def scalar_state(value, norm_kind=2):
    return StateVector([float(value)], norm_kind)
