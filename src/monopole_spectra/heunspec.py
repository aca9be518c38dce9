"""Criterion 10's disc residual for the even channels' Heun parameter sets.

`radial.heun_params` builds the sets; this module only measures how well the
local Heun series solves its ODE on a disc around z = 0. It keeps its own
name because the benchmark tracer names `heunspec.heun_residual_on_disc`;
ROADMAP item 6 moves it with the benchmark.
"""

from __future__ import annotations

import numpy as np

from .core import worst_of
from .specfun import heun_ode_residuals

_DISC_Z = tuple(np.concatenate([np.linspace(-0.8, -0.02, 30), np.linspace(0.02, 0.8, 30)]).tolist())


def heun_residual_on_disc(params) -> list[float]:
    """For each parameter set of `params`, the max relative ODE residual of
    the local Heun series over 60 points on [-0.8, 0.8] avoiding 0; all sets
    and points are summed in one pass."""
    return [worst_of([0.0, *residuals]) for residuals in heun_ode_residuals(params, _DISC_Z)]
