"""Adaptive classical RK4 for the small ODE problems in this package.

Step control by step doubling: one full step is compared against two half
steps to relative RTOL; the halved solution is kept (local extrapolation).
There is no amplitude renormalization: callers integrate quantities that stay
bounded (the regular solution through its allowed region, or a Riccati
log-derivative through an evanescent one).

The state is a tuple of Python floats and the right-hand side returns one; the
systems here have one or two components, for which numpy's per-call overhead
outweighs its arithmetic, so this module does not import numpy. The step is
written out for exactly those two sizes, and every component is computed with
the same operations, in the same order, as the vector form
y + (h/6)(k1 + 2 k2 + 2 k3 + k4). The full step and the first half step start
from the same f(t, y), so an attempted step costs 11 evaluations of f, not 12.
scipy.integrate is not used on purpose: importing it pulls in scipy.optimize,
sparse, spatial and special, which costs about 0.3 s of start-up and some
20 MB of peak memory.
"""

from __future__ import annotations

import math


class IntegrationError(RuntimeError):
    pass


RTOL = 1e-11


def _rk4_1(f, t, y, k1, h):
    """One classical RK4 step of size h for a one-component state, given k1 = f(t, y)."""
    (a,), (b1,) = y, k1
    hh = 0.5 * h
    (b2,) = f(t + hh, (a + hh * b1,))
    (b3,) = f(t + hh, (a + hh * b2,))
    (b4,) = f(t + h, (a + h * b3,))
    h6 = h / 6.0
    return (a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),)


def _rk4_2(f, t, y, k1, h):
    """One classical RK4 step of size h for a two-component state, given k1 = f(t, y)."""
    (a, c), (b1, d1) = y, k1
    hh = 0.5 * h
    b2, d2 = f(t + hh, (a + hh * b1, c + hh * d1))
    b3, d3 = f(t + hh, (a + hh * b2, c + hh * d2))
    b4, d4 = f(t + h, (a + h * b3, c + h * d3))
    h6 = h / 6.0
    return (a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4), c + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4))


def _doubled_step_1(f, t, y, h):
    """RK4 over [t, t + h] as two half steps, for a one-component state, and
    its relative difference from one full step; the full step and the first
    half step share f(t, y). A NaN difference gives a NaN error."""
    k1 = f(t, y)
    (full,) = _rk4_1(f, t, y, k1, h)
    half = _rk4_1(f, t, y, k1, 0.5 * h)
    half = _rk4_1(f, t + 0.5 * h, half, f(t + 0.5 * h, half), 0.5 * h)
    return half, abs(half[0] - full) / (abs(half[0]) + 1e-300)


def _doubled_step_2(f, t, y, h):
    """`_doubled_step_1` for a two-component state: the error is the largest
    componentwise difference over the largest component, or NaN if either
    difference is NaN."""
    k1 = f(t, y)
    full = _rk4_2(f, t, y, k1, h)
    half = _rk4_2(f, t, y, k1, 0.5 * h)
    half = _rk4_2(f, t + 0.5 * h, half, f(t + 0.5 * h, half), 0.5 * h)
    d0, d1 = abs(half[0] - full[0]), abs(half[1] - full[1])
    # max() passes over a NaN in second place; it must reject the step like a large difference
    if math.isnan(d0 + d1):
        return half, math.nan
    return half, max(d0, d1) / (max(abs(half[0]), abs(half[1])) + 1e-300)


_DOUBLED_STEPS = {1: _doubled_step_1, 2: _doubled_step_2}


def integrate(f, t0: float, t1: float, y0, max_step: float = 0.1, record_at=()):
    """Integrate y' = f(t, y) from t0 to t1 (either direction).

    `f(t, y)` takes and returns a tuple of floats. Returns (y_final, samples):
    y at t1 and the list of y values at the abscissae in `record_at` (sorted
    along the direction of travel; empty by default), all tuples.
    """
    y = tuple(map(float, y0))
    if len(y) not in _DOUBLED_STEPS:
        raise ValueError(f"the state must have one or two components, got {len(y)}")
    doubled_step = _DOUBLED_STEPS[len(y)]
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    h = direction * min(max_step, max(abs(t1 - t0) * 1e-3, 1e-8))
    samples: list[tuple] = []

    def advance_to(t_target):
        nonlocal t, y, h
        while (t_target - t) * direction > 1e-14 * max(1.0, abs(t_target)):
            step = h
            if (t + step - t_target) * direction > 0:
                step = t_target - t
            y_half, err = doubled_step(f, t, y, step)
            if err <= RTOL:
                t += step
                y = y_half
                if err < 0.1 * RTOL:
                    h = direction * min(abs(h) * 1.6, max_step)
            else:
                h *= 0.5
                if abs(h) < 1e-14:
                    raise IntegrationError(f"step size underflow at t = {t}")

    for t_rec in record_at:
        advance_to(float(t_rec))
        samples.append(y)
    advance_to(float(t1))
    return y, samples
