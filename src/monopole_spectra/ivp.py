"""Adaptive classical RK4 for the small ODE problems in this package.

Step control by step doubling: one full step is compared against two half
steps to relative RTOL; the halved solution is kept (local extrapolation).
There is no amplitude renormalization: callers integrate quantities that stay
bounded (the regular solution through its allowed region, or a Riccati
log-derivative through an evanescent one).

The state is a tuple of Python floats and the right-hand side returns one; the
systems here have one or two components, for which numpy's per-call overhead
outweighs its arithmetic, so this module does not import numpy. Every
component is computed with the same operations, in the same order, as the
vector form y + (h/6)(k1 + 2 k2 + 2 k3 + k4). scipy.integrate is not used on
purpose: importing it pulls in scipy.optimize, sparse, spatial and special,
which costs about 0.3 s of start-up and some 20 MB of peak memory.
"""

from __future__ import annotations

import math


class IntegrationError(RuntimeError):
    pass


RTOL = 1e-11


def _rk4_step(f, t, y, h):
    hh = 0.5 * h
    k1 = f(t, y)
    k2 = f(t + hh, tuple([a + hh * b for a, b in zip(y, k1)]))
    k3 = f(t + hh, tuple([a + hh * b for a, b in zip(y, k2)]))
    k4 = f(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
    h6 = h / 6.0
    return tuple([a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])


def integrate(f, t0: float, t1: float, y0, max_step: float = 0.1, record_at=()):
    """Integrate y' = f(t, y) from t0 to t1 (either direction).

    `f(t, y)` takes and returns a tuple of floats. Returns (y_final, samples):
    y at t1 and the list of y values at the abscissae in `record_at` (sorted
    along the direction of travel; empty by default), all tuples.
    """
    y = tuple(map(float, y0))
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
            y_full = _rk4_step(f, t, y, step)
            y_half = _rk4_step(f, t, y, 0.5 * step)
            y_half = _rk4_step(f, t + 0.5 * step, y_half, 0.5 * step)
            diffs = [abs(a - b) for a, b in zip(y_half, y_full)]
            err = max(diffs) / (max(map(abs, y_half)) + 1e-300)
            # max() skips a NaN that is not in first place; a NaN difference
            # (sum(diffs) is then NaN too) must reject the step like a large one
            if err <= RTOL and not math.isnan(sum(diffs)):
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
