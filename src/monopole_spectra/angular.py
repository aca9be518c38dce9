"""Wigner small-d functions and the theta-recurrences used to separate variables.

The angular basis is D^j_{-m,sigma}(phi, theta, 0); only the theta-dependent
small-d factor matters here because the phi phases cancel within every
identity checked. d-functions are evaluated by the explicit factorial sum
with log-factorial stabilization, adequate up to j ~ 20.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import HalfInt, QuantumNumberError, as_half_integer, couplings, j_is_allowed


def _lf(n: int) -> float:
    return math.lgamma(n + 1)


def _d_terms(j2: int, m12: int, m22: int):
    """Yield (sign, log_coeff, cos_power, sin_power) of the Jacobi sum terms."""
    jp1 = (j2 + m12) // 2
    jm1 = (j2 - m12) // 2
    jp2 = (j2 + m22) // 2
    jm2 = (j2 - m22) // 2
    pref = 0.5 * (_lf(jp1) + _lf(jm1) + _lf(jp2) + _lf(jm2))
    kmin = max(0, (m22 - m12) // 2)
    kmax = min(jp2, jm1)
    base_sign = (m12 - m22) // 2
    for k in range(kmin, kmax + 1):
        den = _lf(jp2 - k) + _lf(k) + _lf(jm1 - k) + _lf((m12 - m22) // 2 + k)
        sign = -1.0 if (base_sign + k) % 2 else 1.0
        ncos = jp2 + jm1 - 2 * k
        nsin = 2 * k + (m12 - m22) // 2
        yield sign, pref - den, ncos, nsin


def _d_sums(j2: int, m12: int, m22: int, c, s):
    """(d^j_{m1,m2}, its theta-derivative) on doubled in-range indices, from
    c = cos(theta/2) and s = sin(theta/2). The derivative differentiates the
    sum term by term, a route independent of the recurrences it checks."""
    tot = np.zeros_like(c)
    der = np.zeros_like(c)
    for sign, lg, p, q in _d_terms(j2, m12, m22):
        coeff = sign * np.exp(lg)
        tot = tot + coeff * c**p * s**q
        if q > 0:
            der = der + coeff * (q / 2.0) * c ** (p + 1) * s ** (q - 1)
        if p > 0:
            der = der - coeff * (p / 2.0) * c ** (p - 1) * s ** (q + 1)
    return tot, der


class _Grid(NamedTuple):
    """A theta grid with the trigonometric arrays every row and residual reads."""

    zero: np.ndarray
    cos_half: np.ndarray
    sin_half: np.ndarray
    cos_t: np.ndarray
    sin_t: np.ndarray


def _theta_grid(theta_grid) -> _Grid:
    th = np.asarray(theta_grid, dtype=float)
    if th.size == 0 or th.min() <= 0.0 or th.max() >= math.pi:
        raise ValueError("theta grid must be interior to (0, pi)")
    return _Grid(np.zeros_like(th), np.cos(th / 2.0), np.sin(th / 2.0), np.cos(th), np.sin(th))


def _d_row(j2: int, row2: int, grid: _Grid) -> tuple[list, list]:
    """d^j_{row,sigma} and its theta-derivative for sigma = -j..j, at list
    index (j2 + sigma2) // 2; one row serves every k at this (j, m)."""
    pairs = [_d_sums(j2, row2, s2, grid.cos_half, grid.sin_half) for s2 in range(-j2, j2 + 1, 2)]
    return [v for v, _ in pairs], [d for _, d in pairs]


def _coefficients(jf: Fraction, kf: Fraction) -> tuple[float, float, float, float]:
    """(a, b, c, d) at admissible (j, k); the minimum-j channel keeps a or b only."""
    if jf >= abs(kf):
        return couplings(jf, kf)
    # j = |k| - 1: only the sigma = k-1 (or k+1 for k < 0) row survives
    a = math.sqrt(float((jf + kf - 1) * (jf - kf + 2))) / 2.0 if jf + kf >= 1 else 0.0
    b = math.sqrt(float((jf - kf - 1) * (jf + kf + 2))) / 2.0 if jf - kf >= 1 else 0.0
    return a, b, 0.0, 0.0


def _recurrence_residual(j2: int, k2: int, m2: int, coeffs, row, grid: _Grid) -> float:
    """Worst residual of the six identities at (j, k, m), on doubled indices,
    from the (j, m) row of d^j_{-m,sigma} values and derivatives."""
    a, b, c, d = coeffs
    vals, ders = row

    def dval(s2):
        return vals[(j2 + s2) // 2] if abs(s2) <= j2 else grid.zero

    worst = 0.0
    rows = ((k2 - 2, a, k2 - 4, c, k2), (k2, c, k2 - 2, d, k2 + 2), (k2 + 2, d, k2, b, k2 + 4))
    for s2, lo_coeff, lo2, hi_coeff, hi2 in rows:
        if abs(s2) > j2:  # j and k share parity, so an in-range sigma is a valid index
            continue
        lhs_d = ders[(j2 + s2) // 2]
        lhs_m = (-(m2 / 2) - s2 / 2 * grid.cos_t) / grid.sin_t * dval(s2)
        lo = lo_coeff * dval(lo2)
        hi = hi_coeff * dval(hi2)
        worst = max(worst, float(np.max(np.abs(lhs_d - (lo - hi)))))
        worst = max(worst, float(np.max(np.abs(lhs_m - (-lo - hi)))))
    return worst


def check_recurrences(j: HalfInt, k: HalfInt, m: HalfInt, theta_grid) -> float:
    """Worst absolute residual of the six theta-recurrences at (j, k, m).

    The identities, with D_sigma = d^j_{-m,sigma}(theta) and couplings
    (a, b, c, d) from the shared coupling coefficients, are

        dD_{k-1}/dth = a D_{k-2} - c D_k
        (-m-(k-1)cos th)/sin th * D_{k-1} = -a D_{k-2} - c D_k
        dD_k/dth     = c D_{k-1} - d D_{k+1}
        (-m-k cos th)/sin th * D_k       = -c D_{k-1} - d D_{k+1}
        dD_{k+1}/dth = d D_k - b D_{k+2}
        (-m-(k+1)cos th)/sin th * D_{k+1} = -d D_k - b D_{k+2}

    Identities whose left-hand index falls outside |sigma| <= j are vacuous
    and skipped; coefficients multiplying out-of-range functions vanish. The
    minimum-j channel (j = |k| - 1) reduces to the first pair with c = 0.
    """
    jf = as_half_integer(j, "j")
    kf = as_half_integer(k, "k")
    mf = as_half_integer(m, "m")
    if not j_is_allowed(jf, kf):
        raise QuantumNumberError(f"(j, k) = ({jf}, {kf}) not admissible")
    if abs(mf) > jf or (jf - mf).denominator != 1:
        raise QuantumNumberError(f"m = {mf} invalid for j = {jf}")
    grid = _theta_grid(theta_grid)
    j2, k2, m2 = int(2 * jf), int(2 * kf), int(2 * mf)
    return _recurrence_residual(j2, k2, m2, _coefficients(jf, kf), _d_row(j2, -m2, grid), grid)


def scan_recurrences(j: HalfInt, theta_grid) -> tuple[float, int]:
    """The worst `check_recurrences` residual over every admissible (k, m)
    at one j, and the number of (k, m) pairs checked.

    Each (j, m) row of d-functions and derivatives is built once and shared
    by every k, so the result equals the maximum of the per-triple checks
    bit for bit."""
    jf = as_half_integer(j, "j")
    if jf < 0:
        raise QuantumNumberError(f"j = {jf} must be non-negative")
    grid = _theta_grid(theta_grid)
    j2 = int(2 * jf)
    charges = [
        (k2, _coefficients(jf, Fraction(k2, 2)))
        for k2 in range(-j2 - 2, j2 + 3, 2)  # j >= |k| - 1 bounds |k| by j + 1
        if j_is_allowed(jf, Fraction(k2, 2))
    ]
    worst = 0.0
    for m2 in range(-j2, j2 + 1, 2):
        row = _d_row(j2, -m2, grid)
        for k2, coeffs in charges:
            worst = max(worst, _recurrence_residual(j2, k2, m2, coeffs, row, grid))
    return worst, len(charges) * (j2 + 1)
