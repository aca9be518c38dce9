"""Wigner small-d functions and the theta-recurrences used to separate variables.

The angular basis is D^j_{-m,sigma}(phi, theta, 0); only the theta-dependent
small-d factor matters here because the phi phases cancel within every
identity checked. The d-functions come from the explicit factorial sum
(Varshalovich, Moskalev & Khersonskii, *Quantum Theory of Angular Momentum*,
1988) with log-factorial coefficients, built as one (m1, m2) table per j.
Cancellation in the alternating sum grows with j: on criterion 3's 50-point
grid (0.03 <= theta <= pi - 0.03) the worst recurrence residual is 1.5e-13
at j = 6, 2.4e-12 at j = 10, 9.0e-11 at j = 15 and 6.8e-9 at j = 20, the
last above the criterion's 1e-10 gate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import HalfInt, QuantumNumberError, as_half_integer, couplings, j_is_allowed, worst_of


def _d_table(j2: int, c, s, rows) -> tuple[np.ndarray, np.ndarray]:
    """d^j_{m1,m2} and its theta-derivative for m2 = -j..j and each j + m1
    of the integer array `rows`, as arrays of shape (len(rows), 2j+1, len(c))
    indexed by (row, j + m2), from 1-D arrays c = cos(theta/2) and
    s = sin(theta/2). Every term of every element's factorial sum is laid
    out at once; the sums then run one term index t at a time over the
    elements that have a term t, so each element sees the operations of a
    sum over its own terms, in the same order. The derivative differentiates
    the sum term by term, a route independent of the recurrences it checks."""
    lf = np.array([math.lgamma(n + 1) for n in range(j2 + 1)])
    jp1, jp2 = np.meshgrid(rows, np.arange(j2 + 1), indexing="ij")
    ts = np.arange(j2 + 1)[:, None]  # the sum runs over max(0, m2 - m1) <= t <= min(j + m2, j - m1)
    t, e = np.nonzero((np.maximum(0, jp2 - jp1).ravel() <= ts) & (ts <= np.minimum(jp2, j2 - jp1).ravel()))
    a, b = jp1.ravel()[e], jp2.ravel()[e]
    diff = a - b  # m1 - m2
    pref = 0.5 * (lf[a] + lf[j2 - a] + lf[b] + lf[j2 - b])
    den = lf[b - t] + lf[t] + lf[j2 - a - t] + lf[diff + t]
    coeff = np.where((diff + t) % 2, -1.0, 1.0) * np.exp(pref - den)
    p, q = b + (j2 - a) - 2 * t, 2 * t + diff  # cos(theta/2) and sin(theta/2) exponents, p + q = 2j
    c_pow = np.stack([c**n for n in range(j2 + 2)])  # one scalar-exponent power per exponent
    s_pow = np.stack([s**n for n in range(j2 + 2)])
    tot = np.zeros((jp1.size, len(c)))
    der = np.zeros_like(tot)
    up, down = q > 0, p > 0
    # (sum, element, factor, exponents, term index) of each update; adding the negated
    # factor's product is bit for bit the subtraction of the derivative's p > 0 part
    updates = [(tot, e, coeff, p, q, t),
               (der, e[up], (coeff * (q / 2.0))[up], p[up] + 1, q[up] - 1, t[up]),
               (der, e[down], -(coeff * (p / 2.0))[down], p[down] - 1, q[down] + 1, t[down])]
    bounds = [np.searchsorted(tu, np.arange(j2 + 2)) for *_, tu in updates]
    for n in range(j2 + 1):  # each t is non-decreasing, so term index n is one slice of each update
        for (out, eu, fu, pu, qu, _), bu in zip(updates, bounds):
            i = slice(bu[n], bu[n + 1])
            out[eu[i]] = out[eu[i]] + fu[i, None] * c_pow[pu[i]] * s_pow[qu[i]]
    return tot.reshape(jp1.shape + c.shape), der.reshape(jp1.shape + c.shape)


class _Grid(NamedTuple):
    """A theta grid with the trigonometric arrays every table and residual reads."""

    cos_half: np.ndarray
    sin_half: np.ndarray
    cos_t: np.ndarray
    sin_t: np.ndarray


def _theta_grid(theta_grid) -> _Grid:
    th = np.asarray(theta_grid, dtype=float).ravel()
    if th.size == 0 or not np.all((th > 0.0) & (th < math.pi)):  # a NaN fails both comparisons
        raise ValueError("theta grid must be finite and interior to (0, pi)")
    return _Grid(np.cos(th / 2.0), np.sin(th / 2.0), np.cos(th), np.sin(th))


def _coefficients(jf: Fraction, kf: Fraction) -> tuple[float, float, float, float]:
    """(a, b, c, d) at admissible (j, k); the minimum-j channel keeps a or b only."""
    if jf >= abs(kf):
        return couplings(jf, kf)
    # j = |k| - 1: only the sigma = k-1 (or k+1 for k < 0) row survives
    a = math.sqrt(float((jf + kf - 1) * (jf - kf + 2))) / 2.0 if jf + kf >= 1 else 0.0
    b = math.sqrt(float((jf - kf - 1) * (jf + kf + 2))) / 2.0 if jf - kf >= 1 else 0.0
    return a, b, 0.0, 0.0


def _worst_residual(j2: int, charges: list[tuple], m2: np.ndarray, grid: _Grid) -> float:
    """The worst residual of the identities of `check_recurrences` at every
    (k2, coefficients) of `charges` and every doubled m of `m2`, from one
    d-table. Pair sigma reads dD_sigma/dth = lo D_{sigma-1} - hi D_{sigma+1}
    and (-m - sigma cos th)/sin th * D_sigma = -lo D_{sigma-1} - hi D_{sigma+1};
    all are taken at once on arrays (m, pair, theta), each element with the
    arithmetic of one identity at one (k, m). A NaN anywhere gives NaN."""
    pairs = [(s2, lo, hi) for k2, (a, b, c, d) in charges
             for s2, lo, hi in ((k2 - 2, a, c), (k2, c, d), (k2 + 2, d, b))
             if abs(s2) <= j2]  # j and k share parity, so an in-range sigma is an index
    s2, lo, hi = (np.array(col) for col in zip(*pairs))
    # rows d^j_{-m,sigma}, with zero columns for sigma = -j-1 and j+1 either side
    vals, ders = (np.pad(table, ((0, 0), (1, 1), (0, 0)))
                  for table in _d_table(j2, grid.cos_half, grid.sin_half, (j2 - m2) // 2))
    at = (j2 + s2) // 2 + 1  # the column of D_sigma
    lo = lo[:, None] * vals[:, at - 1]
    hi = hi[:, None] * vals[:, at + 1]
    lhs_m = (-(m2 / 2)[:, None, None] - (s2 / 2)[:, None] * grid.cos_t) / grid.sin_t * vals[:, at]
    return worst_of([float(np.max(np.abs(ders[:, at] - (lo - hi)))), float(np.max(np.abs(lhs_m - (-lo - hi))))])


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
    return _worst_residual(j2, [(k2, _coefficients(jf, kf))], np.array([m2]), grid)


def scan_recurrences(j: HalfInt, theta_grid) -> tuple[float, int]:
    """The worst `check_recurrences` residual over every admissible (k, m)
    at one j, and the number of (k, m) pairs checked.

    The j's d-table is built once, and the identities of every (k, m) are
    evaluated at once with the per-triple arithmetic, so the result equals
    the maximum of the per-triple checks bit for bit."""
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
    return _worst_residual(j2, charges, np.arange(-j2, j2 + 1, 2), grid), len(charges) * (j2 + 1)
