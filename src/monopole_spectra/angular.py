"""Wigner small-d functions and the theta-recurrences used to separate variables.

The angular basis is D^j_{-m,sigma}(phi, theta, 0); only the theta-dependent
small-d factor matters here because the phi phases cancel within every
identity checked. d-functions are evaluated by the explicit factorial sum
with log-factorial stabilization, adequate up to j ~ 20.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import HalfInt, QuantumNumberError, as_half_integer, couplings, j_is_allowed


def _doubled(x: HalfInt) -> int:
    return int(as_half_integer(x) * 2)


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


def small_d(j: HalfInt, m1: HalfInt, m2: HalfInt, theta):
    """d^j_{m1,m2}(theta) = <j m1| exp(-i theta J_y) |j m2>.

    theta may be a scalar or an ndarray. Out-of-range (|m| > j) or
    wrong-parity indices return 0, which is the natural convention for the
    recurrence identities at edge indices.
    """
    j2, m12, m22 = _doubled(j), _doubled(m1), _doubled(m2)
    th = np.asarray(theta, dtype=float)
    if abs(m12) > j2 or abs(m22) > j2 or (j2 - m12) % 2 or (j2 - m22) % 2:
        return np.zeros_like(th) if th.ndim else 0.0
    c = np.cos(th / 2.0)
    s = np.sin(th / 2.0)
    tot = np.zeros_like(th)
    for sign, lg, ncos, nsin in _d_terms(j2, m12, m22):
        tot = tot + sign * np.exp(lg) * c**ncos * s**nsin
    return tot if th.ndim else float(tot)


def small_d_dtheta(j: HalfInt, m1: HalfInt, m2: HalfInt, theta):
    """d/dtheta of small_d, by term-wise analytic differentiation of the sum.

    Each term C cos^p(t/2) sin^q(t/2) differentiates to
    C [ q/2 cos^{p+1} sin^{q-1} - p/2 cos^{p-1} sin^{q+1} ], staying exact;
    this route is independent of the differential recurrences under test.
    """
    j2, m12, m22 = _doubled(j), _doubled(m1), _doubled(m2)
    th = np.asarray(theta, dtype=float)
    if abs(m12) > j2 or abs(m22) > j2 or (j2 - m12) % 2 or (j2 - m22) % 2:
        return np.zeros_like(th) if th.ndim else 0.0
    c = np.cos(th / 2.0)
    s = np.sin(th / 2.0)
    tot = np.zeros_like(th)
    for sign, lg, p, q in _d_terms(j2, m12, m22):
        coeff = sign * np.exp(lg)
        if q > 0:
            tot = tot + coeff * (q / 2.0) * c ** (p + 1) * s ** (q - 1)
        if p > 0:
            tot = tot - coeff * (p / 2.0) * c ** (p - 1) * s ** (q + 1)
    return tot if th.ndim else float(tot)


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
    th = np.asarray(theta_grid, dtype=float)
    if th.size == 0 or th.min() <= 0.0 or th.max() >= math.pi:
        raise ValueError("theta grid must be interior to (0, pi)")

    row = -mf
    if jf >= abs(kf):
        cp = couplings(jf, kf)
        a, b, c, d = cp.a, cp.b, cp.c, cp.d
    else:  # j = |k| - 1: only the sigma = k-1 (or k+1 for k < 0) row survives
        a = math.sqrt(float((jf + kf - 1) * (jf - kf + 2))) / 2.0 if jf + kf >= 1 else 0.0
        b = math.sqrt(float((jf - kf - 1) * (jf + kf + 2))) / 2.0 if jf - kf >= 1 else 0.0
        c = 0.0
        d = 0.0

    @functools.cache  # the rows share their sigma = k-2 .. k+2 values
    def dval(sigma):
        return small_d(jf, row, sigma, th)

    def dder(sigma):
        return small_d_dtheta(jf, row, sigma, th)

    cos_t, sin_t = np.cos(th), np.sin(th)
    worst = 0.0
    rows = ((kf - 1, a, kf - 2, c, kf), (kf, c, kf - 1, d, kf + 1), (kf + 1, d, kf, b, kf + 2))
    for sigma, lo_coeff, lo_idx, hi_coeff, hi_idx in rows:
        if abs(sigma) > jf or (jf - sigma).denominator != 1:
            continue
        lhs_d = dder(sigma)
        lhs_m = (-float(mf) - float(sigma) * cos_t) / sin_t * dval(sigma)
        lo = lo_coeff * dval(lo_idx)
        hi = hi_coeff * dval(hi_idx)
        worst = max(worst, float(np.max(np.abs(lhs_d - (lo - hi)))))
        worst = max(worst, float(np.max(np.abs(lhs_m - (-lo - hi)))))
    return worst


def orthogonality_defect(j: HalfInt, jp: HalfInt, m1: HalfInt, m2: HalfInt, n_nodes: int = 200) -> float:
    """| int_0^pi d^j d^j' sin th dth - 2/(2j+1) delta_jj' | via Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    th = (x + 1.0) * (math.pi / 2.0)
    wt = w * (math.pi / 2.0)
    f = small_d(j, m1, m2, th) * small_d(jp, m1, m2, th) * np.sin(th)
    val = float(np.sum(wt * f))
    jf = as_half_integer(j)
    target = 2.0 / float(2 * jf + 1) if jf == as_half_integer(jp) else 0.0
    return abs(val - target)
