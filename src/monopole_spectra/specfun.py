"""Series evaluators: confluent/Gauss hypergeometric and the local Heun function.

All three are plain power series around z = 0 with a hard term cap;
truncation past the cap is an error, never silent. The hypergeometric series
are summed in double precision. The Heun series (singular points
{0, 1, -1, inf}, the only configuration needed here) has one coefficient
generator and one term-sum loop, run in double precision or, for the
compensated residual path, in 30-digit decimal arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, localcontext

SERIES_CAP = 10_000
SERIES_RTOL = 1e-15


class SeriesError(ValueError):
    """Parameter-domain violation or failure of a series to converge."""


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and float(x) == int(x)


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Kummer confluent hypergeometric 1F1(a; b; z).

    If a is a non-positive integer the series is the exact degree-|a|
    polynomial, summed in |a|+1 terms; otherwise b must avoid non-positive
    integers and the full series is summed to relative 1e-13.
    """
    return _ratio_series(z, lambda k: (a + k) / ((b + k) * (k + 1.0)), a, b, "1F1")


def kummer_1f1_dz(a: float, b: float, z: float) -> float:
    """d/dz 1F1(a; b; z) = (a/b) 1F1(a+1; b+1; z)."""
    return a / b * kummer_1f1(a + 1.0, b + 1.0, z)


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for |z| < 1, or any z when the
    series terminates (a or b a non-positive integer)."""
    poly = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if not poly and abs(z) >= 1.0:
        raise SeriesError(f"2F1 series diverges at |z| = {abs(z)} >= 1 (non-polynomial case)")
    if _is_nonpositive_int(b) and not _is_nonpositive_int(a):
        a, b = b, a  # terminate on the first parameter
    return _ratio_series(z, lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)), a, c, "2F1")


def gauss_2f1_dz(a: float, b: float, c: float, z: float) -> float:
    """d/dz 2F1 = (ab/c) 2F1(a+1, b+1; c+1; z)."""
    return a * b / c * gauss_2f1(a + 1.0, b + 1.0, c + 1.0, z)


def _ratio_series(z: float, ratio, a: float, denom_param: float, label: str) -> float:
    """Sum 1 + sum_k t_k with t_{k+1} = t_k * ratio(k) * z, guarding the
    polynomial case a = -n and the denominator-parameter poles. The
    polynomial case also sums elementwise over a numpy array z."""
    polynomial = _is_nonpositive_int(a)
    if not polynomial and _is_nonpositive_int(denom_param):
        raise SeriesError(f"{label} undefined: denominator parameter {denom_param} is a non-positive integer")
    term, tot = 1.0, 1.0
    for k in range(int(-a) if polynomial else SERIES_CAP):
        term = term * ratio(k) * z
        tot = tot + term
        if not polynomial and abs(term) <= SERIES_RTOL * abs(tot) and k > 2:
            return tot
    if polynomial:
        return tot
    raise SeriesError(f"{label} series failed to converge within {SERIES_CAP} terms at z = {z}")


# --- general Heun, singular points {0, 1, -1, inf} --------------------------

FUCHS_TOL = 1e-12
HEUN_TAIL_TOL = 1e-11
DECIMAL_DIGITS = 30


@dataclass(frozen=True)
class HeunParams:
    """Parameters of H'' + (gamma/z + delta/(z-1) + eps/(z+1)) H'
    + (lam*beta*z - q) / (z(z-1)(z+1)) H = 0.

    The Fuchs relation gamma + delta + eps = lam + beta + 1 is enforced at
    construction (it is an exact algebraic identity for every parameter set
    generated in this package).
    """

    gamma: float
    delta: float
    eps: float
    lam: float
    beta: float
    q: float

    def __post_init__(self) -> None:
        if abs(self.fuchs_residual()) > FUCHS_TOL:
            raise SeriesError(f"Fuchs relation violated by {self.fuchs_residual():.3e}")

    def fuchs_residual(self) -> float:
        return (self.gamma + self.delta + self.eps) - (self.lam + self.beta + 1.0)


def heun_coefficients(p: HeunParams, num=float):
    """Frobenius coefficients c_0, c_1, ... of the exponent-zero solution at
    z = 0, generated without end in the arithmetic type `num` (float or
    decimal.Decimal; Decimal follows the active context's precision):

        (k+1)(k+gamma) c_{k+1} = (k(delta - eps) - q) c_k
                                 + (k-1+lam)(k-1+beta) c_{k-1},  c_0 = 1.
    """
    if _is_nonpositive_int(p.gamma):
        raise SeriesError(f"Heun series degenerate: gamma = {p.gamma} is a non-positive integer")
    gamma, delta, eps, lam, beta, q = (num(x) for x in (p.gamma, p.delta, p.eps, p.lam, p.beta, p.q))
    one = num(1)
    c_prev, c = num(0), one
    for k in itertools.count():
        yield c
        num_k = (k * (delta - eps) - q) * c + (k - one + lam) * (k - one + beta) * c_prev
        c_prev, c = c, num_k / ((k + one) * (k + gamma))


def _weighted(coefficients):
    """(c_k, k c_k, k(k-1) c_k) for each coefficient c_k: the z-independent
    factors of the terms of H, H' and H''."""
    for k, c in enumerate(coefficients):
        yield c, k * c, k * (k - 1) * c


def _heun_sums(z: float, weighted, num, rtol) -> tuple:
    """(H, H', H'') as the sums of c_k z^k, k c_k z^(k-1) and k(k-1) c_k z^(k-2)
    over the sequence `weighted` of (c_k, k c_k, k(k-1) c_k) of arithmetic
    type `num`.
    Summation stops once three successive terms of H fall below rtol |H| and
    the geometric tail estimate is below HEUN_TAIL_TOL; a tail still above it
    at the term cap raises."""
    if abs(z) >= 1.0:
        raise SeriesError(f"Heun local series restricted to |z| < 1, got {z}")
    az = abs(z)
    zn, floor = num(z), num(1e-300)
    h = h1 = h2 = z1 = z2 = num(0)
    zk = num(1)  # z^k, with z1 = z^(k-1) and z2 = z^(k-2) (zero below k = 1, 2)
    quiet = 0
    for k, (c, kc, kkc) in zip(range(SERIES_CAP), weighted):
        term = c * zk
        h += term
        h1 += kc * z1
        h2 += kkc * z2
        if k > 8 and abs(term) <= rtol * max(abs(h), floor):
            quiet += 1
            tail = float(abs(term)) * az / max(1.0 - az, 1e-6)
            if quiet >= 3 and tail <= HEUN_TAIL_TOL * max(float(abs(h)), 1.0):
                return h, h1, h2
        else:
            quiet = 0
        z2, z1, zk = z1, zk, zk * zn
    raise SeriesError(f"Heun series tail above {HEUN_TAIL_TOL} after {SERIES_CAP} terms at z = {z}")


def heun_local(p: HeunParams, z: float) -> float:
    """Local Heun solution normalized H(0) = 1, valid on |z| < 1."""
    return heun_local_derivatives(p, z)[0]


def heun_local_derivatives(p: HeunParams, z: float) -> tuple[float, float, float]:
    """The local Heun solution with H' and H'' by term-wise differentiation,
    summed in double precision. Returns (H, H', H'')."""
    return _heun_sums(z, _weighted(heun_coefficients(p)), float, SERIES_RTOL)


def _accurate_sums(p: HeunParams, zs) -> list[tuple[float, float, float]]:
    """(H, H', H'') at each z of the sequence `zs`, summed in DECIMAL_DIGITS-digit
    decimal arithmetic. The coefficients and their products with k and
    k(k-1) do not depend on z, so they are computed once, in the one context,
    and every z reads the same terms (itertools.tee keeps each term until the
    last z has summed it).

    Parameter sets with widely split exponents (|delta - eps| large) cancel as
    much as ~1e6 of the peak term at |z| = 0.8, which floors a plain double
    evaluation near 1e-8; thirty digits restore the headroom the pointwise
    residual checks need."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        rtol = Decimal(10) ** -DECIMAL_DIGITS
        shared = itertools.tee(_weighted(heun_coefficients(p, Decimal)), len(zs))
        sums = [_heun_sums(z, weighted, Decimal, rtol) for z, weighted in zip(zs, shared)]
    return [(float(h), float(h1), float(h2)) for h, h1, h2 in sums]


def heun_ode_residuals(p: HeunParams, zs) -> list[float]:
    """Relative pointwise residuals of the defining ODE at each z of `zs`,
    evaluated from the compensated series value and its term-wise
    derivatives (an independent code path from the coefficient recurrence).
    One coefficient sequence serves every z."""
    out = []
    for z, (h, h1, h2) in zip(zs, _accurate_sums(p, zs)):
        coef1 = p.gamma / z + p.delta / (z - 1.0) + p.eps / (z + 1.0)
        coef0 = (p.lam * p.beta * z - p.q) / (z * (z - 1.0) * (z + 1.0))
        res = h2 + coef1 * h1 + coef0 * h
        scale = abs(h2) + abs(coef1 * h1) + abs(coef0 * h)
        out.append(abs(res) / max(scale, 1e-300))
    return out


def ode_residual_1f1(a: float, b: float, z: float) -> float:
    """Relative residual of z F'' + (b - z) F' - a F = 0 for the 1F1 series."""
    f = kummer_1f1(a, b, z)
    f1 = kummer_1f1_dz(a, b, z)
    f2 = a / b * kummer_1f1_dz(a + 1.0, b + 1.0, z)
    res = z * f2 + (b - z) * f1 - a * f
    scale = abs(z * f2) + abs((b - z) * f1) + abs(a * f)
    return abs(res) / max(scale, 1e-300)


def ode_residual_2f1(a: float, b: float, c: float, z: float) -> float:
    """Relative residual of z(1-z)F'' + (c - (a+b+1)z)F' - ab F = 0."""
    f = gauss_2f1(a, b, c, z)
    f1 = gauss_2f1_dz(a, b, c, z)
    f2 = a * b / c * gauss_2f1_dz(a + 1.0, b + 1.0, c + 1.0, z)
    res = z * (1.0 - z) * f2 + (c - (a + b + 1.0) * z) * f1 - a * b * f
    scale = abs(z * (1.0 - z) * f2) + abs((c - (a + b + 1.0) * z) * f1) + abs(a * b * f)
    return abs(res) / max(scale, 1e-300)
