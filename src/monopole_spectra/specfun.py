"""Series evaluators: confluent/Gauss hypergeometric and the local Heun function.

All three are plain power series around z = 0 in double precision with a hard
term cap; truncation past the cap is an error, never silent. The Heun
evaluator is specialized to singular points {0, 1, -1, inf}, the only
configuration needed here.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def heun_coefficients(p: HeunParams, n_terms: int) -> list[float]:
    """Frobenius coefficients c_0..c_{n-1} of the exponent-zero solution at z=0:

        (k+1)(k+gamma) c_{k+1} = (k(delta - eps) - q) c_k
                                 + (k-1+lam)(k-1+beta) c_{k-1},  c_0 = 1.
    """
    if _is_nonpositive_int(p.gamma):
        raise SeriesError(f"Heun series degenerate: gamma = {p.gamma} is a non-positive integer")
    c = [1.0]
    if n_terms > 1:
        c.append(-p.q / p.gamma)
    for k in range(1, n_terms - 1):
        num = (k * (p.delta - p.eps) - p.q) * c[k] + (k - 1.0 + p.lam) * (k - 1.0 + p.beta) * c[k - 1]
        c.append(num / ((k + 1.0) * (k + p.gamma)))
    return c


def heun_local(p: HeunParams, z: float, tail_tol: float = 1e-11) -> float:
    """Local Heun solution normalized H(0) = 1, valid on |z| < 1."""
    return heun_local_derivatives(p, z, tail_tol)[0]


def heun_local_derivatives(p: HeunParams, z: float, tail_tol: float = 1e-11):
    """The local Heun solution with H' and H'' by term-wise differentiation.

    Returns (H, H', H''). Raises if the running tail estimate still exceeds
    tail_tol at the term cap.
    """
    if abs(z) >= 1.0:
        raise SeriesError(f"Heun local series restricted to |z| < 1, got {z}")
    if _is_nonpositive_int(p.gamma):
        raise SeriesError(f"Heun series degenerate: gamma = {p.gamma} is a non-positive integer")
    az = abs(z)
    h = h1 = h2 = 0.0
    ck_m1 = 0.0
    ck = 1.0
    zpow = 1.0  # z^k
    quiet = 0
    for k in range(SERIES_CAP):
        term = ck * zpow
        h += term
        if k >= 1:
            h1 += k * ck * zpow / z if z != 0.0 else (ck if k == 1 else 0.0)
        if k >= 2:
            h2 += k * (k - 1.0) * ck * zpow / (z * z) if z != 0.0 else (2.0 * ck if k == 2 else 0.0)
        if k > 8 and abs(term) <= SERIES_RTOL * max(abs(h), 1e-300):
            quiet += 1
            if quiet >= 3 and abs(term) * az / max(1.0 - az, 1e-6) <= tail_tol * max(abs(h), 1.0):
                return h, h1, h2
        else:
            quiet = 0
        num = (k * (p.delta - p.eps) - p.q) * ck + (k - 1.0 + p.lam) * (k - 1.0 + p.beta) * ck_m1
        ck_m1, ck = ck, num / ((k + 1.0) * (k + p.gamma))
        zpow *= z
    raise SeriesError(f"Heun series tail above {tail_tol} after {SERIES_CAP} terms at z = {z}")


def heun_local_accurate(p: HeunParams, z: float, digits: int = 30) -> tuple[float, float, float]:
    """Compensated evaluation path for residual tests: the same coefficient
    recurrence and term sums carried in fixed-precision decimal arithmetic.

    Parameter sets with widely split exponents (|delta - eps| large) cancel as
    much as ~1e6 of the peak term at |z| = 0.8, which floors a plain double
    evaluation near 1e-8; thirty digits restore the headroom the pointwise
    residual checks need. Returns (H, H', H'') as floats.
    """
    from decimal import Decimal, localcontext

    if abs(z) >= 1.0:
        raise SeriesError(f"Heun local series restricted to |z| < 1, got {z}")
    if _is_nonpositive_int(p.gamma):
        raise SeriesError(f"Heun series degenerate: gamma = {p.gamma} is a non-positive integer")
    with localcontext() as ctx:
        ctx.prec = digits
        D = Decimal
        g, de, ep = D(p.gamma), D(p.delta), D(p.eps)
        lam, beta, q = D(p.lam), D(p.beta), D(p.q)
        zl = D(z)
        ck_m1, ck = D(0), D(1)
        h = h1 = h2 = D(0)
        zpow = D(1)
        tiny = D(10) ** (-digits)
        quiet = 0
        for k in range(SERIES_CAP):
            kk = D(k)
            term = ck * zpow
            h += term
            if k >= 1:
                h1 += kk * term / zl
            if k >= 2:
                h2 += kk * (kk - 1) * term / (zl * zl)
            if k > 8 and abs(term) <= tiny * max(abs(h), D(1)):
                quiet += 1
                if quiet >= 3:
                    return float(h), float(h1), float(h2)
            else:
                quiet = 0
            num = (kk * (de - ep) - q) * ck + (kk - 1 + lam) * (kk - 1 + beta) * ck_m1
            ck_m1, ck = ck, num / ((kk + 1) * (kk + g))
            zpow *= zl
    raise SeriesError(f"compensated Heun series failed to converge at z = {z}")


def heun_ode_residual(p: HeunParams, z: float, compensated: bool = True) -> float:
    """Relative pointwise residual of the defining ODE at z, evaluated from
    the series value and its term-wise derivatives (an independent code path
    from the coefficient recurrence). The compensated path is the default for
    residual testing; compensated=False exercises the plain double series."""
    h, h1, h2 = heun_local_accurate(p, z) if compensated else heun_local_derivatives(p, z)
    coef1 = p.gamma / z + p.delta / (z - 1.0) + p.eps / (z + 1.0)
    coef0 = (p.lam * p.beta * z - p.q) / (z * (z - 1.0) * (z + 1.0))
    res = h2 + coef1 * h1 + coef0 * h
    scale = abs(h2) + abs(coef1 * h1) + abs(coef0 * h)
    return abs(res) / max(scale, 1e-300)


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
