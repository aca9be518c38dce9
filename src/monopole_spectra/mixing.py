"""The 3x3 radial mixing matrix, its cubic invariants, and the diagonalizing map.

The three coupled radial channels mix through

    Abar = | 2c^2      sqrt(2)c   0        |
           | sqrt(2)c  c^2+d^2+1  sqrt(2)d |
           | 0         sqrt(2)d   2d^2     |

whose eigenvalues A_i solve a cubic with all-real roots; each root defines an
effective angular momentum L through L(L+1) = 2A. Cubic coefficients are
computed in exact rational arithmetic from (c^2, d^2) so the closed-form
cross-check of the reduced coefficients is an exact equality test.

The diagonalizing transform S and its eigen-residual are closed forms too,
built in plain floats: only `build_matrix`, the numpy array that the oracle
and the tests eigensolve, needs numpy.

The roots depend on (j, k) alone, so every radial index n of a flat series
shares them: `mixing_roots` memoizes the `RootTriple` of each canonical
(j, k) pair (the 128 most recently used), so the exact cubic and its
cross-check run once per key. Errors are not memoized.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .core import HalfInt, as_half_integer, coupling_squares

if TYPE_CHECKING:  # only `build_matrix` imports numpy, when it is called
    import numpy as np

Rows3 = tuple[tuple[float, float, float], tuple[float, float, float], tuple[float, float, float]]


class MixingError(ValueError):
    """Internal inconsistency or degenerate request in the mixing machinery."""


def _matrix_rows(c: float, d: float) -> Rows3:
    """The rows of the mixing matrix for coupling coefficients c, d >= 0."""
    if c < 0 or d < 0:
        raise MixingError("couplings c, d must be non-negative")
    s2 = math.sqrt(2.0)
    return (
        (2.0 * c * c, s2 * c, 0.0),
        (s2 * c, c * c + d * d + 1.0, s2 * d),
        (0.0, s2 * d, 2.0 * d * d),
    )


def build_matrix(c: float, d: float) -> np.ndarray:
    """The mixing matrix for coupling coefficients c, d >= 0, as a numpy array."""
    import numpy as np
    return np.array(_matrix_rows(c, d))


class CubicInvariants(NamedTuple):
    """Coefficients of the characteristic cubic A^3 + r A^2 + s A + t = 0.

    (r, s, t) come from trace / principal minors / determinant in exact
    rationals; (p, q) are the reduced-cubic coefficients after A = B - r/3,
    and must coincide exactly with the closed forms

        p = -(j(j+1) - (3/4)k^2 + 1/3),  q = -(j(j+1)/3 + 2/27),

    which is asserted at construction time. disc = (p/3)^3 + (q/2)^2 < 0
    guarantees three real roots.
    """

    r: Fraction
    s: Fraction
    t: Fraction
    p: Fraction
    q: Fraction
    p_closed: Fraction
    q_closed: Fraction
    disc: Fraction


def cubic_invariants(j: HalfInt, k: HalfInt) -> CubicInvariants:
    """Exact cubic invariants for admissible (j, k) with j >= |k|."""
    jf = as_half_integer(j, "j")
    kf = as_half_integer(k, "k")
    c2, d2 = coupling_squares(jf, kf)
    m11 = 2 * c2
    m22 = c2 + d2 + 1
    m33 = 2 * d2
    off12 = 2 * c2  # (sqrt(2) c)^2
    off23 = 2 * d2
    r = -(m11 + m22 + m33)
    s = (m22 * m33 - off23) + (m11 * m33) + (m11 * m22 - off12)
    t = -(m11 * (m22 * m33 - off23) - off12 * m33)
    p = (3 * s - r * r) / 3
    q = 2 * r**3 / 27 - r * s / 3 + t
    p_closed = -(jf * (jf + 1) - Fraction(3, 4) * kf * kf + Fraction(1, 3))
    q_closed = -(jf * (jf + 1) / 3 + Fraction(2, 27))
    if p != p_closed or q != q_closed:
        raise MixingError(
            f"reduced-cubic cross-check failed at (j, k) = ({jf}, {kf}): "
            f"p = {p} vs {p_closed}, q = {q} vs {q_closed}"
        )
    disc = (p / 3) ** 3 + (q / 2) ** 2
    return CubicInvariants(r=r, s=s, t=t, p=p, q=q, p_closed=p_closed, q_closed=q_closed, disc=disc)


def effective_l(a_root: float) -> float:
    """Positive branch of L(L+1) = 2A; the negative branch is rejected as
    non-normalizable at the origin."""
    return -0.5 + math.sqrt(0.25 + 2.0 * a_root)


class RootTriple(NamedTuple):
    """Ascending real roots A1 <= A2 <= A3 with effective angular momenta.

    A tuple of tuples, so the one instance `mixing_roots` memoizes per (j, k)
    is safely shared by every caller; it unpacks as (a, l)."""

    a: tuple[float, float, float]
    l: tuple[float, float, float]


_CLAMP_TOL = 1e-14


def roots(inv: CubicInvariants) -> RootTriple:
    """Real roots via the trigonometric form, sorted ascending.

    B_i = 2 sqrt(-p/3) cos( arccos((3q/2p) sqrt(-3/p))/3 + (i-1) 2pi/3 ),
    A_i = B_i - r/3. Requires disc < 0 (three distinct real roots); that holds
    for every admissible (j, k), and any other discriminant raises MixingError.
    """
    if inv.disc >= 0:
        raise MixingError(f"non-negative cubic discriminant {inv.disc}; trigonometric form invalid")
    p = float(inv.p)
    q = float(inv.q)
    r = float(inv.r)
    amp = 2.0 * math.sqrt(-p / 3.0)
    arg = (3.0 * q / (2.0 * p)) * math.sqrt(-3.0 / p)
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + _CLAMP_TOL:
            raise MixingError(f"arccos argument {arg} out of range beyond rounding tolerance")
        arg = math.copysign(1.0, arg)
    phi = math.acos(arg) / 3.0
    bs = [amp * math.cos(phi + i * 2.0 * math.pi / 3.0) for i in range(3)]
    a_sorted = tuple(sorted(b - r / 3.0 for b in bs))
    return RootTriple(a=a_sorted, l=tuple(effective_l(a) for a in a_sorted))


@functools.lru_cache
def _memo_roots(j: Fraction, k: Fraction) -> RootTriple:
    return roots(cubic_invariants(j, k))


def mixing_roots(j: HalfInt, k: HalfInt) -> RootTriple:
    """Invariants + trigonometric roots for (j, k), memoized per canonical
    half-integer pair: 2, "2", 2.0 and Fraction(2) share one entry."""
    return _memo_roots(as_half_integer(j, "j"), as_half_integer(k, "k"))


mixing_roots.cache_clear = _memo_roots.cache_clear


_DEGENERACY_TOL = 1e-12


def transform_matrix(c: float, d: float, triple: RootTriple) -> Rows3:
    """Unit-diagonal transformation S whose columns are eigenvectors of the
    mixing matrix, as three row tuples (S[i][j] is row i, column j):

        s21 = -(2c^2 - A1)/(sqrt(2) c)     s31 = d (2c^2 - A1)/((2d^2 - A1) c)
        s12 = -sqrt(2) c/(2c^2 - A2)       s32 = -sqrt(2) d/(2d^2 - A2)
        s13 = c (2d^2 - A3)/((2c^2 - A3) d) s23 = -(2d^2 - A3)/(sqrt(2) d)

    Degenerate denominators (|.| < 1e-12) are rejected with the offending
    root named; that happens exactly in the cautioned j = |k| channel where
    one root coincides with 2d^2 (or 2c^2 for the mirrored charge).
    """
    a1, a2, a3 = triple.a
    s2 = math.sqrt(2.0)
    tc, td = 2.0 * c * c, 2.0 * d * d
    checks = [
        (c, "coupling c", None),
        (d, "coupling d", None),
        (tc - a2, "2c^2 - A2", a2),
        (td - a2, "2d^2 - A2", a2),
        (td - a1, "2d^2 - A1", a1),
        (tc - a3, "2c^2 - A3", a3),
    ]
    for val, label, root in checks:
        if abs(val) < _DEGENERACY_TOL:
            where = f" (root A = {root})" if root is not None else ""
            raise MixingError(f"degenerate transform denominator {label} ~ 0{where}")
    return (
        (1.0, -s2 * c / (tc - a2), c * (td - a3) / ((tc - a3) * d)),
        (-(tc - a1) / (s2 * c), 1.0, -(td - a3) / (s2 * d)),
        (d * (tc - a1) / ((td - a1) * c), -s2 * d / (td - a2), 1.0),
    )


def _fma(x: float, y: float, z: float) -> float:
    """x*y + z rounded once, as a fused multiply-add does, for finite operands.

    Python 3.11 has no `math.fma`. Each float is an exact ratio of integers
    with a power-of-two denominator, so the exact sum sits over the larger of
    the two denominators, and int / int true division rounds it correctly.
    `Fraction` would give the same result at several times the cost.
    """
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    pd = xd * yd
    if pd < zd:
        return (xn * yn * (zd // pd) + zn) / zd
    return (xn * yn + zn * (pd // zd)) / pd


def transform_residual(c: float, d: float, triple: RootTriple, s: Rows3) -> float:
    """max |Abar S - S diag(A)| over entries.

    Each entry of Abar S is summed in k order as one product followed by two
    fused multiply-adds: the chain that numpy's 3x3 matmul runs (OpenBLAS on
    an FMA-capable x86-64). The printed residual thus keeps the digits it had
    when S was a numpy array, now on any platform; plain left-to-right
    summation rounds about one entry in eight differently.
    """
    worst = 0.0
    for row, s_row in zip(_matrix_rows(c, d), s):
        for col, a in enumerate(triple.a):
            acc = row[0] * s[0][col]
            acc = _fma(row[1], s[1][col], acc)
            acc = _fma(row[2], s[2][col], acc)
            worst = max(worst, abs(acc - s_row[col] * a))
    return worst


def parity_eigenvalues(j: HalfInt) -> tuple[Fraction, Fraction]:
    """Eigenvalues {j+1, -j} of the 2x2 even-parity mixing block [[0, nu], [2nu, 1]]
    in the no-monopole case, computed exactly.

    With nu^2 = j(j+1)/2 the characteristic equation lambda^2 - lambda - 2nu^2 = 0
    has discriminant 1 + 4j(j+1) = (2j+1)^2, a perfect square, so the pair is
    exact: ((1 + (2j+1))/2, (1 - (2j+1))/2) = (j+1, -j).
    """
    jf = as_half_integer(j, "j")
    if jf < 1:
        raise MixingError(f"parity split needs j >= 1, got {jf}")
    root = 2 * jf + 1  # sqrt(1 + 8 nu^2) exactly
    return ((1 + root) / 2, (1 - root) / 2)
