"""Wigner small-d values, symmetries, orthogonality, and the recurrences."""

import math
from fractions import Fraction

import numpy as np
import pytest

from monopole_spectra import angular, core, validate

F = Fraction


def d(j, m1, m2, theta):
    """(d^j_{m1,m2}(theta), its theta-derivative) from the production table,
    shaped like `theta` (a scalar gives scalars)."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    j2 = int(2 * j)
    vals, ders = angular._d_table(j2, np.cos(th / 2), np.sin(th / 2), np.arange(j2 + 1))
    at = ((j2 + int(2 * m1)) // 2, (j2 + int(2 * m2)) // 2)
    return vals[at].reshape(np.shape(theta))[()], ders[at].reshape(np.shape(theta))[()]


def reference_d(j2, m12, m22, c, s):
    """(d^j_{m1,m2}, its theta-derivative) on doubled indices, summed term by
    term for one (m1, m2): the loop the production table replaced, kept as a
    bit-for-bit reference for it."""
    jp1, jm1, jp2, jm2 = (j2 + m12) // 2, (j2 - m12) // 2, (j2 + m22) // 2, (j2 - m22) // 2
    lf = lambda n: math.lgamma(n + 1)  # noqa: E731
    pref = 0.5 * (lf(jp1) + lf(jm1) + lf(jp2) + lf(jm2))
    tot = np.zeros_like(c)
    der = np.zeros_like(c)
    for k in range(max(0, (m22 - m12) // 2), min(jp2, jm1) + 1):
        den = lf(jp2 - k) + lf(k) + lf(jm1 - k) + lf((m12 - m22) // 2 + k)
        coeff = (-1.0 if ((m12 - m22) // 2 + k) % 2 else 1.0) * np.exp(pref - den)
        p, q = jp2 + jm1 - 2 * k, 2 * k + (m12 - m22) // 2
        tot = tot + coeff * c**p * s**q
        if q > 0:
            der = der + coeff * (q / 2.0) * c ** (p + 1) * s ** (q - 1)
        if p > 0:
            der = der - coeff * (p / 2.0) * c ** (p - 1) * s ** (q + 1)
    return tot, der


@pytest.mark.parametrize("theta", [np.linspace(0.03, math.pi - 0.03, 50), np.linspace(0.05, math.pi - 0.05, 20)],
                         ids=["criterion-3-grid", "20-point-grid"])
def test_table_equals_the_term_by_term_sum_bit_for_bit(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    for j2 in range(0, 13):
        vals, ders = angular._d_table(j2, c, s, np.arange(j2 + 1))
        assert vals.shape == ders.shape == (j2 + 1, j2 + 1, len(theta))
        for a in range(j2 + 1):
            for b in range(j2 + 1):
                ref_val, ref_der = reference_d(j2, 2 * a - j2, 2 * b - j2, c, s)
                # tobytes also tells -0.0 from 0.0
                assert vals[a, b].tobytes() == ref_val.tobytes(), (j2, a, b)
                assert ders[a, b].tobytes() == ref_der.tobytes(), (j2, a, b)


def test_known_half_integer_value():
    # d^{1/2}_{1/2,1/2} = cos(theta/2)
    assert d(F(1, 2), F(1, 2), F(1, 2), math.pi / 3)[0] == pytest.approx(math.cos(math.pi / 6), abs=1e-15)


def test_identity_rotation():
    for (j, m) in [(F(1, 2), F(1, 2)), (2, 1), (F(7, 2), F(-3, 2)), (5, 0)]:
        assert d(j, m, m, 0.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_d1_00_is_cos():
    th = 0.9573
    assert d(1, 0, 0, th)[0] == pytest.approx(math.cos(th), abs=1e-14)
    assert d(1, 0, 0, math.pi / 2)[0] == pytest.approx(0.0, abs=1e-15)


def test_d1_10_sign_convention():
    th = 0.7
    assert d(1, 1, 0, th)[0] == pytest.approx(-math.sin(th) / math.sqrt(2), abs=1e-14)


def test_transpose_symmetry():
    th = 1.234
    for (j, m1, m2) in [(2, 1, -1), (F(5, 2), F(3, 2), F(-1, 2)), (3, 2, 0)]:
        lhs = d(j, m1, m2, th)[0]
        rhs = (-1.0) ** int(m1 - m2) * d(j, m2, m1, th)[0]
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_vectorized_matches_scalar():
    th = np.array([0.2, 0.9, 2.5])
    assert d(2, 1, -1, th)[0] == pytest.approx([d(2, 1, -1, t)[0] for t in th], abs=1e-14)


def test_derivative_matches_finite_difference():
    th = 1.1
    h = 1e-6
    for (j, m1, m2) in [(2, 1, 0), (F(1, 2), F(1, 2), F(1, 2)), (F(5, 2), F(1, 2), F(3, 2)), (4, -2, 3)]:
        fd = (d(j, m1, m2, th + h)[0] - d(j, m1, m2, th - h)[0]) / (2 * h)
        assert d(j, m1, m2, th)[1] == pytest.approx(fd, abs=1e-9)


def test_orthogonality_j_up_to_4():
    # int_0^pi d^j_{m1,m2} d^j'_{m1,m2} sin th dth = 2/(2j + 1) delta_jj', by 200-node Gauss-Legendre
    x, w = np.polynomial.legendre.leggauss(200)
    th = (x + 1.0) * (math.pi / 2.0)
    worst = 0.0
    for j2 in range(1, 9):
        for jp2 in range(j2, 9, 2):
            m1 = F(j2 % 2, 2)
            m2 = -m1 if j2 % 2 else F(0)
            f = d(F(j2, 2), m1, m2, th)[0] * d(F(jp2, 2), m1, m2, th)[0] * np.sin(th)
            target = 2.0 / (j2 + 1) if jp2 == j2 else 0.0
            worst = max(worst, abs(float(np.sum(w * (math.pi / 2.0) * f)) - target))
    assert worst <= 1e-8


def test_recurrences_j2_k1():
    grid = np.linspace(0.05, math.pi - 0.05, 50)
    assert angular.check_recurrences(2, 1, 0, grid) <= 1e-12


def test_recurrences_half_charge():
    grid = np.linspace(0.05, math.pi - 0.05, 50)
    assert angular.check_recurrences(F(1, 2), F(1, 2), F(1, 2), grid) <= 1e-12


def test_recurrences_min_j_channel():
    # j = k - 1: only the reduced pair survives, with coefficient sqrt((k-1)/2)
    grid = np.linspace(0.05, math.pi - 0.05, 50)
    assert angular.check_recurrences(1, 2, 0, grid) <= 1e-12
    assert angular.check_recurrences(F(1, 2), F(3, 2), F(1, 2), grid) <= 1e-12


def test_recurrences_reject_endpoint_grid():
    with pytest.raises(ValueError):
        angular.check_recurrences(2, 1, 0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        angular.check_recurrences(2, 1, 0, np.array([1.0, math.pi]))


@pytest.mark.parametrize("grid", [np.array([0.5, np.nan, 1.0]), np.array([np.nan]), np.array([0.5, np.inf])])
def test_recurrences_reject_a_non_finite_grid(grid):
    # NaN compares false both ways, so a range test alone would let it through to a perfect score
    with pytest.raises(ValueError):
        angular.check_recurrences(2, 1, 0, grid)
    with pytest.raises(ValueError):
        angular.scan_recurrences(2, grid)


def test_scan_accuracy_at_j_10():
    # the alternating sum loses digits as j grows: 2.4e-12 at j = 10 on criterion 3's grid
    worst, cases = angular.scan_recurrences(10, np.linspace(0.03, math.pi - 0.03, 50))
    assert worst <= 1e-11
    assert cases == 483


def test_recurrence_scan_residuals():
    grid = np.linspace(0.03, math.pi - 0.03, 50)
    worst = 0.0
    cases = 0
    for j2 in range(0, 13):
        j = F(j2, 2)
        for k2 in range(-j2 - 2, j2 + 3):
            if (k2 - j2) % 2 != 0 or not core.j_is_allowed(j, F(k2, 2)):
                continue
            for m2 in range(-j2, j2 + 1, 2):
                cases += 1
                worst = max(worst, angular.check_recurrences(j, F(k2, 2), F(m2, 2), grid))
    assert worst <= 1e-10
    # criterion 3 shares each (j, m) row across k and must see the same residuals bit for bit
    detail = validate.suite_wigner()[0]["detail"]
    assert detail == {"worst_residual": worst, "cases": cases}
    assert cases == 1001


def test_scan_matches_the_per_triple_checks_at_each_j():
    grid = np.linspace(0.05, math.pi - 0.05, 20)
    for j in (0, F(1, 2), 3, F(9, 2)):
        j2 = int(2 * j)
        triples = [(k2, m2) for k2 in range(-20, 21) for m2 in range(-j2, j2 + 1, 2)
                   if core.j_is_allowed(j, F(k2, 2))]
        expected = max(angular.check_recurrences(j, F(k2, 2), F(m2, 2), grid) for k2, m2 in triples)
        assert angular.scan_recurrences(j, grid) == (expected, len(triples))
