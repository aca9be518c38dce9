"""Series evaluators: hypergeometric oracles and the local Heun function."""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special

from monopole_spectra import heunspec, specfun, validate


def test_1f1_polynomial_degree_one():
    for z in (-2.0, 0.3, 5.0):
        assert specfun.kummer_1f1(-1, 2, z) == pytest.approx(1 - z / 2, abs=1e-15)


def test_1f1_at_zero():
    assert specfun.kummer_1f1(0.7, 1.9, 0.0) == 1.0


def test_1f1_exponential_identity():
    # 1F1(1; 1; z) = e^z
    for z in (0.5, -1.2, 3.0):
        assert specfun.kummer_1f1(1, 1, z) == pytest.approx(math.exp(z), rel=1e-13)


def test_1f1_rejects_bad_denominator():
    with pytest.raises(specfun.SeriesError):
        specfun.kummer_1f1(0.5, -2, 0.3)
    # polynomial case shorter than the pole is fine: 1F1(-1; -2; z) = 1 + z/2
    assert specfun.kummer_1f1(-1, -2, 0.6) == pytest.approx(1.3, abs=1e-15)


def test_2f1_binomial_identity():
    # 2F1(a, b; b; z) = (1-z)^(-a)
    for (a, z) in [(0.7, 0.4), (2.0, -0.8), (1.3, 0.05)]:
        assert specfun.gauss_2f1(a, 2.2, 2.2, z) == pytest.approx((1 - z) ** (-a), rel=1e-12)


def test_2f1_polynomial_by_finite_sum():
    # 2F1(-2, 3; 2; 0.4) = 1 + (-2*3/2)*0.4 + ((-2)(-1)(3)(4)/(2*3*2!))*0.16 = 0.12
    assert specfun.gauss_2f1(-2, 3, 2, 0.4) == pytest.approx(0.12, abs=1e-14)
    assert specfun.gauss_2f1(-2, 3, 2, 0.0) == 1.0


def test_2f1_terminates_on_second_parameter():
    assert specfun.gauss_2f1(3, -2, 2, 0.4) == pytest.approx(0.12, abs=1e-14)


def test_2f1_domain_error_outside_disc():
    with pytest.raises(specfun.SeriesError):
        specfun.gauss_2f1(0.5, 0.7, 1.9, 1.2)
    # polynomial case is valid anywhere
    assert specfun.gauss_2f1(-2, 3, 2, 4.0) == pytest.approx(1 - 12.0 + 32.0, abs=1e-12)


def test_series_match_scipy_on_disc():
    # scipy.special sums 1F1 and 2F1 by its own routines: an independent value check
    for z in np.linspace(-0.8, 0.8, 17):
        assert specfun.kummer_1f1(0.7, 1.3, z) == pytest.approx(scipy.special.hyp1f1(0.7, 1.3, z), rel=1e-14)
        assert specfun.gauss_2f1(0.4, 1.1, 2.3, z) == pytest.approx(scipy.special.hyp2f1(0.4, 1.1, 2.3, z), rel=1e-14)


def test_polynomial_and_series_modes_agree():
    # independent plain term-by-term sum (runs past the terminating index,
    # where every further term is exactly zero) vs the polynomial shortcut
    def plain_2f1(a, b, c, z, terms=60):
        tot = term = 1.0
        for k in range(terms):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
            tot += term
        return tot

    def plain_1f1(a, b, z, terms=60):
        tot = term = 1.0
        for k in range(terms):
            term *= (a + k) / ((b + k) * (k + 1.0)) * z
            tot += term
        return tot

    assert specfun.gauss_2f1(-3, 1.4, 2.6, 0.5) == pytest.approx(plain_2f1(-3, 1.4, 2.6, 0.5), abs=1e-12)
    assert specfun.kummer_1f1(-4, 2.5, 1.7) == pytest.approx(plain_1f1(-4, 2.5, 1.7), abs=1e-12)


def test_heun_params_fuchs_enforced():
    with pytest.raises(specfun.SeriesError):
        specfun.HeunParams(gamma=1.0, delta=1.0, eps=1.0, lam=0.5, beta=0.5, q=0.0)


def test_heun_normalization_and_first_coefficient():
    p = specfun.HeunParams(gamma=1.3, delta=0.7, eps=0.5, lam=0.9, beta=0.6, q=0.37)
    assert specfun.heun_local(p, 0.0) == 1.0
    _, h1, _ = specfun._accurate_sums([p], (0.0,))[0, 0]
    assert h1 == pytest.approx(-p.q / p.gamma, abs=1e-15)
    # H'(0) = -q/gamma against a small finite difference
    eps_fd = 1e-6
    hp = specfun.heun_local(p, eps_fd)
    hm = specfun.heun_local(p, -eps_fd)
    assert (hp - hm) / (2 * eps_fd) == pytest.approx(-p.q / p.gamma, abs=1e-6)


def _first_coefficients(p, n):
    """c_0 .. c_(n-1), generated at DECIMAL_DIGITS digits and rounded to float."""
    with localcontext() as ctx:
        ctx.prec = specfun.DECIMAL_DIGITS
        return [float(c) for c in itertools.islice(specfun.heun_coefficients(p), n)]


def test_heun_coefficients_recurrence_start():
    p = specfun.HeunParams(gamma=2.0, delta=1.1, eps=0.4, lam=1.5, beta=1.0, q=-0.3)
    c = _first_coefficients(p, 3)
    assert c[0] == 1.0 and c[1] == pytest.approx(-p.q / p.gamma, abs=1e-15)
    # k = 1 balance: 2(1+gamma) c2 = (delta - eps - q) c1 + lam*beta c0
    lhs = 2.0 * (1.0 + p.gamma) * c[2]
    rhs = (p.delta - p.eps - p.q) * c[1] + p.lam * p.beta * c[0]
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_heun_accurate_path_at_origin():
    # derivatives come from z^(k-1), z^(k-2) sums, so z = 0 needs no special case
    p = specfun.HeunParams(gamma=1.3, delta=0.7, eps=0.5, lam=0.9, beta=0.6, q=0.37)
    h0, h1, h2 = specfun._accurate_sums([p], (0.0,))[0][0]
    c = _first_coefficients(p, 3)
    assert h0 == 1.0
    assert h1 == pytest.approx(c[1], rel=1e-15)
    assert h2 == pytest.approx(2.0 * c[2], rel=1e-15)


def test_heun_degenerate_gamma_rejected():
    p = specfun.HeunParams(gamma=0.0, delta=1.0, eps=0.5, lam=0.3, beta=0.2, q=0.1)
    with pytest.raises(specfun.SeriesError):
        specfun.heun_local(p, 0.2)


def test_heun_outside_disc_rejected():
    p = specfun.HeunParams(gamma=1.3, delta=0.7, eps=0.5, lam=0.9, beta=0.6, q=0.37)
    with pytest.raises(specfun.SeriesError):
        specfun.heun_local(p, 1.0)


def test_heun_ode_residual_random_params():
    rng = np.random.default_rng(7)
    for _ in range(12):
        gamma = 0.5 + 2.0 * rng.random()
        delta = -1.0 + 2.0 * rng.random()
        eps = -1.0 + 2.0 * rng.random()
        lam = -2.0 + 4.0 * rng.random()
        beta = gamma + delta + eps - lam - 1.0
        q = -1.0 + 2.0 * rng.random()
        p = specfun.HeunParams(gamma=gamma, delta=delta, eps=eps, lam=lam, beta=beta, q=q)
        assert max(specfun.heun_ode_residuals([p], (-0.7, 0.35, 0.8))[0]) <= 1e-9


def test_heun_degenerates_to_2f1_when_third_singularity_removable():
    # eps = 0 and q = -lam*beta make z = -1 ordinary: H = 2F1(lam, beta; gamma; z)
    lam, beta, gamma = 0.8, 0.6, 1.1
    p = specfun.HeunParams(gamma=gamma, delta=lam + beta + 1 - gamma, eps=0.0,
                           lam=lam, beta=beta, q=-lam * beta)
    for z in (-0.6, 0.25, 0.7):
        assert specfun.heun_local(p, z) == pytest.approx(
            specfun.gauss_2f1(lam, beta, gamma, z), abs=1e-10
        )


def test_heun_ode_residuals_refuse_the_singular_point_at_origin():
    p = specfun.HeunParams(gamma=1.3, delta=0.7, eps=0.5, lam=0.9, beta=0.6, q=0.37)
    with pytest.raises(specfun.SeriesError, match="z = 0"):
        specfun.heun_ode_residuals([p], (0.3, 0.0))


# --- the double-double pass against the same sums in 30-digit Decimal ----------------


def _weighted(coefficients):
    """(c_k, k c_k, k(k-1) c_k) for each coefficient c_k: the z-independent
    factors of the terms of H, H' and H''."""
    for k, c in enumerate(coefficients):
        yield c, k * c, k * (k - 1) * c


def _decimal_heun_sums(z, weighted, rtol):
    """Reference: a plain term-sum loop on Decimal terms, with the stop rule
    of `specfun._stop_test` (relative stop `rtol`)."""
    az = abs(z)
    zn, floor = Decimal(z), Decimal(1e-300)
    h = h1 = h2 = z1 = z2 = Decimal(0)
    zk = Decimal(1)
    quiet = 0
    for k, (c, kc, kkc) in zip(range(specfun.SERIES_CAP), weighted):
        term = c * zk
        h += term
        h1 += kc * z1
        h2 += kkc * z2
        if k > 8 and abs(term) <= rtol * max(abs(h), floor):
            quiet += 1
            tail = float(abs(term)) * az / max(1.0 - az, 1e-6)
            if quiet >= 3 and tail <= specfun.HEUN_TAIL_TOL * max(float(abs(h)), 1.0):
                return float(h), float(h1), float(h2)
        else:
            quiet = 0
        z2, z1, zk = z1, zk, zk * zn
    raise specfun.SeriesError(f"reference sum did not stop at z = {z}")


def _decimal_sums(p, zs):
    """Reference (H, H', H'') at each z, every term and product in
    DECIMAL_DIGITS-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = specfun.DECIMAL_DIGITS
        rtol = Decimal(10) ** -specfun.DECIMAL_DIGITS
        shared = itertools.tee(_weighted(specfun.heun_coefficients(p)), len(zs))
        return [_decimal_heun_sums(z, weighted, rtol) for z, weighted in zip(zs, shared)]


def _hex(sums):
    return [[float(x).hex() for x in triple] for triple in sums]


def _random_params(rng):
    gamma = 0.5 + 2.0 * rng.random()
    delta = -1.0 + 2.0 * rng.random()
    eps = -1.0 + 2.0 * rng.random()
    lam = -2.0 + 4.0 * rng.random()
    beta = gamma + delta + eps - lam - 1.0
    q = -1.0 + 2.0 * rng.random()
    return specfun.HeunParams(gamma=gamma, delta=delta, eps=eps, lam=lam, beta=beta, q=q)


def test_double_double_sums_equal_the_decimal_sums_on_criterion_10():
    # the 46 formal even-channel sets of the Heun criterion, at all 60 disc points
    sets = [
        p for *_, param_sets in validate._heun_cases() for p in param_sets
        if p.gamma > 0 or not p.gamma.is_integer()
    ]
    assert len(sets) == 46
    got = specfun._accurate_sums(sets, heunspec._DISC_Z)
    for p, sums in zip(sets, got):
        assert _hex(sums) == _hex(_decimal_sums(p, heunspec._DISC_Z))


def test_double_double_sums_equal_the_decimal_sums_on_random_params():
    rng = np.random.default_rng(7)
    sets = [_random_params(rng) for _ in range(40)]
    zs = (-0.7, -0.3, 0.0, 0.35, 0.8)
    for p, sums in zip(sets, specfun._accurate_sums(sets, zs)):
        assert _hex(sums) == _hex(_decimal_sums(p, zs))


def test_heun_local_on_an_array_equals_the_scalar_calls_and_the_decimal_sums():
    p = _random_params(np.random.default_rng(11))
    zs = np.array([[-0.75, -0.2, 0.0], [0.1, 0.45, 0.8]])
    got = specfun.heun_local(p, zs)
    assert got.shape == zs.shape
    scalar = [specfun.heun_local(p, z) for z in zs.ravel().tolist()]
    assert all(isinstance(h, float) for h in scalar)
    assert [h.hex() for h in got.ravel().tolist()] == [h.hex() for h in scalar]
    reference = [h for h, _, _ in _decimal_sums(p, zs.ravel().tolist())]
    assert [h.hex() for h in scalar] == [h.hex() for h in reference]


@pytest.mark.parametrize("q", [-1e300, -7e299, math.nan])
def test_double_double_sums_refuse_a_coefficient_beyond_the_split_range(q):
    # c_1 = -q/gamma beyond 2^996 ~ 6.7e299, where Dekker's split overflows
    # to NaN, or itself NaN; the sums must raise, never return NaN
    p = specfun.HeunParams(gamma=1.0, delta=0.5, eps=0.5, lam=0.5, beta=0.5, q=q)
    with pytest.raises(specfun.SeriesError, match="2\\^996"):
        specfun._accurate_sums([p], (0.3,))
    with pytest.raises(specfun.SeriesError, match="2\\^996"):
        heunspec.heun_residual_on_disc([p])
