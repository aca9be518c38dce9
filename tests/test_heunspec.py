"""Heun parameter sets for the curved even channels: Fuchs, involution, residuals."""

import math
from fractions import Fraction

import pytest

from monopole_spectra import core, heunspec, specfun, spectra

COULOMB = core.Scenario("lobachevsky", "coulomb", 0, 1.0, alpha=10.0)
OSCILLATOR = core.Scenario("lobachevsky", "oscillator", 0, 1.0, k_osc=100.0)


def _level(scen, channel, j, energy):
    """A level of `channel` at a chosen energy, all that the builders read."""
    return spectra.EnergyLevel(scen, channel, Fraction(j), 0, energy, "")


def test_coulomb_params_fuchs_and_values():
    e, alpha, mass, j = -23.0, 10.0, 1.0, 1
    p = heunspec.heun_params_coulomb(_level(COULOMB, "even-1", j, e))
    u = math.sqrt(-2 * mass * (e + alpha))
    v = math.sqrt(-2 * mass * (e - alpha))
    assert p.gamma == pytest.approx(2.0 * (j + 2), abs=1e-14)
    assert p.delta == pytest.approx(1.0 + 2 * u, abs=1e-14)
    assert p.eps == pytest.approx(1.0 - 2 * v, abs=1e-14)
    s = (j + 2) + (0.5 + u) + (0.5 - v)
    assert p.lam == pytest.approx(-j - 1 + s, abs=1e-12)
    assert p.beta == pytest.approx(j + s, abs=1e-12)
    assert p.q == pytest.approx(4 * mass * alpha - 2 * (j + 2) * ((0.5 + u) - (0.5 - v)), abs=1e-11)
    assert abs(p.fuchs_residual()) <= 1e-12


def test_coulomb_channel2_uses_j_exponent():
    e, j = -23.0, 2
    a1 = heunspec.coulomb_exponents(_level(COULOMB, "even-1", j, e))[0]
    a2 = heunspec.coulomb_exponents(_level(COULOMB, "even-2", j, e))[0]
    assert a1 == j + 2 and a2 == j


@pytest.mark.parametrize("channel, geometry, charge, message", [
    ("parity-odd", "lobachevsky", 0, "unknown even channel 'parity-odd'"),
    ("min-j", "lobachevsky", 2, "unknown even channel 'min-j'"),
    ("branch-1", "flat", 1, "unknown even channel 'branch-1'"),
    # a name with no row at all is refused by the resolver itself
    ("bogus", "lobachevsky", 0, "unknown no-monopole channel 'bogus'"),
])
def test_exponents_name_a_channel_without_heun_exponents(channel, geometry, charge, message):
    coulomb = core.Scenario(geometry, "coulomb", charge, 1.0, alpha=0.1)
    oscillator = core.Scenario(geometry, "oscillator", charge, 1.0, k_osc=100.0)
    with pytest.raises(spectra.SpectrumError, match=f"^{message}$"):
        heunspec.coulomb_exponents(_level(coulomb, channel, 1, -23.0))
    with pytest.raises(spectra.SpectrumError, match=f"^{message}$"):
        heunspec.oscillator_exponents(_level(oscillator, channel, 1, 20.0))
    # the radicand checks come first, then the channel
    with pytest.raises(heunspec.HeunDomainError):
        heunspec.coulomb_exponents(_level(coulomb, channel, 1, 5.0))


def test_coulomb_radicand_violation_named():
    with pytest.raises(heunspec.HeunDomainError, match="E\\+alpha"):
        heunspec.heun_params_coulomb(_level(COULOMB, "even-1", 0, -5.0))


def test_coulomb_beta_condition_reproduces_energy_formula():
    alpha, mass = 10.0, 1.0
    scen = core.Scenario("lobachevsky", "coulomb", 0, mass, alpha=alpha)
    for channel, shift in (("even-1", 1.5), ("even-2", 0.5)):
        for j in (0, 1, 2):
            for n in (0, 1):
                big_n = j + shift + 0.5 * n
                expected = -mass * alpha**2 / (2 * big_n**2) - big_n**2 / (2 * mass)
                level = spectra.single_level(scen, j, n, channel)
                assert level.energy == pytest.approx(expected, rel=1e-14)


def test_coulomb_involution():
    alpha, mass = 10.0, 1.0
    scen = core.Scenario("lobachevsky", "coulomb", 0, mass, alpha=alpha)
    for channel in ("even-1", "even-2"):
        for (j, n) in [(0, 0), (0, 1), (1, 0)]:
            p = heunspec.heun_params_coulomb(spectra.single_level(scen, j, n, channel))
            assert abs(p.beta + n) <= 1e-10


def test_oscillator_params_fuchs_and_values():
    k_osc, mass, j, e = 100.0, 1.0, 1, 20.0
    p = heunspec.heun_params_oscillator(_level(OSCILLATOR, "even-1", j, e))
    s_root = math.sqrt(1 + 4 * mass * k_osc)
    a_exp = (1 - s_root) / 2
    assert p.gamma == pytest.approx(2 * a_exp, abs=1e-12)
    assert p.delta == pytest.approx(2 * (1 + j / 2) + 0.5, abs=1e-12)
    assert p.eps == pytest.approx(2 * (0.5 + j / 2) + 0.5, abs=1e-12)
    assert p.q == pytest.approx(-2 * a_exp * ((1 + j / 2) - (0.5 + j / 2)), abs=1e-12)
    assert abs(p.fuchs_residual()) <= 1e-12


def test_oscillator_channel2_exponents():
    a, b, c = heunspec.oscillator_exponents(spectra.single_level(OSCILLATOR, 2, 0, "even-2"))
    assert a == 0.5 - 0.5 * math.sqrt(401.0)  # (1 - sqrt(1 + 4MK))/2 at M K = 100
    assert b == 1.0 and c == 1.5  # j/2 and (1+j)/2 at j = 2


def test_oscillator_beta_condition_involution_and_formula():
    k_osc, mass = 100.0, 1.0
    scen = core.Scenario("lobachevsky", "oscillator", 0, mass, k_osc=k_osc)
    for channel, base in (("even-1", 2.0), ("even-2", 1.0)):
        for (j, n) in [(0, 0), (1, 1), (2, 0)]:
            big_n = base + j + n
            expected = big_n * math.sqrt(k_osc / mass + 0.25 / mass**2) - (big_n**2 + 0.25) / (2 * mass)
            solved = spectra.single_level(scen, j, n, channel)
            assert solved.energy == pytest.approx(expected, rel=1e-14)
            p = heunspec.heun_params_oscillator(solved)
            assert heunspec.termination_defect(p, n) <= 1e-10


def test_oscillator_radicand_violation():
    with pytest.raises(heunspec.HeunDomainError):
        heunspec.heun_params_oscillator(_level(OSCILLATOR, "even-1", 0, 60.0))  # E > K/2


def test_residual_on_disc_for_generated_sets():
    alpha, mass, k_osc = 10.0, 1.0, 100.0
    coulomb_scen = core.Scenario("lobachevsky", "coulomb", 0, mass, alpha=alpha)
    oscillator_scen = core.Scenario("lobachevsky", "oscillator", 0, mass, k_osc=k_osc)
    p = heunspec.heun_params_coulomb(spectra.single_level(coulomb_scen, 1, 0, "even-1"))
    assert heunspec.heun_residual_on_disc([p])[0] <= 1e-9
    p2 = heunspec.heun_params_oscillator(spectra.single_level(oscillator_scen, 0, 0, "even-1"))
    assert heunspec.heun_residual_on_disc([p2])[0] <= 1e-9


def test_residual_on_disc_equals_the_pointwise_maximum():
    # the disc shares one coefficient sequence between its 60 points; each
    # residual must be the one a lone evaluation at that z gives, bit for bit
    alpha, mass, k_osc = 10.0, 1.0, 100.0
    coulomb_scen = core.Scenario("lobachevsky", "coulomb", 0, mass, alpha=alpha)
    oscillator_scen = core.Scenario("lobachevsky", "oscillator", 0, mass, k_osc=k_osc)
    coulomb = heunspec.heun_params_coulomb(spectra.single_level(coulomb_scen, 1, 1, "even-2"))
    oscillator = heunspec.heun_params_oscillator(spectra.single_level(oscillator_scen, 1, 1, "even-2"))
    assert len(heunspec._DISC_Z) == 60
    for p in (coulomb, oscillator):
        pointwise = max(specfun.heun_ode_residuals([p], (z,))[0][0] for z in heunspec._DISC_Z)
        assert heunspec.heun_residual_on_disc([p])[0] == pointwise


@pytest.mark.parametrize("gamma", [0.0, -2.0])
def test_residual_on_disc_rejects_a_degenerate_gamma(gamma):
    # Fuchs: gamma + delta + eps = lam + beta + 1
    p = specfun.HeunParams(gamma=gamma, delta=1.0, eps=1.0, lam=gamma - 1.0, beta=2.0, q=0.5)
    with pytest.raises(specfun.SeriesError, match="non-positive integer"):
        heunspec.heun_residual_on_disc([p])

