"""Closed-form spectra: values, admissibility, monotonicity, units, records."""

import json
import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import attrgetter

import pytest

from monopole_spectra import cli, core, mixing, spectra

F = Fraction

FLAT_COULOMB = core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
MINJ_COULOMB = core.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1)
NOMONOPOLE_COULOMB = core.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
NOMONOPOLE_OSCILLATOR = core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0)


def test_flat_coulomb_min_j_ground_state():
    lv = spectra.single_level(FLAT_COULOMB, 0, 0, "min-j")
    assert lv.energy == -0.5
    assert lv.admissible and lv.derivation == "hypergeometric-polynomial"


def test_flat_coulomb_free_limit():
    scen = core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1e-8)
    for n in range(4):
        lv = spectra.single_level(scen, 0, n, "min-j")
        assert abs(lv.energy) < 1e-15


def test_flat_coulomb_branch_composition():
    lv = spectra.single_level(FLAT_COULOMB, 2, 0, "branch-3")
    a3 = mixing.mixing_roots(2, 1).a[2]
    l3 = -0.5 + math.sqrt(0.25 + 2 * a3)
    assert lv.energy == pytest.approx(-0.5 / (l3 + 1.0) ** 2, abs=1e-14)
    assert spectra.flat_channel_l(F(2), F(1), "branch-3") == pytest.approx(l3, abs=1e-14)


def test_flat_coulomb_channel_misuse_rejected():
    with pytest.raises(spectra.SpectrumError):
        spectra.single_level(FLAT_COULOMB, 2, 0, "min-j")
    with pytest.raises(spectra.SpectrumError):
        spectra.single_level(FLAT_COULOMB, 0, 0, "branch-1")


def test_flat_oscillator_candidates_min_j():
    scen = core.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0)
    lv = spectra.single_level(scen, 0, 0, "min-j")
    assert spectra.oscillator_candidates(0.0, 0, 1.0, 1.0) == {"printed": 0.75, "quantization": 1.5}
    assert lv.energy == 1.5  # oracle-confirmed default


def test_flat_oscillator_level_spacing_branch_independent():
    scen = core.Scenario("flat", "oscillator", F(1), 1.5, k_osc=2.0)
    for branch in ("branch-1", "branch-2", "branch-3"):
        e0 = spectra.single_level(scen, 2, 0, branch).energy
        e1 = spectra.single_level(scen, 2, 1, branch).energy
        assert e1 - e0 == pytest.approx(2.0 * math.sqrt(2.0 / 1.5), rel=1e-13)


def test_lob_minj_coulomb_ground_state():
    lv = spectra.single_level(MINJ_COULOMB, 0, 0, "min-j")
    nu = (1.0 + math.sqrt(0.96)) / 2.0
    eps = 10.0 / math.sqrt(1 + 0.01 / nu**2) * math.sqrt(1 - (0.01 + nu**2) / 100.0)
    b = spectra.resolve_channel(MINJ_COULOMB, 0, "min-j").b(lv.epsilon, 0)
    assert b == pytest.approx((eps * 0.1 - nu**2) / (2 * nu), abs=1e-12)
    assert lv.epsilon == pytest.approx(eps, abs=1e-12)
    assert lv.energy == pytest.approx(eps - 10.0, abs=1e-12)
    assert lv.admissible


def _minj_coulomb_energy_decimal(alpha, mass, n):
    """E = eps - M of the curved min-j Coulomb level at 130 digits: at
    M = 5.66e261 the subtraction cancels about 50 of them."""
    with localcontext() as ctx:
        ctx.prec = 130
        a, m = Decimal(alpha), Decimal(mass)
        nu = n + (1 + (1 - 4 * a * a).sqrt()) / 2
        return m / (1 + a * a / (nu * nu)).sqrt() * (1 - (a * a + nu * nu) / (m * m)).sqrt() - m


@pytest.mark.parametrize("alpha, mass, n", [
    (0.1, 10.0, 0), (0.3, 10.0, 0), (0.317, 7.3, 3), (1e-3, 1e6, 0), (1e-5, 1e6, 0), (2.41e-25, 5.66e261, 0),
])
def test_lob_minj_coulomb_energy_keeps_its_digits_where_eps_is_close_to_m(alpha, mass, n):
    # E = eps - M in floats printed -5.05000352859e-05 at alpha = 1e-5, M = 1e6
    # (7e-7 relative) and E = 0 at alpha = 2.41e-25, M = 5.66e261
    scen = core.Scenario("lobachevsky", "coulomb", F(2), mass, alpha=alpha)
    lv = spectra.single_level(scen, 1, n, "min-j")
    exact = _minj_coulomb_energy_decimal(alpha, mass, n)
    assert lv.energy < 0.0
    assert abs((Decimal(lv.energy) - exact) / exact) <= Decimal("5e-16")


def test_lob_minj_coulomb_energy_at_a_zero_radicand_is_minus_m():
    # (alpha^2 + nu^2)/M^2 rounds to exactly 1: eps = 0, and log1p(-1) is not taken
    mass = 0.9999968905424292
    scen = core.Scenario("lobachevsky", "coulomb", F(1), mass, alpha=1 / 401)
    lv = spectra.single_level(scen, 0, 0, "min-j")
    assert (lv.epsilon, lv.energy, lv.admissible) == (0.0, -mass, False)


def test_lob_minj_coulomb_free_limit():
    # alpha -> 0: nu -> 1 and eps -> M sqrt(1 - 1/M^2)
    scen = core.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=1e-9)
    lv = spectra.single_level(scen, 0, 0, "min-j")
    assert spectra.resolve_channel(scen, 0, "min-j").b(lv.epsilon, 0) == pytest.approx(-0.5, abs=1e-8)  # b -> -nu/2
    assert lv.epsilon == pytest.approx(10.0 * math.sqrt(1 - 0.01), rel=1e-9)


def test_lob_minj_coulomb_finite_spectrum():
    lv = spectra.single_level(MINJ_COULOMB, 0, 10, "min-j")
    assert not lv.admissible and "finite spectrum exhausted" in lv.reason


def test_lob_minj_coulomb_nondecaying_levels_flagged():
    # n >= 1 at these parameters has b < 0: the closed form is formal only
    lv = spectra.single_level(MINJ_COULOMB, 0, 1, "min-j")
    assert not lv.admissible and spectra.resolve_channel(MINJ_COULOMB, 0, "min-j").b(lv.epsilon, 1) < 0


def test_lob_minj_coulomb_alpha_domain():
    scen = core.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.6)
    with pytest.raises(spectra.SpectrumError):
        spectra.single_level(scen, 0, 0, "min-j")


def test_lob_minj_oscillator_value():
    scen = core.Scenario("lobachevsky", "oscillator", F(1), 1.0, k_osc=10.0)
    lv = spectra.single_level(scen, 0, 0, "min-j")
    assert lv.energy == pytest.approx(1.5 * math.sqrt(10.25) - 1.25, abs=1e-14)
    assert lv.energy == pytest.approx(3.55234, abs=1e-5)
    assert lv.admissible


def test_lob_minj_oscillator_well_identity():
    # E = K/2 - (s - (2n+1))^2/(2M) with s(s+1) = M K
    for (k_osc, mass) in [(10.0, 1.0), (100.0, 1.0), (25.0, 2.0)]:
        scen = core.Scenario("lobachevsky", "oscillator", F(1), mass, k_osc=k_osc)
        s = (-1.0 + math.sqrt(1.0 + 4.0 * mass * k_osc)) / 2.0
        n = 0
        while 2 * n + 1 < s:
            lv = spectra.single_level(scen, 0, n, "min-j")
            ident = k_osc / 2.0 - (s - (2 * n + 1)) ** 2 / (2.0 * mass)
            assert lv.energy == pytest.approx(ident, abs=1e-12)
            n += 1


def test_lob_minj_oscillator_free_limit_inadmissible():
    scen = core.Scenario("lobachevsky", "oscillator", F(1), 1.0, k_osc=1e-12)
    lv = spectra.single_level(scen, 0, 0, "min-j")
    assert not lv.admissible


def test_lob_nomonopole_coulomb_values_and_admissibility():
    lv = spectra.single_level(NOMONOPOLE_COULOMB, 0, 0, "parity-odd")
    assert lv.energy == -50.5 and lv.admissible
    lv3 = spectra.single_level(NOMONOPOLE_COULOMB, 0, 3, "parity-odd")
    assert not lv3.admissible  # M alpha = 10 < N^2 = 16


def test_lob_nomonopole_coulomb_channel_shift():
    # even-1 and even-2 differ only through N shifted by one unit
    n_even_1 = spectra.resolve_channel(NOMONOPOLE_COULOMB, 1, "even-1").big_n
    n_even_2 = spectra.resolve_channel(NOMONOPOLE_COULOMB, 1, "even-2").big_n
    for n in range(3):
        l1 = spectra.single_level(NOMONOPOLE_COULOMB, 1, n, "even-1")
        l2 = spectra.single_level(NOMONOPOLE_COULOMB, 1, n + 2, "even-2")
        assert n_even_1(n) == pytest.approx(n_even_2(n + 2), abs=1e-15)
        assert l1.energy == pytest.approx(l2.energy, abs=1e-12)


def test_lob_nomonopole_coulomb_exponent_identity():
    # E = -alpha - 2 b^2 / M with b = (M alpha - N^2)/(2N)
    for (alpha, mass, j, n, ch) in [
        (10.0, 1.0, 0, 0, "parity-odd"), (10.0, 1.0, 1, 1, "parity-odd"),
        (10.0, 1.0, 0, 1, "even-1"), (10.0, 1.0, 0, 2, "even-2"),
    ]:
        scen = core.Scenario("lobachevsky", "coulomb", F(0), mass, alpha=alpha)
        lv = spectra.single_level(scen, j, n, ch)
        inputs = spectra.resolve_channel(scen, j, ch)
        b = inputs.b(inputs.big_n(n))
        assert lv.energy == pytest.approx(-alpha - 2.0 * b * b / mass, abs=1e-12)


def test_lob_nomonopole_coulomb_derivation_labels():
    assert spectra.single_level(NOMONOPOLE_COULOMB, 0, 0, "parity-odd").derivation == \
        "hypergeometric-polynomial"
    assert spectra.single_level(NOMONOPOLE_COULOMB, 0, 0, "even-1").derivation == \
        "heun-formal-beta"


def test_lob_nomonopole_oscillator_values():
    lv = spectra.single_level(NOMONOPOLE_OSCILLATOR, 0, 0, "parity-odd")
    assert spectra.resolve_channel(NOMONOPOLE_OSCILLATOR, 0, "parity-odd").big_n(0) == 1.5
    assert lv.energy == pytest.approx(1.5 * math.sqrt(100.25) - (2.25 + 0.25) / 2.0, abs=1e-12)
    assert lv.admissible  # 1.5 < sqrt(401)/2 ~ 10.01
    # even channels: N differs by exactly one at equal (j, n)
    n1 = spectra.resolve_channel(NOMONOPOLE_OSCILLATOR, 1, "even-1").big_n(2)
    n2 = spectra.resolve_channel(NOMONOPOLE_OSCILLATOR, 1, "even-2").big_n(2)
    assert n1 - n2 == 1.0


def test_lob_nomonopole_oscillator_restriction():
    lv = spectra.single_level(NOMONOPOLE_OSCILLATOR, 0, 5, "parity-odd")  # N = 11.5
    assert not lv.admissible and "restriction" in lv.reason


def test_lob_nomonopole_oscillator_restriction_boundary_stays_inadmissible():
    # K = 2, M = 1, j = 0, n = 0: N = 3/2 = sqrt(1 + 4 K M)/2 exactly, and the
    # level E = 1 sits on the continuum edge K/2, so N < limit must be strict
    scen = core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=2.0)
    lv = spectra.single_level(scen, 0, 0, "parity-odd")
    assert spectra.resolve_channel(scen, 0, "parity-odd").big_n(0) == math.sqrt(1.0 + 4.0 * 2.0) / 2.0 == 1.5
    assert lv.energy == 1.0 == scen.k_osc / 2.0
    assert not lv.admissible and "restriction" in lv.reason
    assert spectra.admissible_levels(scen, 0, "parity-odd") == []


def test_admissible_formal_heun_levels_carry_the_formal_marker():
    coulomb = core.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
    oscillator = core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0)
    for scen in (coulomb, oscillator):
        for j in (0, 1):
            for channel in ("even-1", "even-2"):
                levels = spectra.admissible_levels(scen, j, channel)
                assert levels
                for lv in levels:
                    assert lv.admissible and lv.derivation == "heun-formal-beta"
                    assert lv.reason == spectra.REASON_FORMAL
                records = json.loads(cli.render_levels(levels, "json"))
                assert [rec["reason"] for rec in records] == [spectra.REASON_FORMAL] * len(levels)
                # the first rejected level keeps its exhaustion reason
                rejected = spectra.single_level(scen, j, len(levels), channel)
                assert not rejected.admissible
                assert rejected.reason.startswith(spectra.REASON_EXHAUSTED)
            for lv in spectra.admissible_levels(scen, j, "parity-odd"):
                assert lv.reason == ""
    assert spectra.REASON_FORMAL.startswith("formal: ")


def test_monotonicity_within_channels():
    def energies(scen, j, channel, count):
        levels = (spectra.single_level(scen, j, n, channel) for n in range(count))
        return [lv.energy for lv in levels if lv.admissible]

    seqs = [
        energies(FLAT_COULOMB, 2, "branch-2", 6),
        energies(core.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0), 2, "branch-1", 6),
        energies(core.Scenario("lobachevsky", "oscillator", F(1), 1.0, k_osc=100.0), 0, "min-j", 8),
        energies(NOMONOPOLE_COULOMB, 0, "parity-odd", 8),
        energies(NOMONOPOLE_OSCILLATOR, 0, "parity-odd", 8),
        energies(core.Scenario("lobachevsky", "coulomb", F(1), 30.0, alpha=0.3), 0, "min-j", 8),
    ]
    for seq in seqs:
        assert len(seq) >= 1
        assert all(b > a for a, b in zip(seq, seq[1:]))


def test_unit_conversion_identity_is_noop():
    units = spectra.UnitSystem(hbar=1.0, c=1.0, mass=1.0, radius=1.0)
    lv = spectra.single_level(NOMONOPOLE_COULOMB, 0, 0, "parity-odd")
    assert spectra.to_physical_units(lv, units).energy == lv.energy


def test_unit_conversion_requires_radius_for_curved():
    lv = spectra.single_level(NOMONOPOLE_COULOMB, 0, 0, "parity-odd")
    for convert in (spectra.to_physical_units, spectra.from_physical_units):
        with pytest.raises(spectra.SpectrumError, match="^Lobachevsky conversion needs the curvature radius$"):
            convert(lv, spectra.UnitSystem())
    flat = spectra.single_level(FLAT_COULOMB, 0, 0, "min-j")
    assert spectra.to_physical_units(flat, spectra.UnitSystem()).energy == flat.energy
    assert spectra.from_physical_units(flat, spectra.UnitSystem()).energy == flat.energy


def test_oscillator_candidates_frequency_below_the_normal_range():
    # K/M = 1e-600 underflows; omega = sqrt(K)/sqrt(M) = 1e-300 does not
    both = spectra.oscillator_candidates(0.0, 1, 1e-300, 1e300)
    assert both["quantization"] == pytest.approx(3.5e-300, rel=1e-15, abs=0.0)
    assert both["printed"] == pytest.approx(1.75e-300, rel=1e-15, abs=0.0)
    with pytest.raises(spectra.SpectrumError, match="underflows double precision"):
        spectra.oscillator_candidates(0.0, 1, 1e-310, 1e307)


@pytest.mark.parametrize("field", ["hbar", "c", "mass", "radius"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_unit_system_rejects_a_non_positive_constant(field, value):
    with pytest.raises(ValueError, match="must be positive"):
        spectra.UnitSystem(**{field: value})
    with pytest.raises(ValueError, match="must be positive"):
        spectra.UnitSystem(radius=2.0)._replace(**{field: value})


def test_unit_system_is_a_tuple_of_its_constants():
    units = spectra.UnitSystem(radius=2.0)
    assert units == (1.0, 1.0, 1.0, 2.0, spectra.FINE_STRUCTURE)
    assert units._replace(c=3.0).energy_unit == 1.5


# The printed usual-units forms of the curved levels, references for `to_physical_units`
def _usual_units_coulomb_energy(units, alpha=None, big_n=1.0):
    """Physical form of the no-monopole curved Coulomb level:
    eps = -m c^2 alpha^2/(2 N^2) - (hbar^2/(m R^2)) N^2/2, alpha = e^2/(hbar c)
    by default."""
    alpha = units.alpha_fs if alpha is None else alpha
    m, c, hb, r = units.mass, units.c, units.hbar, units.reference_radius
    return -m * c * c * alpha * alpha / (2.0 * big_n**2) - (hb * hb / (m * r * r)) * big_n**2 / 2.0


def _usual_units_oscillator_energy(units, k_phys, big_n):
    """Physical form of the curved oscillator level:
    eps = hbar (N sqrt(k/m + hbar^2/(4 m^2 R^4)) - hbar (N^2 + 1/4)/(2 m R^2))."""
    m, hb, r = units.mass, units.hbar, units.reference_radius
    return hb * (
        big_n * math.sqrt(k_phys / m + hb * hb / (4.0 * m * m * r**4))
        - hb / (2.0 * m * r * r) * (big_n**2 + 0.25)
    )


def _usual_units_minj_coulomb_epsilon(units, alpha, nu):
    """Physical form of the curved minimum-j Coulomb level:
    E = m c^2 / sqrt(1 + alpha^2/nu^2) sqrt(1 - hbar^2 (alpha^2+nu^2)/(m^2 c^2 R^2))."""
    m, c, hb, r = units.mass, units.c, units.hbar, units.reference_radius
    return (
        m * c * c / math.sqrt(1.0 + alpha * alpha / (nu * nu))
        * math.sqrt(1.0 - hb * hb * (alpha * alpha + nu * nu) / (m * m * c * c * r * r))
    )


def test_fine_structure_default_coupling():
    units = spectra.UnitSystem(radius=2.0)
    assert _usual_units_coulomb_energy(units, big_n=1.0) == pytest.approx(
        _usual_units_coulomb_energy(units, alpha=units.alpha_fs, big_n=1.0)
    )
    assert units.alpha_fs == pytest.approx(1 / 137.036, rel=1e-5)


def test_unit_conversion_involutive():
    units = spectra.UnitSystem(hbar=1.0546e-34, c=2.9979e8, mass=9.109e-31, radius=5.29e-11)
    m_nat = units.natural_mass
    scen = core.Scenario("lobachevsky", "coulomb", F(0), m_nat, alpha=m_nat * 1e-3)
    lv = spectra.single_level(scen, 0, 0, "parity-odd")
    there = spectra.to_physical_units(lv, units)
    back = spectra.from_physical_units(there, units)
    assert back.energy == pytest.approx(lv.energy, rel=1e-12)


def test_unit_conversion_reproduces_printed_coulomb_form():
    units = spectra.UnitSystem(hbar=1.3, c=0.8, mass=2.1, radius=3.7)
    alpha = 1.0 / 137.0
    m_nat = units.natural_mass
    scen = core.Scenario("lobachevsky", "coulomb", F(0), m_nat, alpha=alpha)
    for big_n in (1.0, 2.0, 3.0):
        j, n = 0, int(big_n) - 1
        lv = spectra.single_level(scen, j, n, "parity-odd")
        phys = spectra.to_physical_units(lv, units)
        assert phys.energy == pytest.approx(
            _usual_units_coulomb_energy(units, alpha, big_n), rel=1e-12
        )


def test_unit_conversion_reproduces_printed_oscillator_form():
    units = spectra.UnitSystem(hbar=0.9, c=1.7, mass=1.2, radius=2.5)
    k_phys = 0.37
    k_nat = units.natural_oscillator_constant(k_phys)
    m_nat = units.natural_mass
    scen = core.Scenario("lobachevsky", "oscillator", F(1), m_nat, k_osc=k_nat)
    lv = spectra.single_level(scen, 0, 1, "min-j")
    phys = spectra.to_physical_units(lv, units)
    assert phys.energy == pytest.approx(
        _usual_units_oscillator_energy(units, k_phys, 2 * 1 + 1.5), rel=1e-12
    )


def test_unit_conversion_reproduces_printed_relativistic_form():
    units = spectra.UnitSystem(hbar=1.1, c=2.0, mass=0.8, radius=4.0)
    m_nat = units.natural_mass
    alpha = 0.05
    scen = core.Scenario("lobachevsky", "coulomb", F(1), m_nat, alpha=alpha)
    lv = spectra.single_level(scen, 0, 0, "min-j")
    phys = spectra.to_physical_units(lv, units)
    nu = (1.0 + math.sqrt(1.0 - 4.0 * alpha * alpha)) / 2.0
    assert phys.epsilon == pytest.approx(_usual_units_minj_coulomb_epsilon(units, alpha, nu), rel=1e-12)


def test_level_record_schema():
    lv = spectra.single_level(MINJ_COULOMB, 0, 0, "min-j")
    (rec,) = json.loads(cli.render_levels([lv], "json"))
    assert set(rec) == {"scenario", "channel", "j2", "n", "E", "derivation",
                        "admissible", "reason", "formula", "epsilon"}
    assert rec["j2"] == 0 and rec["channel"] == "min-j"


def test_level_is_an_immutable_named_tuple():
    assert spectra.EnergyLevel._fields == ("scenario", "channel", "j", "n", "energy", "derivation",
                                           "admissible", "reason", "formula", "epsilon")
    lv = spectra.single_level(MINJ_COULOMB, 0, 0, "min-j")
    for name in spectra.EnergyLevel._fields:
        with pytest.raises(AttributeError):
            setattr(lv, name, None)
    shifted = lv._replace(energy=1.0)
    assert type(shifted) is spectra.EnergyLevel and shifted.energy == 1.0 and shifted[1:4] == lv[1:4]
    made = spectra.EnergyLevel(FLAT_COULOMB, "min-j", F(0), 0, -0.5, "hypergeometric-polynomial")
    assert (made.admissible, made.reason, made.formula, made.epsilon) == (True, "", "", None)


def test_levels_are_hashable():
    again = spectra.single_level(MINJ_COULOMB, 0, 0, "min-j")
    lv = spectra.single_level(MINJ_COULOMB, 0, 0, "min-j")
    assert lv == again and lv is not again and hash(lv) == hash(again)
    for scen, j in ((FLAT_COULOMB, 2), (MINJ_COULOMB, 0), (NOMONOPOLE_COULOMB, 1), (NOMONOPOLE_OSCILLATOR, 1)):
        levels = spectra.spectrum_levels(scen, j, range(20), include_inadmissible=True)
        assert len(set(levels)) == len(levels)
        assert set(levels) == set(spectra.spectrum_levels(scen, j, range(20), include_inadmissible=True))


def test_spectrum_levels_read_a_one_shot_iterator_of_n_for_every_channel():
    levels = spectra.spectrum_levels(FLAT_COULOMB, 2, (n for n in range(3)))
    assert len(levels) == 9  # 3 branches x 3 n
    assert levels == spectra.spectrum_levels(FLAT_COULOMB, 2, [0, 1, 2])
    assert [(lv.channel, lv.n) for lv in levels] == [(ch, n) for ch in spectra.CH_BRANCH for n in range(3)]


_KINDS = [
    (core.Scenario("flat", "coulomb", F(3, 2), 0.9, alpha=1.3), F(7, 2)),
    (core.Scenario("flat", "oscillator", F(1), 1.2, k_osc=2.0), F(0)),
    (core.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1), F(0)),
    (core.Scenario("lobachevsky", "oscillator", F(1), 1.0, k_osc=100.0), F(0)),
    (core.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0), F(1)),
    (core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0), F(2)),
]


@pytest.mark.parametrize("scen, j", _KINDS)
@pytest.mark.parametrize("include_inadmissible", [False, True])
def test_spectrum_levels_rows_are_the_stably_sorted_per_level_references(scen, j, include_inadmissible):
    # the row order is a stable (channel, n) sort of the levels in request
    # order, whatever the order or repetition of the requested n and channels
    chans = spectra.default_channels(scen, j)
    requests = [
        (range(12), chans),
        ([5, 0, 3], chans),
        ([7, 2, 2, 0, 7, 1], chans[::-1]),
        ([4, 1, 0], [*chans, chans[0]]),
        ([3, 3], [chans[-1], *chans, chans[-1]]),
    ]
    for ns, channels in requests:
        refs = [spectra.single_level(scen, j, n, ch) for ch in channels for n in ns]
        refs = [lv for lv in refs if include_inadmissible or lv.admissible]
        expected = sorted(refs, key=attrgetter("channel", "n"))
        assert spectra.spectrum_levels(scen, j, ns, channels, include_inadmissible) == expected
    if include_inadmissible:
        assert any(not lv.admissible for lv in spectra.spectrum_levels(scen, j, range(12), None, True)) \
            == (scen.geometry != "flat")


def test_spectrum_levels_driver():
    scen = spectra.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
    levels = spectra.spectrum_levels(scen, 2, range(4))
    assert len(levels) == 12  # 3 branches x 4 n
    keys = [(lv.channel, lv.j, lv.n) for lv in levels]
    assert keys == sorted(keys)
    scen_lob = spectra.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
    all_levels = spectra.spectrum_levels(scen_lob, 0, range(6), channels=["parity-odd"],
                                         include_inadmissible=True)
    assert [lv.admissible for lv in all_levels] == [True, True, True, False, False, False]


def test_curved_monopole_requires_minimum_j():
    scen = spectra.Scenario("lobachevsky", "coulomb", F(2), 10.0, alpha=0.1)
    with pytest.raises(spectra.SpectrumError, match="j = |k|".replace("|", "\\|")):
        spectra.spectrum_levels(scen, 3, [0], channels=["min-j"])
    levels = spectra.spectrum_levels(scen, 1, [0])  # j = |k| - 1 = 1 works
    assert levels[0].j == 1


def test_flat_no_monopole_branch_structure():
    # k = 0: the three effective L are exactly {j-1, j, j+1}
    scen = core.Scenario("flat", "coulomb", F(0), 1.0, alpha=1.0)
    for j in (1, 2, 3):
        ls = sorted(spectra.flat_channel_l(F(j), scen.charge, br) for br in ("branch-1", "branch-2", "branch-3"))
        assert ls == pytest.approx([j - 1, j, j + 1], abs=1e-9)


def test_flat_no_monopole_j0_rejected_clearly():
    scen = core.Scenario("flat", "coulomb", F(0), 1.0, alpha=1.0)
    with pytest.raises(spectra.SpectrumError, match="three-branch"):
        spectra.single_level(scen, 0, 0, "branch-1")


@pytest.fixture
def resolution_counts(monkeypatch):
    """Count channel resolutions (flat `flat_channel_l`, no-monopole
    `_nomonopole_row`) and half-integer coercions in every module that
    binds `as_half_integer`."""
    counts = dict.fromkeys(("flat", "nomonopole", "coerce"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(spectra, "flat_channel_l", counting("flat", spectra.flat_channel_l))
    monkeypatch.setattr(spectra, "_nomonopole_row", counting("nomonopole", spectra._nomonopole_row))
    coerce = counting("coerce", core.as_half_integer)
    for module in (core, mixing, spectra):
        monkeypatch.setattr(module, "as_half_integer", coerce)
    return counts


@pytest.mark.parametrize("scen, j, key", [
    (core.Scenario("flat", "coulomb", F(3, 2), 0.9, alpha=1.3), F(7, 2), "flat"),
    (core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=150.0), F(2), "nomonopole"),
])
def test_spectrum_levels_resolve_each_channel_a_fixed_number_of_times(resolution_counts, scen, j, key):
    spectra.spectrum_levels(scen, j, range(1))  # fills the per-key memos
    seen = []
    for size in (1000, 1):
        for name in resolution_counts:
            resolution_counts[name] = 0
        levels = spectra.spectrum_levels(scen, j, range(size), include_inadmissible=True)
        assert len(levels) == 3 * size
        seen.append(dict(resolution_counts))
    # per channel: one in single_level for the first n, one for the rest
    assert seen[0][key] == seen[1][key] == 2 * 3
    assert seen[0]["coerce"] == seen[1]["coerce"]  # coercions do not grow with n


def test_spectrum_levels_resolve_a_channel_at_its_first_n():
    flat = spectra.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
    curved = spectra.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1)
    # no n, no resolution: an inapplicable channel gives an empty table
    assert spectra.spectrum_levels(flat, 2, [], channels=["min-j"]) == []
    assert spectra.spectrum_levels(curved, 0, [], channels=["parity-odd"]) == []
    # the radial index is checked before the channel
    with pytest.raises(spectra.SpectrumError, match="n = -1 must be >= 0"):
        spectra.spectrum_levels(flat, 2, [-1], channels=["min-j"])
    with pytest.raises(spectra.SpectrumError, match="n = -1 must be >= 0"):
        spectra.spectrum_levels(flat, 2, [0, -1], channels=["branch-1"])
    with pytest.raises(spectra.SpectrumError, match="min-j channel requires"):
        spectra.spectrum_levels(flat, 2, [0, -1], channels=["min-j"])
    # a valid channel's levels come first, then the inapplicable one fails
    with pytest.raises(spectra.SpectrumError) as info:
        spectra.spectrum_levels(flat, 2, range(3), channels=["branch-1", "min-j"])
    assert str(info.value) == "min-j channel requires j = |k| - 1, got (j, k) = (2, 1)"


def test_admissible_levels_stop_at_first_inadmissible():
    scen = spectra.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
    levels = spectra.admissible_levels(scen, 0, "parity-odd")
    assert [lv.n for lv in levels] == [0, 1, 2]
    assert levels == [spectra.single_level(scen, 0, n, "parity-odd") for n in range(3)]
    assert not spectra.single_level(scen, 0, 3, "parity-odd").admissible
    minj = spectra.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1)
    assert [lv.n for lv in spectra.admissible_levels(minj, 0, "min-j")] == [0]


def test_admissible_levels_refuse_a_walk_past_the_level_bound():
    # the parity-odd Coulomb channel at alpha = 1, j = 0 holds sqrt(M) - 1 admissible levels
    def walk(mass):
        return spectra.admissible_levels(spectra.Scenario("lobachevsky", "coulomb", F(0), mass, alpha=1.0),
                                         0, "parity-odd")

    assert [lv.n for lv in walk(1e6)] == list(range(999))
    start = time.perf_counter()
    with pytest.raises(spectra.SpectrumError) as info:
        walk(1e200)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == ("channel 'parity-odd' has more than 100000 admissible levels; "
                               "give the radial indices explicitly")


def test_admissible_levels_refuse_flat_spectra():
    scen = spectra.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
    with pytest.raises(spectra.SpectrumError, match="infinite"):
        spectra.admissible_levels(scen, 2, "branch-1")


@pytest.mark.parametrize("scen, j, channel", [
    (spectra.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0), 2, "branch-1"),
    (spectra.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0), 0, "min-j"),
    (spectra.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0), 0, "parity-odd"),
    (spectra.Scenario("lobachevsky", "oscillator", F(1), 1.0, k_osc=100.0), 0, "min-j"),
    (spectra.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1), 0, "min-j"),
    (spectra.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0), 0, "even-1"),
])
def test_single_level_rejects_negative_n(scen, j, channel):
    with pytest.raises(spectra.SpectrumError, match="n = -1 must be >= 0"):
        spectra.single_level(scen, j, -1, channel)


def test_single_level_rejects_overflowing_energy():
    # finite parameters whose closed form overflows: an error, never an inf row
    cases = [
        (spectra.Scenario("flat", "coulomb", F(1), 1e200, alpha=1e200), 2, "branch-1"),
        (spectra.Scenario("lobachevsky", "coulomb", F(0), 1e10, alpha=1e300), 0, "parity-odd"),
        # M^2 underflows to 0: a division by zero inside the closed form
        (spectra.Scenario("lobachevsky", "coulomb", F(1), 1e-200, alpha=0.1), 0, "min-j"),
        (spectra.Scenario("lobachevsky", "oscillator", F(1), 1e-200, k_osc=1.0), 0, "min-j"),
        (spectra.Scenario("lobachevsky", "oscillator", F(0), 1e-200, k_osc=1.0), 0, "parity-odd"),
    ]
    for scen, j, channel in cases:
        with pytest.raises(spectra.SpectrumError, match="overflows"):
            spectra.single_level(scen, j, 0, channel)
    # K/M overflows, but omega = sqrt(K)/sqrt(M) = 1e300 is finite: only a large n overflows
    oscillator = spectra.Scenario("flat", "oscillator", F(1), 1e-300, k_osc=1e300)
    assert math.isfinite(spectra.single_level(oscillator, 2, 0, "branch-1").energy)
    with pytest.raises(spectra.SpectrumError, match="overflows"):
        spectra.single_level(oscillator, 2, 10**10, "branch-1")
    # NaN on an inadmissible level is the exhausted-spectrum marker, not an error
    minj = spectra.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1)
    exhausted = spectra.single_level(minj, 0, 10, "min-j")
    assert math.isnan(exhausted.energy) and not exhausted.admissible


def test_spectrum_levels_reject_an_overflow_past_the_first_n():
    # level 0 is finite; N^2 overflows at n = 10^160, so E = -inf there
    scen = spectra.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
    with pytest.raises(spectra.SpectrumError) as info:
        spectra.spectrum_levels(scen, 0, [0, 10**160], ["parity-odd"], True)
    assert str(info.value) == (
        f"E = -inf at n = {10**160} in channel 'parity-odd': "
        "the closed form overflows double precision for these parameters"
    )


def test_curved_oscillator_root_stays_finite_where_4m_overflows():
    # 4M overflows at M = 1e308, but MK = 1e298 does not: sqrt(1 + 4MK) = 2e149
    for charge, channel in ((F(0), "parity-odd"), (F(1), "min-j")):
        scen = spectra.Scenario("lobachevsky", "oscillator", charge, 1e308, k_osc=1e-10)
        root = spectra.resolve_channel(scen, 0, channel).root
        assert math.isfinite(root) and root == pytest.approx(2e149, rel=1e-12)
    # N = 2n + 3/2 = 2e150 + 3/2 breaks the restriction N < root/2 = 1e149
    level = spectra.single_level(spectra.Scenario("lobachevsky", "oscillator", F(0), 1e308, k_osc=1e-10),
                                 0, 10**150, "parity-odd")
    assert not level.admissible


@pytest.mark.parametrize("scen, j, channel, closed_form", [
    (spectra.Scenario("flat", "coulomb", F(1), 1.5, alpha=0.7, radius=3.0), 2, "branch-2",
     lambda n: spectra.single_level(spectra.Scenario("flat", "coulomb", F(1), 1.5, alpha=0.7), 2, n, "branch-2")),
    (spectra.Scenario("flat", "oscillator", F(1), 1.5, k_osc=2.0, radius=3.0), 0, "min-j",
     lambda n: spectra.single_level(spectra.Scenario("flat", "oscillator", F(1), 1.5, k_osc=2.0), 0, n, "min-j")),
    (spectra.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0, radius=3.0), 0, "even-1",
     lambda n: spectra.single_level(spectra.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0), 0, n,
                                    "even-1")),
    (spectra.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=30.0, radius=3.0), 1, "parity-odd",
     lambda n: spectra.single_level(spectra.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=30.0), 1, n,
                                    "parity-odd")),
    (spectra.Scenario("lobachevsky", "coulomb", F(2), 10.0, alpha=0.1, radius=3.0), 1, "min-j",
     lambda n: spectra.single_level(spectra.Scenario("lobachevsky", "coulomb", F(2), 10.0, alpha=0.1), 1, n,
                                    "min-j")),
    (spectra.Scenario("lobachevsky", "oscillator", F(-1), 1.0, k_osc=100.0, radius=3.0), 0, "min-j",
     lambda n: spectra.single_level(spectra.Scenario("lobachevsky", "oscillator", F(-1), 1.0, k_osc=100.0), 0, n,
                                    "min-j")),
])
def test_single_level_carries_the_callers_scenario(scen, j, channel, closed_form):
    # closed_form: the same level from the same parameters at the default radius 1
    for n in range(3):
        lv = spectra.single_level(scen, j, n, channel)
        assert lv.scenario is scen
        ref = closed_form(n)
        assert ref.scenario.radius == 1.0
        assert lv._replace(scenario=ref.scenario) == ref


# The closed forms written out per level, in the operation order of their
# formulas: the two-stage closed forms must reproduce every float bit for bit.
# Each reference returns (E, epsilon, {input: value}, admissible, reason,
# formula), so a level built with two fields swapped shows. The inputs are the
# values that `_inputs` reads from the level's resolved channel.
EXHAUSTED = "finite spectrum exhausted: "


def _reference_flat(scen, j, channel, n):
    if channel == "min-j":
        lval = 0.0
    else:
        lval = mixing.mixing_roots(j, scen.charge).l[spectra.CH_BRANCH.index(channel)]
    if scen.potential == "coulomb":
        energy = -0.5 * scen.alpha * scen.alpha * scen.mass / (n + lval + 1.0) ** 2
        return energy, None, {"L": lval}, True, "", "E = -alpha^2 M / (2 (n+L+1)^2)"
    omega = math.sqrt(scen.k_osc / scen.mass)
    base = 1.5 + lval + 2.0 * n
    return (omega * base, None, {"L": lval, "printed": 0.5 * omega * base, "quantization": omega * base}, True, "",
            "E = sqrt(K/M) (3/2 + L + 2n)  [1/2-prefactor variant kept as metadata]")


def _reference_curved_oscillator(scen, big_n):
    k_osc, mass = scen.k_osc, scen.mass
    return big_n * math.sqrt(k_osc / mass + 0.25 / (mass * mass)) - (big_n**2 + 0.25) / (2.0 * mass)


def _reference_minj(scen, j, channel, n):
    alpha, mass = scen.alpha, scen.mass
    if scen.potential == "oscillator":
        big_n = 2.0 * n + 1.5
        root = math.sqrt(1.0 + 4.0 * mass * scen.k_osc)
        s_well = (-1.0 + root) / 2.0
        ok = 2 * n + 1 < s_well
        return (_reference_curved_oscillator(scen, big_n), None, {"root": root}, ok,
                "" if ok else f"{EXHAUSTED}decaying-well condition 2n+1 < s fails (s = {s_well:.6g})",
                "E = N sqrt(K/M + 1/(2M)^2) - (N^2 + 1/4)/(2M), N = 2n + 3/2")
    formula = "eps = M sqrt(1 - (alpha^2+nu^2)/M^2)/sqrt(1 + alpha^2/nu^2); E = eps - M"
    nu_0 = (1.0 + math.sqrt(1.0 - 4.0 * alpha * alpha)) / 2.0
    nu = n + nu_0
    y = (alpha * alpha + nu * nu) / (mass * mass)
    if 1.0 - y < 0.0:
        return math.nan, None, {"nu_0": nu_0}, False, f"{EXHAUSTED}alpha^2 + nu^2 > M^2", formula
    x = alpha * alpha / (nu * nu)
    eps = mass / math.sqrt(1.0 + x) * math.sqrt(1.0 - y)
    b = (eps * alpha - nu * nu) / (2.0 * nu)
    reason = "" if b > 0 else (
        f"far-field exponent b = {b:.6g} <= 0: regular solution is non-decaying, formal level only")
    energy = mass * math.expm1(0.5 * (math.log1p(-y) - math.log1p(x))) if y != 1.0 else -mass
    return energy, eps, {"nu_0": nu_0, "b": b}, b > 0, reason, formula


def _reference_nomonopole(scen, j, channel, n):
    alpha, mass, fj = scen.alpha, scen.mass, float(j)
    formal = "" if channel == "parity-odd" else spectra.REASON_FORMAL
    if scen.potential == "oscillator":
        big_n = {"parity-odd": 2.0 * n + fj + 1.5, "even-1": 2.0 + fj + n, "even-2": 1.0 + fj + n}[channel]
        root = math.sqrt(1.0 + 4.0 * scen.k_osc * mass)
        limit = root / 2.0
        ok = big_n < limit
        return (_reference_curved_oscillator(scen, big_n), None, {"N": big_n, "root": root}, ok,
                formal if ok else f"{EXHAUSTED}restriction N < sqrt(1 + 4 K M)/2 = {limit:.6g} violated",
                "E = N sqrt(K/M + 1/(2M)^2) - (N^2 + 1/4)/(2M)")
    big_n = {"parity-odd": fj + 1.0 + n, "even-1": fj + 1.5 + 0.5 * n, "even-2": fj + 0.5 + 0.5 * n}[channel]
    energy = -mass * alpha * alpha / (2.0 * big_n * big_n) - big_n * big_n / (2.0 * mass)
    b = (mass * alpha - big_n * big_n) / (2.0 * big_n)
    return (energy, None, {"N": big_n, "b": b}, b > 0, formal if b > 0 else f"{EXHAUSTED}M alpha <= N^2 (b = {b:.6g})",
            "E = -M alpha^2/(2 N^2) - N^2/(2M)")


def _inputs(lv):
    """L (with both oscillator candidates), nu_0, N, b and sqrt(1 + 4MK) of a
    level, from its resolved channel, which `radial` and `validate` read."""
    scen = lv.scenario
    inputs = spectra.resolve_channel(scen, lv.j, lv.channel)
    if scen.geometry == "flat":
        if scen.potential == "coulomb":
            return {"L": inputs.l}
        return {"L": inputs.l, **spectra.oscillator_candidates(inputs.l, lv.n, scen.k_osc, scen.mass)}
    if scen.potential == "oscillator":
        return {"root": inputs.root} if not scen.no_monopole else {"N": inputs.big_n(lv.n), "root": inputs.root}
    if not scen.no_monopole:
        return {"nu_0": inputs.nu_0} if lv.epsilon is None else {"nu_0": inputs.nu_0, "b": inputs.b(lv.epsilon, lv.n)}
    big_n = inputs.big_n(lv.n)
    return {"N": big_n, "b": inputs.b(big_n)}


@pytest.mark.parametrize("scen, j, reference", [
    (spectra.Scenario("flat", "coulomb", F(3, 2), 0.937, alpha=1.317), F(7, 2), _reference_flat),
    (spectra.Scenario("flat", "coulomb", F(5, 2), 1.71, alpha=0.613), F(3, 2), _reference_flat),
    (spectra.Scenario("flat", "oscillator", F(1, 2), 0.7, k_osc=3.0), F(5, 2), _reference_flat),
    (spectra.Scenario("flat", "oscillator", F(3), 1.33, k_osc=0.271), F(2), _reference_flat),
    (spectra.Scenario("lobachevsky", "coulomb", F(2), 7.3, alpha=0.317), F(1), _reference_minj),
    (spectra.Scenario("lobachevsky", "coulomb", F(1), 253.7, alpha=0.0917), F(0), _reference_minj),
    (spectra.Scenario("lobachevsky", "oscillator", F(5, 2), 3.0, k_osc=400.0), F(3, 2), _reference_minj),
    (spectra.Scenario("lobachevsky", "coulomb", F(0), 2.0, alpha=40.0), F(3), _reference_nomonopole),
    (spectra.Scenario("lobachevsky", "coulomb", F(0), 1.37, alpha=17.3), F(0), _reference_nomonopole),
    (spectra.Scenario("lobachevsky", "oscillator", F(0), 0.83, k_osc=151.7), F(2), _reference_nomonopole),
])
def test_closed_forms_match_the_per_level_formulas(scen, j, reference):
    # regrouping a sum changes its rounding mostly where it crosses a power of two
    ns = sorted({*range(64), *(2**e + d for e in range(6, 31, 2) for d in range(-4, 2))})
    levels = spectra.spectrum_levels(scen, j, ns, include_inadmissible=True)
    channels = sorted(spectra.default_channels(scen, j))
    assert [(lv.channel, lv.n) for lv in levels] == [(ch, n) for ch in channels for n in ns]
    for lv in levels:
        energy, epsilon, inputs, admissible, reason, formula = reference(scen, j, lv.channel, lv.n)
        assert lv.energy.hex() == energy.hex(), (lv.channel, lv.n)
        assert lv.epsilon == epsilon
        assert {k: v.hex() for k, v in _inputs(lv).items()} == {k: v.hex() for k, v in inputs.items()}
        assert lv.scenario is scen and lv.j == j and type(lv.n) is int
        assert lv.derivation == ("heun-formal-beta" if lv.channel.startswith("even") else "hypergeometric-polynomial")
        assert (lv.admissible, lv.reason, lv.formula) == (admissible, reason, formula), (lv.channel, lv.n)


@pytest.mark.parametrize("energy", [math.nan, -math.inf, math.inf, 0.0, 0.5])
def test_peculiar_flat_level_needs_a_finite_negative_energy(energy):
    with pytest.raises(spectra.SpectrumError, match="needs a finite E < 0"):
        spectra.peculiar_flat_level(energy, core.Scenario("flat", "none", F(1), 1.0))


def test_peculiar_flat_level_sits_in_the_reduced_channel():
    # the CLI prints its own --j, so only the record itself pins j = |k| - 1
    for k in (F(1), F(3, 2), F(-2)):
        lv = spectra.peculiar_flat_level(-0.5, core.Scenario("flat", "none", k, 1.0))
        assert (lv.channel, lv.j, lv.n, lv.energy) == ("min-j", abs(k) - 1, 0, -0.5)
