"""Closed-form spectra: values, admissibility, monotonicity, units, records."""

import math
from fractions import Fraction

import pytest

from monopole_spectra import core, mixing, spectra

F = Fraction


def test_flat_coulomb_min_j_ground_state():
    lv = spectra.flat_coulomb(1.0, 1.0, 0, 1, 0, "min-j")
    assert lv.energy == -0.5
    assert lv.admissible and lv.derivation == "hypergeometric-polynomial"


def test_flat_coulomb_free_limit():
    for n in range(4):
        lv = spectra.flat_coulomb(1e-8, 1.0, 0, 1, n, "min-j")
        assert abs(lv.energy) < 1e-15


def test_flat_coulomb_branch_composition():
    lv = spectra.flat_coulomb(1.0, 1.0, 2, 1, 0, "branch-3")
    a3 = mixing.mixing_roots(2, 1).a[2]
    l3 = -0.5 + math.sqrt(0.25 + 2 * a3)
    assert lv.energy == pytest.approx(-0.5 / (l3 + 1.0) ** 2, abs=1e-14)
    assert lv.extras["L"] == pytest.approx(l3, abs=1e-14)


def test_flat_coulomb_channel_misuse_rejected():
    with pytest.raises(spectra.SpectrumError):
        spectra.flat_coulomb(1.0, 1.0, 2, 1, 0, "min-j")
    with pytest.raises(spectra.SpectrumError):
        spectra.flat_coulomb(1.0, 1.0, 0, 1, 0, "branch-1")


def test_flat_oscillator_candidates_min_j():
    lv = spectra.flat_oscillator(1.0, 1.0, 0, 1, 0, "min-j")
    assert lv.extras["candidates"] == {"printed": 0.75, "quantization": 1.5}
    assert lv.energy == 1.5  # oracle-confirmed default


def test_flat_oscillator_level_spacing_branch_independent():
    for branch in ("branch-1", "branch-2", "branch-3"):
        e0 = spectra.flat_oscillator(2.0, 1.5, 2, 1, 0, branch).energy
        e1 = spectra.flat_oscillator(2.0, 1.5, 2, 1, 1, branch).energy
        assert e1 - e0 == pytest.approx(2.0 * math.sqrt(2.0 / 1.5), rel=1e-13)


def test_lob_minj_coulomb_ground_state():
    lv = spectra.lob_minj_coulomb(0.1, 10.0, 0)
    nu = (1.0 + math.sqrt(0.96)) / 2.0
    eps = 10.0 / math.sqrt(1 + 0.01 / nu**2) * math.sqrt(1 - (0.01 + nu**2) / 100.0)
    assert lv.extras["nu"] == pytest.approx(nu, abs=1e-15)
    assert lv.epsilon == pytest.approx(eps, abs=1e-12)
    assert lv.energy == pytest.approx(eps - 10.0, abs=1e-12)
    assert lv.admissible


def test_lob_minj_coulomb_free_limit():
    # alpha -> 0: nu -> 1 and eps -> M sqrt(1 - 1/M^2)
    lv = spectra.lob_minj_coulomb(1e-9, 10.0, 0)
    assert lv.extras["nu"] == pytest.approx(1.0, abs=1e-12)
    assert lv.epsilon == pytest.approx(10.0 * math.sqrt(1 - 0.01), rel=1e-9)


def test_lob_minj_coulomb_finite_spectrum():
    lv = spectra.lob_minj_coulomb(0.1, 10.0, 10)
    assert not lv.admissible and "finite spectrum exhausted" in lv.reason


def test_lob_minj_coulomb_nondecaying_levels_flagged():
    # n >= 1 at these parameters has b < 0: the closed form is formal only
    lv = spectra.lob_minj_coulomb(0.1, 10.0, 1)
    assert not lv.admissible and lv.extras["b"] < 0


def test_lob_minj_coulomb_alpha_domain():
    with pytest.raises(spectra.SpectrumError):
        spectra.lob_minj_coulomb(0.6, 10.0, 0)


def test_lob_minj_oscillator_value():
    lv = spectra.lob_minj_oscillator(10.0, 1.0, 0)
    assert lv.energy == pytest.approx(1.5 * math.sqrt(10.25) - 1.25, abs=1e-14)
    assert lv.energy == pytest.approx(3.55234, abs=1e-5)
    assert lv.admissible


def test_lob_minj_oscillator_well_identity():
    # E = K/2 - (s - (2n+1))^2/(2M) with s(s+1) = M K
    for (k_osc, mass) in [(10.0, 1.0), (100.0, 1.0), (25.0, 2.0)]:
        s = (-1.0 + math.sqrt(1.0 + 4.0 * mass * k_osc)) / 2.0
        n = 0
        while 2 * n + 1 < s:
            lv = spectra.lob_minj_oscillator(k_osc, mass, n)
            ident = k_osc / 2.0 - (s - (2 * n + 1)) ** 2 / (2.0 * mass)
            assert lv.energy == pytest.approx(ident, abs=1e-12)
            n += 1


def test_lob_minj_oscillator_free_limit_inadmissible():
    lv = spectra.lob_minj_oscillator(1e-12, 1.0, 0)
    assert not lv.admissible


def test_lob_nomonopole_coulomb_values_and_admissibility():
    lv = spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, 0, "parity-odd")
    assert lv.energy == -50.5 and lv.admissible
    lv3 = spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, 3, "parity-odd")
    assert not lv3.admissible  # M alpha = 10 < N^2 = 16


def test_lob_nomonopole_coulomb_channel_shift():
    # even-1 and even-2 differ only through N shifted by one unit
    for n in range(3):
        l1 = spectra.lob_nomonopole_coulomb(10.0, 1.0, 1, n, "even-1")
        l2 = spectra.lob_nomonopole_coulomb(10.0, 1.0, 1, n + 2, "even-2")
        assert l1.extras["N"] == pytest.approx(l2.extras["N"], abs=1e-15)
        assert l1.energy == pytest.approx(l2.energy, abs=1e-12)


def test_lob_nomonopole_coulomb_exponent_identity():
    # E = -alpha - 2 b^2 / M with b = (M alpha - N^2)/(2N)
    for (alpha, mass, j, n, ch) in [
        (10.0, 1.0, 0, 0, "parity-odd"), (10.0, 1.0, 1, 1, "parity-odd"),
        (10.0, 1.0, 0, 1, "even-1"), (10.0, 1.0, 0, 2, "even-2"),
    ]:
        lv = spectra.lob_nomonopole_coulomb(alpha, mass, j, n, ch)
        b = lv.extras["b"]
        assert lv.energy == pytest.approx(-alpha - 2.0 * b * b / mass, abs=1e-12)


def test_lob_nomonopole_coulomb_derivation_labels():
    assert spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, 0, "parity-odd").derivation == \
        "hypergeometric-polynomial"
    assert spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, 0, "even-1").derivation == \
        "heun-formal-beta"


def test_lob_nomonopole_oscillator_values():
    lv = spectra.lob_nomonopole_oscillator(100.0, 1.0, 0, 0, "parity-odd")
    assert lv.extras["N"] == 1.5
    assert lv.energy == pytest.approx(1.5 * math.sqrt(100.25) - (2.25 + 0.25) / 2.0, abs=1e-12)
    assert lv.admissible  # 1.5 < sqrt(401)/2 ~ 10.01
    # even channels: N differs by exactly one at equal (j, n)
    n1 = spectra.lob_nomonopole_oscillator(100.0, 1.0, 1, 2, "even-1").extras["N"]
    n2 = spectra.lob_nomonopole_oscillator(100.0, 1.0, 1, 2, "even-2").extras["N"]
    assert n1 - n2 == 1.0


def test_lob_nomonopole_oscillator_restriction():
    lv = spectra.lob_nomonopole_oscillator(100.0, 1.0, 0, 5, "parity-odd")  # N = 11.5
    assert not lv.admissible and "restriction" in lv.reason


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
                    assert lv.to_record()["reason"] == spectra.REASON_FORMAL
                # the first rejected level keeps its exhaustion reason
                rejected = spectra.single_level(scen, j, len(levels), channel)
                assert not rejected.admissible
                assert rejected.reason.startswith(spectra.REASON_EXHAUSTED)
            for lv in spectra.admissible_levels(scen, j, "parity-odd"):
                assert lv.reason == ""
    assert spectra.REASON_FORMAL.startswith("formal: ")


def test_monotonicity_within_channels():
    def energies(maker, count):
        out = []
        for n in range(count):
            lv = maker(n)
            if lv.admissible:
                out.append(lv.energy)
        return out

    seqs = [
        energies(lambda n: spectra.flat_coulomb(1.0, 1.0, 2, 1, n, "branch-2"), 6),
        energies(lambda n: spectra.flat_oscillator(1.0, 1.0, 2, 1, n, "branch-1"), 6),
        energies(lambda n: spectra.lob_minj_oscillator(100.0, 1.0, n), 8),
        energies(lambda n: spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, n, "parity-odd"), 8),
        energies(lambda n: spectra.lob_nomonopole_oscillator(100.0, 1.0, 0, n, "parity-odd"), 8),
        energies(lambda n: spectra.lob_minj_coulomb(0.3, 30.0, n), 8),
    ]
    for seq in seqs:
        assert len(seq) >= 1
        assert all(b > a for a, b in zip(seq, seq[1:]))


def test_unit_conversion_identity_is_noop():
    units = spectra.UnitSystem(hbar=1.0, c=1.0, mass=1.0, radius=1.0)
    lv = spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, 0, "parity-odd")
    assert spectra.to_physical_units(lv, units).energy == lv.energy


def test_unit_conversion_requires_radius_for_curved():
    lv = spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, 0, "parity-odd")
    with pytest.raises(spectra.SpectrumError, match="curvature radius"):
        spectra.to_physical_units(lv, spectra.UnitSystem())
    flat = spectra.flat_coulomb(1.0, 1.0, 0, 1, 0, "min-j")
    assert spectra.to_physical_units(flat, spectra.UnitSystem()).energy == flat.energy


def test_fine_structure_default_coupling():
    units = spectra.UnitSystem(radius=2.0)
    assert spectra.usual_units_coulomb_energy(units, big_n=1.0) == pytest.approx(
        spectra.usual_units_coulomb_energy(units, alpha=units.alpha_fs, big_n=1.0)
    )
    assert units.alpha_fs == pytest.approx(1 / 137.036, rel=1e-5)


def test_unit_conversion_involutive():
    units = spectra.UnitSystem(hbar=1.0546e-34, c=2.9979e8, mass=9.109e-31, radius=5.29e-11)
    lv = spectra.lob_nomonopole_coulomb(units.natural_mass * 1e-3, units.natural_mass, 0, 0, "parity-odd")
    there = spectra.to_physical_units(lv, units)
    back = spectra.from_physical_units(there, units)
    assert back.energy == pytest.approx(lv.energy, rel=1e-12)


def test_unit_conversion_reproduces_printed_coulomb_form():
    units = spectra.UnitSystem(hbar=1.3, c=0.8, mass=2.1, radius=3.7)
    alpha = 1.0 / 137.0
    m_nat = units.natural_mass
    for big_n in (1.0, 2.0, 3.0):
        j, n = 0, int(big_n) - 1
        lv = spectra.lob_nomonopole_coulomb(alpha, m_nat, j, n, "parity-odd")
        phys = spectra.to_physical_units(lv, units)
        assert phys.energy == pytest.approx(
            spectra.usual_units_coulomb_energy(units, alpha, big_n), rel=1e-12
        )


def test_unit_conversion_reproduces_printed_oscillator_form():
    units = spectra.UnitSystem(hbar=0.9, c=1.7, mass=1.2, radius=2.5)
    k_phys = 0.37
    k_nat = units.natural_oscillator_constant(k_phys)
    m_nat = units.natural_mass
    lv = spectra.lob_minj_oscillator(k_nat, m_nat, 1)
    phys = spectra.to_physical_units(lv, units)
    assert phys.energy == pytest.approx(
        spectra.usual_units_oscillator_energy(units, k_phys, 2 * 1 + 1.5), rel=1e-12
    )


def test_unit_conversion_reproduces_printed_relativistic_form():
    units = spectra.UnitSystem(hbar=1.1, c=2.0, mass=0.8, radius=4.0)
    m_nat = units.natural_mass
    alpha = 0.05
    lv = spectra.lob_minj_coulomb(alpha, m_nat, 0)
    phys = spectra.to_physical_units(lv, units)
    assert phys.epsilon == pytest.approx(
        spectra.usual_units_minj_coulomb_epsilon(units, alpha, lv.extras["nu"]), rel=1e-12
    )


def test_level_record_schema():
    lv = spectra.lob_minj_coulomb(0.1, 10.0, 0)
    rec = lv.to_record()
    assert set(rec) == {"scenario", "channel", "j2", "n", "E", "derivation",
                        "admissible", "reason", "formula", "epsilon"}
    assert rec["j2"] == 0 and rec["channel"] == "min-j"


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
    for j in (1, 2, 3):
        ls = sorted(spectra.flat_coulomb(1.0, 1.0, j, 0, 0, br).extras["L"]
                    for br in ("branch-1", "branch-2", "branch-3"))
        assert ls == pytest.approx([j - 1, j, j + 1], abs=1e-9)


def test_flat_no_monopole_j0_rejected_clearly():
    with pytest.raises(spectra.SpectrumError, match="three-branch"):
        spectra.flat_coulomb(1.0, 1.0, 0, 0, 0, "branch-1")


@pytest.fixture
def resolution_counts(monkeypatch):
    """Count channel resolutions (flat `_flat_channel`, no-monopole
    `_check_nomonopole_j`) and half-integer coercions in every module that
    binds `as_half_integer`."""
    counts = dict.fromkeys(("flat", "nomonopole", "coerce"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(spectra, "_flat_channel", counting("flat", spectra._flat_channel))
    monkeypatch.setattr(spectra, "_check_nomonopole_j", counting("nomonopole", spectra._check_nomonopole_j))
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
    assert levels == [spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, n, "parity-odd") for n in range(3)]
    assert not spectra.single_level(scen, 0, 3, "parity-odd").admissible
    minj = spectra.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1)
    assert [lv.n for lv in spectra.admissible_levels(minj, 0, "min-j")] == [0]


def test_admissible_levels_refuse_flat_spectra():
    scen = spectra.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
    with pytest.raises(spectra.SpectrumError, match="infinite"):
        spectra.admissible_levels(scen, 2, "branch-1")


@pytest.mark.parametrize("scen, j, channel", [
    (spectra.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0), 2, "branch-1"),
    (spectra.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0), 0, "min-j"),
    (spectra.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0), 0, "parity-odd"),
    (spectra.Scenario("lobachevsky", "oscillator", F(1), 1.0, k_osc=100.0), 0, "min-j"),
])
def test_single_level_rejects_negative_n(scen, j, channel):
    with pytest.raises(spectra.SpectrumError, match="n = -1 must be >= 0"):
        spectra.single_level(scen, j, -1, channel)


def test_single_level_rejects_overflowing_energy():
    # finite parameters whose closed form overflows: an error, never an inf row
    cases = [
        (spectra.Scenario("flat", "coulomb", F(1), 1e200, alpha=1e200), 2, "branch-1"),
        (spectra.Scenario("lobachevsky", "coulomb", F(0), 1e10, alpha=1e300), 0, "parity-odd"),
        (spectra.Scenario("flat", "oscillator", F(1), 1e-300, k_osc=1e300), 2, "branch-1"),
    ]
    for scen, j, channel in cases:
        with pytest.raises(spectra.SpectrumError, match="overflows"):
            spectra.single_level(scen, j, 0, channel)
    # NaN on an inadmissible level is the exhausted-spectrum marker, not an error
    minj = spectra.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1)
    exhausted = spectra.single_level(minj, 0, 10, "min-j")
    assert math.isnan(exhausted.energy) and not exhausted.admissible


@pytest.mark.parametrize("scen, j, channel, closed_form", [
    (spectra.Scenario("flat", "coulomb", F(1), 1.5, alpha=0.7, radius=3.0), 2, "branch-2",
     lambda n: spectra.flat_coulomb(0.7, 1.5, 2, 1, n, "branch-2")),
    (spectra.Scenario("flat", "oscillator", F(1), 1.5, k_osc=2.0, radius=3.0), 0, "min-j",
     lambda n: spectra.flat_oscillator(2.0, 1.5, 0, 1, n, "min-j")),
    (spectra.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0, radius=3.0), 0, "even-1",
     lambda n: spectra.lob_nomonopole_coulomb(10.0, 1.0, 0, n, "even-1")),
    (spectra.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=30.0, radius=3.0), 1, "parity-odd",
     lambda n: spectra.lob_nomonopole_oscillator(30.0, 1.0, 1, n, "parity-odd")),
    (spectra.Scenario("lobachevsky", "coulomb", F(2), 10.0, alpha=0.1, radius=3.0), 1, "min-j",
     lambda n: spectra.lob_minj_coulomb(0.1, 10.0, n, 2)),
    (spectra.Scenario("lobachevsky", "oscillator", F(-1), 1.0, k_osc=100.0, radius=3.0), 0, "min-j",
     lambda n: spectra.lob_minj_oscillator(100.0, 1.0, n, -1)),
])
def test_single_level_carries_the_callers_scenario(scen, j, channel, closed_form):
    for n in range(3):
        lv = spectra.single_level(scen, j, n, channel)
        assert lv.scenario is scen
        ref = closed_form(n)
        assert ref.scenario.radius == 1.0
        assert (lv.energy, lv.admissible, lv.j, lv.extras) == (ref.energy, ref.admissible, ref.j, ref.extras)


# The closed forms written out per level, in the operation order of their
# formulas: the two-stage closed forms must reproduce every float bit for bit.
# Each reference returns (E, epsilon, {extra: value}).
def _reference_flat(scen, j, channel, n):
    if channel == "min-j":
        lval, extras = 0.0, {}
    else:
        triple, i = mixing.mixing_roots(j, scen.charge), spectra.CH_BRANCH.index(channel)
        lval, extras = triple.l[i], {"A": triple.a[i]}
    extras["L"] = lval
    if scen.potential == "coulomb":
        return -0.5 * scen.alpha * scen.alpha * scen.mass / (n + lval + 1.0) ** 2, None, extras
    omega = math.sqrt(scen.k_osc / scen.mass)
    base = 1.5 + lval + 2.0 * n
    return omega * base, None, {**extras, "printed": 0.5 * omega * base, "quantization": omega * base}


def _reference_curved_oscillator(scen, big_n):
    k_osc, mass = scen.k_osc, scen.mass
    return big_n * math.sqrt(k_osc / mass + 0.25 / (mass * mass)) - (big_n**2 + 0.25) / (2.0 * mass)


def _reference_minj(scen, j, channel, n):
    alpha, mass = scen.alpha, scen.mass
    if scen.potential == "oscillator":
        big_n = 2.0 * n + 1.5
        s_well = (-1.0 + math.sqrt(1.0 + 4.0 * mass * scen.k_osc)) / 2.0
        return _reference_curved_oscillator(scen, big_n), None, {"N": big_n, "s": s_well}
    nu = n + (1.0 + math.sqrt(1.0 - 4.0 * alpha * alpha)) / 2.0
    rad = 1.0 - (alpha * alpha + nu * nu) / (mass * mass)
    if rad < 0.0:
        return math.nan, None, {"nu": nu}
    eps = mass / math.sqrt(1.0 + alpha * alpha / (nu * nu)) * math.sqrt(rad)
    return eps - mass, eps, {"nu": nu, "b": (eps * alpha - nu * nu) / (2.0 * nu)}


def _reference_nomonopole(scen, j, channel, n):
    alpha, mass, fj = scen.alpha, scen.mass, float(j)
    if scen.potential == "oscillator":
        big_n = {"parity-odd": 2.0 * n + fj + 1.5, "even-1": 2.0 + fj + n, "even-2": 1.0 + fj + n}[channel]
        limit = math.sqrt(1.0 + 4.0 * scen.k_osc * mass) / 2.0
        return _reference_curved_oscillator(scen, big_n), None, {"N": big_n, "N_limit": limit}
    big_n = {"parity-odd": fj + 1.0 + n, "even-1": fj + 1.5 + 0.5 * n, "even-2": fj + 0.5 + 0.5 * n}[channel]
    energy = -mass * alpha * alpha / (2.0 * big_n * big_n) - big_n * big_n / (2.0 * mass)
    return energy, None, {"N": big_n, "b": (mass * alpha - big_n * big_n) / (2.0 * big_n)}


def _float_extras(extras):
    out = {}
    for key, value in extras.items():
        if isinstance(value, dict):
            out.update(value)
        elif isinstance(value, float):
            out[key] = value
    return out


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
    assert len(levels) == len(spectra.default_channels(scen, j)) * len(ns)
    assert len({id(lv.extras) for lv in levels}) == len(levels)  # each level owns its extras
    for lv in levels:
        energy, epsilon, extras = reference(scen, j, lv.channel, lv.n)
        assert lv.energy.hex() == energy.hex(), (lv.channel, lv.n)
        assert lv.epsilon == epsilon
        assert {k: v.hex() for k, v in _float_extras(lv.extras).items()} == {k: v.hex() for k, v in extras.items()}
