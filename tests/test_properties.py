"""Property tests: input rejection, mixing roots, level monotonicity, unit and
config round-trips, over generated parameters."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from monopole_spectra import cli, core, mixing, spectra  # noqa: E402

# derandomized and without an example database, so that every run checks the
# same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

positive = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(field=st.sampled_from(["mass", "alpha", "k_osc", "radius"]), value=st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]))
@example(field="k_osc", value=5e-324)
@example(field="radius", value=sys.float_info.min)
def test_scenario_accepts_exactly_the_finite_positive_values(field, value):
    kwargs = {"mass": 1.0, "alpha": 1.0, "k_osc": 1.0, "radius": 1.0, field: value}
    potential = "oscillator" if field == "k_osc" else "coulomb"
    if math.isfinite(value) and value >= sys.float_info.min:  # a subnormal value is refused
        assert getattr(core.Scenario("lobachevsky", potential, Fraction(1), **kwargs), field) == value
    else:
        with pytest.raises(ValueError):
            core.Scenario("lobachevsky", potential, Fraction(1), **kwargs)


@PROPERTY
@given(n=st.integers(min_value=-10**6, max_value=-1),
       potential=st.sampled_from(["coulomb", "oscillator"]),
       geometry=st.sampled_from(["flat", "lobachevsky"]))
def test_negative_radial_index_rejected(n, potential, geometry):
    scen = core.Scenario(geometry, potential, Fraction(1), 2.0, alpha=0.2, k_osc=3.0)
    channel = spectra.default_channels(scen, 0)[0]
    with pytest.raises(spectra.SpectrumError, match="must be >= 0"):
        spectra.single_level(scen, 0, n, channel)
    with pytest.raises(ValueError):
        cli.parse_n_range(f"{n}..0")


@PROPERTY
@given(k2=st.integers(min_value=-8, max_value=8), dj=st.integers(min_value=0, max_value=6))
def test_mixing_roots_match_eigensolve(k2, dj):
    k = Fraction(k2, 2)
    j = abs(k) + dj
    if j == 0:
        return  # j = k = 0 has a single physical channel, no three-root triple
    cp = core.couplings(j, k)
    triple = mixing.mixing_roots(j, k)
    numeric = np.sort(np.linalg.eigvalsh(mixing.build_matrix(cp.c, cp.d)))
    assert list(triple.a) == sorted(triple.a)
    assert np.max(np.abs(np.array(triple.a) - numeric)) <= 1e-10
    assert triple.a[0] >= -1e-12


@PROPERTY
@given(k2=st.integers(min_value=-12, max_value=12), dj=st.integers(min_value=0, max_value=8),
       form=st.sampled_from([Fraction, str, float]))
def test_memoized_roots_equal_uncached_bit_for_bit(k2, dj, form):
    k = Fraction(k2, 2)
    j = abs(k) + dj
    if j == 0:
        return  # j = k = 0 has no three-root triple
    memo = mixing.mixing_roots(form(j), form(k))
    fresh = mixing.roots(mixing.cubic_invariants(j, k))
    assert [x.hex() for x in memo.a + memo.l] == [x.hex() for x in fresh.a + fresh.l]


@PROPERTY
@given(mass=positive, coupling=positive, j=st.integers(min_value=0, max_value=3),
       potential=st.sampled_from(["coulomb", "oscillator"]),
       channel=st.sampled_from(["parity-odd", "even-1", "even-2"]))
def test_curved_no_monopole_levels_increase(mass, coupling, j, potential, channel):
    scen = core.Scenario("lobachevsky", potential, Fraction(0), mass, alpha=coupling, k_osc=coupling)
    energies = [lv.energy for lv in spectra.admissible_levels(scen, j, channel)]
    assert all(math.isfinite(e) for e in energies)
    assert all(b > a for a, b in zip(energies, energies[1:]))


@PROPERTY
@given(mass=positive, k_osc=positive, alpha=st.floats(min_value=1e-3, max_value=0.49))
def test_curved_minj_levels_increase(mass, k_osc, alpha):
    for scen in (core.Scenario("lobachevsky", "coulomb", Fraction(1), mass, alpha=alpha),
                 core.Scenario("lobachevsky", "oscillator", Fraction(1), mass, k_osc=k_osc)):
        energies = [lv.energy for lv in spectra.admissible_levels(scen, 0, "min-j")]
        assert all(math.isfinite(e) for e in energies)
        assert all(b > a for a, b in zip(energies, energies[1:]))


@PROPERTY
@given(mass=positive, coupling=positive, branch=st.sampled_from(spectra.CH_BRANCH),
       potential=st.sampled_from(["coulomb", "oscillator"]))
def test_flat_levels_increase(mass, coupling, branch, potential):
    scen = core.Scenario("flat", potential, Fraction(1), mass, alpha=coupling, k_osc=coupling)
    energies = [lv.energy for lv in spectra.spectrum_levels(scen, 2, range(6), [branch])]
    assert len(energies) == 6
    assert all(b > a for a, b in zip(energies, energies[1:]))


def _bits(levels):
    """Each level's channel, n, and every float as its bits, scenario aside."""
    hexed = lambda x: None if x is None else x.hex()
    return [(lv.channel, lv.j, lv.n, hexed(lv.energy), hexed(lv.epsilon), lv.admissible, lv.reason)
            for lv in levels]


@PROPERTY
@given(mass=positive, coupling=positive, k2=st.integers(min_value=1, max_value=6), dj=st.integers(0, 2),
       potential=st.sampled_from(["coulomb", "oscillator"]))
def test_flat_levels_obey_their_exact_relations(mass, coupling, k2, dj, potential):
    # E(k) = E(-k); Coulomb E(2M) = 2 E(M), E(2 alpha) = 4 E(alpha); oscillator
    # E(4K) = 2 E(K): powers of two scale every rounding step exactly
    j = Fraction(k2, 2) - 1 + dj  # dj = 0: the reduced min-j channel
    hypothesis.assume(j >= 0 and (dj > 0 or k2 >= 2))
    coupling_name = "alpha" if potential == "coulomb" else "k_osc"

    def levels(charge, m=mass, g=coupling):
        scen = core.Scenario("flat", potential, charge, m, **{coupling_name: g})
        return spectra.spectrum_levels(scen, j, range(6))

    base = levels(Fraction(k2, 2))
    assert len(base) == 6 * len(spectra.default_channels(base[0].scenario, j))
    assert _bits(levels(Fraction(-k2, 2))) == _bits(base)
    scaled = [(lv.energy * 2.0).hex() for lv in base]
    if potential == "coulomb":
        assert [lv.energy.hex() for lv in levels(Fraction(k2, 2), m=2.0 * mass)] == scaled
        assert [lv.energy.hex() for lv in levels(Fraction(k2, 2), g=2.0 * coupling)] == [
            (lv.energy * 4.0).hex() for lv in base]
    else:
        assert [lv.energy.hex() for lv in levels(Fraction(k2, 2), g=4.0 * coupling)] == scaled


@PROPERTY
@given(mass=positive, k_osc=positive, alpha=st.floats(min_value=1e-3, max_value=0.49),
       k2=st.integers(min_value=2, max_value=6))
def test_curved_minj_levels_do_not_depend_on_the_sign_of_k(mass, k_osc, alpha, k2):
    j = Fraction(k2, 2) - 1
    for potential in ("coulomb", "oscillator"):
        plus, minus = (core.Scenario("lobachevsky", potential, charge, mass, alpha=alpha, k_osc=k_osc)
                       for charge in (Fraction(k2, 2), Fraction(-k2, 2)))
        assert _bits(spectra.spectrum_levels(plus, j, range(6), include_inadmissible=True)) == _bits(
            spectra.spectrum_levels(minus, j, range(6), include_inadmissible=True))


@PROPERTY
@given(hbar=positive, c=positive, mass=positive, radius=positive, n=st.integers(0, 3))
def test_unit_round_trip(hbar, c, mass, radius, n):
    units = spectra.UnitSystem(hbar=hbar, c=c, mass=mass, radius=radius)
    scen = core.Scenario("lobachevsky", "coulomb", Fraction(1), 30.0, alpha=0.3)
    level = spectra.single_level(scen, 0, n, "min-j")
    back = spectra.from_physical_units(spectra.to_physical_units(level, units), units)
    assert back.energy == pytest.approx(level.energy, rel=1e-12)
    assert back.epsilon == pytest.approx(level.epsilon, rel=1e-12)
    assert back._replace(energy=level.energy, epsilon=level.epsilon) == level


_key = st.from_regex(r"[a-z][a-z0-9-]{0,11}", fullmatch=True)
_value = st.from_regex(r"([A-Za-z0-9./,:=-]([A-Za-z0-9./,:= -]{0,14}[A-Za-z0-9./,:=-])?)?", fullmatch=True)


@PROPERTY
@given(cfg=st.dictionaries(_key, _value, max_size=8))
def test_config_round_trip(cfg):
    text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
    assert cli.parse_config_text(text) == cfg
