"""Quantum-number bookkeeping: admissible j, couplings, exact identities."""

import math
from fractions import Fraction

import pytest

from monopole_spectra import core, mixing, spectra


F = Fraction


def test_allowed_j_half_charge():
    # |k| = 1/2 starts at |k|
    assert core.min_allowed_j(F(1, 2)) == F(1, 2)
    candidates = (0, F(1, 2), 1, F(3, 2), 2, F(5, 2))
    assert [j for j in candidates if core.j_is_allowed(j, F(1, 2))] == [F(1, 2), F(3, 2), F(5, 2)]


def test_allowed_j_integer_charge_starts_below_k():
    assert core.min_allowed_j(1) == 0
    assert [j for j in (0, F(1, 2), 1, F(3, 2), 2) if core.j_is_allowed(j, 1)] == [0, 1, 2]


def test_allowed_j_no_monopole_limit():
    assert core.min_allowed_j(0) == 0
    assert [j for j in (0, F(1, 2), 1, F(3, 2), 2) if core.j_is_allowed(j, 0)] == [0, 1, 2]


def test_allowed_j_rejects_non_half_integer():
    with pytest.raises(core.QuantumNumberError):
        core.j_is_allowed(2, 0.3)
    with pytest.raises(core.QuantumNumberError):
        core.min_allowed_j(0.3)


def test_allowed_j_rejects_too_small_jmax():
    # no j <= 1 is admissible for k = 3: the smallest is |k| - 1 = 2
    assert core.min_allowed_j(3) == 2
    assert not any(core.j_is_allowed(j, 3) for j in (-1, 0, 1))


@pytest.mark.parametrize("k", [F(1, 2), 1, F(3, 2), 2, 3])
def test_allowed_j_strictly_increasing_same_parity(k):
    j0 = core.min_allowed_j(k)
    steps = [j0 + F(i, 2) for i in range(13)]
    js = [j for j in steps if core.j_is_allowed(j, k)]
    assert js[0] == j0 and len(js) == 7
    assert all(b - a == 1 for a, b in zip(js, js[1:]))
    assert all((j - k).denominator == 1 for j in js)


def test_couplings_j2_k1_exact():
    # c^2 = (j+k)(j-k+1)/4 = 3*2/4, d^2 = (j-k)(j+k+1)/4 = 1*4/4
    cp = core.couplings(2, 1)
    assert cp.c == pytest.approx(math.sqrt(6) / 2, abs=1e-15)
    assert cp.d == pytest.approx(1.0, abs=1e-15)


def test_couplings_j_equals_k_has_zero_d():
    for k in (1, F(3, 2), 2):
        assert core.couplings(k, k).d == 0.0


def test_couplings_no_monopole_j1():
    cp = core.couplings(1, 0)
    assert cp.c == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert cp.d == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    # nu = c sqrt(2) = 1 in the even-parity reduction
    assert cp.c * math.sqrt(2) == pytest.approx(1.0, abs=1e-15)


def test_couplings_min_j_rejected():
    with pytest.raises(core.QuantumNumberError):
        core.couplings(0, 1)


def test_couplings_sum_identity_exact_rationals():
    # c^2 + d^2 = (j(j+1) - k^2)/2 holds as exact rationals
    for k2 in range(0, 9):
        k = F(k2, 2)
        j = core.min_allowed_j(k) if k < 1 else k
        for _ in range(6):
            c2, d2 = core.coupling_squares(j, k)
            assert c2 + d2 == (j * (j + 1) - k * k) / 2
            j += 1


def test_couplings_charge_flip_swaps_c_d():
    for (j, k) in [(2, 1), (F(5, 2), F(3, 2)), (4, 2)]:
        cp = core.couplings(j, k)
        cm = core.couplings(j, -k)
        assert cp.c == pytest.approx(cm.d, abs=1e-15)
        assert cp.d == pytest.approx(cm.c, abs=1e-15)


def test_channel_kind():
    assert core.channel_kind(0, 1) == "min-j"
    assert core.channel_kind(1, 1) == "j-equals-k"
    assert core.channel_kind(2, 1) == "generic"
    assert core.channel_kind(F(1, 2), F(1, 2)) == "j-equals-k"


def test_monopole_charge_validation():
    # the charge is a half-integer; k = 0 is the no-monopole limit
    assert not core.Scenario("flat", "coulomb", F(1, 2), 1.0, alpha=1.0).no_monopole
    assert core.Scenario("flat", "coulomb", 0, 1.0, alpha=1.0).no_monopole
    with pytest.raises(core.QuantumNumberError):
        core.Scenario("flat", "coulomb", F(1, 3), 1.0, alpha=1.0)


def test_quantum_numbers_validation():
    assert core.j_is_allowed(F(0), F(1))  # j = |k| - 1 admissible
    assert not core.j_is_allowed(F(0), F(1, 2))  # below |k| for half charge
    assert not core.j_is_allowed(F(1, 2), F(1))  # parity mismatch
    scen = core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
    with pytest.raises(spectra.SpectrumError, match="n = -1 must be >= 0"):
        spectra.single_level(scen, F(2), -1, "branch-1")


def test_scenario_validation():
    with pytest.raises(ValueError):
        core.Scenario("flat", "coulomb", F(1), 1.0, alpha=0.0)
    with pytest.raises(ValueError):
        core.Scenario("lobachevsky", "none", F(1), 1.0, radius=-1.0)
    with pytest.raises(ValueError):
        core.Scenario("flat", "oscillator", F(1), -1.0, k_osc=1.0)
    scen = core.Scenario("lobachevsky", "coulomb", F(0), 2.0, alpha=3.0, radius=1.5)
    rec = scen.to_record()
    assert rec["charge2"] == 0 and rec["alpha"] == 3.0 and rec["radius"] == 1.5


@pytest.mark.parametrize("field", ["mass", "alpha", "k_osc", "radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite(field, value):
    kwargs = {"mass": 1.0, "alpha": 1.0, "k_osc": 1.0, "radius": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        core.Scenario("lobachevsky", "coulomb", F(1), **kwargs)


@pytest.fixture
def admissibility_calls(monkeypatch):
    """Empty the channel-kind memo and record every admissibility check."""
    core.channel_kind.cache_clear()
    calls = []
    uncached = core.j_is_allowed

    def counting(j, k):
        calls.append((j, k))
        return uncached(j, k)

    monkeypatch.setattr(core, "j_is_allowed", counting)
    return calls


def test_channel_kind_memo_checks_admissibility_once_per_key(admissibility_calls):
    for j in (2, "2", 2.0, F(2)):
        assert core.channel_kind(j, F(1)) == "generic"
    assert admissibility_calls == [(F(2), F(1))]


def test_channel_kind_rejects_an_inadmissible_pair_on_every_call(admissibility_calls):
    for _ in range(2):
        with pytest.raises(core.QuantumNumberError, match="not admissible"):
            core.channel_kind(F(1, 2), 1)
    assert len(admissibility_calls) == 2


def test_min_allowed_j_is_memoized_per_value():
    first = core.min_allowed_j(F(5, 2))
    assert first == F(3, 2)
    assert all(core.min_allowed_j(k) is first for k in ("5/2", 2.5, F(5, 2)))


def test_scenario_charge_is_stored_as_a_fraction():
    scen = core.Scenario("flat", "coulomb", 1, 1.0, alpha=1.0)
    assert type(scen.charge) is Fraction and scen.charge == 1
    assert core.Scenario("flat", "coulomb", "3/2", 1.0, alpha=1.0).charge == F(3, 2)


def test_scenario_replace_checks_the_copy():
    scen = core.Scenario("lobachevsky", "coulomb", F(1), 2.0, alpha=0.3, radius=1.5)
    assert scen._replace(mass=3.0) == core.Scenario("lobachevsky", "coulomb", F(1), 3.0, alpha=0.3, radius=1.5)
    assert type(scen._replace(charge="1/2").charge) is Fraction
    with pytest.raises(ValueError, match="mass must be positive"):
        scen._replace(mass=-1.0)
    with pytest.raises(ValueError, match="alpha must be finite"):
        core.Scenario._make(("flat", "coulomb", F(1), 1.0, math.nan))


@pytest.mark.parametrize("record", [
    core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0),
    core.couplings(2, 1),
    mixing.cubic_invariants(2, 1),
    mixing.mixing_roots(2, 1),
    spectra.UnitSystem(radius=2.0),
])
def test_records_are_immutable(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_shared_root_triple_unpacks_as_roots_and_l():
    a, l = mixing.mixing_roots(2, 1)
    assert a == mixing.mixing_roots(2, 1).a and l == mixing.mixing_roots(2, 1).l
    assert len(a) == len(l) == 3


def test_worst_of_keeps_a_nan_wherever_it_stands():
    assert max([0.0, math.nan, 1e-12]) == 1e-12  # the builtin drops a NaN after the first place
    assert math.isnan(core.worst_of([0.0, math.nan, 1e-12]))
    assert math.isnan(core.worst_of(iter([3.0, 1.0, math.nan])))
    assert core.worst_of([0.0, 2e-13, math.inf, 1.0]) == math.inf
    assert core.worst_of(x / 8 for x in range(5)) == 0.5
    assert core.worst_of([], default=None) is None
