"""Mixing matrix, cubic invariants, trigonometric roots, transform, parity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from monopole_spectra import core, mixing, spectra

F = Fraction


def test_matrix_j2_k1_exact_entries():
    c, d = math.sqrt(6) / 2, 1.0
    m = mixing.build_matrix(c, d)
    expected = np.array(
        [[3.0, math.sqrt(3), 0.0], [math.sqrt(3), 3.5, math.sqrt(2)], [0.0, math.sqrt(2), 2.0]]
    )
    assert np.max(np.abs(m - expected)) <= 1e-14


def test_matrix_zero_couplings():
    assert np.allclose(mixing.build_matrix(0.0, 0.0), np.diag([0.0, 1.0, 0.0]))


def test_matrix_decoupled_third_row_when_d_zero():
    m = mixing.build_matrix(0.7, 0.0)
    assert m[2, 2] == 0.0 and m[0, 2] == 0.0 and m[1, 2] == 0.0


def test_cubic_invariants_j2_k1():
    inv = mixing.cubic_invariants(2, 1)
    assert inv.r == F(-17, 2)
    assert inv.s == F(37, 2)
    assert inv.t == F(-9)
    assert inv.p == F(-67, 12)           # -5.58333...
    assert inv.q == F(-56, 27)           # -2.07407...
    assert inv.p == inv.p_closed and inv.q == inv.q_closed
    assert inv.disc < 0


@pytest.mark.parametrize("k2", range(1, 11))
def test_invariants_signs_on_scan(k2):
    k = F(k2, 2)
    j = k
    for _ in range(9):
        inv = mixing.cubic_invariants(j, k)
        assert inv.p < 0 and inv.q < 0 and inv.disc < 0
        j += 1


def test_roots_match_eigensolve_j2_k1():
    cp = core.couplings(2, 1)
    triple = mixing.mixing_roots(2, 1)
    numeric = np.sort(np.linalg.eigvalsh(mixing.build_matrix(cp.c, cp.d)))
    assert np.max(np.abs(np.array(triple.a) - numeric)) <= 1e-12
    # four-digit reference values for this case
    assert triple.a == pytest.approx((0.6845, 2.4520, 5.3635), abs=1e-3)


def test_roots_scan_positive_and_match_eigensolve():
    worst = 0.0
    for k2 in range(1, 11):
        k = F(k2, 2)
        j = k + 1
        while j <= k + 8:
            cp = core.couplings(j, k)
            triple = mixing.mixing_roots(j, k)
            numeric = np.sort(np.linalg.eigvalsh(mixing.build_matrix(cp.c, cp.d)))
            worst = max(worst, float(np.max(np.abs(np.array(triple.a) - numeric))))
            assert triple.a[0] > 0.0
            j += 1
    assert worst <= 1e-10


def test_j_equals_k_zero_root():
    triple = mixing.mixing_roots(1, 1)
    assert abs(triple.a[0]) <= 1e-15
    assert triple.l[0] == pytest.approx(0.0, abs=1e-12)


def test_effective_l_backsubstitution():
    for (j, k) in [(2, 1), (F(7, 2), F(1, 2)), (5, 3)]:
        triple = mixing.mixing_roots(j, k)
        for a, l in zip(triple.a, triple.l):
            assert l * (l + 1.0) == pytest.approx(2.0 * a, abs=1e-12)


def test_transform_matrix_j2_k1():
    cp = core.couplings(2, 1)
    triple = mixing.mixing_roots(2, 1)
    s = mixing.transform_matrix(cp.c, cp.d, triple)
    assert [s[i][i] for i in range(3)] == [1.0, 1.0, 1.0]
    # symbolic form of the first column entry
    a1 = triple.a[0]
    assert s[1][0] == pytest.approx(-(2 * cp.c**2 - a1) / (math.sqrt(2) * cp.c), abs=1e-14)
    assert mixing.transform_residual(cp.c, cp.d, triple, s) <= 1e-10


def test_transform_matches_its_entry_formulas_and_the_numpy_residual():
    """Over every generic key with 0 < 2|k| <= 20 and |k| < j <= |k| + 10,
    each entry of S equals its docstring formula, and the plain-float
    residual equals the numpy matmul expression it replaced, bit for bit."""
    s2 = math.sqrt(2.0)
    keys = [(abs(F(twok, 2)) + dj, F(twok, 2)) for twok in range(-20, 21) if twok for dj in range(1, 11)]
    for j, k in keys:
        cp = core.couplings(j, k)
        c, d = cp.c, cp.d
        triple = mixing.mixing_roots(j, k)
        a1, a2, a3 = triple.a
        s = mixing.transform_matrix(c, d, triple)
        expected = (
            (1.0, -s2 * c / (2.0 * c * c - a2), c * (2.0 * d * d - a3) / ((2.0 * c * c - a3) * d)),
            (-(2.0 * c * c - a1) / (s2 * c), 1.0, -(2.0 * d * d - a3) / (s2 * d)),
            (d * (2.0 * c * c - a1) / ((2.0 * d * d - a1) * c), -s2 * d / (2.0 * d * d - a2), 1.0),
        )
        assert s == expected, (j, k)
        sa = np.array(s)
        reference = float(np.max(np.abs(mixing.build_matrix(c, d) @ sa - sa * np.array(triple.a))))
        assert mixing.transform_residual(c, d, triple, s) == reference, (j, k)


_CP = core.couplings(2, 1)


@pytest.mark.parametrize("c, d, a, named", [
    (_CP.c, _CP.d, (0.5, 2.5, 2 * _CP.c**2), "2c\\^2 - A3"),
    (1.0, 0.8, (0.1, 1.28, 5.0), "2d\\^2 - A2"),  # every other denominator stays far from zero
], ids=["2c2-A3", "2d2-A2"])
def test_transform_degenerate_root_reported(c, d, a, named):
    with pytest.raises(mixing.MixingError, match=named):
        mixing.transform_matrix(c, d, mixing.RootTriple(a=a, l=(0.0, 0.0, 0.0)))


def test_transform_degenerate_at_j_equals_k():
    cp = core.couplings(1, 1)
    triple = mixing.mixing_roots(1, 1)
    with pytest.raises(mixing.MixingError):
        mixing.transform_matrix(cp.c, cp.d, triple)


def test_charge_sign_symmetry_of_roots():
    for (j, k) in [(2, 1), (F(5, 2), F(3, 2))]:
        ap = mixing.mixing_roots(j, k).a
        am = mixing.mixing_roots(j, -k).a
        assert ap == pytest.approx(am, abs=1e-12)


def test_parity_eigenvalues_exact():
    for j in range(1, 11):
        assert mixing.parity_eigenvalues(j) == (F(j + 1), F(-j))


def test_parity_characteristic_identity():
    # lambda^2 - lambda - 2 nu^2 = 0 with nu^2 = j(j+1)/2
    for j in range(1, 6):
        nu2 = F(j * (j + 1), 2)
        for lam in mixing.parity_eigenvalues(j):
            assert lam * lam - lam - 2 * nu2 == 0


def test_no_monopole_l_values_match_parity_structure():
    # k = 0: the three effective L (upper branch) are {j-1, j, j+1}; the pair
    # {j+1, -j} reproduces the same L(L+1) values as {j+1, j-1}
    for j in range(1, 6):
        triple = mixing.mixing_roots(j, 0)
        ll1 = sorted(2.0 * a for a in triple.a)
        expected = sorted([(j - 1) * j, j * (j + 1), (j + 1) * (j + 2)])
        assert ll1 == pytest.approx([float(x) for x in expected], abs=1e-10)
        pair = mixing.parity_eigenvalues(j)
        pair_ll1 = sorted(float(p * (p + 1)) for p in pair)
        assert pair_ll1 == pytest.approx([expected[0], expected[2]], abs=1e-12)


def test_roots_rejects_nonnegative_discriminant():
    inv = mixing.cubic_invariants(2, 1)
    fake = mixing.CubicInvariants(
        r=inv.r, s=inv.s, t=inv.t, p=inv.p, q=inv.q,
        p_closed=inv.p_closed, q_closed=inv.q_closed, disc=F(1),
    )
    with pytest.raises(mixing.MixingError):
        mixing.roots(fake)


def test_roots_clamp_an_arccos_argument_rounded_past_one():
    # disc < 0 exactly, yet the float argument (3q/2p) sqrt(-3/p) rounds to 1 + 2.2e-16
    p, q, r = F(-221311, 372), F(-6140984923343135, 2**40), F(-90)
    s = p + r * r / 3
    inv = mixing.CubicInvariants(r=r, s=s, t=q - 2 * r**3 / 27 + r * s / 3, p=p, q=q,
                                 p_closed=p, q_closed=q, disc=(p / 3) ** 3 + (q / 2) ** 2)
    assert inv.disc < 0 and (3 * float(q) / (2 * float(p))) * math.sqrt(-3 / float(p)) > 1.0
    a = np.array(mixing.roots(inv).a)
    b = a + float(r) / 3  # the reduced cubic's roots
    assert np.all(a > 0)
    assert np.all(np.abs(b**3 + float(p) * b + float(q)) <= 1e-12 * (np.abs(b) ** 3 + abs(float(p) * b) + abs(float(q))))


@pytest.fixture
def cubic_calls(monkeypatch):
    """Empty the roots memo and record every exact-cubic evaluation."""
    mixing.mixing_roots.cache_clear()
    calls = []
    uncached = mixing.cubic_invariants

    def counting(j, k):
        calls.append((j, k))
        return uncached(j, k)

    monkeypatch.setattr(mixing, "cubic_invariants", counting)
    return calls


def test_mixing_roots_memo_runs_exact_cubic_once_per_key(cubic_calls):
    scen = core.Scenario("flat", "coulomb", F(3, 2), 0.9, alpha=1.3)
    levels = spectra.spectrum_levels(scen, F(7, 2), range(1000), include_inadmissible=True)
    assert len(levels) == 3000
    assert cubic_calls == [(F(7, 2), F(3, 2))]


def test_mixing_roots_memo_shares_one_entry_per_value(cubic_calls):
    first = mixing.mixing_roots(2, 1)
    for j in ("2", 2.0, F(2)):
        assert mixing.mixing_roots(j, F(1)) is first
    assert len(cubic_calls) == 1
    assert first == mixing.roots(mixing.cubic_invariants(2, 1))


def test_mixing_roots_errors_are_not_memoized(cubic_calls):
    for _ in range(2):
        with pytest.raises(mixing.MixingError):
            mixing.mixing_roots(0, 0)
    assert len(cubic_calls) == 2


def test_as_half_integer_returns_an_exact_half_integer_unchanged():
    x = F(3, 2)
    assert core.as_half_integer(x) is x
    with pytest.raises(core.QuantumNumberError, match="not a half-integer"):
        core.as_half_integer(F(1, 3))
