"""FD eigensolver (its rungs and the extrapolating ladder), Sturm counts,
bound-state counting, shooting, arbitration."""

import collections
import contextlib
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import report_diff
from monopole_spectra import core, oracle, radial, spectra, validate

F = Fraction


def box_problem(l_box=1.0):
    sc = core.Scenario("flat", "none", F(1), 1.0)
    return radial.RadialProblem(
        tag="box", scenario=sc, channel="min-j", j=F(0), mass=1.0,
        v_eff=lambda r: np.zeros_like(r), origin_exponent=1.0,
    )


def _bisection_reference(prob, grid, first, last):
    diag, off = oracle._tridiagonal(prob, grid)
    mu = eigh_tridiagonal(diag, off, select="i", select_range=(first, last), eigvals_only=True)
    return mu / (2.0 * prob.mass)


def rung_energies(prob, grid, count, first=0, offset=0, seeds=None):
    """Energies first..count-1 of one rung, `oracle._rung`, seeded (by default)
    and started from `oracle._bisect` of levels first+offset..count-1+offset
    on a grid of half the points, as the ladder seeds and starts each rung
    from the one below it. The half grid's eigenvectors are carried over by
    linear interpolation, which is `oracle._refined` when the grids nest."""
    half = oracle.Grid(r_max=grid.r_max, n=(grid.n + 1) // 2 - 1)
    mu, vectors = oracle._bisect(*oracle._tridiagonal(prob, half), first + offset, count - 1 + offset)
    knots = np.concatenate([[0.0], half.nodes, [grid.r_max]])
    starts = np.array([np.interp(grid.nodes, knots, np.pad(v, 1)) for v in vectors])
    mu, _ = oracle._rung(prob, *oracle._tridiagonal(prob, grid), first, count,
                         mu if seeds is None else seeds, starts)
    return mu / (2.0 * prob.mass)


def test_box_ground_state():
    prob = box_problem()
    e = oracle.fd_eigen(prob, oracle.Grid(r_max=1.0, n=4095), count=1).energies
    exact = math.pi**2 / 2.0
    assert abs(e[0] - exact) / exact <= 1e-3


def test_box_second_order_convergence():
    prob = box_problem()
    exact = math.pi**2 / 2.0
    errs = []
    for n in (2000, 4000, 8000):
        e = rung_energies(prob, oracle.Grid(r_max=1.0, n=n), count=1)
        errs.append(abs(e[0] - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_box_ladder_fourth_order_convergence_within_its_estimate():
    # level 20 of the unit box, E = 441 pi^2 / 2: with h^2 removed the error
    # is (k h)^4 / 90, far above rounding on these grids
    prob = box_problem()
    exact = 21**2 * math.pi**2 / 2.0
    errs = []
    for n in (2047, 4095, 8191):
        solve = oracle.fd_eigen(prob, oracle.Grid(r_max=1.0, n=n), count=21, first=20)
        assert solve.grid.n == n
        errs.append(abs(solve.energies[0] - exact) / exact)
        assert errs[-1] <= solve.rel_err[0] <= oracle.LADDER_TOL
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.01)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.01)


def test_richardson_order_from_the_origin_exponent():
    assert oracle.richardson_order(1.0) == oracle.richardson_order(3.0) == 2.0
    assert oracle.richardson_order(1.7722) == 2.0  # 2p - 1 > 2
    assert oracle.richardson_order(1.5) == 2.0
    assert oracle.richardson_order(1.132) == pytest.approx(1.264)


def test_ladder_reaches_a_fractional_order_level():
    # k = j = 1/2, branch-2: L = 0.132, so u ~ r^1.132 and the plain grid
    # converges only at order 2p - 1 = 1.264 (2.9e-4 at 16,000 points)
    scen = core.Scenario("flat", "coulomb", F(1, 2), 1.0, alpha=0.5)
    prob = radial.build_problem(scen, "branch-2", F(1, 2))
    assert oracle.richardson_order(prob.origin_exponent) == pytest.approx(2.0 * prob.origin_exponent - 1.0)
    for lv in spectra.spectrum_levels(scen, F(1, 2), range(4), ["branch-2"]):
        solve = oracle.fd_eigen(prob, count=lv.n + 1, first=lv.n, e_target=lv.energy)
        dev = abs(solve.energies[0] - lv.energy) / abs(lv.energy)
        assert dev <= solve.rel_err[0] <= oracle.LADDER_TOL
        assert dev <= 1e-6


def test_ladder_refuses_a_grid_that_does_not_nest():
    with pytest.raises(oracle.OracleError, match="divisible by 8"):
        oracle.fd_eigen(box_problem(), oracle.Grid(r_max=1.0, n=4000), count=1)


def test_ladder_refuses_levels_past_its_seed_rung():
    # a finest rung of 2,047 points has a 255-point seed rung (8h)
    with pytest.raises(oracle.OracleError, match="seed grid of more than 255 points"):
        oracle.fd_eigen(box_problem(), oracle.Grid(r_max=1.0, n=2047), count=256, first=250)


def test_ladder_and_default_rung_stay_within_the_point_budget(monkeypatch):
    monkeypatch.setattr(oracle, "LADDER_TOL", 0.0)  # an estimate no ladder reaches
    monkeypatch.setattr(oracle, "GRID_POINT_BUDGET", 8191)
    with pytest.raises(oracle.OracleError, match="on the largest rung of 8,191 points"):
        oracle.fd_eigen(box_problem(), oracle.Grid(r_max=1.0, n=4095), count=1)
    # the curved K M = 100 oscillator needs 8,191 points to pass the resolution heuristic
    monkeypatch.setattr(oracle, "GRID_POINT_BUDGET", 4095)
    prob = radial.build_problem(CURVED_OSCILLATOR, "parity-odd", 0)
    with pytest.raises(oracle.OracleError, match="no grid of at most 4,095 points"):
        oracle.default_grid(prob)


def test_default_rung_is_the_smallest_nested_resolved_grid():
    # curved oscillator K M = 100: h sqrt(max|V|) <= 0.05 needs h <= 0.005 at r_max = 40
    prob = radial.build_problem(CURVED_OSCILLATOR, "parity-odd", 0)
    grid = oracle.default_grid(prob)
    assert (grid.r_max, grid.n) == (40.0, 8191)
    oracle.check_resolution(prob, grid)
    assert oracle.resolution(prob, oracle.Grid(r_max=40.0, n=4095)) > oracle.RESOLUTION_LIMIT
    box = oracle.default_grid(box_problem(), -1.0)
    assert box.n == oracle.MIN_FINEST_POINTS == 4095


@pytest.mark.parametrize("k_osc, mass", [(1.0, 1.0), (4.0, 0.5)])
@pytest.mark.parametrize("n", [20, 30])
def test_default_rung_holds_a_high_flat_oscillator_level(k_osc, mass, n):
    # a box sized by the Coulomb rule 80/sqrt(2M E) ends inside the turning
    # point r^2 = 2E/K at n = 30 (7.2 against 11.1 at K = M = 1), off by 0.63
    scen = core.Scenario("flat", "oscillator", F(1), mass, k_osc=k_osc)
    prob = radial.build_problem(scen, "min-j", 0)
    lv = spectra.single_level(scen, 0, n, "min-j")
    solve = oracle.fd_eigen(prob, count=n + 1, first=n, e_target=lv.energy)
    assert solve.grid.r_max**2 > 2.0 * lv.energy / k_osc
    assert abs(solve.energies[0] - lv.energy) / lv.energy <= 1e-6


@pytest.mark.parametrize("channel, j", [("min-j", 0), ("branch-2", 2)])
def test_flat_oscillator_default_rung_is_the_smallest_nested_size(channel, j):
    # criterion 5's two channels, sized for their n = 3 level
    scen = core.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0)
    prob = radial.build_problem(scen, channel, j)
    e_3 = spectra.single_level(scen, j, 3, channel).energy
    grid = oracle.default_grid(prob, e_3)
    assert grid.n == oracle.MIN_FINEST_POINTS == 4095
    oracle.check_resolution(prob, grid)


def test_eigenvalues_monotone_and_sturm_consistent():
    prob = box_problem()
    grid = oracle.Grid(r_max=1.0, n=3000)
    evs = rung_energies(prob, grid, count=6)
    assert np.all(np.diff(evs) > 0)
    diag, off = oracle._tridiagonal(prob, grid)
    for i, e in enumerate(evs):
        mu = prob.eigenvalue_from_energy(float(e))
        shift = 1e-8 * (1.0 + abs(mu))
        assert oracle.sturm_count_below(diag, off, mu - shift) == i
        assert oracle.sturm_count_below(diag, off, mu + shift) == i + 1


def _eigvalsh_count(diag, off, x):
    mat = np.diag(np.asarray(diag, dtype=float))
    mat += np.diag(off, 1) + np.diag(off, -1)
    return int(np.sum(np.linalg.eigvalsh(mat) < x))


def test_sturm_count_matches_eigvalsh_on_random_tridiagonals():
    rng = np.random.default_rng(20261018)
    for n in (1, 2, 3, 7, 40, 200):
        diag = rng.normal(size=n) * 3.0
        off = rng.normal(size=n - 1)
        evs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        # shifts away from the eigenvalues, so rounding cannot flip a count
        gaps = np.concatenate([[evs[0] - 1.0], 0.5 * (evs[:-1] + evs[1:]), [evs[-1] + 1.0]])
        for x in np.concatenate([gaps, rng.normal(size=4) * 4.0]):
            if np.min(np.abs(evs - x)) < 1e-9:
                continue
            assert oracle.sturm_count_below(diag, off, float(x)) == _eigvalsh_count(diag, off, x)


def test_sturm_count_survives_an_exact_zero_pivot():
    # diag = 1, off = 1, x = 0: the first pivot is 1, the second 1 - 1/1 = 0
    # exactly, so the tiny-pivot rule applies; eigenvalues of the 3x3 matrix
    # are 1 - sqrt(2), 1, 1 + sqrt(2), so one lies below 0
    diag, off = [1.0, 1.0, 1.0], [1.0, 1.0]
    assert oracle.sturm_count_below(diag, off, 0.0) == _eigvalsh_count(diag, off, 0.0) == 1


def test_sturm_count_includes_an_eigenvalue_at_the_shift():
    assert oracle.sturm_count_below([0.0, 0.0], [0.0], 0.0) == 2
    assert oracle.sturm_count_below([3.0], [], 3.0) == 1
    assert oracle.sturm_count_below([3.0], [], math.nextafter(3.0, 0.0)) == 0


def test_sturm_count_is_an_int_for_lists_and_arrays():
    diag, off = [2.0, 2.0, 2.0, 2.0], [-1.0, -1.0, -1.0]
    for d, o in ((diag, off), (np.array(diag), np.array(off))):
        zero = oracle.sturm_count_below(d, o, 0.0)
        assert zero == 0 and type(zero) is int
        full = oracle.sturm_count_below(d, o, 5.0)
        assert full == 4 and type(full) is int
    assert oracle.sturm_count_below([-1.0], [], 0.0) == 1


def test_sturm_count_refuses_a_non_finite_shift():
    diag, off = [2.0, 2.0, 2.0], [-1.0, -1.0]
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(oracle.OracleError, match="finite shift"):
            oracle.sturm_count_below(diag, off, x)


def _nan_near_origin(prob):
    # v_eff undefined on the inner core only: the outer-half resolution check cannot see it
    v_eff = prob.v_eff
    return dataclasses.replace(prob, v_eff=lambda r: np.where(r < 0.05, np.nan, v_eff(r)))


def test_count_bound_states_refuses_a_non_finite_potential():
    scen = core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0)
    prob = _nan_near_origin(radial.build_problem(scen, "parity-odd", 0))
    with pytest.raises(oracle.OracleError, match="not finite"):
        oracle.count_bound_states(prob)


def test_fd_eigen_refuses_a_non_finite_potential():
    scen = core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0)
    prob = _nan_near_origin(radial.build_problem(scen, "parity-odd", 0))
    with pytest.raises(oracle.OracleError, match="not finite"):
        oracle.fd_eigen(prob, count=2)


def test_flat_coulomb_ground_state_default_grid():
    scen = core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
    prob = radial.build_problem(scen, "min-j", 0)
    solve = oracle.fd_eigen(prob, count=1, e_target=-0.5)
    assert abs(solve.energies[0] + 0.5) / 0.5 <= solve.rel_err[0] <= 1e-5


def test_lob_coulomb_deep_level():
    scen = core.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
    prob = radial.build_problem(scen, "parity-odd", 0)
    solve = oracle.fd_eigen(prob, count=1)
    assert abs(solve.energies[0] + 50.5) / 50.5 <= solve.rel_err[0] <= 1e-5


def test_fd_rejects_quadratic_problem():
    scen = core.Scenario("lobachevsky", "coulomb", F(1), 10.0, alpha=0.1)
    prob = radial.build_problem(scen, "min-j", 0)
    with pytest.raises(oracle.OracleError):
        oracle.fd_eigen(prob, count=1)


def test_fd_rejects_overcount_beyond_edge():
    scen = core.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
    prob = radial.build_problem(scen, "parity-odd", 0)
    grid = oracle.Grid(r_max=40.0, n=20000)
    with pytest.raises(oracle.OracleError) as err:
        rung_energies(prob, grid, count=10)
    available = oracle.sturm_count_below(*oracle._tridiagonal(prob, grid),
                                         prob.eigenvalue_from_energy(prob.continuum_edge))
    assert 0 < available < 10
    assert str(err.value) == (f"requested 10 levels but only {available} lie below the continuum edge "
                              f"E = {prob.continuum_edge:.6g}")


def test_fd_in_edge_solve_needs_no_sturm_count(monkeypatch):
    scen = core.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
    prob = radial.build_problem(scen, "parity-odd", 0)
    grid = oracle.Grid(r_max=40.0, n=20000)
    expected = rung_energies(prob, grid, count=2)
    mu_edge = prob.eigenvalue_from_energy(prob.continuum_edge)
    count = oracle.sturm_count_below

    def refuse_edge_count(diag, off, x):
        # the solve's own certificate counts pass through; a count at the edge may not
        if x == mu_edge:
            raise AssertionError("Sturm count at the continuum edge on an in-edge solve")
        return count(diag, off, x)

    monkeypatch.setattr(oracle, "sturm_count_below", refuse_edge_count)
    assert np.array_equal(rung_energies(prob, grid, count=2), expected)
    assert rung_energies(prob, grid, count=2, first=1) == pytest.approx(expected[1:], rel=1e-10)
    # the ladder's rungs are in-edge solves too
    assert oracle.fd_eigen(prob, count=2).energies == pytest.approx(expected, rel=1e-4)


@pytest.mark.parametrize("scen, channel, j, n", [
    (core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0), "branch-2", 2, 3),
    (core.Scenario("lobachevsky", "oscillator", F(1), 1.0, k_osc=100.0), "min-j", 0, 4),
])
def test_fd_single_index_solve_matches_the_full_one(scen, channel, j, n):
    prob = radial.build_problem(scen, channel, j)
    e_target = spectra.single_level(scen, j, n, channel).energy
    full = oracle.fd_eigen(prob, count=n + 1, e_target=e_target)
    alone = oracle.fd_eigen(prob, count=n + 1, e_target=e_target, first=n)
    assert alone.energies.shape == alone.rel_err.shape == (1,)
    assert alone.grid == full.grid
    assert abs(alone.energies[0] - full.energies[n]) <= 1e-10 * abs(full.energies[n])


@pytest.mark.parametrize("first, count", [(-1, 2), (2, 2), (0, 0)])
def test_fd_rejects_an_empty_or_negative_index_range(first, count):
    with pytest.raises(oracle.OracleError, match="0 <= first < count"):
        oracle.fd_eigen(box_problem(), oracle.Grid(r_max=1.0, n=4095), count=count, first=first)


# --- the certified rungs against the bisection they replaced ----------------------------

CURVED_COULOMB = core.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=10.0)
CURVED_OSCILLATOR = core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0)


def _validate_all_solves():
    """(problem, finest rung or None for the default, e_target, first, last)
    of six `validate --suite all` ladders; the curved oscillator's top level
    sits 0.27 below the next one."""
    branch_2 = radial.build_problem(core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0), "branch-2", 2)
    e_target = spectra.single_level(branch_2.scenario, 2, 3, "branch-2").energy
    arbitration = radial.build_problem(core.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0), "min-j", 0)
    grid = oracle.default_grid(arbitration, 7.5)  # criterion 5's first grid, sized for its n = 3 level
    return [
        (branch_2, None, e_target, 3, 3),
        (arbitration, grid, None, 0, 3),
        (arbitration, validate._scaled_grid(grid, 22 / 16), None, 0, 3),
        (radial.build_problem(CURVED_COULOMB, "parity-odd", 0), None, None, 0, 2),
        (radial.build_problem(CURVED_OSCILLATOR, "parity-odd", 0), None, None, 0, 4),
        (radial.build_problem(CURVED_OSCILLATOR, "even-2", 0), None, None, 0, 4),
    ]


@pytest.fixture
def polish_outcomes(monkeypatch):
    """Records each `_polish` call's matrix, first index, start vectors and
    result: the certified values and their eigenvectors, or None for both when
    the rung was left to the bisection safeguard."""
    outcomes = []
    polish = oracle._polish

    def recorded(diag, off, first, seeds, starts):
        polished = polish(diag, off, first, seeds, starts)
        mu, vectors = (None, None) if polished is None else polished
        outcomes.append((diag, off, first, starts, vectors, mu))
        return polished

    monkeypatch.setattr(oracle, "_polish", recorded)
    return outcomes


@pytest.mark.parametrize("case", range(6))
def test_certified_solve_matches_bisection_without_the_safeguard(case, polish_outcomes):
    prob, grid, e_target, first, last = _validate_all_solves()[case]
    solve = oracle.fd_eigen(prob, grid=grid, count=last + 1, e_target=e_target, first=first)
    assert solve.energies.shape == (last - first + 1,)
    assert len(polish_outcomes) >= 3  # the 4h, 2h and h rungs at least
    for diag, off, first_index, starts, vectors, mu in polish_outcomes:
        assert mu is not None
        reference = eigh_tridiagonal(diag, off, select="i", select_range=(first_index, last), eigvals_only=True)
        assert np.max(np.abs(mu - reference) / np.abs(reference)) <= 1e-9
        # unit eigenvectors, one per certified value, on this rung's grid
        assert vectors.shape == (len(mu), len(diag))
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=1e-12)
        # every polished rung, the first one included, starts from the
        # eigenvectors of the rung below
        assert starts.shape == vectors.shape


@pytest.mark.parametrize("bad_seeds", ["one index off", "nan"])
def test_safeguard_recovers_from_bad_seeds(bad_seeds, polish_outcomes):
    for prob, _, _, first, last in _validate_all_solves()[3:5]:
        grid = oracle.Grid(r_max=40.0, n=8191)
        reference = _bisection_reference(prob, grid, first, last)
        # seeds and starts from the half grid's levels one index up, or NaN seeds
        if bad_seeds == "nan":
            energies = rung_energies(prob, grid, count=last + 1, first=first, seeds=np.full(last - first + 1, np.nan))
        else:
            energies = rung_energies(prob, grid, count=last + 1, first=first, offset=1)
        assert np.max(np.abs(energies / reference - 1.0)) <= 1e-9
    assert [mu is None for *_, mu in polish_outcomes] == [True, True]


def _clustered_tridiagonals(rng):
    """Random symmetric tridiagonals whose eigenvalues come in tight clusters
    (a few diagonal levels, weak coupling), plus the Wilkinson matrix W21+,
    whose top eigenvalues pair up to about 1e-13."""
    for n in (5, 12, 40, 150):
        for coupling in (1e-1, 1e-3, 1e-6):
            diag = rng.choice([-2.0, 0.0, 0.5, 3.0], size=n) + rng.normal(size=n) * coupling
            yield diag, rng.normal(size=n - 1) * coupling
    yield np.abs(np.arange(21.0) - 10.0), np.ones(20)


def test_polish_certifies_only_the_requested_indices():
    rng = np.random.default_rng(20261019)
    certified = 0
    for diag, off in _clustered_tridiagonals(rng):
        evs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        n = len(evs)
        # one fixed random start for every level: only the seed aims
        start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        gaps = np.diff(evs, prepend=-np.inf, append=np.inf)
        for _ in range(6):
            first = int(rng.integers(0, n))
            last = int(rng.integers(first, min(first + 4, n)))
            wanted = np.arange(first, last + 1)
            # seeds aimed at the wanted indices, at all of them one lower or
            # higher, at the bottom one lower or the top one higher alone, and
            # at the first index twice in place of the second
            aims = {"wanted": wanted, "lower": wanted - 1, "higher": wanted + 1,
                    "bottom lower": np.append(first - 1, wanted[1:]),
                    "top higher": np.append(wanted[:-1], last + 1)}
            if len(wanted) >= 3:
                aims["repeat"] = np.concatenate([[first, first], wanted[2:]])
            for name, aim in aims.items():
                if aim[0] < 0 or aim[-1] >= n:
                    continue
                # a tenth of the local gap (at most 0.1) off each aimed eigenvalue
                local = np.minimum(np.minimum(gaps[aim], gaps[aim + 1]), 1.0)
                seeds = evs[aim] + 0.1 * local * rng.uniform(-1.0, 1.0, len(aim))
                polished = oracle._polish(diag, off, first, seeds, np.broadcast_to(start, (len(aim), n)))
                if polished is None:
                    continue
                mu, _ = polished
                # a certificate names exactly eigenvalues first..last, in order
                assert name == "wanted"
                assert np.max(np.abs(mu - evs[first:last + 1])) <= 1e-12 * np.max(np.abs(evs))
                certified += 1
    assert certified >= 40


def test_polish_from_a_neighbours_eigenvector_certifies_the_wanted_indices_or_declines():
    # seeds aimed at the wanted levels, but each start is the exact eigenvector
    # one level lower or higher: the one seed-shift solve cannot be trusted to
    # turn it, so the certificate must still name first..last or refuse
    rng = np.random.default_rng(20261020)
    outcomes = {"certified": 0, "declined": 0}
    for diag, off in _clustered_tridiagonals(rng):
        evs, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        n = len(evs)
        gaps = np.diff(evs, prepend=-np.inf, append=np.inf)
        for _ in range(6):
            first = int(rng.integers(0, n))
            last = int(rng.integers(first, min(first + 4, n)))
            wanted = np.arange(first, last + 1)
            local = np.minimum(np.minimum(gaps[wanted], gaps[wanted + 1]), 1.0)
            seeds = evs[wanted] + 0.1 * local * rng.uniform(-1.0, 1.0, len(wanted))
            for aim in (wanted - 1, wanted + 1):
                if aim[0] < 0 or aim[-1] >= n:
                    continue
                polished = oracle._polish(diag, off, first, seeds, np.ascontiguousarray(vecs[:, aim].T))
                if polished is None:
                    outcomes["declined"] += 1
                    continue
                assert np.max(np.abs(polished[0] - evs[first:last + 1])) <= 1e-12 * np.max(np.abs(evs))
                outcomes["certified"] += 1
    assert sum(outcomes.values()) >= 100
    # a curved oscillator rung started from the rung below's eigenvectors one
    # level up; the right starts certify the wanted levels
    prob = radial.build_problem(CURVED_OSCILLATOR, "parity-odd", 0)
    coarse, fine = (oracle._tridiagonal(prob, oracle.Grid(r_max=40.0, n=n)) for n in (4095, 8191))
    mu_coarse, vecs_coarse = oracle._bisect(*coarse, 0, 4)
    starts = oracle._refined(vecs_coarse)
    reference = eigh_tridiagonal(*fine, select="i", select_range=(0, 3), eigvals_only=True)
    polished = oracle._polish(*fine, 0, mu_coarse[:4], starts[:4])
    assert np.max(np.abs(polished[0] / reference - 1.0)) <= 1e-12
    polished = oracle._polish(*fine, 0, mu_coarse[:4], starts[1:])
    assert polished is None or np.max(np.abs(polished[0] / reference - 1.0)) <= 1e-12


def test_bisection_hands_up_unit_eigenvectors():
    # a curved oscillator seed rung, the clustered tridiagonals and W21+
    prob = radial.build_problem(CURVED_OSCILLATOR, "parity-odd", 0)
    matrices = [oracle._tridiagonal(prob, oracle.Grid(r_max=40.0, n=1023))]
    rng = np.random.default_rng(20261022)
    matrices += list(_clustered_tridiagonals(rng))
    for diag, off in matrices:
        n = len(diag)
        first = int(rng.integers(0, n))
        last = int(rng.integers(first, min(first + 5, n)))
        mu, vectors = oracle._bisect(diag, off, first, last)
        assert vectors.shape == (last - first + 1, n)
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=1e-12)
        size = np.max(np.abs(diag) + np.pad(np.abs(off), (1, 0)) + np.pad(np.abs(off), (0, 1)))
        tv = diag * vectors
        tv[:, :-1] += off * vectors[:, 1:]
        tv[:, 1:] += off * vectors[:, :-1]
        assert np.max(np.linalg.norm(tv - mu[:, None] * vectors, axis=1)) <= 1e-10 * size


def test_refined_vectors_keep_the_coarse_nodes_and_average_the_new_ones():
    coarse = np.array([[1.0, 2.0, 4.0], [-1.0, 0.0, 1.0]])
    assert np.array_equal(oracle._refined(coarse), [[0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 2.0],
                                                    [-0.5, -1.0, -0.5, 0.0, 0.5, 1.0, 0.5]])
    # coarse node i (r = i 2h) is fine node 2i (r = 2i h) on the nested grid
    coarse_grid, fine_grid = oracle.Grid(r_max=1.0, n=31), oracle.Grid(r_max=1.0, n=63)
    refined = oracle._refined(np.sin(np.pi * coarse_grid.nodes)[None, :])[0]
    assert np.array_equal(refined[1::2], np.sin(np.pi * coarse_grid.nodes))
    assert np.max(np.abs(refined - np.sin(np.pi * fine_grid.nodes))) <= (np.pi * coarse_grid.h) ** 2 / 8


def _zero_count_cases(rng):
    """(diag, off, x): shifts below, between and above the eigenvalues of the
    clustered tridiagonals and W21+, kept 1e-9 of the spectrum's scale away
    from every eigenvalue; and shifts at and one ulp either side of exactly
    known eigenvalues (a 1x1 matrix and a diagonal one)."""
    for diag, off in _clustered_tridiagonals(rng):
        evs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        scale = np.max(np.abs(evs))
        for x in np.concatenate([[evs[0] - 1.0, evs[-1] + 1.0], 0.5 * (evs[:-1] + evs[1:]),
                                 evs[0] + scale * np.array([-1e-9, 1e-9, 1e-3])]):
            if np.min(np.abs(evs - x)) > 1e-9 * scale:
                yield diag, off, float(x)
    for diag, off in (([3.0], []), ([-2.0], []), ([2.0, 0.5, 3.0], [0.0, 0.0])):
        low = min(diag)
        for x in (math.nextafter(low, -math.inf), low, math.nextafter(low, math.inf)):
            yield diag, off, x


def test_positive_definiteness_test_agrees_with_the_zero_count():
    cases = list(_zero_count_cases(np.random.default_rng(20261021)))
    agreed = [oracle._none_at_or_below(diag, off, x) == (oracle.sturm_count_below(diag, off, x) == 0)
              for diag, off, x in cases]
    assert all(agreed) and len(agreed) >= 200
    # both answers occur, at the ulp shifts too
    assert {oracle._none_at_or_below(d, o, x) for d, o, x in cases} == {True, False}
    assert oracle._none_at_or_below([3.0], [], math.nextafter(3.0, 0.0))
    assert not oracle._none_at_or_below([3.0], [], 3.0)
    with pytest.raises(oracle.OracleError, match="finite shift"):
        oracle._none_at_or_below([3.0], [], math.nan)


def test_resolution_heuristic_enforced():
    scen = core.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0)
    prob = radial.build_problem(scen, "min-j", 0)
    with pytest.raises(oracle.OracleError, match="resolution"):
        oracle.fd_eigen(prob, oracle.Grid(r_max=400.0, n=2000), count=1)
    with pytest.raises(oracle.OracleError, match="n >="):
        oracle.fd_eigen(prob, oracle.Grid(r_max=10.0, n=500), count=1)


def test_count_bound_states_lob_oscillator():
    scen = core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0)
    prob = radial.build_problem(scen, "parity-odd", 0)
    # restriction 2n + j + 3/2 < sqrt(401)/2 = 10.012: n = 0..4
    assert oracle.count_bound_states(prob) == 5


def test_count_bound_states_small_alpha_zero():
    scen = core.Scenario("lobachevsky", "coulomb", F(0), 1.0, alpha=0.5)
    prob = radial.build_problem(scen, "parity-odd", 0)
    assert oracle.count_bound_states(prob) == 0  # M alpha < 1 admits no N >= 1


def test_count_refuses_flat_coulomb():
    scen = core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
    prob = radial.build_problem(scen, "min-j", 0)
    with pytest.raises(oracle.OracleError, match="edge"):
        oracle.count_bound_states(prob)


def lob_minj_problem(alpha, mass):
    scen = core.Scenario("lobachevsky", "coulomb", F(1), mass, alpha=alpha)
    return radial.build_problem(scen, "min-j", 0)


def test_shoot_decay_ground_state():
    prob = lob_minj_problem(0.1, 10.0)
    level = spectra.single_level(prob.scenario, 0, 0, "min-j")
    res = oracle.shoot_decay(prob, level.epsilon)
    assert abs(res.mismatch) <= 1e-5


def test_shoot_decay_bracketing_feasible_side():
    prob = lob_minj_problem(0.1, 10.0)
    level = spectra.single_level(prob.scenario, 0, 0, "min-j")
    below = oracle.shoot_decay(prob, level.epsilon * 0.99).mismatch
    just_above = oracle.shoot_decay(prob, level.epsilon + 2e-6).mismatch
    assert below * just_above < 0.0


def test_shoot_decay_rejects_nondecaying():
    prob = lob_minj_problem(0.1, 10.0)
    with pytest.raises(oracle.OracleError, match="non-decaying"):
        oracle.shoot_decay(prob, 9.95)


def test_shoot_decay_strong_coupling_full_series():
    # here every genuinely bound level (b > 0) passes the decaying shoot
    alpha, mass = 0.3, 30.0
    prob = lob_minj_problem(alpha, mass)
    for n in range(3):
        level = spectra.single_level(prob.scenario, 0, n, "min-j")
        assert level.admissible
        assert abs(oracle.shoot_decay(prob, level.epsilon).mismatch) <= 1e-5
    eps_0 = spectra.single_level(prob.scenario, 0, 0, "min-j").epsilon
    lo = oracle.shoot_decay(prob, eps_0 * 0.99)
    hi = oracle.shoot_decay(prob, eps_0 * 1.01)
    assert lo.mismatch * hi.mismatch < 0.0


def test_shoot_decay_far_field_past_double_range():
    # kappa r_max ~ 854: e^(kappa r_max) overflows a double, so the decaying
    # leg only works as the bounded Riccati log-derivative
    alpha, mass = 0.3, 80.0
    prob = lob_minj_problem(alpha, mass)
    level = spectra.single_level(prob.scenario, 0, 0, "min-j")
    res = oracle.shoot_decay(prob, level.epsilon)
    assert res.far_decay_rate * oracle.SHOOT_R_MAX > math.log(np.finfo(float).max)
    assert abs(res.mismatch) <= 1e-9


def test_shoot_decay_formal_levels_do_not_match():
    # the closed form at n >= 1 (alpha = 0.1, M = 10) has b < 0: the regular
    # solution grows at infinity and the decaying shoot must fail loudly
    prob = lob_minj_problem(0.1, 10.0)
    level = spectra.single_level(prob.scenario, 0, 1, "min-j")
    assert not level.admissible
    assert abs(oracle.shoot_decay(prob, level.epsilon).mismatch) > 0.1


def test_arbitration_confirms_quantization_form():
    scen = core.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0)
    verdict = validate._oscillator_verdict(scen, "min-j", 0)
    assert verdict["confirmed"] == "quantization"
    assert verdict["stable"]
    assert verdict["matched_rel_dev"] <= 1e-4
    assert verdict["rejected_rel_dev"] > 0.1


def test_arbitration_level_spacing():
    scen = core.Scenario("flat", "oscillator", F(1), 1.0, k_osc=1.0)
    prob = radial.build_problem(scen, "min-j", 0)
    evs = oracle.fd_eigen(prob, oracle.Grid(r_max=12.0, n=16383), count=3).energies
    spacings = np.diff(evs)
    assert spacings == pytest.approx([2.0, 2.0], rel=1e-4)  # 2 sqrt(K/M), not sqrt(K/M)


def test_count_accepts_explicit_edge():
    scen = core.Scenario("lobachevsky", "oscillator", F(0), 1.0, k_osc=100.0)
    prob = radial.build_problem(scen, "parity-odd", 0)
    assert prob.continuum_edge == 50.0
    assert oracle.count_bound_states(prob) == 5
    # a lowered edge excludes the shallowest level (E4 ~ 49.87)
    assert oracle.count_bound_states(dataclasses.replace(prob, continuum_edge=49.5)) == 4


def test_results_independent_of_box_size():
    scen = core.Scenario("flat", "coulomb", F(1), 1.0, alpha=1.0)
    prob = radial.build_problem(scen, "min-j", 0)
    # same spacing h = 80/16384, two box sizes past the decay-length heuristic
    e1 = oracle.fd_eigen(prob, oracle.Grid(r_max=80.0, n=16383), count=1).energies[0]
    e2 = oracle.fd_eigen(prob, oracle.Grid(r_max=120.0, n=24575), count=1).energies[0]
    assert abs(e1 - e2) <= 1e-8


# Every FD matrix one `validate.run_suites("all")` builds (seed rungs, polished
# rungs and count grids), in grid points: 823,743 in 35 requested ladders, of
# which 3 repeat an earlier ladder's matrix and are shared, as are 2 of its 17
# bound-state counts (917,425 before the sharing, 1,051,809 in 39 before the
# flat oscillator box followed its own decay, 2,385,477 for the fixed
# 16,000-60,001-point grids before the ladder).
VALIDATE_ALL_POINT_BUDGET = 830_000
VALIDATE_ALL_LADDERS = 35
# The dgtsv solves of the same run's polished rungs: 519, now that the seed
# rung hands its bisection's eigenvectors up to the first polished rung (602
# when that rung started from a fixed random vector with two seed-shift
# solves; 938 before that, when every polished rung did and no ladder was
# shared).
VALIDATE_ALL_SOLVE_BUDGET = 519


@pytest.fixture(scope="module")
def validate_all_runs():
    """Three `validate.run_suites("all")` runs: two in a row as `validate`
    makes them, then one with the solve scope replaced by a no-op. For each,
    its results, its `fd_eigen`, `_polish`, `_bisect` and `dgtsv` calls and
    the grid points of the FD matrices it builds."""
    runs = []
    calls, points = collections.Counter(), []
    with pytest.MonkeyPatch.context() as mp:
        def counted(name):
            function = getattr(oracle, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        for name in ("fd_eigen", "_polish", "_bisect", "dgtsv"):
            mp.setattr(oracle, name, counted(name))
        tridiagonal = oracle._tridiagonal

        def counted_matrix(problem, grid):
            points.append(grid.n)
            return tridiagonal(problem, grid)

        mp.setattr(oracle, "_tridiagonal", counted_matrix)
        for sharing in (True, True, False):
            if not sharing:
                mp.setattr(oracle, "solve_scope", contextlib.nullcontext)
            calls.clear()
            points.clear()
            results = validate.run_suites("all")["results"]
            runs.append({"results": results, "calls": dict(calls), "points": sum(points)})
    return runs


def test_validate_all_point_budget(validate_all_runs):
    shared, _, alone = validate_all_runs
    assert 0 < shared["points"] <= VALIDATE_ALL_POINT_BUDGET < alone["points"]
    # one ladder per compared run of levels: a per-level split adds ladders
    assert shared["calls"]["fd_eigen"] == alone["calls"]["fd_eigen"] == VALIDATE_ALL_LADDERS


def test_validate_all_solve_budget(validate_all_runs):
    shared, _, alone = validate_all_runs
    assert 0 < shared["calls"]["dgtsv"] <= VALIDATE_ALL_SOLVE_BUDGET < alone["calls"]["dgtsv"]


def test_validate_all_results_do_not_depend_on_sharing(validate_all_runs):
    shared, _, alone = validate_all_runs
    assert report_diff.diff(shared["results"], alone["results"]) == []  # floats compared bit for bit


def test_consecutive_runs_solve_the_same_ladders(validate_all_runs):
    # the second run is served nothing from the first; sharing within a run
    # saves the seed bisection of each repeated ladder
    first, second, alone = validate_all_runs
    for name in ("_polish", "_bisect"):
        assert first["calls"][name] == second["calls"][name] > 0
    assert first["calls"]["_bisect"] < alone["calls"]["_bisect"]


def test_repeated_request_still_checks_resolution(monkeypatch):
    prob = radial.build_problem(CURVED_OSCILLATOR, "parity-odd", 0)
    grid = oracle.default_grid(prob)
    checked, ladders = [], []
    check, ladder = oracle.check_resolution, oracle._ladder

    def counted_check(problem, g):
        checked.append(g)
        check(problem, g)

    def counted_ladder(*args):
        ladders.append(args)
        return ladder(*args)

    monkeypatch.setattr(oracle, "check_resolution", counted_check)
    monkeypatch.setattr(oracle, "_ladder", counted_ladder)
    with oracle.solve_scope():
        solve = oracle.fd_eigen(prob, grid=grid, count=2)
        count = oracle.count_bound_states(prob, grid)
        checks = len(checked)
        assert oracle.fd_eigen(prob, grid=grid, count=2) is solve
        assert oracle.count_bound_states(prob, grid) == count
        assert checked[checks:] == [grid, grid] and len(ladders) == 1
        # a check that fails now fails the stored request too
        monkeypatch.setattr(oracle, "RESOLUTION_LIMIT", 0.0)
        for request in (lambda: oracle.fd_eigen(prob, grid=grid, count=2),
                        lambda: oracle.count_bound_states(prob, grid)):
            with pytest.raises(oracle.OracleError, match="resolution heuristic violated"):
                request()


def test_problems_with_different_potentials_never_share():
    # the same grid, mass, origin exponent, edge and indices; only v_eff moves,
    # by 0.5, which lifts every level by 0.5/(2M) and E4 ~ 49.87 past the edge E = 50
    prob = radial.build_problem(CURVED_OSCILLATOR, "parity-odd", 0)
    lifted = dataclasses.replace(prob, v_eff=lambda r: prob.v_eff(r) + 0.5)
    grid = oracle.default_grid(prob)
    with oracle.solve_scope():
        base, other = (oracle.fd_eigen(p, grid=grid, count=2) for p in (prob, lifted))
        counts = [oracle.count_bound_states(p, grid) for p in (prob, lifted)]
    assert other.energies == pytest.approx(base.energies + 0.25, rel=1e-9)
    assert counts == [5, 4]


def test_fd_compare_refuses_levels_that_skip_an_n():
    scen = core.Scenario("lobachevsky", "oscillator", F(1), 1.0, k_osc=100.0)
    prob = radial.build_problem(scen, "min-j", 0)
    levels = spectra.admissible_levels(scen, 0, "min-j")
    with pytest.raises(ValueError, match=r"consecutive n, got \[0, 2\]"):
        validate._fd_compare(prob, [levels[0], levels[2]])
