"""Radial problems, analytic wavefunctions, pointwise residuals."""

import math
from fractions import Fraction

import numpy as np
import pytest

from monopole_spectra import core, radial, spectra

F = Fraction


def scen(geometry, potential, charge=1, mass=1.0, alpha=0.0, k_osc=0.0):
    return core.Scenario(geometry, potential, F(charge), mass, alpha=alpha, k_osc=k_osc)


def test_flat_min_j_coulomb_potential_form():
    prob = radial.build_problem(scen("flat", "coulomb", alpha=1.0), "min-j", 0)
    r = np.array([0.5, 2.0])
    assert prob.v_eff(r) == pytest.approx(-2.0 / r, abs=1e-15)
    assert prob.origin_exponent == 1.0


def test_lob_parity_odd_coulomb_potential_form():
    prob = radial.build_problem(scen("lobachevsky", "coulomb", charge=0, alpha=10.0), "parity-odd", 2)
    r = np.array([0.7, 1.3])
    expected = 6.0 / np.sinh(r) ** 2 - 20.0 / np.tanh(r)
    assert prob.v_eff(r) == pytest.approx(expected, rel=1e-14)
    assert prob.continuum_edge == -10.0


def test_lob_even1_free_potential_form():
    prob = radial.build_problem(scen("lobachevsky", "none", charge=0), "even-1", 1)
    r = np.array([0.9])
    expected = (2.0 + 2.0 * (1.0 + np.cosh(r))) / np.sinh(r) ** 2
    assert prob.v_eff(r) == pytest.approx(expected, rel=1e-14)
    assert prob.origin_exponent == 3.0  # j + 2


def test_lob_even2_regular_exponent():
    prob0 = radial.build_problem(scen("lobachevsky", "coulomb", charge=0, alpha=10.0), "even-2", 0)
    assert prob0.origin_exponent == 1.0  # max(j, 1-j) at j = 0
    prob2 = radial.build_problem(scen("lobachevsky", "coulomb", charge=0, alpha=10.0), "even-2", 2)
    assert prob2.origin_exponent == 2.0


def test_unknown_channel_rejected():
    with pytest.raises(radial.RadialError):
        radial.build_problem(scen("lobachevsky", "coulomb", charge=0, alpha=1.0), "branch-1", 1)
    with pytest.raises(radial.RadialError):
        radial.build_problem(scen("lobachevsky", "coulomb", charge=1, alpha=0.1), "parity-odd", 1)
    flat = scen("flat", "coulomb", alpha=1.0)
    with pytest.raises(radial.RadialError, match="unknown branch 'parity-odd'"):
        radial.build_problem(flat, "parity-odd", 2)
    with pytest.raises(radial.RadialError, match="min-j channel requires j = |k| - 1"):
        radial.build_problem(flat, "min-j", 2)
    with pytest.raises(radial.RadialError, match="reduced channel"):
        radial.build_problem(flat, "branch-1", 0)


def test_flat_coulomb_min_j_residual():
    sc = scen("flat", "coulomb", alpha=1.0)
    problem = radial.build_problem(sc, "min-j", 0)
    level = spectra.single_level(sc, 0, 0, "min-j")
    sol = radial.analytic_solution(problem, level)
    assert radial.residual(problem, sol, level) <= 1e-8
    assert sol.node_count() == 0


def test_residual_sensitivity_to_energy_perturbation():
    sc = scen("flat", "coulomb", alpha=1.0)
    problem = radial.build_problem(sc, "min-j", 0)
    level = spectra.single_level(sc, 0, 0, "min-j")
    sol = radial.analytic_solution(problem, level)
    base = radial.residual(problem, sol, level)
    perturbed = level._replace(energy=level.energy * 1.01)
    assert radial.residual(problem, sol, perturbed) >= 10.0 * base


def test_flat_branch_solutions_nodes_and_residuals():
    sc = scen("flat", "coulomb", alpha=1.0)
    problem = radial.build_problem(sc, "branch-2", 2)
    for n in range(3):
        level = spectra.single_level(sc, 2, n, "branch-2")
        sol = radial.analytic_solution(problem, level)
        assert radial.residual(problem, sol, level) <= 1e-7
        assert sol.node_count() == n


def test_flat_oscillator_residual_identifies_confirmed_candidate():
    sc = scen("flat", "oscillator", k_osc=1.0)
    problem = radial.build_problem(sc, "min-j", 0)
    level = spectra.single_level(sc, 0, 1, "min-j")
    sol = radial.analytic_solution(problem, level)
    assert radial.residual(problem, sol, level) <= 1e-7
    printed = level._replace(energy=spectra.oscillator_candidates(0.0, 1, 1.0, 1.0)["printed"])
    assert radial.residual(problem, sol, printed) > 1e-2


def test_peculiar_flat_profile():
    sc = scen("flat", "none")
    problem = radial.build_problem(sc, "min-j", 0)
    level = spectra.peculiar_flat_level(-0.5, sc)
    grid = radial.uniform_grid(1e-3, 15.0, 15001)
    sol = radial.analytic_solution(problem, level, grid=grid)
    kappa = math.sqrt(1.0)  # sqrt(-2 E M)
    assert sol.values == pytest.approx(np.exp(-kappa * grid) / np.exp(-kappa * grid[0]), rel=1e-12)
    assert radial.residual(problem, sol, level) <= 1e-8
    # finite L2(r^2 dr) norm of psi = u/r, i.e. the plain L2 norm of u
    assert sol.norm == pytest.approx(math.sqrt(1.0 / (2 * kappa)) / np.exp(-kappa * grid[0]), rel=1e-3)


def test_lob_minj_coulomb_quadratic_residual():
    sc = scen("lobachevsky", "coulomb", alpha=0.1, mass=10.0)
    problem = radial.build_problem(sc, "min-j", 0)
    level = spectra.single_level(sc, 0, 0, "min-j")
    sol = radial.analytic_solution(problem, level)
    assert radial.residual(problem, sol, level) <= 1e-7
    eps = level.epsilon * 1.001
    worse = level._replace(epsilon=eps, energy=eps - sc.mass)
    assert radial.residual(problem, sol, worse) >= 10.0 * radial.residual(problem, sol, level)


def test_lob_minj_coulomb_n0_polynomial_is_constant():
    # n = 0: the terminating series is the constant 1, so F = x^A (1-x)^B exactly
    sc = scen("lobachevsky", "coulomb", alpha=0.1, mass=10.0)
    problem = radial.build_problem(sc, "min-j", 0)
    level = spectra.single_level(sc, 0, 0, "min-j")
    grid = radial.uniform_grid(0.1, 5.0, 300)
    sol = radial.analytic_solution(problem, level, grid=grid)
    a_exp = (1.0 + math.sqrt(0.96)) / 2.0
    b_exp = spectra.resolve_channel(sc, 0, "min-j").b(level.epsilon, 0)
    x = 1.0 - np.exp(-2.0 * grid)
    direct = x**a_exp * (1.0 - x) ** b_exp
    assert sol.values == pytest.approx(direct / np.max(np.abs(direct)), rel=1e-12)


def test_lob_minj_oscillator_solution():
    sc = scen("lobachevsky", "oscillator", k_osc=100.0)
    problem = radial.build_problem(sc, "min-j", 0)
    for n in range(3):
        level = spectra.single_level(sc, 0, n, "min-j")
        sol = radial.analytic_solution(problem, level)
        assert radial.residual(problem, sol, level) <= 1e-7
        assert sol.node_count() == n


def test_lob_parity_odd_solutions():
    sc = scen("lobachevsky", "coulomb", charge=0, alpha=10.0)
    problem = radial.build_problem(sc, "parity-odd", 1)
    for n in range(2):
        level = spectra.single_level(sc, 1, n, "parity-odd")
        sol = radial.analytic_solution(problem, level)
        assert radial.residual(problem, sol, level) <= 1e-7
        assert sol.node_count() == n
    sc_o = scen("lobachevsky", "oscillator", charge=0, k_osc=100.0)
    problem_o = radial.build_problem(sc_o, "parity-odd", 2)
    level_o = spectra.single_level(sc_o, 2, 1, "parity-odd")
    sol_o = radial.analytic_solution(problem_o, level_o)
    assert radial.residual(problem_o, sol_o, level_o) <= 1e-7


def test_even_channel_heun_solutions_satisfy_radial_ode():
    # validates the full substitution, including the accessory parameter, for
    # both even channels against the untransformed radial operator
    sc = scen("lobachevsky", "coulomb", charge=0, alpha=10.0)
    for (j, ch) in [(0, "even-1"), (1, "even-1"), (1, "even-2")]:
        problem = radial.build_problem(sc, ch, j)
        level = spectra.single_level(sc, j, 0, ch)
        grid = radial.uniform_grid(1e-3, 2.19, 2200)
        sol = radial.analytic_solution(problem, level, grid=grid)
        assert radial.residual(problem, sol, level) <= 1e-8


def test_even_channel_oscillator_sampler_unavailable():
    sc = scen("lobachevsky", "oscillator", charge=0, k_osc=100.0)
    problem = radial.build_problem(sc, "even-1", 1)
    level = spectra.single_level(sc, 1, 0, "even-1")
    with pytest.raises(radial.RadialError):
        radial.analytic_solution(problem, level)


def test_inadmissible_level_rejected():
    sc = scen("lobachevsky", "coulomb", charge=0, alpha=10.0)
    problem = radial.build_problem(sc, "parity-odd", 0)
    level = spectra.single_level(sc, 0, 5, "parity-odd")
    with pytest.raises(radial.RadialError):
        radial.analytic_solution(problem, level)


def test_default_grid_refuses_an_underflowing_decay_rate():
    # 2M|E| underflows at M = 1e-200: kappa = 0 leaves the extent 12/kappa undefined
    sc = scen("flat", "coulomb", mass=1e-200, alpha=1.0)
    problem = radial.build_problem(sc, "branch-1", 2)
    level = spectra.single_level(sc, 2, 0, "branch-1")
    with pytest.raises(radial.RadialError, match="underflows to 0"):
        radial.default_solution_grid(problem, level)


def test_default_grid_refuses_a_grid_over_the_point_budget(monkeypatch):
    # M K = 1e-20 gives an extent of 6.4e5 at h = 1e-3; the guard makes the
    # request fail instead of allocating it
    real = radial.uniform_grid

    def bounded(r0, r1, n):
        if n > 1_000_000:
            pytest.fail(f"asked for a {n}-point grid")
        return real(r0, r1, n)

    monkeypatch.setattr(radial, "uniform_grid", bounded)
    sc = scen("flat", "oscillator", mass=1e-10, k_osc=1e-10)
    problem = radial.build_problem(sc, "branch-1", 2)
    level = spectra.single_level(sc, 2, 0, "branch-1")
    with pytest.raises(radial.RadialError, match="more than the 1,000,000 allowed"):
        radial.default_solution_grid(problem, level)
    assert radial.GRID_POINT_BUDGET == 1_000_000
    # the flat Coulomb extent cap stays inside the budget
    coulomb = scen("flat", "coulomb", mass=1e-6, alpha=1e-3)
    grid = radial.default_solution_grid(radial.build_problem(coulomb, "branch-1", 2),
                                        spectra.single_level(coulomb, 2, 0, "branch-1"))
    assert grid[-1] == 400.0 and 300_000 < len(grid) <= radial.GRID_POINT_BUDGET


def test_uniform_grid_refuses_more_points_than_the_budget(monkeypatch):
    # an explicit grid shares the default grids' budget: one point over it
    # raises before numpy is asked for the array
    def refuse(*args, **kwargs):
        pytest.fail("allocated an over-budget grid")

    monkeypatch.setattr(radial.np, "linspace", refuse)
    for n in (radial.GRID_POINT_BUDGET + 1, 10**13):
        with pytest.raises(radial.RadialError, match="more than the 1,000,000 allowed"):
            radial.uniform_grid(1e-3, 40.0, n)
    monkeypatch.undo()
    assert len(radial.uniform_grid(1e-3, 40.0, radial.GRID_POINT_BUDGET)) == radial.GRID_POINT_BUDGET


def test_residual_grid_contracts():
    sc = scen("flat", "coulomb", alpha=1.0)
    problem = radial.build_problem(sc, "min-j", 0)
    level = spectra.single_level(sc, 0, 0, "min-j")
    small = radial.analytic_solution(problem, level, grid=radial.uniform_grid(0.1, 5.0, 100))
    with pytest.raises(radial.RadialError, match="coarse"):
        radial.residual(problem, small, level)


def test_bound_solutions_decay_monotonically_past_last_node():
    sc = scen("flat", "coulomb", alpha=1.0)
    problem = radial.build_problem(sc, "branch-1", 2)
    level = spectra.single_level(sc, 2, 2, "branch-1")
    sol = radial.analytic_solution(problem, level)
    u = np.abs(sol.values)
    tail = u[int(0.7 * len(u)):]
    assert np.all(np.diff(tail) <= 0)
