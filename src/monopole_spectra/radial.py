"""Effective one-dimensional radial problems and analytic wavefunctions.

Every channel reduces to Liouville normal form u'' + (2 M E - V_eff(r)) u = 0
(the flat channels after u = r f), except the curved minimum-j Coulomb channel
which is quadratic in the relativistic energy eps = M + E:
u'' + ((eps + alpha/tanh r)^2 - M^2) u = 0. Analytic solutions are assembled
from the closed-form substitutions and validated pointwise by finite-difference
residuals on their own samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import ivp, specfun
from .core import (
    GEOMETRY_FLAT,
    GEOMETRY_LOBACHEVSKY,
    POTENTIAL_COULOMB,
    POTENTIAL_NONE,
    POTENTIAL_OSCILLATOR,
    HalfInt,
    Scenario,
    as_half_integer,
)
from .spectra import (
    CH_PARITY_ODD,
    CHANNEL_TABLE,
    EnergyLevel,
    SpectrumError,
    channel_row,
    flat_channel_l,
    resolve_channel,
)

LINEAR_IN_E = "linear-in-E"
QUADRATIC_IN_EPSILON = "quadratic-in-epsilon"


class RadialError(ValueError):
    pass


@dataclass(frozen=True)
class RadialProblem:
    """A radial eigenproblem in normal form on (0, infinity).

    For linearity == 'linear-in-E' the equation is
        u'' + (2 * mass * E - v_eff(r)) u = 0,
    and `continuum_edge` (set for curved geometries) is the E value of
    lim_{r->inf} v_eff/(2 M); eigenvalues below it are genuine bound states.
    For 'quadratic-in-epsilon' the equation is u'' + quad_coeff(r, E) u = 0,
    with E = eps - M the level's energy.
    """

    tag: str
    scenario: Scenario
    channel: str
    j: Fraction
    mass: float
    v_eff: Optional[Callable] = None
    quad_coeff: Optional[Callable] = None
    linearity: str = LINEAR_IN_E
    origin_exponent: float = 1.0
    continuum_edge: Optional[float] = None

    def eigenvalue_from_energy(self, energy: float) -> float:
        return 2.0 * self.mass * energy


def build_problem(scenario: Scenario, channel: str, j: HalfInt) -> RadialProblem:
    """Effective radial problem for (scenario, channel, j).

    Flat channels carry V = L(L+1)/r^2 plus -2 M alpha / r or M K r^2; curved
    channels are built from j(j+1)/sinh^2 r, +-(1+cosh r)/sinh^2 r couplings,
    -2 M alpha / tanh r, and M K tanh^2 r. The curved coupling and origin
    exponent come from the channel's row in `spectra.CHANNEL_TABLE`.
    """
    jf = as_half_integer(j, "j")
    m, al = scenario.mass, scenario.alpha
    tag = f"{scenario.geometry}/{scenario.potential}/{channel}[j={jf},k={scenario.charge}]"
    common = dict(tag=tag, scenario=scenario, channel=channel, j=jf, mass=m)

    if scenario.geometry == GEOMETRY_FLAT:
        try:
            lval = flat_channel_l(jf, scenario.charge, channel)
        except SpectrumError as exc:
            raise RadialError(str(exc)) from exc
        vr, _ = _with_potential(scenario, lambda r, L=lval: L * (L + 1.0) / r**2, lambda r: r)
        return RadialProblem(**common, v_eff=vr, origin_exponent=lval + 1.0)

    # Lobachevsky geometry
    row = channel_row(scenario, channel)
    if row is None:
        if not scenario.no_monopole:
            raise RadialError("curved channels beyond minimum j do not decouple in a monopole field")
        if (scenario.geometry, scenario.potential, channel) in CHANNEL_TABLE:
            raise RadialError("minimum-j channel needs a monopole charge |k| >= 1")
        raise RadialError(f"unknown channel {channel!r} for {scenario.geometry}")
    if row.origin_exponent is None:
        raise RadialError("free curved minimum-j channel: use the relativistic reduction")
    exponent = row.origin_exponent(float(jf), scenario)
    if row.relativistic:
        return RadialProblem(
            **common,
            quad_coeff=lambda r, e: minj_coulomb_coefficient(np.cosh(r) / np.sinh(r), e, al, m),
            linearity=QUADRATIC_IN_EPSILON,
            origin_exponent=exponent,
        )
    jj1 = float(jf * (jf + 1))
    if row.monopole:  # the reduced min-j channel has no angular term
        angular = lambda r: 0.0
    elif row.coupling is None:
        angular = lambda r: jj1 / np.sinh(r) ** 2
    else:
        c = row.coupling(float(jf))
        angular = lambda r: (jj1 + c * (1.0 + np.cosh(r))) / np.sinh(r) ** 2
    vr, edge = _with_potential(scenario, angular, np.tanh)
    return RadialProblem(**common, v_eff=vr, origin_exponent=exponent, continuum_edge=edge)


def minj_coulomb_coefficient(coth_r, energy: float, alpha: float, mass: float):
    """The relativistic min-j Coulomb coefficient (eps + alpha coth r)^2 - M^2
    at eps = M + E, factored as (E + alpha coth r)(E + alpha coth r + 2M) so
    that it does not cancel at large M. coth_r is a float (shooting, through
    `math`) or an array (sampled residuals)."""
    a = energy + alpha * coth_r
    return a * (a + 2.0 * mass)


def _with_potential(scenario: Scenario, angular: Callable, x: Callable) -> tuple[Callable, float]:
    """V_eff = angular(r) plus the scenario's potential, -2 M alpha / x(r) or
    M K x(r)^2 with x(r) = r (flat) or tanh r (curved), and the curved
    continuum edge lim V/(2M): -alpha, K/2, or 0 for the free particle."""
    m, al, ko = scenario.mass, scenario.alpha, scenario.k_osc
    if scenario.potential == POTENTIAL_COULOMB:
        return (lambda r: angular(r) - 2.0 * m * al / x(r)), -al
    if scenario.potential == POTENTIAL_OSCILLATOR:
        return (lambda r: angular(r) + m * ko * x(r) ** 2), ko / 2.0
    return angular, 0.0


# --- analytic solutions -------------------------------------------------------


@dataclass(frozen=True)
class RadialSolution:
    """Sampled closed-form solution u(r) with its construction tag."""

    grid: np.ndarray
    values: np.ndarray
    closed_form: str
    norm: Optional[float] = None
    auxiliary: dict = field(default_factory=dict)

    def node_count(self) -> int:
        v = self.values
        signs = np.sign(v[np.abs(v) > 1e-12 * np.max(np.abs(v))])
        return int(np.sum(signs[1:] != signs[:-1]))


# The largest sampling grid, default or explicit: 8 MB per float64 array. The
# flat Coulomb extent cap of 400 at the default step takes 400,001 points.
GRID_POINT_BUDGET = 1_000_000
SOLUTION_GRID_STEP = 1e-3  # the default sampling grid's spacing


def uniform_grid(r0: float, r1: float, n: int) -> np.ndarray:
    """n evenly spaced points from r0 to r1; more than GRID_POINT_BUDGET
    points raise RadialError before anything is allocated."""
    if not (0.0 < r0 < r1) or n < 2:
        raise RadialError("grid needs 0 < r0 < r1 and at least two points")
    if n > GRID_POINT_BUDGET:
        raise RadialError(f"grid of {n:,} points is more than the {GRID_POINT_BUDGET:,} allowed")
    return np.linspace(r0, r1, n)


def _origin_start(problem: RadialProblem, r0_base: float) -> float:
    """Push the sampling start away from the origin when the Frobenius exponent
    is non-integer: u ~ r^p then has a singular sixth derivative r^(p-6), and
    the 4th-order stencil truncation h^4 u''''''/90 at h = SOLUTION_GRID_STEP
    must stay below ~3e-10. Analytic (integer-exponent) solutions keep the
    nominal start."""
    p = problem.origin_exponent
    if abs(p - round(p)) < 1e-9 or p >= 5.5:
        return r0_base
    bound = 1.5 * (SOLUTION_GRID_STEP**4 / (90.0 * 3e-10)) ** (1.0 / (6.0 - p))
    return max(r0_base, bound)


def default_solution_grid(problem: RadialProblem, level: EnergyLevel) -> np.ndarray:
    """Uniform sampling grid with spacing <= SOLUTION_GRID_STEP, spanning the
    decay region. A grid of more than GRID_POINT_BUDGET points, or one whose
    extent is undefined because the decay rate underflows to zero, raises
    RadialError before anything is allocated."""
    e_ref = abs(level.energy) if level.energy and not math.isnan(level.energy) else 1.0
    if problem.scenario.geometry == GEOMETRY_FLAT:
        r0 = _origin_start(problem, 1e-4)
        if problem.scenario.potential == POTENTIAL_OSCILLATOR:
            k_osc, mass = problem.scenario.k_osc, problem.mass
            om = math.sqrt(k_osc / mass)
            r1 = max(3.0 * math.sqrt(2.0 * max(level.energy, om) / om**2 / mass), 6.0 / math.sqrt(mass * om)) if om else 0
            if not 0.0 < r1 < math.inf:
                # omega = sqrt(K/M) left the double range: the same extent in oscillator lengths (MK)^(-1/4)
                e_per_omega = level.energy / (math.sqrt(k_osc) / math.sqrt(mass))
                r1 = mass**-0.25 * k_osc**-0.25 * max(3.0 * math.sqrt(2.0 * max(e_per_omega, 1.0)), 6.0)
        else:
            kappa = math.sqrt(2.0 * problem.mass * e_ref)
            if kappa == 0.0:
                raise RadialError("no default grid: the decay rate sqrt(2M|E|) underflows to 0")
            r1 = min(12.0 / kappa + 10.0, 400.0)
    else:
        r0 = _origin_start(problem, 1e-3)
        edge = problem.continuum_edge if problem.continuum_edge is not None else 0.0
        # a relativistic level is sized from its epsilon, as it is sampled and checked
        energy = level.energy if level.epsilon is None else level.epsilon - problem.mass
        gap = max(edge - energy, 0.05)
        kappa = math.sqrt(2.0 * problem.mass * gap)
        r1 = min(12.0 / kappa + 8.0, 60.0)
    span = (r1 - r0) / SOLUTION_GRID_STEP
    if not span < GRID_POINT_BUDGET:
        raise RadialError(f"default grid needs {span + 1:.4g} points, more than the {GRID_POINT_BUDGET:,} allowed")
    return uniform_grid(r0, r1, max(int(span) + 1, 1001))


def analytic_solution(problem: RadialProblem, level: EnergyLevel, grid: Optional[np.ndarray] = None) -> RadialSolution:
    """Closed-form bound-state solution sampled on the grid by the sampler that
    the channel's row names. Raises for inadmissible levels and for channels
    without one, such as the curved oscillator even channels, whose closed form
    is only a local series off the physical domain."""
    if not level.admissible:
        raise RadialError(f"level is not a bound state: {level.reason}")
    scen = problem.scenario
    if grid is None:
        grid = default_solution_grid(problem, level)
    r = np.asarray(grid, dtype=float)

    row = channel_row(scen, problem.channel)
    reason = row.sampler if row else "the channel has no row"
    sample = _SAMPLERS.get(reason)
    if sample is None:
        raise RadialError(
            f"no closed-form sampler for channel {problem.channel!r} with potential {scen.potential!r}; {reason}"
        )
    # a sample that overflows far out is refused by the scale check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        u, form = sample(problem, level, r)
    scale = np.max(np.abs(u))
    if not np.isfinite(scale) or scale == 0.0:
        raise RadialError("analytic solution degenerate on this grid")
    u = u / scale
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    norm = float(np.sqrt(trapezoid(u * u, r)))
    return RadialSolution(grid=r, values=u, closed_form=form, norm=norm)


def _flat_coulomb_solution(problem: RadialProblem, level: EnergyLevel, r: np.ndarray):
    lval = resolve_channel(problem.scenario, level.j, level.channel).l
    z = 2.0 * math.sqrt(-2.0 * problem.mass * level.energy) * r
    u = r * z**lval * np.exp(-z / 2.0) * specfun.kummer_1f1(-level.n, 2.0 * lval + 2.0, z)
    return u, f"u = r z^L e^(-z/2) 1F1(-n; 2L+2; z), z = 2 sqrt(-2ME) r, L = {lval:.12g}"


def _flat_oscillator_solution(problem: RadialProblem, level: EnergyLevel, r: np.ndarray):
    lval = resolve_channel(problem.scenario, level.j, level.channel).l
    x = math.sqrt(problem.mass * problem.scenario.k_osc) * r**2
    u = r * x ** (lval / 2.0) * np.exp(-x / 2.0) * specfun.kummer_1f1(-level.n, lval + 1.5, x)
    return u, f"u = r x^(L/2) e^(-x/2) 1F1(-n; L+3/2; x), x = sqrt(MK) r^2, L = {lval:.12g}"


def _flat_free_solution(problem: RadialProblem, level: EnergyLevel, r: np.ndarray):
    # the reduced free channel's peculiar bound-type profile psi = e^(-kappa r)/r
    if level.energy >= 0:
        raise RadialError("the reduced free channel bound profile needs E < 0")
    kappa = math.sqrt(-2.0 * problem.mass * level.energy)
    return np.exp(-kappa * r), f"u = e^(-kappa r) (psi = u/r), kappa = sqrt(-2ME) = {kappa:.12g}"


def _x_series(r: np.ndarray, a_exp: float, b_exp: float, n: int):
    """x^A (1-x)^B 2F1(-n, 2(A+B)+n; 2A; x), x = 1 - e^(-2r), and its beta; (1-x)^B is
    e^(-2Br), which keeps the tail once x rounds to 1 (r beyond ~18)."""
    x = 1.0 - np.exp(-2.0 * r)
    beta = 2.0 * (a_exp + b_exp) + n
    return x**a_exp * np.exp(-2.0 * b_exp * r) * specfun.gauss_2f1(-n, beta, 2.0 * a_exp, x), beta


def _minj_coulomb_solution(problem: RadialProblem, level: EnergyLevel, r: np.ndarray):
    inputs = resolve_channel(problem.scenario, level.j, level.channel)
    a_exp, b_exp = inputs.nu_0, inputs.b(level.epsilon, level.n)
    u, beta = _x_series(r, a_exp, b_exp, level.n)
    return u, (f"F = x^A (1-x)^B 2F1(-n, {beta:.12g}; {2*a_exp:.12g}; x), "
               f"x = 1 - e^(-2r), A = {a_exp:.12g}, B = {b_exp:.12g}")


def _parity_odd_coulomb_solution(problem: RadialProblem, level: EnergyLevel, r: np.ndarray):
    inputs = resolve_channel(problem.scenario, level.j, level.channel)
    b_exp = inputs.b(inputs.big_n(level.n))
    a_exp = float(level.j) + 1.0
    u, beta = _x_series(r, a_exp, b_exp, level.n)
    return u, (f"F = x^(j+1) (1-x)^b 2F1(-n, {beta:.12g}; {2.0 * a_exp:.12g}; x), "
               f"x = 1 - e^(-2r), b = {b_exp:.12g}")


def _cosh_oscillator_solution(problem: RadialProblem, level: EnergyLevel, r: np.ndarray):
    # curved oscillator, min-j and parity-odd: 2b is the origin exponent, 1 and j + 1
    n = level.n
    a_exp = (1.0 - resolve_channel(problem.scenario, level.j, level.channel).root) / 4.0
    b2 = problem.origin_exponent
    y = np.cosh(r) ** 2
    gamma = 2.0 * a_exp + 0.5
    beta = 2.0 * (a_exp + b2 / 2.0) + n
    u = y**a_exp * np.sinh(r) ** b2 * specfun.gauss_2f1(-n, beta, gamma, y)
    return u, (f"F = y^a sinh(r)^(2b) 2F1(-n, {beta:.12g}; {gamma:.12g}; y), "
               f"y = cosh^2 r, a = {a_exp:.12g}, 2b = {b2:.12g}")


def heun_params(level: EnergyLevel) -> specfun.HeunParams:
    """Heun parameters of an even-row level of either curved potential, from
    its exponents (A, B, C) at z = 0, 1, -1. Coulomb, in z = tanh(r/2):

        A = j+2 (channel 1) or j (channel 2), B = 1/2 + sqrt(-2M(E+alpha)),
        C = 1/2 - sqrt(-2M(E-alpha)); gamma, delta, eps = 2A, 2B, 2C,
        q = 4 M alpha - 2A(B - C), lam = -j - 1 + (A+B+C), beta = j + (A+B+C).

    Oscillator, in x = cosh r:

        A = (1 - sqrt(1 + 4MK))/2, B = 1 + j/2 (channel 1) or j/2 (channel 2),
        C = (1+j)/2; gamma, delta, eps = 2A, 2B + 1/2, 2C + 1/2,
        q = -2A(B - C), lam/beta = A + B + C +- sqrt(-M(2E - K)).

    The Fuchs relation holds identically. A radicand below zero or NaN raises
    RadialError (the Coulomb ones before the channel is resolved), and a
    channel without Heun exponents SpectrumError.
    """
    scen, energy, jf = level.scenario, level.energy, float(level.j)
    if scen.potential == POTENTIAL_COULOMB:
        u = _sqrt_radicand(-2.0 * scen.mass * (energy + scen.alpha), "B: -2M(E+alpha)")
        v = _sqrt_radicand(-2.0 * scen.mass * (energy - scen.alpha), "C: -2M(E-alpha)")
    inputs = resolve_channel(scen, level.j, level.channel)
    if inputs.heun_exponents is None:
        raise SpectrumError(f"unknown even channel {level.channel!r}")
    if scen.potential == POTENTIAL_COULOMB:
        (a_exp,), b_exp, c_exp = inputs.heun_exponents, 0.5 + u, 0.5 - v
        s = a_exp + b_exp + c_exp
        return specfun.HeunParams(gamma=2.0 * a_exp, delta=2.0 * b_exp, eps=2.0 * c_exp, lam=-jf - 1.0 + s,
                                  beta=jf + s, q=4.0 * scen.mass * scen.alpha - 2.0 * a_exp * (b_exp - c_exp))
    (b_exp, c_exp), a_exp = inputs.heun_exponents, 0.5 - 0.5 * inputs.root
    w = _sqrt_radicand(-scen.mass * (2.0 * energy - scen.k_osc), "lam/beta: -M(2E-K)")
    s = a_exp + b_exp + c_exp
    return specfun.HeunParams(gamma=2.0 * a_exp, delta=2.0 * b_exp + 0.5, eps=2.0 * c_exp + 0.5, lam=s + w,
                              beta=s - w, q=-2.0 * a_exp * (b_exp - c_exp))


def _sqrt_radicand(radicand: float, label: str) -> float:
    if not radicand >= 0.0:
        raise RadialError(f"{'negative' if radicand < 0.0 else 'NaN'} radicand in {label}: {radicand:.6g}")
    return math.sqrt(radicand)


def _even_coulomb_solution(problem: RadialProblem, level: EnergyLevel, r: np.ndarray):
    """Local Heun construction F = z^A (1-z)^(B-1/2) (1+z)^(C-1/2) H(z),
    z = tanh(r/2), valid on the series disc (z <= 0.8)."""
    z = np.tanh(r / 2.0)
    if np.any(z > 0.8):
        raise RadialError("even-channel Coulomb sampling restricted to tanh(r/2) <= 0.8")
    params = heun_params(level)
    # (gamma, delta, eps) = 2 (A, B, C), so halving gives the exponents exactly
    a_exp, b_exp, c_exp = params.gamma / 2.0, params.delta / 2.0, params.eps / 2.0
    h = specfun.heun_local(params, z)
    u = z**a_exp * (1.0 - z) ** (b_exp - 0.5) * (1.0 + z) ** (c_exp - 0.5) * h
    return u, (
        f"F = z^A (1-z)^(B-1/2) (1+z)^(C-1/2) H(z), z = tanh(r/2), "
        f"A = {a_exp:.12g}, B = {b_exp:.12g}, C = {c_exp:.12g}"
    )


# the samplers, by the names that the rows of `spectra.CHANNEL_TABLE` give
_SAMPLERS = {
    "flat-coulomb": _flat_coulomb_solution,
    "flat-oscillator": _flat_oscillator_solution,
    "flat-free": _flat_free_solution,
    "minj-coulomb": _minj_coulomb_solution,
    "cosh-oscillator": _cosh_oscillator_solution,
    "parity-odd-coulomb": _parity_odd_coulomb_solution,
    "even-coulomb": _even_coulomb_solution,
}


# --- pointwise ODE residual ---------------------------------------------------

_STENCIL_MIN_POINTS = 200


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order central second derivative on the interior (clips 2 points each end)."""
    u = values
    return (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2] + 16.0 * u[3:-1] - u[4:]) / (12.0 * h * h)


def residual(problem: RadialProblem, solution: RadialSolution, level: EnergyLevel) -> float:
    """Max relative pointwise residual of the radial ODE on the sample grid."""
    r = solution.grid
    if len(r) < _STENCIL_MIN_POINTS + 4:
        raise RadialError(f"residual grid too coarse: {len(r)} points < {_STENCIL_MIN_POINTS}")
    h = r[1] - r[0]
    if np.max(np.abs(np.diff(r) - h)) > 1e-9 * h:
        raise RadialError("residual check needs a uniform grid")
    u = solution.values
    d2 = second_derivative(u, h)
    ri = r[2:-2]
    ui = u[2:-2]
    if problem.linearity == QUADRATIC_IN_EPSILON:
        if level.epsilon is None:
            raise RadialError("quadratic problem needs the relativistic energy on the level")
        coeff = problem.quad_coeff(ri, level.energy)
    else:
        coeff = problem.eigenvalue_from_energy(level.energy) - problem.v_eff(ri)
    res = d2 + coeff * ui
    scale = np.max(np.abs(d2) + np.abs(coeff * ui))
    return float(np.max(np.abs(res)) / max(scale, 1e-300))


# --- free curved particle: regular solution and standing-wave envelope ---------


def regular_free_solution(j: HalfInt, energy: float, mass: float, sample_points) -> RadialSolution:
    """Regular solution of the free curved parity-odd channel, u ~ r^{j+1} at the
    origin, continued outward by adaptive RK4 from a series start."""
    jf = as_half_integer(j, "j")
    scen = Scenario(GEOMETRY_LOBACHEVSKY, POTENTIAL_NONE, Fraction(0), mass)
    problem = build_problem(scen, CH_PARITY_ODD, jf)
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim != 1 or np.any(np.diff(pts) <= 0):
        raise RadialError("sample points must be strictly increasing")
    r0 = min(1e-4, pts[0] / 2.0)
    jj1 = float(jf * (jf + 1))
    # u = r^{j+1} (1 + c2 r^2 + O(r^4)); 1/sinh^2 = 1/r^2 - 1/3 + O(r^2)
    c2 = -(2.0 * mass * energy + jj1 / 3.0) / (4.0 * float(jf) + 6.0)
    u0 = r0 ** (float(jf) + 1.0) * (1.0 + c2 * r0 * r0)
    du0 = (float(jf) + 1.0) * r0 ** float(jf) * (1.0 + c2 * r0 * r0) + r0 ** (float(jf) + 1.0) * 2.0 * c2 * r0
    mu, v = problem.eigenvalue_from_energy(energy), problem.v_eff
    rhs = lambda r, y: (y[1], (v(r) - mu) * y[0])
    _, recs = ivp.integrate(rhs, r0, float(pts[-1]), [u0, du0], max_step=0.02, record_at=pts)
    vals = np.array([rec[0] for rec in recs])
    ders = np.array([rec[1] for rec in recs])
    scale = np.max(np.abs(vals))
    return RadialSolution(
        grid=pts,
        values=vals / scale,
        closed_form=f"regular free curved solution, origin exponent j+1 = {float(jf)+1:.12g}",
        auxiliary={"derivatives": ders / scale},
    )


def standing_wave_check(j: HalfInt, energy: float, mass: float = 1.0) -> float:
    """Envelope flatness ratio max/min of sqrt(u^2 + (u'/omega)^2) over the far
    window 8 <= r <= 12; a value near 1 indicates a pure standing wave."""
    if energy <= 0.0:
        raise RadialError("standing-wave check needs E > 0")
    pts = np.linspace(8.0, 12.0, 81)
    sol = regular_free_solution(j, energy, mass, pts)
    omega = math.sqrt(2.0 * mass * energy)
    env = np.sqrt(sol.values**2 + (sol.auxiliary["derivatives"] / omega) ** 2)
    return float(np.max(env) / np.min(env))


def origin_exponent_fit(j: HalfInt, energy: float, mass: float = 1.0) -> float:
    """Log-log slope of the regular free curved solution over 1e-3 <= r <= 1e-2."""
    pts = np.geomspace(1e-3, 1e-2, 25)
    sol = regular_free_solution(j, energy, mass, pts)
    slope = np.polyfit(np.log(pts), np.log(np.abs(sol.values)), 1)[0]
    return float(slope)

