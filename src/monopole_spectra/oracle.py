"""Independent numerical eigenvalue machinery used to validate every spectrum.

The discretization is the plain 3-point stencil on a uniform Dirichlet grid,
turning u'' + (2ME - V)u = 0 into a symmetric tridiagonal eigenproblem. Each
energy comes from a ladder of nested grids with spacings h, 2h, 4h and 8h.
The 8h rung is bisected (LAPACK dstebz), with eigenvectors by inverse
iteration (LAPACK dstein); on each finer rung the selected eigenvalues are
polished by Rayleigh-quotient iteration on that rung's matrix (LAPACK dgtsv
solves), seeded from the rung below and started from its eigenvectors, and
certified by Sturm counts: each polished value carries a residual radius, the
intervals they span are disjoint, and the counts at the two outer ends prove
the values are exactly the requested indices (Parlett, The Symmetric
Eigenvalue Problem, 1998; Barth, Martin & Wilkinson, Numer. Math. 9, 1967).
A count that must be 0 is a Cholesky (LAPACK dpttrf) positive-definiteness
test. A rung that fails the certificate falls back to bisection, which hands
its eigenvectors up in the same way. Richardson extrapolation of
neighbouring rungs, at the order the origin exponent sets, gives the energy,
and the spread of the extrapolants its error estimate (Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993); the finest rung doubles until
that estimate is small. The same
compiled Sturm count gives exact bound-state counts below a continuum edge.
Inside a `solve_scope`, a ladder or count repeated on the same matrix
returns the result already solved.

The quadratic-in-energy problem is handled by two-sided shooting with
log-derivative matching instead, and the free curved particle by its
regular solution. Both integrate a linear second-order equation by
Numerov's three-term recurrence, run as one banded triangular solve
(LAPACK dtbtrs), with Blatt's O(h^4) derivative (Blatt, J. Comput. Phys. 1,
1967); the shooting legs double until the mismatch settles.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dpttrf, dstebz, dtbtrs

from .core import (
    GEOMETRY_FLAT,
    GEOMETRY_LOBACHEVSKY,
    POTENTIAL_NONE,
    POTENTIAL_OSCILLATOR,
    HalfInt,
    Scenario,
    as_half_integer,
)
from .radial import (
    GRID_POINT_BUDGET,
    LINEAR_IN_E,
    QUADRATIC_IN_EPSILON,
    RadialError,
    RadialProblem,
    build_problem,
    minj_coulomb_coefficient,
)


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform Dirichlet box: unknowns at r_i = i h, i = 1..n,
    h = r_max/(n + 1); u vanishes at r = 0 and r = r_max."""

    r_max: float
    n: int

    def __post_init__(self) -> None:
        if self.r_max <= 0.0:
            raise OracleError("grid needs r_max > 0")
        if self.n < 16:
            raise OracleError("grid too small")

    @property
    def h(self) -> float:
        return self.r_max / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.n + 1) * self.h


MIN_VALIDATION_POINTS = 2000
RESOLUTION_LIMIT = 0.05
# the smallest finest rung: n + 1 = 4096, so the 4h rung keeps 1,023 points
MIN_FINEST_POINTS = 4095


def resolution(problem: RadialProblem, grid: Grid) -> float:
    """The resolution heuristic h sqrt(max|V|) on the outer half of the grid
    (the inner centrifugal/Coulomb core diverges but is sampled where u is
    suppressed)."""
    nodes = grid.nodes
    return grid.h * math.sqrt(float(np.max(np.abs(problem.v_eff(nodes[len(nodes) // 2 :])))))


def check_resolution(problem: RadialProblem, grid: Grid) -> None:
    """A validation grid needs n >= MIN_VALIDATION_POINTS and
    h sqrt(max|V|) <= 0.05 on its outer half."""
    if grid.n < MIN_VALIDATION_POINTS:
        raise OracleError(f"validation grids need n >= {MIN_VALIDATION_POINTS}, got {grid.n}")
    value = resolution(problem, grid)
    if value > RESOLUTION_LIMIT:
        raise OracleError(f"resolution heuristic violated: h sqrt(max|V|) = {value:.3g} > {RESOLUTION_LIMIT}")


def default_grid(problem: RadialProblem, e_target: Optional[float] = None) -> Grid:
    """The default finest rung: the smallest nested grid, n + 1 = 4096 * 2^m,
    that passes `check_resolution` on a box holding the level at e_target to 80
    e-folds of its decay. Curved boxes are r_max = 40 (curvature units); a flat
    oscillator's is r_max^2 = 2E/K + 160/sqrt(MK), its turning point plus its
    Gaussian tail; any other flat one's is 80/sqrt(2M|E|), capped at 400."""
    scen = problem.scenario
    if scen.geometry != GEOMETRY_FLAT:
        r_max = 40.0
    elif scen.potential == POTENTIAL_OSCILLATOR:
        turning = 2.0 * max(e_target or 0.0, 0.0) / scen.k_osc  # r^2 at the level's turning point
        r_max = math.sqrt(turning + 160.0 / math.sqrt(problem.mass * scen.k_osc))
    else:
        e_ref = abs(e_target) if e_target else 1.0
        r_max = min(80.0 / math.sqrt(2.0 * problem.mass * e_ref), 400.0)
    grid = Grid(r_max=r_max, n=MIN_FINEST_POINTS)
    while resolution(problem, grid) > RESOLUTION_LIMIT:
        if 2 * grid.n + 1 > GRID_POINT_BUDGET:
            raise OracleError(f"{problem.tag}: no grid of at most {GRID_POINT_BUDGET:,} points on "
                              f"(0, {r_max:.6g}) passes the resolution heuristic")
        grid = Grid(r_max=r_max, n=2 * grid.n + 1)
    return grid


def _tridiagonal(problem: RadialProblem, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    h = grid.h
    diag = 2.0 / (h * h) + problem.v_eff(grid.nodes)
    if not np.all(np.isfinite(diag)):
        bad = grid.nodes[~np.isfinite(diag)]
        raise OracleError(
            f"{problem.tag}: v_eff is not finite at {bad.size} grid nodes (first at r = {bad[0]:.6g})"
        )
    off = np.full(grid.n - 1, -1.0 / (h * h))
    return diag, off


def _count_arguments(diag: np.ndarray, off: np.ndarray, x: float) -> tuple[np.ndarray, np.ndarray, float]:
    """A count's matrix and shift as the LAPACK wrappers take them. A
    non-finite x is refused, since LAPACK does not check it."""
    x = float(x)
    if not math.isfinite(x):
        raise OracleError(f"Sturm count needs a finite shift, got {x}")
    diag = np.asarray(diag, dtype=float)
    # scipy's dstebz and dpttrf wrappers refuse the empty off-diagonal of a 1x1 matrix
    off = np.asarray(off, dtype=float) if len(diag) > 1 else np.zeros(1)
    return diag, off, x


def sturm_count_below(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix at or below
    x: LAPACK's Sturm count, in which a zero (or tiny) pivot counts as
    negative. Away from the eigenvalues by more than rounding this is the
    count strictly below x.

    One compiled count: dstebz over the value range (-inf, x] with an
    absolute tolerance of 1e300, so its bisection stops at once and only the
    count is used. A non-finite x is refused."""
    diag, off, x = _count_arguments(diag, off, x)
    return int(dstebz(diag, off, 1, -math.inf, x, 0, 0, 1e300, "E")[0])


def _none_at_or_below(diag: np.ndarray, off: np.ndarray, x: float) -> bool:
    """Whether no eigenvalue lies at or below x, i.e. `sturm_count_below(diag,
    off, x) == 0`, answered by one pivot pass: the LDL^T factorization of
    T - x (LAPACK dpttrf) stops at the first pivot that is not positive, so
    info == 0 exactly when T - x is positive definite. Away from the
    eigenvalues by more than rounding the two agree. A non-finite x is
    refused."""
    diag, off, x = _count_arguments(diag, off, x)
    return dpttrf(diag - x, off)[-1] == 0


POLISH_MAX_ITERATIONS = 12
_EPS = float(np.finfo(float).eps)


def _bisect(diag: np.ndarray, off: np.ndarray, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues first..last by LAPACK bisection (dstebz) and their unit
    eigenvectors, one per row, by inverse iteration (dstein): the solver of a
    ladder's seed rung, and the safeguard when `_polish` declines."""
    mu, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(first, last))
    return mu, vectors.T


def _polish(diag: np.ndarray, off: np.ndarray, first: int, seeds: np.ndarray,
            starts: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues first..first+len(seeds)-1 of the tridiagonal matrix T and
    their unit eigenvectors (one row each), by shifted inverse /
    Rayleigh-quotient iteration from the seeds and starts, or None when the
    values cannot be certified.

    Each step solves (T - shift) y = v with dgtsv, in place in reused buffers,
    and normalizes v = y/|y|; the sums are numpy reductions, not BLAS calls,
    whose thread pool can stall on a busy machine. Level k starts from
    starts[k], an approximate eigenvector, and its first step keeps the seed
    as the shift. After that the shift is the Rayleigh quotient v.Tv, until it
    moves by at most tol = 16 eps |T| (|T| the Gershgorin bound). Each
    converged sigma_k lies within r_k = |T v - sigma_k v| + tol of an
    eigenvalue. The certificate: the intervals [sigma_k - r_k, sigma_k + r_k]
    are disjoint, `first` eigenvalues lie at or below the lowest one's left
    end and first+len(seeds) at or below the highest one's right end, so each
    interval holds exactly one eigenvalue, in index order. A start aimed at
    the wrong eigenvector can only fail the certificate."""
    n = len(diag)
    size = np.abs(diag)
    size[1:] += np.abs(off)
    size[:-1] += np.abs(off)
    tol = 16.0 * _EPS * float(np.max(size))
    shifted, y, tv = np.empty(n), np.empty((n, 1)), np.empty(n)
    v = y[:, 0]
    mu, radius, vectors = np.empty(len(seeds)), np.empty(len(seeds)), np.empty((len(seeds), n))
    for k, seed in enumerate(seeds):
        shift = float(seed)
        if not math.isfinite(shift):
            return None
        v[:] = starts[k]
        for _ in range(POLISH_MAX_ITERATIONS):
            np.subtract(diag, shift, out=shifted)
            if dgtsv(off, shifted, off, y, overwrite_d=1, overwrite_b=1)[-1] != 0:
                return None
            v /= math.sqrt(np.square(v, out=tv).sum())
            np.multiply(diag, v, out=tv)
            tv[:-1] += off * v[1:]
            tv[1:] += off * v[:-1]
            sigma = float(np.multiply(v, tv, out=shifted).sum())
            if abs(sigma - shift) <= tol:
                break
            shift = sigma
        else:
            return None
        vectors[k] = v
        tv -= sigma * v
        mu[k], radius[k] = sigma, math.sqrt(np.square(tv, out=tv).sum()) + tol
    low, high = mu[0] - radius[0], mu[-1] + radius[-1]
    if not (np.all(mu[1:] - radius[1:] > mu[:-1] + radius[:-1])
            and (_none_at_or_below(diag, off, low) if first == 0 else sturm_count_below(diag, off, low) == first)
            and sturm_count_below(diag, off, high) == first + len(mu)):
        return None
    return mu, vectors


def _refined(vectors: np.ndarray) -> np.ndarray:
    """Grid vectors (one per row) carried onto the nested grid with twice the
    intervals: coarse node i becomes fine node 2i, and each new node is the
    mean of its two neighbours (u = 0 at both ends of the box)."""
    fine = np.empty((len(vectors), 2 * vectors.shape[1] + 1))
    fine[:, 1::2] = vectors
    fine[:, 0] = 0.5 * vectors[:, 0]
    fine[:, 2:-1:2] = 0.5 * (vectors[:, :-1] + vectors[:, 1:])
    fine[:, -1] = 0.5 * vectors[:, -1]
    return fine


def _rung(problem: RadialProblem, diag: np.ndarray, off: np.ndarray, first: int, count: int, seeds: np.ndarray,
          starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues first..count-1 of one grid's matrix (2M E, not E), polished
    from the seeds and starts and certified, else bisected; with their
    eigenvectors, one per row, from whichever of the two solved the rung.

    For curved problems, eigenvalues at or above the continuum edge are box
    artifacts; requesting more levels than exist below the edge is an error.
    The solve comes first: only when the highest eigenvalue is not strictly
    below the edge does a Sturm count at the edge decide how many levels lie
    below it, and the error names that count."""
    mu, vectors = _polish(diag, off, first, seeds, starts) or _bisect(diag, off, first, count - 1)
    if problem.continuum_edge is not None:
        mu_edge = problem.eigenvalue_from_energy(problem.continuum_edge)
        if not mu[-1] < mu_edge:
            available = sturm_count_below(diag, off, mu_edge)
            if count > available:
                raise OracleError(
                    f"requested {count} levels but only {available} lie below the continuum edge "
                    f"E = {problem.continuum_edge:.6g}"
                )
    return mu, vectors


# --- results shared within one run ------------------------------------------------

_SOLVED: ContextVar[Optional[dict]] = ContextVar("solved", default=None)


@contextmanager
def solve_scope() -> Iterator[None]:
    """Share results among the `fd_eigen` and `count_bound_states` requests
    made inside the block: a request that repeats one already solved there
    returns the stored result. A request matches when the digest of its finest
    grid's diagonal, the grid, the origin exponent, the mass, the continuum
    edge and the level indices all agree. Only results are kept, never a
    matrix or an eigenvector; `check_resolution` still runs on every request,
    and the results are dropped when the block ends."""
    token = _SOLVED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(token)


def _shared(kind: str, problem: RadialProblem, grid: Grid, diag: np.ndarray, indices: tuple, solve: Callable):
    """`solve()`, or inside a `solve_scope` the result stored for the same request."""
    solved = _SOLVED.get()
    if solved is None:
        return solve()
    key = (kind, hashlib.blake2b(diag, digest_size=16).digest(), grid.r_max, grid.n,
           problem.origin_exponent, problem.mass, problem.continuum_edge, *indices)
    if key not in solved:
        solved[key] = solve()
    return solved[key]


# --- the extrapolating ladder and the bound-state count --------------------------

LADDER_TOL = 1e-5


def richardson_order(origin_exponent: float) -> float:
    """Leading order q of the 3-point stencil's eigenvalue error c h^q for a
    solution u ~ r^p at the origin: 2 when p is an integer (u is then smooth
    through r = 0) or when 2p - 1 > 2, else the fractional 2p - 1."""
    p = origin_exponent
    if abs(p - round(p)) < 1e-9 or 2.0 * p - 1.0 > 2.0:
        return 2.0
    return 2.0 * p - 1.0


@dataclass(frozen=True)
class FDSolve:
    """One ladder's result; its arrays are read-only, since inside a
    `solve_scope` the same solve answers every repeat of its request."""

    energies: np.ndarray  # Richardson-extrapolated energies of the requested levels
    rel_err: np.ndarray  # the oracle's own relative error estimate, per level
    grid: Grid  # the finest rung


def fd_eigen(problem: RadialProblem, grid: Optional[Grid] = None, count: int = 4,
             e_target: Optional[float] = None, first: int = 0) -> FDSolve:
    """Energies of the levels with indices first..count-1 (0-based, ascending)
    of a linear-in-E problem, extrapolated from a ladder of nested grids; the
    default is the lowest `count`. Only the requested indices are solved for.

    The ladder's finest rung is `grid` (by default `default_grid`), which must
    pass `check_resolution` and have n + 1 divisible by 8. Below it lie rungs
    of spacing 2h, 4h and 8h (n + 1 halved exactly each time). The 8h rung is
    the seed grid, solved by bisection with its eigenvectors; each rung above
    it is polished and certified by `_rung`, seeded from the rung below and
    started from its eigenvectors (`_refined`). With q the `richardson_order`
    of the origin exponent, R(h) = (2^q E(h) - E(2h))/(2^q - 1)
    is the energy, and the estimate is the spread of the extrapolants,
    max(|R(h) - R(2h)|, |R(h) - R(4h)|)/|R(h)|. While its largest value
    exceeds LADDER_TOL the finest rung doubles (n + 1 -> 2(n + 1)) and the
    old rungs move down; a finest rung over GRID_POINT_BUDGET points is an
    error. Inside a `solve_scope` a repeated request is not solved again."""
    if problem.linearity != LINEAR_IN_E:
        raise OracleError("fd_eigen handles linear-in-E problems; use shoot_decay for the quadratic one")
    if not 0 <= first < count:
        raise OracleError(f"fd_eigen needs 0 <= first < count, got first = {first}, count = {count}")
    if grid is None:
        grid = default_grid(problem, e_target)
    check_resolution(problem, grid)
    if (grid.n + 1) % 8:
        raise OracleError(f"a ladder's finest rung needs n + 1 divisible by 8, got n = {grid.n}")
    points = (grid.n + 1) // 8
    if count >= points:
        raise OracleError(f"level {count - 1} needs a seed grid of more than {points - 1} points")
    finest = _tridiagonal(problem, grid)
    return _shared("fd_eigen", problem, grid, finest[0], (first, count),
                   lambda: _ladder(problem, grid, finest, first, count))


def _ladder(problem: RadialProblem, grid: Grid, finest: tuple[np.ndarray, np.ndarray],
            first: int, count: int) -> FDSolve:
    """The ladder of `fd_eigen` under its checked finest rung `grid`, whose
    matrix is `finest`."""
    weight = 2.0 ** richardson_order(problem.origin_exponent)
    points = (grid.n + 1) // 8
    mu, vectors = _bisect(*_tridiagonal(problem, Grid(r_max=grid.r_max, n=points - 1)), first, count - 1)
    energies, extrapolants = [mu], []
    while True:
        points *= 2
        rung = Grid(r_max=grid.r_max, n=points - 1)
        if points > grid.n + 1:
            check_resolution(problem, rung)
        # the next rung's value as the last extrapolant predicts it
        seeds = extrapolants[-1] + (energies[-1] - extrapolants[-1]) / weight if extrapolants else energies[-1]
        matrix = finest if rung.n == grid.n else _tridiagonal(problem, rung)
        # the rung below's vectors are dropped once refined: one rung's are held at a time
        starts, vectors = _refined(vectors), None
        mu, vectors = _rung(problem, *matrix, first, count, seeds, starts)
        energies.append(mu)
        extrapolants.append((weight * energies[-1] - energies[-2]) / (weight - 1.0))
        if rung.n < grid.n:
            continue
        best = extrapolants[-1]
        rel_err = np.max(np.abs(best - np.array(extrapolants[-3:-1])), axis=0) / np.abs(best)
        if np.max(rel_err) <= LADDER_TOL:
            solve = FDSolve(energies=best / (2.0 * problem.mass), rel_err=rel_err, grid=rung)
            solve.energies.flags.writeable = solve.rel_err.flags.writeable = False
            return solve
        if 2 * points - 1 > GRID_POINT_BUDGET:
            raise OracleError(f"{problem.tag}: FD error estimate {np.max(rel_err):.2g} > {LADDER_TOL} "
                              f"on the largest rung of {rung.n:,} points")


def count_bound_states(problem: RadialProblem, grid: Optional[Grid] = None) -> int:
    """Number of FD eigenvalues below the problem's continuum edge (the
    `sturm_count_below` count at the edge) on `grid`, by default the finest
    default rung, stabilized against the box size (recomputed at 1.5 r_max;
    counts must agree). Inside a `solve_scope` a repeated request is not
    counted again."""
    edge = problem.continuum_edge
    if edge is None:
        raise OracleError(
            "bound-state counting needs a finite continuum edge (curved potentials only); "
            "flat Coulomb-like spectra accumulate infinitely many levels"
        )
    if grid is None:
        grid = default_grid(problem)
    check_resolution(problem, grid)
    matrix = _tridiagonal(problem, grid)

    def stable_count() -> int:
        mu_edge = problem.eigenvalue_from_energy(edge)
        wide = Grid(r_max=grid.r_max * 1.5, n=int(round((grid.n + 1) * 1.5)) - 1)
        counts = [sturm_count_below(*matrix, mu_edge), sturm_count_below(*_tridiagonal(problem, wide), mu_edge)]
        if counts[0] != counts[1]:
            raise OracleError(
                f"bound-state count unstable against box size ({counts[0]} vs {counts[1]}); enlarge r_max"
            )
        return counts[0]

    return _shared("count_bound_states", problem, grid, matrix[0], (), stable_count)


# --- Numerov recurrences: two-sided shooting and the free curved solution --------


def numerov(g: np.ndarray, h: float, y0: float, y1: float) -> tuple[np.ndarray, np.ndarray]:
    """The solution of y'' = g y on the uniform grid of spacing h that the
    array g samples, from y0 and y1 at its first two nodes, and the Numerov
    weights f = 1 - h^2 g/12 (Blatt, J. Comput. Phys. 1, 1967). The
    recurrence f[k+1] y[k+1] = (12 - 10 f[k]) y[k] - f[k-1] y[k-1], local
    error O(h^6), runs in C as one lower-triangular banded solve (LAPACK
    dtbtrs, two subdiagonals). A zero weight is an error."""
    f = 1.0 - (h * h / 12.0) * g
    band = np.zeros((3, len(g)))
    band[0] = f
    band[0, :2] = 1.0
    band[1, 1:-1] = 10.0 * f[1:-1] - 12.0
    band[2, :-2] = f[:-2]
    rhs = np.zeros((len(g), 1))
    rhs[:2, 0] = y0, y1
    y, info = dtbtrs(band, rhs, uplo="L")
    if info != 0:
        raise OracleError(f"Numerov weight 1 - h^2 g/12 vanishes at node {info - 1}")
    return y[:, 0], f


def numerov_derivative(y: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """y' at the interior nodes 1..len(y)-2 of a `numerov` solution, by
    Blatt's O(h^4) formula ((2 f[k+1] - 1) y[k+1] - (2 f[k-1] - 1) y[k-1])/(2h)."""
    weighted = (2.0 * f - 1.0) * y
    return (weighted[2:] - weighted[:-2]) / (2.0 * h)


def _log_grid(r_start: float, r_end: float, points: int) -> tuple[np.ndarray, float]:
    """`points` nodes evenly spaced in x = ln r from r_start to r_end, plus
    one more past r_end, as radii; and the step in x."""
    h = (math.log(r_end) - math.log(r_start)) / (points - 1)
    return np.exp(math.log(r_start) + h * np.arange(points + 1)), h


@dataclass(frozen=True)
class ShootResult:
    mismatch: float  # signed, normalized log-derivative defect at the match point
    matching_radius: float
    far_decay_rate: float
    nodes: int  # sign changes of the regular solution below the match point
    spread: float  # |mismatch| change over the last doubling of the legs
    points: int  # nodes per leg, start to match, on the final grid


SHOOT_R_START = 1e-6
SHOOT_R_MAX = 35.0
SHOOT_FAR_EFOLDS = 40.0  # the decaying leg starts this many e-folds of kappa past the match
SHOOT_POINTS = 2000
SHOOT_MAX_POINTS = 32000
SHOOT_SPREAD_TOL = 1e-9


def shoot_decay(problem: RadialProblem, epsilon: float) -> ShootResult:
    """Log-derivative mismatch of the regular and decaying solutions of the
    quadratic channel u'' + w u = 0, w = (eps + alpha/tanh r)^2 - M^2 (the
    factored `radial.minj_coulomb_coefficient`).

    The legs meet at the outer turning point r_match (kept inside
    [0.05, SHOOT_R_MAX/2]). The regular leg is a `numerov` run in x = ln r
    for phi = r^(-1/2) u, which obeys phi'' = (1/4 - r^2 w) phi, from a
    Frobenius start at SHOOT_R_START. The decaying leg is a `numerov` run in
    r, inward from r_far = min(SHOOT_R_MAX, r_match + SHOOT_FAR_EFOLDS/kappa)
    with u(r_far) = 1 and u(r_far - h) = e^(kappa h): it grows by at most
    e^40 to the match, so it stays in double range however large
    kappa SHOOT_R_MAX is. Each log-derivative uses `numerov_derivative`.
    Both legs start at SHOOT_POINTS nodes and double together until two
    successive mismatches differ by at most SHOOT_SPREAD_TOL; past
    SHOOT_MAX_POINTS that is an error. (The recurrence's roundoff grows as
    the square of the points, so the rule stops at the first small change
    rather than chasing it below that floor.) A true eigenvalue gives
    |mismatch| at that accuracy, and the mismatch changes sign across it.
    A non-finite epsilon or a non-decaying far field ((eps + alpha)^2 >= M^2)
    is refused.
    """
    if problem.linearity != QUADRATIC_IN_EPSILON:
        raise OracleError("shoot_decay expects the quadratic-in-epsilon problem")
    if not math.isfinite(epsilon):
        raise OracleError(f"shoot_decay needs a finite epsilon, got {epsilon}")
    scen = problem.scenario
    alpha, m = scen.alpha, problem.mass
    energy = epsilon - m
    kap2 = -minj_coulomb_coefficient(1.0, energy, alpha, m)  # the coefficient's r -> inf limit
    if kap2 <= 0.0:
        raise OracleError(
            f"non-decaying far field: (eps + alpha)^2 >= M^2 at eps = {epsilon:.9g}"
        )
    kappa = math.sqrt(kap2)

    # Frobenius start u = r^A (1 + a1 r + a2 r^2) from the Laurent expansion
    # (eps + alpha coth r)^2 - M^2 = alpha^2/r^2 + 2 eps alpha / r + W0 + O(r)
    a_exp = problem.origin_exponent
    q_lin = 2.0 * epsilon * alpha
    w0 = energy * (energy + 2.0 * m) + 2.0 * alpha * alpha / 3.0
    a1 = -q_lin / (2.0 * a_exp)
    a2 = -(q_lin * a1 + w0) / (2.0 * (2.0 * a_exp + 1.0))

    # match at the outer classical turning point coth r = (M - eps)/alpha,
    # which exists whenever the far field decays (|eps + alpha| < M)
    c_turn = (m - epsilon) / alpha
    r_match = min(max(0.5 * math.log((c_turn + 1.0) / (c_turn - 1.0)), 0.05), SHOOT_R_MAX / 2.0)
    r_far = min(SHOOT_R_MAX, r_match + SHOOT_FAR_EFOLDS / kappa)
    w = lambda r: minj_coulomb_coefficient(1.0 / np.tanh(r), energy, alpha, m)

    def shot(points: int) -> tuple[float, int]:
        r, h = _log_grid(SHOOT_R_START, r_match, points)
        start = r[:2] ** (a_exp - 0.5) * (1.0 + a1 * r[:2] + a2 * r[:2] ** 2)
        phi, f = numerov(0.25 - r * r * w(r), h, *start)
        lam_out = (0.5 + numerov_derivative(phi[-3:], f[-3:], h)[0] / phi[-2]) / r_match
        nodes = int(np.count_nonzero(phi[1:-1] * phi[:-2] < 0.0))
        h = (r_far - r_match) / (points - 1)
        r = r_far - h * np.arange(points + 1)
        u, f = numerov(-w(r), h, 1.0, math.exp(kappa * h))
        lam_in = -numerov_derivative(u[-3:], f[-3:], h)[0] / u[-2]
        return (lam_out - lam_in) / (1.0 + abs(lam_out) + abs(lam_in)), nodes

    points, (mismatch, nodes) = SHOOT_POINTS, shot(SHOOT_POINTS)
    while True:
        points *= 2
        previous, (mismatch, nodes) = mismatch, shot(points)
        spread = abs(mismatch - previous)
        if spread <= SHOOT_SPREAD_TOL:
            return ShootResult(mismatch=float(mismatch), matching_radius=r_match, far_decay_rate=kappa,
                               nodes=nodes, spread=spread, points=points)
        if 2 * points > SHOOT_MAX_POINTS:
            raise OracleError(f"shooting mismatch at eps = {epsilon:.9g} still moves by {spread:.2g} "
                              f"> {SHOOT_SPREAD_TOL} at {points:,} points per leg")


# --- the free curved particle: regular solution and its two checks ------------------

FREE_R_START, FREE_R_END = 1e-4, 12.0
FREE_POINTS = 4000


def regular_free_solution(j: HalfInt, energy: float, mass: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regular solution u ~ r^(j+1) of the free curved parity-odd channel as
    (r, u, u') at the interior nodes of one `numerov` run of FREE_POINTS
    nodes in x = ln r from FREE_R_START to FREE_R_END (and one node past it),
    for phi = r^(-1/2) u, phi'' = (1/4 + r^2 (V_eff - 2ME)) phi, from a series
    start; u' comes from `numerov_derivative`. A non-finite energy is
    refused, and so is a grid with h sqrt(max|1/4 + r^2 (V_eff - 2ME)|) over
    RESOLUTION_LIMIT."""
    if not math.isfinite(energy):
        raise RadialError(f"the free solution needs a finite energy, got {energy}")
    jf = as_half_integer(j, "j")
    scen = Scenario(GEOMETRY_LOBACHEVSKY, POTENTIAL_NONE, Fraction(0), mass)
    problem = build_problem(scen, "parity-odd", jf)
    r, h = _log_grid(FREE_R_START, FREE_R_END, FREE_POINTS)
    jj1 = float(jf * (jf + 1))
    # u = r^{j+1} (1 + c2 r^2 + O(r^4)); 1/sinh^2 = 1/r^2 - 1/3 + O(r^2)
    c2 = -(2.0 * mass * energy + jj1 / 3.0) / (4.0 * float(jf) + 6.0)
    start = r[:2] ** (float(jf) + 0.5) * (1.0 + c2 * r[:2] ** 2)
    g = 0.25 + r * r * (problem.v_eff(r) - problem.eigenvalue_from_energy(energy))
    step = h * math.sqrt(float(np.max(np.abs(g))))
    if step > RESOLUTION_LIMIT:
        raise OracleError(f"free solution on {FREE_POINTS:,} nodes unresolved: h sqrt(max|g|) = {step:.3g} "
                          f"> {RESOLUTION_LIMIT}")
    phi, f = numerov(g, h, *start)
    sqrt_r = np.sqrt(r[1:-1])
    return r[1:-1], sqrt_r * phi[1:-1], (0.5 * phi[1:-1] + numerov_derivative(phi, f, h)) / sqrt_r


def standing_wave_check(j: HalfInt, energy: float, mass: float = 1.0) -> float:
    """Envelope flatness ratio max/min of sqrt(u^2 + (u'/omega)^2) over the
    `regular_free_solution` nodes in the far window 8 <= r <= 12; a value near
    1 indicates a pure standing wave. E must be positive (NaN is refused)."""
    if not energy > 0.0:
        raise RadialError("standing-wave check needs E > 0")
    r, u, du = regular_free_solution(j, energy, mass)
    window = (r >= 8.0) & (r <= 12.0)
    env = np.hypot(u[window], du[window] / math.sqrt(2.0 * mass * energy))
    return float(np.max(env) / np.min(env))


def origin_exponent_fit(j: HalfInt, energy: float, mass: float = 1.0) -> float:
    """Log-log slope of the `regular_free_solution` nodes in 1e-3 <= r <= 1e-2."""
    r, u, _ = regular_free_solution(j, energy, mass)
    window = (r >= 1e-3) & (r <= 1e-2)
    return float(np.polyfit(np.log(r[window]), np.log(np.abs(u[window])), 1)[0])
