"""Validation suites: every closed-form spectrum against the numerical oracle.

Each suite returns report records, plain dicts with the keys id, description,
passed, hard, measured and detail (`line` gives a record's one-line summary);
`run_suites` assembles them into a deterministic report (timing lives in the
envelope, never in the results). Every criterion is hard and gates the exit
status; the formal-Heun FD comparison is informational and lives only in
criterion 10's detail. Known-infeasible sub-checks are still executed and
reported as failures rather than being weakened (see README, "Known
limitations").
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from . import angular, core, heunspec, mixing, oracle, radial, spectra


def _criterion(cid: str, description: str, passed: bool, measured: str = "", detail: dict | None = None) -> dict:
    return {"id": cid, "description": description, "passed": passed, "hard": True,
            "measured": measured, "detail": {} if detail is None else detail}


def line(record: dict) -> str:
    """One record's pass/fail line, as `validate` prints it."""
    status = "PASS" if record["passed"] else "FAIL"
    return f"[{status}] {record['id']}: {record['description']} -- {record['measured']}"


def _fd_compare(problem, levels, grid=None) -> list[dict]:
    """Detail-row fields for each closed-form level from one ladder solve: the
    FD energy `numeric`, the relative deviation `rel_dev`, the oracle's own
    error estimate `oracle_rel_err` and the finest rung's size `fd_points`.
    The levels' n must run consecutively (else ValueError); only the FD levels
    from the first level's n up are solved for, on `grid` or on the default
    grid of the last level, the one that reaches farthest."""
    ns = [lv.n for lv in levels]
    first = ns[0]
    if ns != list(range(first, first + len(ns))):
        raise ValueError(f"_fd_compare needs consecutive n, got {ns}")
    solve = oracle.fd_eigen(problem, grid=grid, count=first + len(levels), e_target=levels[-1].energy,
                            first=first)
    return [{"numeric": float(e), "rel_dev": float(abs(e - lv.energy) / abs(lv.energy)),
             "oracle_rel_err": float(err), "fd_points": solve.grid.n}
            for e, err, lv in zip(solve.energies, solve.rel_err, levels)]


def _scaled_grid(grid: oracle.Grid, ratio: float) -> oracle.Grid:
    """`grid` with about `ratio` times its points on the same box, n + 1 kept
    divisible by 8 so that it can be a ladder's finest rung."""
    return oracle.Grid(r_max=grid.r_max, n=8 * round((grid.n + 1) * ratio / 8) - 1)


# --- criterion 1 + 2: root machinery and parity split ---------------------------


def suite_roots() -> list[dict]:
    t0 = time.monotonic()
    root_devs, s_residuals = [0.0], [0.0]
    min_root = math.inf
    zero_root_cases = 0
    cases = 0
    for twok in range(1, 11):
        k = Fraction(twok, 2)
        j = k  # 3x3 systems start at j = |k|; j = |k|-1 is the reduced channel
        while j <= k + 8:
            cases += 1
            cp = core.couplings(j, k)
            inv = mixing.cubic_invariants(j, k)  # raises unless closed forms match exactly
            triple = mixing.roots(inv)
            numeric = np.sort(np.linalg.eigvalsh(mixing.build_matrix(cp.c, cp.d)))
            root_devs.append(float(np.max(np.abs(np.array(triple.a) - numeric))))
            if j == k:
                zero_root_cases += 1
                # decoupled row: smallest root is exactly zero, transform degenerate
                if abs(triple.a[0]) > 1e-12:
                    root_devs.append(math.inf)
                try:
                    mixing.transform_matrix(cp.c, cp.d, triple)
                    s_residuals.append(math.inf)  # degeneracy must be reported
                except mixing.MixingError:
                    pass
            else:
                min_root = min(min_root, triple.a[0])
                s = mixing.transform_matrix(cp.c, cp.d, triple)
                s_residuals.append(mixing.transform_residual(cp.c, cp.d, triple, s))
            j += 1
    elapsed = time.monotonic() - t0
    worst_root_dev, worst_s_res = core.worst_of(root_devs), core.worst_of(s_residuals)
    c1 = _criterion(
        cid="1-roots",
        description="trigonometric roots vs 3x3 eigensolve (|k| <= 5, j <= |k|+8), "
        "positivity, exact reduced-cubic cross-check, transform residual",
        passed=(worst_root_dev <= 1e-10 and min_root > 0.0 and worst_s_res <= 1e-10 and elapsed < 10.0),
        measured=f"root dev {worst_root_dev:.2e}, min root {min_root:.4g}, "
        f"S residual {worst_s_res:.2e}, {cases} cases",
        detail={
            "cases": cases,
            "worst_root_dev": worst_root_dev,
            "min_positive_root": min_root,
            "worst_transform_residual": worst_s_res,
            "decoupled_zero_root_cases": zero_root_cases,
        },
    )
    exact = all(mixing.parity_eigenvalues(j) == (Fraction(j + 1), Fraction(-j)) for j in range(1, 11))
    c2 = _criterion(
        cid="2-parity",
        description="even-parity 2x2 eigenvalues equal {j+1, -j} exactly for j = 1..10",
        passed=exact,
        measured="exact rational equality" if exact else "mismatch",
    )
    return [c1, c2]


# --- criterion 3: Wigner recurrences ---------------------------------------------


def suite_wigner() -> list[dict]:
    grid = np.linspace(0.03, math.pi - 0.03, 50)
    scans = [angular.scan_recurrences(Fraction(j2, 2), grid) for j2 in range(0, 13)]
    worst = core.worst_of([0.0, *(worst_j for worst_j, _ in scans)])
    cases = sum(cases_j for _, cases_j in scans)
    return [
        _criterion(
            cid="3-wigner",
            description="all six d-function recurrences (plus the reduced-channel pair) "
            "to 1e-10 for j <= 6, every admissible (k, m), 50-point interior grid",
            passed=worst <= 1e-10,
            measured=f"worst residual {worst:.2e} over {cases} (j,k,m) triples",
            detail={"worst_residual": worst, "cases": cases},
        )
    ]


# --- criterion 4: flat Coulomb vs FD ----------------------------------------------


def suite_flat_coulomb() -> list[dict]:
    t0 = time.monotonic()
    alpha = mass = 1.0
    rows = []
    scen = core.Scenario("flat", "coulomb", Fraction(1), mass, alpha=alpha)
    channels = [(spectra.CH_MIN_J, 0), *((br, 2) for br in spectra.CH_BRANCH)]
    for ch, j in channels:
        prob = radial.build_problem(scen, ch, j)
        lval = spectra.flat_channel_l(j, scen.charge, ch)
        for n in range(4):
            lv = spectra.single_level(scen, j, n, ch)
            (fd,) = _fd_compare(prob, [lv])
            rows.append({"channel": ch, "n": n, "L": lval, "analytic": lv.energy, **fd})
    elapsed = time.monotonic() - t0
    worst = core.worst_of(row["rel_dev"] for row in rows)
    return [
        _criterion(
            cid="4-flat-coulomb",
            description="FD oracle reproduces the flat Coulomb series at L in {0, L1, L2, L3}, "
            "(j,k) = (2,1), n = 0..3, rel 1e-4",
            passed=(worst <= 1e-4 and elapsed < 60.0),
            measured=f"worst rel dev {worst:.2e} over 16 levels",
            detail={"rows": rows, "elapsed_s_bound": 60.0},
        )
    ]


# --- criterion 5: flat oscillator arbitration --------------------------------------


def _oscillator_verdict(scen: core.Scenario, channel: str, j: int) -> dict:
    """Which candidate of `spectra.oscillator_candidates` the FD levels
    n = 0..3 of one flat oscillator channel confirm: on each of two grids, the
    default one and one with 22/16 of its points, exactly one candidate must
    match all four to rel 1e-4, else OracleError. The deviations and the
    oracle's worst error estimate are the first grid's; `stable` says the
    second agrees."""
    prob = radial.build_problem(scen, channel, j)
    lval = spectra.flat_channel_l(j, scen.charge, channel)
    levels = spectra.spectrum_levels(scen, j, range(4), [channel])
    grid = oracle.default_grid(prob, levels[-1].energy)
    cands = [spectra.oscillator_candidates(lval, lv.n, scen.k_osc, scen.mass) for lv in levels]
    per_grid, fd_points = [], []
    for g in (grid, _scaled_grid(grid, 22 / 16)):
        fds = _fd_compare(prob, levels, g)
        devs = {name: core.worst_of([0.0, *(abs(fd["numeric"] - cand[name]) / abs(cand[name])
                                           for fd, cand in zip(fds, cands))])
                for name in ("printed", "quantization")}
        fd_points.append(fds[0]["fd_points"])
        matches = [name for name, dev in devs.items() if dev <= 1e-4]
        if len(matches) != 1:
            raise oracle.OracleError(f"oscillator arbitration at L = {lval}: candidates matching within "
                                     f"1e-4: {matches or 'none'} (deviations {devs})")
        per_grid.append((matches[0], devs, core.worst_of(fd["oracle_rel_err"] for fd in fds)))
    (name, devs, err), (name_refined, _, _) = per_grid
    other = "printed" if name == "quantization" else "quantization"
    return {"l_value": float(lval), "confirmed": name, "matched_rel_dev": devs[name],
            "rejected_rel_dev": devs[other], "stable": name == name_refined,
            "oracle_rel_err": err, "fd_points": fd_points}


def suite_flat_oscillator() -> list[dict]:
    scen = core.Scenario("flat", "oscillator", Fraction(1), 1.0, k_osc=1.0)
    try:
        verdicts = [_oscillator_verdict(scen, ch, j) for ch, j in ((spectra.CH_MIN_J, 0), (spectra.CH_BRANCH[1], 2))]
    except oracle.OracleError as exc:
        return [
            _criterion(
                cid="5-flat-oscillator",
                description="exactly one oscillator closed-form candidate matches the FD oracle",
                passed=False,
                measured=f"arbitration failed: {exc}",
            )
        ]
    return [
        _criterion(
            cid="5-flat-oscillator",
            description="oscillator prefactor arbitration: exactly one candidate matches FD "
            "to rel 1e-4 at two L values, n = 0..3, stable across two grids",
            passed=len({v["confirmed"] for v in verdicts}) == 1 and all(v["stable"] for v in verdicts),
            measured="; ".join(
                f"L={v['l_value']:.4g}: '{v['confirmed']}' (dev {v['matched_rel_dev']:.1e}, "
                f"other {v['rejected_rel_dev']:.1e})"
                for v in verdicts
            ),
            detail={"verdicts": verdicts},
        )
    ]


# --- criteria 6 + 7: curved minimum-j channels --------------------------------------


def suite_lob_minj() -> list[dict]:
    return [_criterion_minj_coulomb(), _criterion_minj_oscillator()]


def _criterion_minj_coulomb() -> dict:
    alpha, mass = 0.1, 10.0
    scen = core.Scenario("lobachevsky", "coulomb", Fraction(1), mass, alpha=alpha)
    prob = radial.build_problem(scen, spectra.CH_MIN_J, 0)
    b_at = spectra.resolve_channel(scen, 0, spectra.CH_MIN_J).b
    parts: dict = {"mismatch": {}, "bracketing": {}}
    ok = True
    for n in range(3):
        lv = spectra.single_level(scen, 0, n, spectra.CH_MIN_J)
        try:
            res = oracle.shoot_decay(prob, lv.epsilon)
            mism = abs(res.mismatch)
            parts["mismatch"][n] = {"epsilon": lv.epsilon, "abs_mismatch": mism, "b": b_at(lv.epsilon, n)}
            ok_n = mism <= 1e-5
        except oracle.OracleError as exc:
            parts["mismatch"][n] = {"epsilon": lv.epsilon, "error": str(exc)}
            ok_n = False
        ok = ok and ok_n
        # sign-change bracketing at +-1 percent, exactly as stated
        bracket: dict = {}
        for sgn, f in (("-1%", 0.99), ("+1%", 1.01)):
            try:
                bracket[sgn] = oracle.shoot_decay(prob, lv.epsilon * f).mismatch
            except oracle.OracleError as exc:
                bracket[sgn] = f"outside decaying domain: {exc}"
        parts["bracketing"][n] = bracket
        signs_flip = (
            isinstance(bracket["-1%"], float)
            and isinstance(bracket["+1%"], float)
            and bracket["-1%"] * bracket["+1%"] < 0.0
        )
        ok = ok and signs_flip
    # finite termination of admissibility
    n_admissible = [lv.n for lv in spectra.spectrum_levels(scen, 0, range(64), [spectra.CH_MIN_J])]
    terminated = bool(n_admissible) and max(n_admissible) < 63 and n_admissible == list(range(len(n_admissible)))
    parts["admissible_n"] = n_admissible
    ok = ok and terminated
    n0 = parts["mismatch"].get(0, {})
    formal = [m for m in parts["mismatch"] if m not in n_admissible]
    outside = [
        f"n = {m} {sgn}" for m, bracket in parts["bracketing"].items()
        for sgn, value in bracket.items() if not isinstance(value, float)
    ]
    return _criterion(
        cid="6-lob-minj-coulomb",
        description="shooting mismatch <= 1e-5 at the closed-form epsilon for alpha = 0.1, "
        "M = 10, n = 0..2, +-1% sign-change bracketing, finite admissibility",
        passed=ok,
        measured=(
            f"n=0 |mismatch| {n0.get('abs_mismatch', float('nan')):.1e}; "
            f"admissible n = {n_admissible}; formal n = {formal} (negative far-field exponent, "
            "no decaying solution to shoot against); bracket probes outside the decaying "
            f"domain (eps + alpha)^2 < M^2: {', '.join(outside) or 'none'}, "
            "so those sub-checks fail as stated"
        ),
        detail=parts,
    )


def _criterion_minj_oscillator() -> dict:
    mass = 1.0
    rows = []
    for k_osc in (10.0, 100.0):
        scen = core.Scenario("lobachevsky", "oscillator", Fraction(1), mass, k_osc=k_osc)
        prob = radial.build_problem(scen, spectra.CH_MIN_J, 0)
        s_well = (-1.0 + math.sqrt(1.0 + 4.0 * mass * k_osc)) / 2.0
        levels = spectra.admissible_levels(scen, 0, spectra.CH_MIN_J)  # while 2n + 1 < s
        for lv, fd in zip(levels, _fd_compare(prob, levels)):
            res = radial.residual(prob, radial.analytic_solution(prob, lv), lv)
            ident = abs(lv.energy - (k_osc / 2.0 - (s_well - (2 * lv.n + 1)) ** 2 / (2.0 * mass)))
            rows.append({"k_osc": k_osc, "n": lv.n, "analytic": lv.energy, **fd,
                         "ode_residual": res, "well_identity_dev": ident})
    worst_res, worst_rel, worst_ident = (core.worst_of(row[key] for row in rows)
                                         for key in ("ode_residual", "rel_dev", "well_identity_dev"))
    return _criterion(
        cid="7-lob-minj-oscillator",
        description="curved minimum-j oscillator: analytic residual <= 1e-7, FD match rel 1e-4, "
        "sech^2-well identity to 1e-12, K M in {10, 100}",
        passed=(worst_res <= 1e-7 and worst_rel <= 1e-4 and worst_ident <= 1e-12),
        measured=f"residual {worst_res:.1e}, rel dev {worst_rel:.1e}, identity {worst_ident:.1e}",
        detail={"rows": rows},
    )


# --- criterion 8 (+11): curved no-monopole Coulomb and the free particle -------------


def _parity_odd_rows(scen: core.Scenario, j: int):
    """Criteria 8 and 9's parity-odd channel at j: its problem, its admissible
    levels and one FD detail row per level, with the level's N."""
    prob = radial.build_problem(scen, spectra.CH_PARITY_ODD, j)
    levels = spectra.admissible_levels(scen, j, spectra.CH_PARITY_ODD)
    big_n_at = spectra.resolve_channel(scen, j, spectra.CH_PARITY_ODD).big_n
    rows = [{"j": j, "n": lv.n, "N": big_n_at(lv.n), "analytic": lv.energy, **fd}
            for lv, fd in zip(levels, _fd_compare(prob, levels))]
    return prob, levels, rows


def suite_lob_coulomb() -> list[dict]:
    alpha, mass = 10.0, 1.0
    rows, count_rows = [], []
    scen = core.Scenario("lobachevsky", "coulomb", Fraction(0), mass, alpha=alpha)
    for j in range(3):
        prob, levels, j_rows = _parity_odd_rows(scen, j)
        rows.extend(j_rows)
        count_rows.append({"j": j, "fd_count": oracle.count_bound_states(prob), "predicted_count": len(levels)})
    worst_rel = core.worst_of(row["rel_dev"] for row in rows)
    counts_ok = all(c["fd_count"] == c["predicted_count"] for c in count_rows)
    c8 = _criterion(
        cid="8-lob-coulomb",
        description="no-monopole curved Coulomb: FD matches the closed form to rel 1e-4 for "
        "alpha = 10, M = 1, j = 0..2, all admissible n; FD bound count equals #{N : M alpha > N^2}",
        passed=(worst_rel <= 1e-4 and counts_ok),
        measured=f"worst rel dev {worst_rel:.2e}; counts {count_rows}",
        detail={"rows": rows, "counts": count_rows},
    )
    flat_ratio = radial.standing_wave_check(1, 0.5, 1.0)
    slope = radial.origin_exponent_fit(1, 0.5, 1.0)
    c11 = _criterion(
        cid="11-free-particle",
        description="free curved particle (j = 1, 2ME = 1): origin exponent j+1 by slope fit "
        "(+-0.05) and far-window envelope flatness within 1%",
        passed=(abs(slope - 2.0) <= 0.05 and flat_ratio <= 1.01),
        measured=f"slope {slope:.4f} (target 2), envelope max/min {flat_ratio:.6f}",
        detail={"slope": slope, "envelope_ratio": flat_ratio},
    )
    return [c8, c11]


# --- criterion 9: curved no-monopole oscillator ---------------------------------------


def suite_lob_oscillator() -> list[dict]:
    k_osc, mass = 100.0, 1.0
    rows, count_rows, count_points = [], [], []
    scen = core.Scenario("lobachevsky", "oscillator", Fraction(0), mass, k_osc=k_osc)
    for j in range(3):
        prob, levels, j_rows = _parity_odd_rows(scen, j)
        rows.extend(j_rows)
        grid = oracle.default_grid(prob)
        grids = (grid, _scaled_grid(grid, 26 / 20))
        count_points.append([g.n for g in grids])
        fd_counts = [oracle.count_bound_states(prob, grid=g) for g in grids]
        count_rows.append({"j": j, "inequality_count": len(levels), "fd_counts": fd_counts,
                           "deviation": fd_counts[0] - len(levels)})
    worst_rel = core.worst_of(row["rel_dev"] for row in rows)
    stable = all(c["fd_counts"][0] == c["fd_counts"][1] for c in count_rows)
    return [
        _criterion(
            cid="9-lob-oscillator",
            description="no-monopole curved oscillator: FD matches the closed form to rel 1e-4 "
            "for K M = 100, j = 0..2; FD count vs restriction-inequality count reported, "
            "stable across grids",
            passed=(worst_rel <= 1e-4 and stable),
            measured=f"worst rel dev {worst_rel:.2e}; counts {count_rows}",
            detail={"rows": rows, "counts": count_rows, "count_points": count_points},
        )
    ]


# --- criterion 10: Heun channels -------------------------------------------------------


def _heun_cases():
    """Criterion 10's cases, the even channels of both curved potentials at
    j = 0, 1: (scenario, channel, j, formal levels, their Heun parameter sets)."""
    coulomb = core.Scenario("lobachevsky", "coulomb", Fraction(0), 1.0, alpha=10.0)
    oscillator = core.Scenario("lobachevsky", "oscillator", Fraction(0), 1.0, k_osc=100.0)
    # even channels of both potentials at the formal termination energies
    for scen in (coulomb, oscillator):
        for channel in (spectra.CH_EVEN_1, spectra.CH_EVEN_2):
            for j in (0, 1):
                formal = spectra.admissible_levels(scen, j, channel)
                yield scen, channel, j, formal, [radial.heun_params(lv) for lv in formal]


def suite_heun() -> list[dict]:
    cases = list(_heun_cases())
    levels = [(lv, params) for _, _, _, formal, param_sets in cases for lv, params in zip(formal, param_sets)]
    worst_fuchs = core.worst_of([0.0, *(abs(params.fuchs_residual()) for _, params in levels)])
    # the termination defect: how far lam or beta is from -n
    worst_involution = core.worst_of([0.0, *(min(abs(p.lam + lv.n), abs(p.beta + lv.n)) for lv, p in levels)])
    # the local series at z = 0 needs gamma off the non-positive integers
    disc_sets = [params for _, params in levels if params.gamma > 0 or not params.gamma.is_integer()]
    worst_residual = core.worst_of([0.0, *heunspec.heun_residual_on_disc(disc_sets)])
    comparisons = [_heun_fd_comparison(scen, channel, j, formal) for scen, channel, j, formal, _ in cases]
    # three significant digits, so that a rounding-level FD move keeps the text
    agreement = ", ".join(
        f"{c['potential']} {c['channel']} j={c['j']} "
        + ("none" if c["worst_rel_dev"] is None else f"{c['worst_rel_dev']:.2e}")
        for c in comparisons
    )
    return [
        _criterion(
            cid="10-heun",
            description="Heun channels: exact Fuchs relation, local-series ODE residual <= 1e-9 "
            "on |z| <= 0.8, termination-condition involution, and a deterministic FD comparison "
            "(agreement informational: the condition is one of two necessary ones)",
            passed=(worst_fuchs <= 1e-12 and worst_residual <= 1e-9 and worst_involution <= 1e-10),
            measured=f"fuchs {worst_fuchs:.1e}, residual {worst_residual:.1e}, "
            f"involution {worst_involution:.1e}; formal-vs-FD deviations: {agreement}",
            detail={"comparisons": comparisons},
        )
    ]


def _heun_fd_comparison(scen: core.Scenario, channel: str, j: int, formal_levels) -> dict:
    prob = radial.build_problem(scen, channel, j)
    fd_count = oracle.count_bound_states(prob)
    compared = formal_levels[:fd_count]
    pairs = [
        {"n": lv.n, "formal": lv.energy, **fd}
        for lv, fd in zip(compared, _fd_compare(prob, compared) if compared else [])
    ]
    return {
        "potential": scen.potential,
        "channel": channel,
        "j": j,
        "fd_bound_count": fd_count,
        "formal_admissible_count": len(formal_levels),
        "pairs": pairs,
        "worst_rel_dev": core.worst_of((p["rel_dev"] for p in pairs), default=None),
    }


# --- criterion 12: determinism -----------------------------------------------------------


def suite_determinism() -> list[dict]:
    from .cli import render_levels

    scen = core.Scenario("flat", "coulomb", Fraction(1), 1.0, alpha=1.0)
    levels = spectra.spectrum_levels(scen, 2, range(4))
    blobs = {render_levels(levels, "json"), render_levels(levels, "csv")}
    again = {render_levels(levels, "json"), render_levels(levels, "csv")}
    identical = blobs == again and len(blobs) == 2
    return [
        _criterion(
            cid="12-determinism",
            description="identical configurations produce byte-identical JSON/CSV payloads",
            passed=identical,
            measured="byte-identical" if identical else "output drift detected",
        )
    ]


_SUITES = {
    "roots": suite_roots,
    "wigner": suite_wigner,
    "flat-coulomb": suite_flat_coulomb,
    "flat-oscillator": suite_flat_oscillator,
    "lob-minj": suite_lob_minj,
    "lob-coulomb": suite_lob_coulomb,
    "lob-oscillator": suite_lob_oscillator,
    "heun": suite_heun,
    "determinism": suite_determinism,
}


def selected_suites(names) -> list[str]:
    """The suite names `run_suites(names)` runs: 'all' expands to every suite.
    An unknown name raises ValueError before any suite runs."""
    if names == "all" or names == ["all"]:
        return list(_SUITES)
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
    return list(names)


def run_suites(names) -> dict:
    """Run the requested suites (see `selected_suites`) and assemble the
    deterministic report: `envelope` (timing) and `results` (the records).
    The suites share one `oracle.solve_scope`, so a ladder or count that
    several criteria request is solved once per run."""
    results: list[dict] = []
    timing = {}
    with oracle.solve_scope():
        for name in selected_suites(names):
            t0 = time.monotonic()
            results.extend(_SUITES[name]())
            timing[name] = round(time.monotonic() - t0, 3)
    hard_failures = [r["id"] for r in results if not r["passed"]]
    return {
        "envelope": {"tool": "monopole-spectra", "timing_s": timing},
        "results": {"criteria": results, "hard_failures": hard_failures, "passed": not hard_failures},
    }
