"""Validation suites: every closed-form spectrum against the numerical oracle.

Each suite returns CriterionResult records; `run_suites` assembles them into a
deterministic report (timing lives in the envelope, never in the results).
Hard criteria gate the exit status; arbitration and formal-Heun comparisons
are informational. Known-infeasible sub-checks are still executed and
reported as failures rather than being weakened (see README, "Known
limitations").
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import angular, core, heunspec, mixing, oracle, radial, spectra


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    hard: bool = True
    measured: str = ""
    detail: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else ("FAIL" if self.hard else "INFO")
        return f"[{status}] {self.cid}: {self.description} -- {self.measured}"

    def to_record(self) -> dict:
        return {
            "id": self.cid,
            "description": self.description,
            "passed": self.passed,
            "hard": self.hard,
            "measured": self.measured,
            "detail": self.detail,
        }


def _fd_level_rel_dev(problem, level, grid=None) -> tuple[float, float]:
    numeric = oracle.fd_eigen(problem, grid=grid, count=level.n + 1, e_target=level.energy)
    e_num = float(numeric[level.n])
    return e_num, abs(e_num - level.energy) / abs(level.energy)


# --- criterion 1 + 2: root machinery and parity split ---------------------------


def suite_roots() -> list[CriterionResult]:
    t0 = time.monotonic()
    worst_root_dev = 0.0
    worst_s_res = 0.0
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
            assert inv.disc < 0
            triple = mixing.roots(inv)
            numeric = np.sort(np.linalg.eigvalsh(mixing.build_matrix(cp.c, cp.d)))
            worst_root_dev = max(worst_root_dev, float(np.max(np.abs(np.array(triple.a) - numeric))))
            if j == k:
                zero_root_cases += 1
                # decoupled row: smallest root is exactly zero, transform degenerate
                if abs(triple.a[0]) > 1e-12:
                    worst_root_dev = math.inf
                try:
                    mixing.transform_matrix(cp.c, cp.d, triple)
                    worst_s_res = math.inf  # degeneracy must be reported
                except mixing.MixingError:
                    pass
            else:
                min_root = min(min_root, triple.a[0])
                s = mixing.transform_matrix(cp.c, cp.d, triple)
                worst_s_res = max(worst_s_res, mixing.transform_residual(cp.c, cp.d, triple, s))
            j += 1
    elapsed = time.monotonic() - t0
    c1 = CriterionResult(
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
    c2 = CriterionResult(
        cid="2-parity",
        description="even-parity 2x2 eigenvalues equal {j+1, -j} exactly for j = 1..10",
        passed=exact,
        measured="exact rational equality" if exact else "mismatch",
    )
    return [c1, c2]


# --- criterion 3: Wigner recurrences ---------------------------------------------


def suite_wigner() -> list[CriterionResult]:
    grid = np.linspace(0.03, math.pi - 0.03, 50)
    worst = 0.0
    cases = 0
    for j2 in range(0, 13):
        j = Fraction(j2, 2)
        for k2 in range(-j2 - 2, j2 + 3):
            if (k2 - j2) % 2 != 0:
                continue
            k = Fraction(k2, 2)
            if not core.j_is_allowed(j, k):
                continue
            for m2 in range(-j2, j2 + 1, 2):
                cases += 1
                worst = max(worst, angular.check_recurrences(j, k, Fraction(m2, 2), grid))
    return [
        CriterionResult(
            cid="3-wigner",
            description="all six d-function recurrences (plus the reduced-channel pair) "
            "to 1e-10 for j <= 6, every admissible (k, m), 50-point interior grid",
            passed=worst <= 1e-10,
            measured=f"worst residual {worst:.2e} over {cases} (j,k,m) triples",
            detail={"worst_residual": worst, "cases": cases},
        )
    ]


# --- criterion 4: flat Coulomb vs FD ----------------------------------------------


def suite_flat_coulomb() -> list[CriterionResult]:
    t0 = time.monotonic()
    alpha = mass = 1.0
    worst = 0.0
    rows = []
    scen_minj = core.Scenario("flat", "coulomb", Fraction(1), mass, alpha=alpha)
    prob_minj = radial.build_problem(scen_minj, spectra.CH_MIN_J, 0)
    channels = [(spectra.CH_MIN_J, 0, prob_minj)]
    scen = core.Scenario("flat", "coulomb", Fraction(1), mass, alpha=alpha)
    for br in spectra.CH_BRANCH:
        channels.append((br, 2, radial.build_problem(scen, br, 2)))
    for ch, j, prob in channels:
        for n in range(4):
            lv = spectra.flat_coulomb(alpha, mass, j, 1, n, ch)
            e_num, rel = _fd_level_rel_dev(prob, lv)
            worst = max(worst, rel)
            rows.append({"channel": ch, "n": n, "L": lv.extras["L"], "analytic": lv.energy,
                         "numeric": e_num, "rel_dev": rel})
    elapsed = time.monotonic() - t0
    return [
        CriterionResult(
            cid="4-flat-coulomb",
            description="FD oracle reproduces the flat Coulomb series at L in {0, L1, L2, L3}, "
            "(j,k) = (2,1), n = 0..3, rel 1e-4",
            passed=(worst <= 1e-4 and elapsed < 60.0),
            measured=f"worst rel dev {worst:.2e} over 16 levels",
            detail={"rows": rows, "elapsed_s_bound": 60.0},
        )
    ]


# --- criterion 5: flat oscillator arbitration --------------------------------------


def suite_flat_oscillator() -> list[CriterionResult]:
    k_osc = mass = 1.0
    l2 = mixing.mixing_roots(2, 1).l[1]
    report = oracle.OracleReport(tag="flat-oscillator-arbitration")
    try:
        verdicts = oracle.arbitrate_oscillator_prefactor(k_osc, mass, [0.0, l2], n_max=3, report=report)
    except oracle.OracleError as exc:
        return [
            CriterionResult(
                cid="5-flat-oscillator",
                description="exactly one oscillator closed-form candidate matches the FD oracle",
                passed=False,
                measured=f"arbitration failed: {exc}",
            )
        ]
    unanimous = len({v.confirmed for v in verdicts}) == 1
    stable = all(v.stable for v in verdicts)
    return [
        CriterionResult(
            cid="5-flat-oscillator",
            description="oscillator prefactor arbitration: exactly one candidate matches FD "
            "to rel 1e-4 at two L values, n = 0..3, stable across two grids",
            passed=unanimous and stable,
            measured="; ".join(
                f"L={v.l_value:.4g}: '{v.confirmed}' (dev {v.matched_rel_dev:.1e}, "
                f"other {v.rejected_rel_dev:.1e})"
                for v in verdicts
            ),
            detail={"verdicts": [v.__dict__ for v in verdicts], "report": report.to_json_dict()},
        )
    ]


# --- criteria 6 + 7: curved minimum-j channels --------------------------------------


def suite_lob_minj() -> list[CriterionResult]:
    out = [_criterion_minj_coulomb()]
    out.append(_criterion_minj_oscillator())
    return out


def _criterion_minj_coulomb() -> CriterionResult:
    alpha, mass = 0.1, 10.0
    scen = core.Scenario("lobachevsky", "coulomb", Fraction(1), mass, alpha=alpha)
    prob = radial.build_problem(scen, spectra.CH_MIN_J, 0)
    parts: dict = {"mismatch": {}, "bracketing": {}}
    ok = True
    for n in range(3):
        lv = spectra.lob_minj_coulomb(alpha, mass, n)
        try:
            res = oracle.shoot_decay(prob, lv.epsilon)
            mism = abs(res.mismatch)
            parts["mismatch"][n] = {"epsilon": lv.epsilon, "abs_mismatch": mism, "b": lv.extras["b"]}
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
    n_admissible = []
    n = 0
    while n < 64:
        lv = spectra.lob_minj_coulomb(alpha, mass, n)
        if lv.admissible:
            n_admissible.append(n)
        n += 1
    terminated = bool(n_admissible) and max(n_admissible) < 63 and n_admissible == list(range(len(n_admissible)))
    parts["admissible_n"] = n_admissible
    ok = ok and terminated
    n0 = parts["mismatch"].get(0, {})
    formal = [m for m in parts["mismatch"] if m not in n_admissible]
    outside = [
        f"n = {m} {sgn}" for m, bracket in parts["bracketing"].items()
        for sgn, value in bracket.items() if not isinstance(value, float)
    ]
    return CriterionResult(
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


def _criterion_minj_oscillator() -> CriterionResult:
    mass = 1.0
    worst_res, worst_rel, worst_ident = 0.0, 0.0, 0.0
    rows = []
    for k_osc in (10.0, 100.0):
        scen = core.Scenario("lobachevsky", "oscillator", Fraction(1), mass, k_osc=k_osc)
        prob = radial.build_problem(scen, spectra.CH_MIN_J, 0)
        s_well = (-1.0 + math.sqrt(1.0 + 4.0 * mass * k_osc)) / 2.0
        n = 0
        while 2 * n + 1 < s_well:
            lv = spectra.lob_minj_oscillator(k_osc, mass, n)
            sol = radial.analytic_solution(prob, lv)
            res = radial.residual(prob, sol, lv)
            e_num, rel = _fd_level_rel_dev(prob, lv)
            ident = abs(lv.energy - (k_osc / 2.0 - (s_well - (2 * n + 1)) ** 2 / (2.0 * mass)))
            worst_res = max(worst_res, res)
            worst_rel = max(worst_rel, rel)
            worst_ident = max(worst_ident, ident)
            rows.append({"k_osc": k_osc, "n": n, "analytic": lv.energy, "numeric": e_num,
                         "rel_dev": rel, "ode_residual": res, "well_identity_dev": ident})
            n += 1
    return CriterionResult(
        cid="7-lob-minj-oscillator",
        description="curved minimum-j oscillator: analytic residual <= 1e-7, FD match rel 1e-4, "
        "sech^2-well identity to 1e-12, K M in {10, 100}",
        passed=(worst_res <= 1e-7 and worst_rel <= 1e-4 and worst_ident <= 1e-12),
        measured=f"residual {worst_res:.1e}, rel dev {worst_rel:.1e}, identity {worst_ident:.1e}",
        detail={"rows": rows},
    )


# --- criterion 8 (+11): curved no-monopole Coulomb and the free particle -------------


def suite_lob_coulomb() -> list[CriterionResult]:
    alpha, mass = 10.0, 1.0
    grid = oracle.Grid(r_max=40.0, n=40000)
    worst_rel = 0.0
    rows = []
    counts_ok = True
    count_rows = []
    scen = core.Scenario("lobachevsky", "coulomb", Fraction(0), mass, alpha=alpha)
    for j in range(3):
        prob = radial.build_problem(scen, spectra.CH_PARITY_ODD, j)
        levels = spectra.admissible_levels(scen, j, spectra.CH_PARITY_ODD)
        numeric = oracle.fd_eigen(prob, grid=grid, count=len(levels))
        for lv, e_num in zip(levels, numeric):
            rel = float(abs(e_num - lv.energy) / abs(lv.energy))
            worst_rel = max(worst_rel, rel)
            rows.append({"j": j, "n": lv.n, "N": lv.extras["N"], "analytic": lv.energy,
                         "numeric": float(e_num), "rel_dev": rel})
        fd_count = oracle.count_bound_states(prob, grid=grid)
        predicted = len(levels)
        counts_ok = counts_ok and fd_count == predicted
        count_rows.append({"j": j, "fd_count": fd_count, "predicted_count": predicted})
    c8 = CriterionResult(
        cid="8-lob-coulomb",
        description="no-monopole curved Coulomb: FD matches the closed form to rel 1e-4 for "
        "alpha = 10, M = 1, j = 0..2, all admissible n; FD bound count equals #{N : M alpha > N^2}",
        passed=(worst_rel <= 1e-4 and counts_ok),
        measured=f"worst rel dev {worst_rel:.2e}; counts {count_rows}",
        detail={"rows": rows, "counts": count_rows},
    )
    flat_ratio = radial.standing_wave_check(1, 0.5, 1.0)
    slope = radial.origin_exponent_fit(1, 0.5, 1.0)
    c11 = CriterionResult(
        cid="11-free-particle",
        description="free curved particle (j = 1, 2ME = 1): origin exponent j+1 by slope fit "
        "(+-0.05) and far-window envelope flatness within 1%",
        passed=(abs(slope - 2.0) <= 0.05 and flat_ratio <= 1.01),
        measured=f"slope {slope:.4f} (target 2), envelope max/min {flat_ratio:.6f}",
        detail={"slope": slope, "envelope_ratio": flat_ratio},
    )
    return [c8, c11]


# --- criterion 9: curved no-monopole oscillator ---------------------------------------


def suite_lob_oscillator() -> list[CriterionResult]:
    k_osc, mass = 100.0, 1.0
    worst_rel = 0.0
    rows = []
    count_rows = []
    stable = True
    scen = core.Scenario("lobachevsky", "oscillator", Fraction(0), mass, k_osc=k_osc)
    for j in range(3):
        prob = radial.build_problem(scen, spectra.CH_PARITY_ODD, j)
        levels = spectra.admissible_levels(scen, j, spectra.CH_PARITY_ODD)
        numeric = oracle.fd_eigen(prob, count=len(levels))
        for lv, e_num in zip(levels, numeric):
            rel = float(abs(e_num - lv.energy) / abs(lv.energy))
            worst_rel = max(worst_rel, rel)
            rows.append({"j": j, "n": lv.n, "N": lv.extras["N"], "analytic": lv.energy,
                         "numeric": float(e_num), "rel_dev": rel})
        inequality_count = len(levels)
        fd_counts = [
            oracle.count_bound_states(prob, grid=oracle.Grid(r_max=40.0, n=n_pts))
            for n_pts in (20000, 26000)
        ]
        stable = stable and fd_counts[0] == fd_counts[1]
        count_rows.append({
            "j": j,
            "inequality_count": inequality_count,
            "fd_counts": fd_counts,
            "deviation": fd_counts[0] - inequality_count,
        })
    return [
        CriterionResult(
            cid="9-lob-oscillator",
            description="no-monopole curved oscillator: FD matches the closed form to rel 1e-4 "
            "for K M = 100, j = 0..2; FD count vs restriction-inequality count reported, "
            "stable across grids",
            passed=(worst_rel <= 1e-4 and stable),
            measured=f"worst rel dev {worst_rel:.2e}; counts {count_rows}",
            detail={"rows": rows, "counts": count_rows},
        )
    ]


# --- criterion 10: Heun channels -------------------------------------------------------


def suite_heun() -> list[CriterionResult]:
    alpha, mass, k_osc = 10.0, 1.0, 100.0
    worst_fuchs = 0.0
    worst_residual = 0.0
    worst_involution = 0.0
    comparisons = []
    coulomb = core.Scenario("lobachevsky", "coulomb", Fraction(0), mass, alpha=alpha)
    oscillator = core.Scenario("lobachevsky", "oscillator", Fraction(0), mass, k_osc=k_osc)
    # Coulomb even channels at the formal termination energies
    for channel in (spectra.CH_EVEN_1, spectra.CH_EVEN_2):
        for j in (0, 1):
            formal = spectra.admissible_levels(coulomb, j, channel)
            for lv in formal:
                params = heunspec.heun_params_coulomb(lv.energy, alpha, mass, j, channel)
                worst_fuchs = max(worst_fuchs, abs(params.fuchs_residual()))
                worst_involution = max(worst_involution, heunspec.termination_defect(params, lv.n))
                if params.gamma > 0:
                    worst_residual = max(worst_residual, heunspec.heun_residual_on_disc(params))
            comparisons.append(_heun_fd_comparison(coulomb, channel, j, formal))
    # oscillator even channels
    for channel in (spectra.CH_EVEN_1, spectra.CH_EVEN_2):
        for j in (0, 1):
            formal = spectra.admissible_levels(oscillator, j, channel)
            for lv in formal:
                params = heunspec.heun_params_oscillator(lv.energy, k_osc, mass, j, channel)
                worst_fuchs = max(worst_fuchs, abs(params.fuchs_residual()))
                worst_involution = max(worst_involution, heunspec.termination_defect(params, lv.n))
                worst_residual = max(worst_residual, heunspec.heun_residual_on_disc(params))
            comparisons.append(_heun_fd_comparison(oscillator, channel, j, formal))
    agreement = [
        {"potential": c["potential"], "channel": c["channel"], "j": c["j"],
         "worst_rel_dev": c["worst_rel_dev"]}
        for c in comparisons
    ]
    return [
        CriterionResult(
            cid="10-heun",
            description="Heun channels: exact Fuchs relation, local-series ODE residual <= 1e-9 "
            "on |z| <= 0.8, termination-condition involution, and a deterministic FD comparison "
            "(agreement informational: the condition is one of two necessary ones)",
            passed=(worst_fuchs <= 1e-12 and worst_residual <= 1e-9 and worst_involution <= 1e-10),
            measured=f"fuchs {worst_fuchs:.1e}, residual {worst_residual:.1e}, "
            f"involution {worst_involution:.1e}; formal-vs-FD deviations {agreement}",
            detail={"comparisons": comparisons},
        )
    ]


def _heun_fd_comparison(scen: core.Scenario, channel: str, j: int, formal_levels) -> dict:
    prob = radial.build_problem(scen, channel, j)
    grid = oracle.Grid(r_max=40.0, n=40000)
    fd_count = oracle.count_bound_states(prob, grid=grid)
    pairs = []
    worst = 0.0
    n_compare = min(fd_count, len(formal_levels))
    if n_compare > 0:
        numeric = oracle.fd_eigen(prob, grid=grid, count=n_compare)
        for i in range(n_compare):
            rel = float(abs(numeric[i] - formal_levels[i].energy) / abs(formal_levels[i].energy))
            worst = max(worst, rel)
            pairs.append({"n": i, "formal": formal_levels[i].energy, "numeric": float(numeric[i]),
                          "rel_dev": rel})
    return {
        "potential": scen.potential,
        "channel": channel,
        "j": j,
        "fd_bound_count": fd_count,
        "formal_admissible_count": len(formal_levels),
        "pairs": pairs,
        "worst_rel_dev": worst if pairs else None,
    }


# --- criterion 12: determinism -----------------------------------------------------------


def suite_determinism() -> list[CriterionResult]:
    from .cli import render_levels

    scen = core.Scenario("flat", "coulomb", Fraction(1), 1.0, alpha=1.0)
    levels = spectra.spectrum_levels(scen, 2, range(4))
    blobs = {render_levels(levels, "json"), render_levels(levels, "csv")}
    again = {render_levels(levels, "json"), render_levels(levels, "csv")}
    identical = blobs == again and len(blobs) == 2
    return [
        CriterionResult(
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
}
SUITE_NAMES = tuple(_SUITES)


def selected_suites(names) -> list[str]:
    """The suite names `run_suites(names)` runs: 'all' expands to every suite
    plus the determinism check. An unknown name raises KeyError before any
    suite runs."""
    if names == "all" or names == ["all"]:
        return list(SUITE_NAMES) + ["determinism"]
    for name in names:
        if name not in _SUITES and name != "determinism":
            raise KeyError(name)
    return list(names)


def run_suites(names) -> dict:
    """Run the requested suites (see `selected_suites`) and assemble the
    deterministic report."""
    results: list[CriterionResult] = []
    timing = {}
    for name in selected_suites(names):
        fn = _SUITES.get(name, suite_determinism)
        t0 = time.monotonic()
        results.extend(fn())
        timing[name] = round(time.monotonic() - t0, 3)
    hard_failures = [r.cid for r in results if r.hard and not r.passed]
    return {
        "envelope": {"tool": "monopole-spectra", "timing_s": timing},
        "results": {
            "criteria": [r.to_record() for r in results],
            "hard_failures": hard_failures,
            "passed": not hard_failures,
        },
        "_objects": results,
    }
