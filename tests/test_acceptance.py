"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criteria 1-5 and 7-12 assert their validation records as stated. The record
of criterion 6 stays red: it asks for decaying-shoot matches at n = 1, 2,
where the closed form has a negative far-field exponent (formal levels, no
decaying solution to shoot against), and for a +1 % bracket probe at n = 0
that leaves the decaying domain; see README "Known limitations". Test 6
prints that record as an [INFO] line and then asserts the feasible content
of its detail at the same alpha = 0.1, M = 10, n = 0..2: admissible levels
shoot to a match with a sign change across them, formal levels are marked
inadmissible and miss, and admissibility terminates.

The whole report is also pinned: `test_report_matches_the_golden_file`
compares it with `tests/golden/validate_all_results.json` through
`tests/report_diff.py`, which also rewrites that file.
"""

import json
import math
import re
import time
from fractions import Fraction

import pytest

import report_diff
from monopole_spectra import core, heunspec, oracle, radial, spectra, validate

_cache: dict = {}


def full_run() -> dict:
    """One `validate --suite all` run, timed, shared by every criterion test."""
    if not _cache:
        t0 = time.monotonic()
        _cache["report"] = validate.run_suites("all")
        _cache["elapsed"] = time.monotonic() - t0
        _cache["records"] = {r["id"]: r for r in _cache["report"]["results"]["criteria"]}
    return _cache


def criterion(cid: str):
    return full_run()["records"][cid]


def check(result):
    print(validate.line(result))
    assert result["passed"], validate.line(result)


def test_criterion_01_root_machinery():
    check(criterion("1-roots"))


def test_criterion_02_parity_split():
    check(criterion("2-parity"))


def test_criterion_03_wigner_recurrences():
    check(criterion("3-wigner"))


def test_criterion_04_flat_coulomb():
    check(criterion("4-flat-coulomb"))


def test_criterion_05_flat_oscillator_arbitration():
    check(criterion("5-flat-oscillator"))


def test_criterion_06_lob_minj_coulomb_shooting():
    record = criterion("6-lob-minj-coulomb")
    state = "passes" if record["passed"] else "red as stated"
    print(f"[INFO] {record['id']} record, {state}: {record['description']} -- {record['measured']}")
    alpha, mass = 0.1, 10.0
    scen = core.Scenario("lobachevsky", "coulomb", Fraction(1), mass, alpha=alpha)
    prob = radial.build_problem(scen, spectra.CH_MIN_J, 0)
    rows = record["detail"]["mismatch"]
    assert sorted(rows) == [0, 1, 2]
    bound = []
    for n, row in sorted(rows.items()):
        assert "error" not in row, f"n = {n}: {row.get('error')}"
        level = spectra.single_level(scen, 0, n, spectra.CH_MIN_J)
        assert row["epsilon"] == level.epsilon
        if row["b"] <= 0.0:
            # formal level: the regular solution grows, so the decaying shoot misses
            assert not level.admissible, f"n = {n} has b = {row['b']:.3g} but is admissible"
            assert row["abs_mismatch"] > 0.1
            continue
        assert level.admissible
        assert row["abs_mismatch"] <= 1e-5, f"n = {n}: |mismatch| {row['abs_mismatch']:.1e}"
        assert row["nodes"] == n, f"n = {n}: the regular leg has {row['nodes']} nodes"
        # bracket inside the decaying domain eps + alpha < M
        eps = row["epsilon"]
        delta = min(0.01 * eps, 0.5 * (mass - alpha - eps))
        lo = oracle.shoot_decay(prob, eps - delta).mismatch
        hi = oracle.shoot_decay(prob, eps + delta).mismatch
        assert lo * hi < 0.0, f"n = {n}: no sign change ({lo:.2e}, {hi:.2e})"
        # small on both sides: the flip is a zero, not a pole of the log-derivative
        assert max(abs(lo), abs(hi)) < 0.1, f"n = {n}: bracket ({lo:.2e}, {hi:.2e})"
        bound.append(n)
    assert record["detail"]["admissible_n"] == [0]
    assert bound == [0]
    print(
        f"[PASS] 6-lob-minj-coulomb (feasible content): bound n = {bound} shoot to "
        f"|mismatch| {rows[0]['abs_mismatch']:.1e} with a sign change across eps; formal "
        f"n = {[n for n in rows if n not in bound]} are inadmissible and miss; "
        f"admissibility terminates at n = {record['detail']['admissible_n']}"
    )


def test_criterion_07_lob_minj_oscillator():
    check(criterion("7-lob-minj-oscillator"))


def test_criterion_08_lob_nomonopole_coulomb():
    check(criterion("8-lob-coulomb"))


def test_criterion_09_lob_nomonopole_oscillator():
    check(criterion("9-lob-oscillator"))


def test_criterion_10_heun_channels():
    check(criterion("10-heun"))


def test_criterion_11_free_particle():
    check(criterion("11-free-particle"))


def test_fd_rows_carry_the_oracle_estimate_and_lie_within_it():
    # the confirmed closed forms (criteria 4, 7, 8, 9) agree with the ladder's
    # energy to within its own estimate; criterion 10's levels are formal
    records = full_run()["records"]
    for cid in ("4-flat-coulomb", "7-lob-minj-oscillator", "8-lob-coulomb", "9-lob-oscillator"):
        for row in records[cid]["detail"]["rows"]:
            assert row["rel_dev"] <= row["oracle_rel_err"] <= oracle.LADDER_TOL, (cid, row)
            assert row["fd_points"] >= oracle.MIN_FINEST_POINTS
    for comparison in records["10-heun"]["detail"]["comparisons"]:
        for pair in comparison["pairs"]:
            assert pair["oracle_rel_err"] <= oracle.LADDER_TOL
    for verdict in records["5-flat-oscillator"]["detail"]["verdicts"]:
        assert verdict["oracle_rel_err"] <= oracle.LADDER_TOL
        small, large = verdict["fd_points"]
        assert (large + 1) / (small + 1) == 22 / 16
    for small, large in records["9-lob-oscillator"]["detail"]["count_points"]:
        assert (large + 1) / (small + 1) == pytest.approx(26 / 20, rel=1e-3)


def test_a_nan_after_the_first_fd_row_fails_criterion_4(monkeypatch):
    # max() keeps a NaN only when it comes first, so a worst value taken by max would pass this
    devs = iter([0.0, math.nan] + [0.0] * 14)
    monkeypatch.setattr(validate, "_fd_compare", lambda problem, levels, grid=None: [
        {"numeric": lv.energy, "rel_dev": next(devs), "oracle_rel_err": 0.0, "fd_points": 0} for lv in levels])
    (record,) = validate.suite_flat_coulomb()
    assert not record["passed"]
    assert record["measured"].startswith("worst rel dev nan")


def test_a_nan_disc_residual_after_the_first_point_fails_criterion_10(monkeypatch):
    real = heunspec.heun_ode_residuals

    def residuals(params, zs):
        out = real(params, zs)
        out[0][1] = math.nan
        return out

    monkeypatch.setattr(heunspec, "heun_ode_residuals", residuals)
    monkeypatch.setattr(validate, "_heun_fd_comparison", lambda scen, channel, j, formal: {
        "potential": scen.potential, "channel": channel, "j": j, "worst_rel_dev": None})
    (record,) = validate.suite_heun()
    assert not record["passed"]
    assert ", residual nan," in record["measured"]


def test_records_are_plain_json():
    # perfbench/reference.py compares `passed` with `is`, so a numpy bool_ would count as a failure
    report = full_run()["report"]
    criteria = report["results"]["criteria"]
    assert all(type(rec["passed"]) is bool for rec in criteria)
    assert report["results"]["hard_failures"] == [rec["id"] for rec in criteria if not rec["passed"]]
    json.dumps(report)


def test_measured_texts_carry_no_wall_time():
    # wall time lives in the envelope's timing_s, so two reports of the same
    # code agree on every record
    for rec in full_run()["report"]["results"]["criteria"]:
        assert not re.search(r"\d\s?s\b", rec["measured"]), f"{rec['id']}: {rec['measured']}"


def test_criterion_12_determinism_and_runtime():
    check(criterion("12-determinism"))
    # the full composite must complete well inside five minutes
    run = full_run()
    report, elapsed = run["report"], run["elapsed"]
    print(f"[INFO] validate --suite all completed in {elapsed:.1f}s (< 300s required)")
    assert elapsed < 300.0
    hard = set(report["results"]["hard_failures"])
    assert hard <= {"6-lob-minj-coulomb"}, f"unexpected hard failures: {hard}"


# Floats of the numerical side (FD ladders, the Numerov recurrences, numpy
# eigensolves, sampled residuals) may differ in their last bits under another
# LAPACK or numpy build, so they match the golden file to within
# RTOL |golden| + ATOL, where ATOL covers residuals of roundoff size. Every
# other float is a closed form or exact arithmetic and matches bit for bit.
NUMERICAL_FLOATS = {
    "numeric", "rel_dev", "oracle_rel_err", "worst_rel_dev", "matched_rel_dev", "rejected_rel_dev",
    "abs_mismatch", "-1%", "+1%", "ode_residual", "slope", "envelope_ratio",
    "worst_root_dev", "worst_transform_residual", "worst_residual",
}
RTOL, ATOL = 1e-6, 1e-12


def _tolerated(change: report_diff.Change) -> bool:
    return (change.kind == "float" and change.path.rsplit(".", 1)[-1] in NUMERICAL_FLOATS
            and abs(change.new - change.old) <= RTOL * abs(change.old) + ATOL)


def test_report_matches_the_golden_file():
    # any flip, added or removed key, or changed string or integer fails too
    golden = report_diff.load(report_diff.GOLDEN)
    changes = report_diff.diff(golden, report_diff.plain(full_run()["report"]["results"]))
    assert [str(change) for change in changes if not _tolerated(change)] == []


def test_report_diff_ends_with_a_summary_line(tmp_path, capsys):
    old = {"criteria": [{"id": "1-a", "passed": True, "x": 1.0, "y": 2.0, "n": 3}], "suite": "all"}
    new = {"criteria": [{"id": "1-a", "passed": False, "x": 1.5, "y": 0.5, "n": 4}], "suite": "all", "z": None}
    paths = []
    for name, tree in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(tree), encoding="utf-8")
    assert report_diff.main([str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == ""
    assert report_diff.main([str(p) for p in paths]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "summary: 1 flip, 2 float, 1 changed, 1 added; largest float move 1-a.y (rel -7.500e-01)"
