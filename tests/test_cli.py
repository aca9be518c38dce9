"""CLI surface: subcommands, exit codes, formats, determinism, config files."""

import errno
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import monopole_spectra
from monopole_spectra import cli, radial, spectra
from monopole_spectra.core import Scenario


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv_row_count(capsys):
    code, out, _ = run(
        ["spectrum", "--geometry", "flat", "--potential", "coulomb", "--k", "1", "--j", "2",
         "--alpha", "1", "--mass", "1", "--n", "0..3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("channel,")
    assert len(lines) == 1 + 12  # 3 branches x 4 n


def test_spectrum_admissibility_flags(capsys):
    args = ["spectrum", "--geometry", "lobachevsky", "--potential", "coulomb", "--no-monopole",
            "--j", "0", "--alpha", "10", "--mass", "1", "--n", "0..5",
            "--channel", "parity-odd", "--format", "csv"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3  # only n = 0..2 admissible
    code, out, _ = run(args + ["--include-inadmissible"], capsys)
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 6
    assert all(",false," in row for row in rows[3:])


def test_spectrum_empty_range(capsys):
    code, out, err = run(
        ["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--n", "1..0", "--format", "csv"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "--n range 1..0 runs backwards" in err


@pytest.mark.parametrize("flags, named", [
    (["--n", "1,1"], "--n lists 1 twice"),
    (["--n", "0,2,00"], "--n lists 0 twice"),
    (["--channel", "branch-1,branch-1"], "--channel lists branch-1 twice"),
])
def test_spectrum_rejects_repeated_requests(flags, named, capsys):
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1", *flags], capsys)
    assert code == 2 and out == ""
    assert named in err


def test_spectrum_channel_list_tolerates_spaces(capsys):
    spaced = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--channel", " branch-1, branch-2"], capsys)
    plain = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--channel", "branch-1,branch-2"], capsys)
    assert spaced == plain and plain[0] == 0
    assert "branch-2" in plain[1] and "branch-3" not in plain[1]


@pytest.mark.parametrize("channel, code, named", [
    ("branch-1,bogus", 2, "unknown channel 'bogus'; expected one of min-j, branch-1,"),
    ("branch-1,", 2, "unknown channel ''"),
    ("parity-odd", 1, "unknown branch 'parity-odd'"),
])
def test_spectrum_unknown_channel_exit_2_inapplicable_channel_exit_1(channel, code, named, capsys):
    result = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--channel", channel], capsys)
    assert result[:2] == (code, "")
    assert named in result[2]


@pytest.mark.parametrize("channel, named", [
    ("parity-odd", "unknown branch 'parity-odd'"),
    ("min-j", "min-j channel requires j = |k| - 1"),
])
def test_wavefunction_invalid_flat_channel_exit_1(channel, named, capsys):
    code, out, err = run(
        ["wavefunction", "--k", "1", "--j", "2", "--alpha", "1", "--channel", channel], capsys
    )
    assert code == 1 and out == ""
    assert named in err


def test_spectrum_byte_identical(capsys):
    argv = ["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--n", "0..2", "--format", "json"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
    records = json.loads(out1)
    assert {"channel", "j2", "n", "E", "derivation", "admissible", "reason", "formula",
            "scenario"} <= set(records[0])


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_spectrum_rows_do_not_depend_on_the_request_order(fmt, capsys):
    argv = ["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--format", fmt]
    code, shuffled, _ = run(argv + ["--n", "5,0,3", "--channel", "branch-3,branch-1"], capsys)
    assert code == 0
    assert (code, shuffled) == run(argv + ["--n", "0,3,5", "--channel", "branch-1,branch-3"], capsys)[:2]
    assert shuffled.count("branch-1") == shuffled.count("branch-3") == 3


def test_spectrum_bad_config_exit_2(capsys):
    code, _, err = run(["spectrum", "--k", "0.3", "--j", "1", "--alpha", "1"], capsys)
    assert code == 2 and "half-integer" in err


def test_roots_includes_both_derivations(capsys):
    code, out, _ = run(["roots", "--k", "1", "--j", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cubic"]["p_from_matrix"] == payload["cubic"]["p_closed_form"] == pytest.approx(-67 / 12, abs=1e-10)
    assert payload["cubic"]["q_from_matrix"] == pytest.approx(-56 / 27, abs=1e-10)
    assert payload["eigen_residual"] <= 1e-10
    assert len(payload["roots"]) == 3


def test_roots_parity_pair_for_no_monopole(capsys):
    code, out, _ = run(["roots", "--k", "0", "--j", "1"], capsys)
    assert code == 0
    assert json.loads(out)["parity_pair"] == ["2", "-1"]


def test_roots_min_j_notice(capsys):
    code, out, _ = run(["roots", "--k", "1", "--j", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "notice" in payload and "roots" not in payload


def test_validate_single_suite(capsys, tmp_path):
    report = tmp_path / "r.json"
    code, out, _ = run(["validate", "--suite", "roots", "--report", str(report)], capsys)
    assert code == 0
    assert "[PASS] 1-roots" in out and "[PASS] 2-parity" in out
    payload = json.loads(report.read_text())
    assert payload["results"]["passed"] is True


def test_validate_unknown_suite_exit_2(capsys, tmp_path):
    code, out, err = run(["validate", "--suite", "nonsense"], capsys)
    assert code == 2 and out == ""
    assert "unknown suite 'nonsense'" in err
    report = tmp_path / "r.json"
    code, out, err = run(["validate", "--suite", "nonsense", "--report", str(report)], capsys)
    assert (code, out, err) == (2, "", "error: unknown suite 'nonsense'\n")
    assert not report.exists()


def test_wavefunction_peculiar_profile(capsys, tmp_path):
    out_file = tmp_path / "wf.csv"
    code, _, _ = run(
        ["wavefunction", "--geometry", "flat", "--potential", "none", "--k", "1", "--j", "0",
         "--energy", "-0.5", "--grid", "0.001:20:2000", "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["nodes"] == 0 and "e^(-" in header["closed_form"]
    assert lines[1] == "r,u"
    assert len(lines) == 2 + 2000  # grid spec honored exactly
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(0.001, abs=1e-12)


def test_wavefunction_weak_minj_coulomb_residual_does_not_cancel(capsys):
    # M = 1e6, alpha = 1e-5: (eps + alpha coth r)^2 - M^2 written unfactored
    # cancels about 12 digits and read 2.2e-7 for this exact closed form
    code, out, _ = run(["wavefunction", "--geometry", "lobachevsky", "--k", "2", "--j", "1",
                        "--alpha", "1e-5", "--mass", "1e6"], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0])["ode_residual"] <= 1e-9


def test_wavefunction_nodeless_ground_state(capsys, tmp_path):
    out_file = tmp_path / "wf.csv"
    code, _, _ = run(
        ["wavefunction", "--geometry", "lobachevsky", "--potential", "oscillator", "--k", "1",
         "--j", "0", "--k-osc", "100", "--n", "0", "--grid", "0.001:12:4000",
         "--output", str(out_file)],
        capsys,
    )
    assert code == 0
    header = json.loads(out_file.read_text().splitlines()[0])
    assert header["nodes"] == 0
    assert header["ode_residual"] <= 1e-7


def test_wavefunction_inadmissible_exit_1(capsys):
    code, _, err = run(
        ["wavefunction", "--geometry", "lobachevsky", "--potential", "coulomb", "--no-monopole",
         "--j", "0", "--alpha", "10", "--n", "5", "--channel", "parity-odd"],
        capsys,
    )
    assert code == 1 and "inadmissible" in err


@pytest.mark.parametrize("flags, code", [
    (["--k-osc", "10", "--n", "0", "--grid", "0.001:400:400"], 0),
    (["--no-monopole", "--k-osc", "100", "--channel", "parity-odd", "--n", "3", "--grid", "0.001:300:400"], 1),
])
def test_wavefunction_curved_oscillator_far_out_prints_no_warnings(flags, code, capsys):
    # cosh(r)^2 overflows past r ~ 355: the sample is kept or refused, never warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(["wavefunction", "--geometry", "lobachevsky", "--potential", "oscillator",
                      "--k", "1", "--j", "0", *flags], capsys)
    assert result[0] == code
    assert result[2].splitlines() == ([] if code == 0 else ["error: analytic solution degenerate on this grid"])


def test_wavefunction_even2_at_j0_exit_1_for_a_level_spectrum_prints_formal(capsys):
    # a known limitation: the even-2 row's Heun exponent A = j = 0 gives gamma = 0,
    # while its origin exponent max(j, 1 - j) is 1; the Heun connection problem owns the fix
    flags = ["--geometry", "lobachevsky", "--no-monopole", "--j", "0", "--alpha", "10", "--channel", "even-2", "--n", "0"]
    code, out, err = run(["wavefunction", *flags, "--grid", "0.001:2:100"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: Heun series degenerate: gamma = 0.0 is a non-positive integer\n"
    code, out, _ = run(["spectrum", *flags, "--format", "csv"], capsys)
    assert code == 0 and out.splitlines()[1].startswith("even-2,0,0,-200.125,true,heun-formal-beta,")


@pytest.mark.parametrize("k_osc, mass", [
    ("1e-200", "1e200"),  # K/M underflows to 0: omega^2 was a division by zero
    ("1e200", "1e-200"),  # K/M overflows: omega = inf made the grid extent NaN
], ids=["omega-underflow", "omega-overflow"])
def test_wavefunction_flat_oscillator_frequency_outside_the_double_range_exit_0(k_osc, mass, capsys):
    # the default solution grid takes its extent from the oscillator length
    # (MK)^(-1/4) = 1 where sqrt(K/M) leaves the double range
    code, out, err = run(["wavefunction", "--potential", "oscillator", "--k", "1", "--j", "2",
                          "--k-osc", k_osc, "--mass", mass, "--grid", "0.1:2:5"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    header = json.loads(lines[0])
    scen = Scenario("flat", "oscillator", 1, float(mass), k_osc=float(k_osc))
    assert header["E"] == float(cli.fmt12(spectra.single_level(scen, 2, 0, "branch-1").energy))
    assert header["ode_residual"] <= 1e-8
    assert lines[1] == "r,u" and len(lines) == 2 + 5


def test_wavefunction_oversize_residual_grid_omits_the_residual_exit_0(monkeypatch, capsys):
    # the oscillator length (MK)^(-1/4) = 1e5 asks for a 6.4e8-point default
    # grid (~5 GB); the guard makes that request fail instead of allocating it
    real = radial.uniform_grid

    def bounded(r0, r1, n):
        if n > 1_000_000:
            pytest.fail(f"asked for a {n}-point grid")
        return real(r0, r1, n)

    monkeypatch.setattr(radial, "uniform_grid", bounded)
    code, out, err = run(["wavefunction", "--potential", "oscillator", "--k", "1", "--j", "2",
                          "--k-osc", "1e-10", "--mass", "1e-10", "--grid", "0.1:2:5"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "ode_residual" not in json.loads(lines[0])
    assert lines[1] == "r,u" and len(lines) == 2 + 5


def test_wavefunction_grid_over_the_point_budget_exit_2(capsys):
    # 1e13 points asked numpy for 80 TB and ended in a MemoryError traceback
    code, out, err = run(["wavefunction", "--alpha", "1", "--grid", "0.001:40:10000000000000"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: grid of 10,000,000,000,000 points is more than the 1,000,000 allowed\n"


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = flat\npotential = coulomb\nk = 1\nj = 2\nalpha = 1\nn = 0..1\nformat = csv\n")
    code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 6  # 3 branches x 2 n
    code, out, _ = run(["spectrum", "--config", str(cfg), "--n", "0..3"], capsys)
    assert len(out.strip().splitlines()) == 1 + 12  # flag wins over file


def test_spectrum_n_range_too_long_to_build_exit_2(capsys):
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1",
                          "--n", "0..100000000000000000000"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --n range 0..100000000000000000000 is too long\n"


def test_config_file_negative_value_in_scientific_notation(capsys, tmp_path):
    # each value is injected as one --key=value token, so argparse does not
    # take "-1e-3" for a flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = flat\npotential = none\nk = 1\nj = 0\nenergy = -1e-3\ngrid = 0.5:20:5\n")
    code, out, err = run(["wavefunction", "--config", str(cfg)], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert json.loads(lines[0])["E"] == -0.001
    assert lines[1] == "r,u" and len(lines) == 2 + 5


def test_spectrum_negative_n_exit_2(capsys):
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--n=-2..0"], capsys)
    assert code == 2 and out == "" and "n = -2" in err


def test_spectrum_negative_n_curved_no_traceback(capsys):
    code, out, err = run(
        ["spectrum", "--geometry", "lobachevsky", "--no-monopole", "--alpha", "10", "--n=-1..0"],
        capsys,
    )
    assert code == 2 and out == "" and "must be >= 0" in err


def test_wavefunction_negative_n_exit_2(capsys):
    code, out, err = run(["wavefunction", "--k", "1", "--j", "2", "--alpha", "1", "--n=-1"], capsys)
    assert code == 2 and out == "" and "must be >= 0" in err


@pytest.mark.parametrize("flags, named", [
    (["--potential", "none", "--energy", "abc"], "'abc'"),
    (["--potential", "none", "--energy=-inf"], "--energy must be finite, got -inf"),
    (["--potential", "none", "--energy", "nan"], "--energy must be finite, got nan"),
    (["--potential", "none"], "needs --energy E < 0"),
    (["--potential", "none", "--energy", "0"], "needs --energy E < 0"),
    (["--potential", "none", "--energy", "0.5"], "needs --energy E < 0"),
    (["--alpha", "1", "--energy", "abc"], "'abc'"),
    (["--alpha", "1", "--energy", "inf"], "--energy must be finite, got inf"),
])
def test_wavefunction_bad_energy_exit_2(flags, named, capsys):
    code, out, err = run(["wavefunction", "--k", "1", "--j", "0", "--grid", "0.1:2:3", *flags], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("command, flags, message", [
    ("spectrum", ["--mass", "abc"], "--mass must be a number, got 'abc'"),
    ("spectrum", ["--alpha", "1,5"], "--alpha must be a number, got '1,5'"),
    ("spectrum", ["--potential", "oscillator", "--k-osc", "x"], "--k-osc must be a number, got 'x'"),
    ("spectrum", ["--geometry", "lobachevsky", "--j", "0", "--radius", ""], "--radius must be a number, got ''"),
    ("wavefunction", ["--potential", "none", "--energy=-1e"], "--energy must be a number, got '-1e'"),
    ("wavefunction", ["--grid", "a:2:3"], "--grid r0 must be a number, got 'a'"),
    ("wavefunction", ["--grid", "0.1:2x:3"], "--grid r1 must be a number, got '2x'"),
    ("wavefunction", ["--grid", "0.1:2:x"], "--grid N must be an integer, got 'x'"),
    ("wavefunction", ["--grid", "0.1:2:3.5"], "--grid N must be an integer, got '3.5'"),
    ("wavefunction", ["--n", "one"], "--n must be an integer, got 'one'"),
    ("spectrum", ["--n", "0..x"], "--n must be an integer, got 'x'"),
])
def test_non_numeric_flag_is_named_exit_2(command, flags, message, capsys):
    code, out, err = run([command, "--k", "1", "--j", "2", "--alpha", "1", *flags], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [
    ["--mass", "nan"],
    ["--mass", "inf"],
    ["--mass=-inf"],
    ["--alpha", "NaN"],
    ["--potential", "oscillator", "--k-osc", "nan"],
    ["--geometry", "lobachevsky", "--radius", "Infinity", "--j", "0"],
])
def test_spectrum_non_finite_parameter_exit_2(flags, capsys):
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1", *flags], capsys)
    assert code == 2 and out == "" and "must be finite" in err


@pytest.mark.parametrize("flags", [
    ["--k", "1", "--j", "2", "--alpha", "1e200", "--mass", "1e200"],
    ["--geometry", "lobachevsky", "--no-monopole", "--j", "0", "--alpha", "1e300", "--mass", "1e10",
     "--channel", "parity-odd"],
    ["--k", "1", "--j", "2", "--potential", "oscillator", "--k-osc", "1e300", "--mass", "1e-300",
     "--n", "10000000000"],
    # M^2 underflows to 0 in the curved closed forms
    ["--geometry", "lobachevsky", "--k", "1", "--j", "0", "--alpha", "0.1", "--mass", "1e-200"],
    ["--geometry", "lobachevsky", "--potential", "oscillator", "--k", "1", "--j", "0", "--k-osc", "1",
     "--mass", "1e-200"],
    ["--geometry", "lobachevsky", "--no-monopole", "--potential", "oscillator", "--j", "0", "--k-osc", "1",
     "--mass", "1e-200"],
])
def test_spectrum_overflowing_level_exit_1(flags, capsys):
    code, out, err = run(["spectrum", *flags], capsys)
    assert code == 1 and out == "" and "overflows" in err
    assert err.count("\n") == 1


def test_spectrum_overflow_past_the_first_n_exit_1(capsys):
    code, out, err = run(["spectrum", "--geometry", "lobachevsky", "--no-monopole", "--alpha", "10",
                          "--j", "0", "--channel", "parity-odd", "--n", f"0,{10**160}",
                          "--include-inadmissible"], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: E = -inf at n = {10**160} in channel 'parity-odd': "
                   "the closed form overflows double precision for these parameters\n")


def test_flat_oscillator_frequency_below_the_normal_range_exit_0(capsys):
    # K/M = 1e-600 underflows to 0, but omega = sqrt(K)/sqrt(M) = 1e-300 is a normal double
    code, out, err = run(["spectrum", "--geometry", "flat", "--potential", "oscillator", "--k", "1",
                          "--j", "2", "--k-osc", "1e-300", "--mass", "1e300", "--n", "0..1",
                          "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 6
    for channel, _, n, energy, admissible, _, _ in rows:
        big_l = spectra.flat_channel_l(Fraction(2), Fraction(1), channel)
        assert admissible == "true"
        assert float(energy) == pytest.approx(1e-300 * (1.5 + big_l + 2 * int(n)), rel=1e-11, abs=0.0)


def test_flat_oscillator_frequency_above_the_normal_range_exit_0(capsys):
    # K/M = 1e600 overflows, but omega = sqrt(K)/sqrt(M) = 1e300 and its levels are finite
    code, out, err = run(["spectrum", "--geometry", "flat", "--potential", "oscillator", "--k", "1",
                          "--j", "2", "--k-osc", "1e300", "--mass", "1e-300", "--n", "0..1",
                          "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 6
    for channel, _, n, energy, admissible, _, _ in rows:
        big_l = Fraction(spectra.flat_channel_l(Fraction(2), Fraction(1), channel))
        exact = 10**300 * (Fraction(3, 2) + big_l + 2 * int(n))
        assert admissible == "true"
        assert energy == f"{float(exact):.12g}"


@pytest.mark.parametrize("flags", [
    ["--alpha", "1e-170", "--mass", "1"],  # alpha^2 M / 2 = 5e-341 underflows to 0
    ["--alpha", "1e-160", "--mass", "1"],  # alpha^2 M / 2 = 5e-321 is subnormal
])
def test_flat_coulomb_scale_below_the_normal_range_exit_1(flags, capsys):
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", *flags], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: Coulomb scale alpha^2 M / 2 = ") and err.endswith(" underflows double precision\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("alpha, mass", [
    ("1e-160", "1e100"),  # alpha^2 = 1e-320 is subnormal, alpha^2 M / 2 = 5e-221 is not
    ("1e200", "1e-200"),  # alpha^2 overflows, alpha^2 M / 2 = 5e199 does not
])
def test_flat_coulomb_alpha_squared_outside_the_normal_range_exit_0(alpha, mass, capsys):
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", "--alpha", alpha, "--mass", mass,
                          "--n", "0..1", "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 6
    alpha, mass = Fraction(float(alpha)), Fraction(float(mass))
    for channel, _, n, energy, admissible, _, _ in rows:
        big_l = Fraction(spectra.flat_channel_l(Fraction(2), Fraction(1), channel))
        exact = -alpha * alpha * mass / (2 * (int(n) + big_l + 1) ** 2)
        assert admissible == "true"
        assert energy == f"{float(exact):.12g}"


def test_flat_oscillator_frequency_that_still_underflows_exit_1(capsys):
    # both inputs are normal doubles; omega = sqrt(K)/sqrt(M) is not
    code, out, err = run(["spectrum", "--potential", "oscillator", "--k", "1", "--j", "2",
                          "--k-osc", "2.5e-308", "--mass", "1.7e308"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: oscillator frequency sqrt(K/M) = 1.21268e-308 underflows double precision\n"


def test_subnormal_spring_constant_exit_2(capsys):
    # 1e-320 is stored as 9.99989e-321, which would print E = 2.27225611276e-150 for 2.27226876117e-150
    code, out, err = run(["spectrum", "--potential", "oscillator", "--k", "1", "--j", "2",
                          "--k-osc", "1e-320", "--mass", "1e-20"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: k_osc = 9.99989e-321 is subnormal (|x| < 2.22507e-308) and keeps too few significant bits\n"


def test_subnormal_coupling_exit_2(capsys):
    # the smallest subnormal alpha once printed E = -0 as an admissible level
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "5e-324"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: alpha = 4.94066e-324 is subnormal (|x| < 2.22507e-308) and keeps too few significant bits\n"


@pytest.mark.parametrize("flags", [
    ["--mass", "1e-310"],
    ["--mass=-1e-310"],
    ["--geometry", "lobachevsky", "--radius", "2e-320", "--j", "0"],
])
def test_spectrum_subnormal_parameter_exit_2(flags, capsys):
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1", *flags], capsys)
    assert code == 2 and out == "" and "is subnormal" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["roots", "--k", "1", "--j", "1e52"],  # the cubic discriminant ~ j^6 leaves double range
    ["roots", "--k", "1", "--j", "1e200"],  # so do the coupling radicands ~ j^2
    ["spectrum", "--k", "1", "--j", "1e200", "--alpha", "1", "--n", "0..1"],
    ["wavefunction", "--k", "1", "--j", "1e200", "--alpha", "1", "--grid", "0.5:2:3"],
])
def test_overflowing_quantum_numbers_exit_1_without_traceback(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "overflows double precision" in err


@pytest.mark.parametrize("argv", [
    ["roots", "--k", "1", "--j", "1e50"],
    ["spectrum", "--k", "1", "--j", "1e52", "--alpha", "1", "--n", "0..1"],
])
def test_large_but_representable_quantum_numbers_still_exit_0(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "") and out


def test_spectrum_keeps_the_curvature_radius(capsys):
    code, out, _ = run(
        ["spectrum", "--geometry", "lobachevsky", "--potential", "oscillator", "--k-osc", "50",
         "--k", "1", "--j", "0", "--radius", "2", "--n", "0", "--format", "json"],
        capsys,
    )
    assert code == 0
    (record,) = json.loads(out)
    assert record["scenario"]["radius"] == 2.0
    # energies stay in curvature units: the radius changes only the record
    _, unit_out, _ = run(
        ["spectrum", "--geometry", "lobachevsky", "--potential", "oscillator", "--k-osc", "50",
         "--k", "1", "--j", "0", "--n", "0", "--format", "json"],
        capsys,
    )
    assert record["E"] == json.loads(unit_out)[0]["E"]


@pytest.mark.parametrize("potential, flag", [("coulomb", "--alpha"), ("oscillator", "--k-osc")])
def test_spectrum_missing_potential_strength_names_the_flag(potential, flag, capsys):
    code, out, err = run(["spectrum", "--potential", potential, "--k", "1", "--j", "2"], capsys)
    assert code == 2 and out == ""
    assert f"--potential {potential} needs {flag}" in err


def test_spectrum_bytes_agree_across_processes_and_a_warm_memo(capsys):
    argv = ["spectrum", "--k", "3/2", "--j", "7/2", "--alpha", "1.3", "--mass", "0.9",
            "--n", "0..40", "--format", "json", "--include-inadmissible"]
    src = os.path.dirname(os.path.dirname(monopole_spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = [
        subprocess.run([sys.executable, "-m", "monopole_spectra.cli", *argv],
                       capture_output=True, check=True, env=env).stdout
        for _ in range(2)
    ]
    for j in ("5/2", "9/2", "3/2"):  # warm the memo with other keys first
        run(["spectrum", "--k", "3/2", "--j", j, "--alpha", "1", "--n", "0..3"], capsys)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert fresh[0] == fresh[1] == out.encode("utf-8")


@pytest.mark.parametrize("argv, out_flag", [
    (["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--n", "0..3"], "--output"),
    (["roots", "--k", "1", "--j", "2"], "--output"),
    (["wavefunction", "--k", "1", "--j", "2", "--alpha", "1", "--n", "0", "--grid", "0.01:10:20"],
     "--output"),
    (["validate", "--suite", "roots"], "--report"),
], ids=["spectrum", "roots", "wavefunction", "validate"])
def test_unwritable_output_path_exit_2(argv, out_flag, capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run([*argv, out_flag, str(target)], capsys)
    assert code == 2
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()
    assert out == ""


def test_validate_checks_the_report_path_before_any_suite(capsys, tmp_path, monkeypatch):
    from monopole_spectra import validate

    def no_suites(names):
        raise AssertionError(f"suites {names} ran before the report path was checked")

    monkeypatch.setattr(validate, "run_suites", no_suites)
    target = tmp_path / "missing" / "x"
    code, out, err = run(["validate", "--suite", "heun", "--report", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"



def test_validate_report_failing_at_close_exit_2(capsys, tmp_path, monkeypatch):
    # a full disk: opening and an empty write succeed, the flush of the
    # report's text at close fails
    class FullDisk(io.StringIO):
        def close(self):
            if self.getvalue():
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            super().close()

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
    target = tmp_path / "r.json"
    code, out, err = run(["validate", "--suite", "roots", "--report", str(target)], capsys)
    assert code == 2
    assert "[PASS] 1-roots" in out  # the criteria print before the report is written
    assert err == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"

def test_spectrum_channel_off_minimum_j_exit_1(capsys):
    code, out, err = run(["spectrum", "--k", "1", "--j", "2", "--alpha", "1",
                          "--channel", "branch-1,min-j"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: min-j channel requires j = |k| - 1, got (j, k) = (2, 1)\n"
