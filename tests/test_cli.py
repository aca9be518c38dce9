"""CLI surface: subcommands, exit codes, formats, determinism, config files."""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

import monopole_spectra
from monopole_spectra import cli


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


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = flat\npotential = coulomb\nk = 1\nj = 2\nalpha = 1\nn = 0..1\nformat = csv\n")
    code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 6  # 3 branches x 2 n
    code, out, _ = run(["spectrum", "--config", str(cfg), "--n", "0..3"], capsys)
    assert len(out.strip().splitlines()) == 1 + 12  # flag wins over file


def test_config_round_trip_byte_identical():
    text = "geometry = flat\nk = 1/2\nn = 0..3\n"
    parsed = cli.parse_config_text(text)
    assert cli.serialize_config(parsed) == text
    assert cli.parse_config_text(cli.serialize_config(parsed)) == parsed


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
    ["--k", "1", "--j", "2", "--potential", "oscillator", "--k-osc", "1e300", "--mass", "1e-300"],
])
def test_spectrum_overflowing_level_exit_1(flags, capsys):
    code, out, err = run(["spectrum", *flags], capsys)
    assert code == 1 and out == "" and "overflows" in err


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
