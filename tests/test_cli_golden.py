"""Golden CLI corpus: the exact bytes of a fixed set of commands.

Each case runs one `spectrum`, `roots` or `wavefunction` command in-process
and compares its stdout byte for byte with `tests/golden/<name>.txt`. The
files pin the output across refactors, not just across repeats in one run.

Regenerate the files only for an intended output change, and say so in
CHANGES.md. With no argument every case is rewritten; with names, only those
cases are (this is how a new case gets its file without touching the others),
and an unknown name exits non-zero before any file is written:

    PYTHONPATH=src python tests/test_cli_golden.py
    PYTHONPATH=src python tests/test_cli_golden.py spectrum_flat_oscillator_deep_table

Every `CASES` entry has its file under `tests/golden/` and every file there
has an entry; `test_golden_files_match_cases` checks both directions.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from monopole_spectra import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

_SPECTRA = {
    "flat_coulomb": ["--k", "1", "--j", "2", "--alpha", "1", "--n", "0..3"],
    "flat_oscillator": ["--potential", "oscillator", "--k", "1", "--j", "1", "--k-osc", "2",
                        "--mass", "1.5", "--n", "0..3"],
    "lob_nomonopole": ["--geometry", "lobachevsky", "--potential", "oscillator", "--no-monopole",
                       "--j", "1", "--k-osc", "10", "--n", "0..3", "--include-inadmissible"],
    "lob_minj": ["--geometry", "lobachevsky", "--k", "1", "--j", "0", "--alpha", "0.1",
                 "--mass", "10", "--n", "0..10", "--include-inadmissible"],
}

CASES = {
    f"spectrum_{kind}_{fmt}": ["spectrum", *argv, "--format", fmt]
    for kind, argv in _SPECTRA.items()
    for fmt in ("table", "csv", "json")
}
CASES.update({
    "spectrum_flat_coulomb_minj_table": ["spectrum", "--k", "3/2", "--j", "1/2", "--alpha", "0.5",
                                         "--n", "0..2"],
    "spectrum_lob_nomonopole_coulomb_table": ["spectrum", "--geometry", "lobachevsky",
                                              "--no-monopole", "--j", "1", "--alpha", "10",
                                              "--n", "0..3", "--include-inadmissible"],
    "spectrum_lob_minj_oscillator_table": ["spectrum", "--geometry", "lobachevsky",
                                           "--potential", "oscillator", "--k", "1", "--j", "0",
                                           "--k-osc", "30", "--n", "0..4", "--include-inadmissible"],
    "spectrum_flat_coulomb_deep_csv": ["spectrum", "--k", "3/2", "--j", "7/2", "--alpha", "1.3",
                                       "--mass", "0.9", "--n", "0..199", "--format", "csv",
                                       "--include-inadmissible"],
    "spectrum_lob_nomonopole_oscillator_deep_json": ["spectrum", "--geometry", "lobachevsky",
                                                     "--potential", "oscillator", "--no-monopole",
                                                     "--j", "2", "--k-osc", "150", "--n", "0..40",
                                                     "--format", "json", "--include-inadmissible"],
    "spectrum_lob_minj_coulomb_deep_json": ["spectrum", "--geometry", "lobachevsky", "--k", "2",
                                            "--j", "1", "--alpha", "0.3", "--mass", "5",
                                            "--n", "0..12", "--format", "json",
                                            "--include-inadmissible"],
    "spectrum_lob_nomonopole_coulomb_deep_csv": ["spectrum", "--geometry", "lobachevsky",
                                                 "--no-monopole", "--j", "3", "--alpha", "40",
                                                 "--mass", "2", "--n", "0..150",
                                                 "--include-inadmissible", "--format", "csv"],
    "spectrum_lob_minj_oscillator_deep_csv": ["spectrum", "--geometry", "lobachevsky",
                                              "--potential", "oscillator", "--k", "5/2",
                                              "--j", "3/2", "--k-osc", "400", "--mass", "3",
                                              "--n", "0..60", "--include-inadmissible",
                                              "--format", "csv"],
    "spectrum_flat_oscillator_deep_table": ["spectrum", "--potential", "oscillator", "--k", "1/2",
                                            "--j", "5/2", "--k-osc", "3", "--mass", "0.7",
                                            "--n", "0..199", "--format", "table"],
    "roots_generic": ["roots", "--k", "1", "--j", "2"],
    "roots_generic_large_j": ["roots", "--k", "3", "--j", "12"],
    "roots_half_integer_k": ["roots", "--k", "1/2", "--j", "3/2"],
    "roots_j_equals_k": ["roots", "--k", "3/2", "--j", "3/2"],
    "roots_k0": ["roots", "--k", "0", "--j", "2"],
    "roots_minj": ["roots", "--k", "1", "--j", "0"],
    "wavefunction_flat_coulomb_n2": ["wavefunction", "--k", "1", "--j", "2", "--alpha", "1",
                                     "--n", "2", "--grid", "0.01:30:150"],
    "wavefunction_lob_minj_oscillator_n1": ["wavefunction", "--geometry", "lobachevsky",
                                            "--potential", "oscillator", "--k", "1", "--j", "0",
                                            "--k-osc", "100", "--n", "1", "--grid", "0.001:4:150"],
    "wavefunction_lob_minj_coulomb_n0": ["wavefunction", "--geometry", "lobachevsky", "--k", "1",
                                         "--j", "0", "--alpha", "0.1", "--mass", "10", "--n", "0",
                                         "--grid", "0.001:20:150"],
    "wavefunction_lob_nomonopole_coulomb_n1": ["wavefunction", "--geometry", "lobachevsky",
                                               "--no-monopole", "--j", "1", "--alpha", "10",
                                               "--n", "1", "--grid", "0.001:20:150"],
    "wavefunction_lob_nomonopole_coulomb_even1_n0": ["wavefunction", "--geometry", "lobachevsky",
                                                     "--no-monopole", "--j", "1", "--alpha", "10",
                                                     "--channel", "even-1", "--n", "0",
                                                     "--grid", "0.01:2.1:150"],
    "wavefunction_lob_nomonopole_coulomb_even2_n1": ["wavefunction", "--geometry", "lobachevsky",
                                                     "--no-monopole", "--j", "1", "--alpha", "10",
                                                     "--channel", "even-2", "--n", "1",
                                                     "--grid", "0.01:2.1:150"],
    # the only caller of spectra.peculiar_flat_level: the reduced free channel's e^(-kappa r)/r profile
    "wavefunction_flat_free_energy": ["wavefunction", "--potential", "none", "--energy", "-0.5",
                                      "--j", "1", "--k", "1"],
    "wavefunction_flat_oscillator_n1": ["wavefunction", "--potential", "oscillator", "--k", "1",
                                        "--j", "2", "--k-osc", "2", "--mass", "1.5", "--n", "1",
                                        "--channel", "branch-2", "--grid", "0.01:8:150"],
})


def _run(argv, capsys) -> bytes:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out.encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _run(CASES[name], capsys) == expected


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)
    # besides the CLI cases, only the validation report (tests/test_acceptance.py)
    assert [p.name for p in GOLDEN.iterdir() if p.suffix != ".txt"] == ["validate_all_results.json"]


def _regenerate(names) -> None:
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(names or CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(CASES[name]))
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.txt").write_bytes(buf.getvalue().encode("utf-8"))


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
