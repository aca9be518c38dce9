"""The package's public surface: every exported name resolves, lazily, and
the closed-form commands `spectrum` and `roots` load neither the oracle's
numpy and scipy nor `dataclasses` and `inspect`, and `wavefunction` loads
neither the oracle nor scipy. The oracle module imports no closed form."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import monopole_spectra


def test_every_exported_name_resolves():
    exported = monopole_spectra.__all__
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(monopole_spectra, name)]
    assert missing == []


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with `args`, importing the package under test."""
    src = os.path.dirname(os.path.dirname(monopole_spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# the oracle's numpy and scipy, and `dataclasses` with the `inspect` it imports
_NOT_LOADED = ["scipy", "numpy", "dataclasses", "inspect"]


@pytest.mark.parametrize("argv, absent", [
    (["spectrum", "--k", "1", "--j", "2", "--alpha", "1", "--n", "0..3", "--format", "json"], _NOT_LOADED),
    (["spectrum", "--geometry", "lobachevsky", "--no-monopole", "--potential", "oscillator",
      "--k-osc", "50", "--j", "1"], _NOT_LOADED),
    (["spectrum", "--geometry", "lobachevsky", "--k", "1", "--j", "0", "--alpha", "0.1", "--mass", "10"],
     _NOT_LOADED),
    (["roots", "--k", "1", "--j", "2"], _NOT_LOADED),
    (["roots", "--k", "3/2", "--j", "7/2"], _NOT_LOADED),
])
def test_closed_form_commands_do_not_import_the_oracle(argv, absent):
    code = (
        "import contextlib, io, json, sys\n"
        "from monopole_spectra import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({argv!r})\n"
        f"print(json.dumps([status, sorted({{m.split('.')[0] for m in sys.modules}} & {set(absent)!r})]))\n"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    status, loaded = json.loads(out.stdout)
    assert status == 0
    assert set(loaded).isdisjoint(absent), loaded


@pytest.mark.parametrize("argv", [
    ["validate", "--suite", "roots"],
    ["wavefunction", "--k", "1", "--j", "2", "--alpha", "1", "--grid", "0.5:20:40"],
])
def test_oracle_commands_still_run_in_a_fresh_process(argv):
    out = fresh_python("-m", "monopole_spectra.cli", *argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_wavefunction_does_not_import_scipy():
    # the oracle, and with it scipy, is validate's alone
    code = (
        "import contextlib, io, json, sys\n"
        "from monopole_spectra import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['wavefunction', '--k', '1', '--j', '2', '--alpha', '1', '--grid', '0.5:20:40'])\n"
        "print(json.dumps([status, 'scipy' in sys.modules, 'monopole_spectra.oracle' in sys.modules]))\n"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [0, False, False]


def test_readme_quick_start_runs():
    # every name the README documents must still exist
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert "-50.5" in out.stdout


def test_exports_resolve_lazily_and_unknown_names_raise():
    code = (
        "import sys\n"
        "import monopole_spectra\n"
        "before = 'monopole_spectra.oracle' in sys.modules\n"
        "from monopole_spectra import fd_eigen\n"
        "try:\n"
        "    monopole_spectra.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(before, fd_eigen.__module__, exc)\n"
    )
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[:2] == ["False", "monopole_spectra.oracle"]
    assert "has no attribute 'no_such_name'" in out.stdout


def test_oracle_imports_no_closed_form():
    # the oracle solves the radial problems it is given; the closed forms it
    # checks live in `spectra`, and `validate` alone compares the two
    tree = ast.parse(Path(monopole_spectra.__file__).with_name("oracle.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported, "oracle.py has no imports: the parse found the wrong file"
    assert not {m for m in imported if re.search(r"(^|\.)spectra($|\.)", m)}, sorted(imported)
