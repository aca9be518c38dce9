"""The three benchmark workloads. Each is a closed loop with one client.

A workload is built from its seed (the inputs), then runs operations:
`op(i)` runs the i-th timed operation and returns an `Outcome`. Checks run
after the clock stops and never share code with the path being timed.

- spectrum-deep: in-process `cli.main(["spectrum", ...])` tables. One
  round is 4 tables, one per kind in seeded order, with the formats rotating
  so that every (kind, format) pair comes once in three rounds. The kinds
  are flat Coulomb and flat oscillator (through `mixing`) and curved
  no-monopole and curved min-j (which bypass it). Every level of a table
  shares one (j, k) mixing key.
- cli-cold: one fresh `python -m monopole_spectra.cli` process per request,
  small `roots` and `spectrum --n 0..3` requests on distinct keys; every
  fourth request repeats an earlier one, whose output must match byte for
  byte (cross-process determinism).
- validate-all: in-process `validate.run_suites` over all nine suites in a
  seeded order; every criterion's pass state is checked against the
  expected map.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SPECTRUM_KINDS = ("flat-coulomb", "flat-oscillator", "curved-nomonopole", "curved-minj")
SPECTRUM_FORMATS = ("csv", "json", "table")
# n values per channel: flat tables have 3 channels at ~200 us per level,
# curved ones 1 or 3 channels at ~30 us, so tables cost about the same.
SPECTRUM_N = {"flat-coulomb": 1000, "flat-oscillator": 1000, "curved-nomonopole": 3000, "curved-minj": 9000}
CLI_REQUEST_KINDS = ("roots",) + SPECTRUM_KINDS
CLI_SEQUENCE = 400
CLI_TIMEOUT_S = 120
SUITES = tuple(reference.SUITE_CRITERIA)
TINY_SUITES = ("roots", "flat-oscillator", "determinism")


def child_env() -> dict[str, str]:
    """Environment for the package's processes: one BLAS thread, the thread
    pool knob removed, the package imported from the checkout's `src`."""
    env = dict(os.environ)
    env.pop("MONOPOLE_SPECTRA_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    """One timed operation: its wall time, work units done and check result."""

    seconds: float
    work: int
    attempted: int
    problems: list[str] = field(default_factory=list)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _spectrum_spec(rng: random.Random, kind: str, n_count: int) -> dict:
    spec = {"n_count": n_count, "mass": _num(rng.uniform(0.5, 2.0))}
    if kind.startswith("flat"):
        k2 = rng.randint(1, 6)
        spec.update(geometry="flat", k=str(Fraction(k2, 2)), j=str(Fraction(k2 + 2 * rng.randint(0, 4), 2)))
        if kind == "flat-coulomb":
            spec.update(potential="coulomb", alpha=_num(rng.uniform(0.5, 2.0)))
        else:
            spec.update(potential="oscillator", k_osc=_num(rng.uniform(0.5, 4.0)))
    elif kind == "curved-nomonopole":
        spec.update(geometry="lobachevsky", no_monopole=True, j=str(rng.randint(0, 4)))
        if rng.random() < 0.5:
            spec.update(potential="coulomb", alpha=_num(rng.uniform(5.0, 20.0)))
        else:
            spec.update(potential="oscillator", k_osc=_num(rng.uniform(50.0, 200.0)))
    else:
        k2 = rng.randint(2, 6)
        spec.update(geometry="lobachevsky", k=str(Fraction(k2, 2)), j=str(Fraction(k2 - 2, 2)))
        if rng.random() < 0.5:
            spec.update(potential="coulomb", alpha=_num(rng.uniform(0.05, 0.45)),
                        mass=_num(rng.uniform(2.0, 20.0)))
        else:
            spec.update(potential="oscillator", k_osc=_num(rng.uniform(10.0, 200.0)))
    return spec


class SpectrumDeep:
    """Operation = one round of 4 tables; work = level records written."""

    name = "spectrum-deep"
    min_ops = 1
    unit_label = "levels"

    def __init__(self, seed: int, tiny: bool, tmpdir: Path):
        from monopole_spectra import cli

        self._main = cli.main
        self.tmpdir = tmpdir
        self._rng = random.Random(seed)
        scale = 100 if tiny else 1
        self._n = {kind: max(2, n // scale) for kind, n in SPECTRUM_N.items()}
        self._rounds: list[list[tuple[dict, str]]] = []

    def round(self, i: int) -> list[tuple[dict, str]]:
        while len(self._rounds) <= i:
            r = len(self._rounds)
            tables = [(_spectrum_spec(self._rng, kind, self._n[kind]),
                       SPECTRUM_FORMATS[(r + k) % len(SPECTRUM_FORMATS)])
                      for k, kind in enumerate(SPECTRUM_KINDS)]
            self._rng.shuffle(tables)
            self._rounds.append(tables)
        return self._rounds[i]

    def setup(self) -> None:
        self.round(0)

    def op(self, i: int) -> Outcome:
        out = Outcome(seconds=0.0, work=0, attempted=0)
        for t, (spec, fmt) in enumerate(self.round(i)):
            path = self.tmpdir / f"table{t}.{fmt}"
            argv = reference.spectrum_argv(spec, fmt) + ["--output", str(path)]
            t0 = time.perf_counter()
            try:
                code = self._main(argv)
            except Exception:  # a crash is a failed table, not the end of the run
                traceback.print_exc()
                code = "exception"
            out.seconds += time.perf_counter() - t0
            text = path.read_text(encoding="utf-8") if path.exists() else ""
            problems = reference.check_spectrum(spec, fmt, code, text)
            path.unlink(missing_ok=True)
            out.attempted += 1
            out.work += len(reference.spectrum_channels(spec)) * spec["n_count"]
            if problems:
                out.problems.append(f"table {' '.join(argv)}: {problems[0]}")
        return out


def _cli_request(rng: random.Random, used_roots: set) -> dict:
    kind = rng.choice(CLI_REQUEST_KINDS)
    if kind == "roots":
        while True:
            k2 = rng.randint(1, 16)
            j2 = k2 + 2 * rng.randint(-1 if k2 >= 2 else 0, 6)
            if (k2, j2) not in used_roots:
                used_roots.add((k2, j2))
                break
        k, j = str(Fraction(k2, 2)), str(Fraction(j2, 2))
        return {"kind": "roots", "k": k, "j": j, "argv": ["roots", "--k", k, "--j", j]}
    spec = _spectrum_spec(rng, kind, 4)
    fmt = rng.choice(("csv", "json"))
    argv = reference.spectrum_argv(spec, fmt)
    argv.remove("--include-inadmissible")
    return {"kind": "spectrum", "spec": spec, "format": fmt, "argv": argv}


class CliCold:
    """Operation = one fresh CLI process; work = invocations."""

    name = "cli-cold"
    min_ops = 4  # the fourth request is the first repeat
    unit_label = "invocations"

    def __init__(self, seed: int, tiny: bool, tmpdir: Path):
        self.tmpdir = tmpdir
        self._rng = random.Random(seed)
        self._env = child_env()
        self.requests: list[dict] = []
        self._first_output: dict[tuple, bytes] = {}

    def setup(self) -> None:
        used: set = set()
        for i in range(CLI_SEQUENCE):
            if i % 4 == 3:
                earlier = [r for r in self.requests if not r.get("repeat")]
                self.requests.append(dict(self._rng.choice(earlier), repeat=True))
            else:
                self.requests.append(_cli_request(self._rng, used))

    def command(self, req: dict) -> list[str]:
        return [sys.executable, "-m", "monopole_spectra.cli", *req["argv"]]

    def run(self, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self._env, capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the process
            proc = subprocess.CompletedProcess(cmd, -9, stdout=exc.stdout or b"", stderr=b"timed out")
        return time.perf_counter() - t0, proc

    def check(self, req: dict, proc: subprocess.CompletedProcess) -> list[str]:
        text = proc.stdout.decode("utf-8", errors="replace")
        if req["kind"] == "roots":
            problems = reference.check_roots(req["k"], req["j"], proc.returncode, text)
        else:
            problems = reference.check_spectrum(req["spec"], req["format"], proc.returncode, text,
                                                include_inadmissible=False)
        key = tuple(req["argv"])
        first = self._first_output.setdefault(key, proc.stdout)
        if first != proc.stdout:
            problems.append("output differs from an earlier process on the same request")
        return problems

    def op(self, i: int) -> Outcome:
        req = self.requests[i % len(self.requests)]
        seconds, proc = self.run(self.command(req))
        problems = self.check(req, proc)
        return Outcome(seconds=seconds, work=1, attempted=1,
                       problems=[f"{' '.join(req['argv'])}: {problems[0]}"] if problems else [])


class ValidateAll:
    """Operation = one checked pass over all suites; work = criteria."""

    name = "validate-all"
    min_ops = 1
    unit_label = "criteria"

    def __init__(self, seed: int, tiny: bool, tmpdir: Path):
        # cli is imported here so that the determinism suite's own import of it
        # is paid in set-up rather than in the first timed pass
        from monopole_spectra import cli, validate  # noqa: F401

        self._run_suites = validate.run_suites
        self.tmpdir = tmpdir
        self._seed = seed
        self._suites = TINY_SUITES if tiny else SUITES
        self.last_timing: dict[str, float] = {}

    def setup(self) -> None:
        pass

    def op(self, i: int) -> Outcome:
        order = random.Random(f"{self._seed}:{i}").sample(self._suites, len(self._suites))
        t0 = time.perf_counter()
        try:
            report = self._run_suites(order)
        except Exception:  # a crashed pass reports no criteria, so each counts as failed
            traceback.print_exc()
            report = {"envelope": {"timing_s": {}}, "results": {"criteria": []}}
        seconds = time.perf_counter() - t0
        self.last_timing = dict(report["envelope"]["timing_s"])
        attempted, problems = reference.check_criteria(order, report["results"]["criteria"])
        return Outcome(seconds=seconds, work=attempted, attempted=attempted, problems=problems)


WORKLOADS = {cls.name: cls for cls in (SpectrumDeep, CliCold, ValidateAll)}
