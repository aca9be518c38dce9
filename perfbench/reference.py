"""The benchmark's own output checks, independent of the code being timed.

Every printed energy is recomputed here from the closed forms, with the flat
effective angular momenta L taken from `numpy.linalg.eigvalsh` of the 3x3
mixing matrix rather than from the package's trigonometric roots. Every check
returns a list of problems; an empty list means the operation succeeded.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

# The CLI prints 12 significant digits, so a correct value is within half a
# unit in the 12th digit; the margin covers eigvalsh-vs-trigonometric roots.
REL_TOL = 2e-11

BRANCHES = ("branch-1", "branch-2", "branch-3")
NOMONOPOLE_CHANNELS = ("even-1", "even-2", "parity-odd")

# Expected pass state of every validation criterion, by suite: all pass
# except 6-lob-minj-coulomb, which is analytically infeasible as stated.
SUITE_CRITERIA = {
    "roots": ("1-roots", "2-parity"),
    "wigner": ("3-wigner",),
    "flat-coulomb": ("4-flat-coulomb",),
    "flat-oscillator": ("5-flat-oscillator",),
    "lob-minj": ("6-lob-minj-coulomb", "7-lob-minj-oscillator"),
    "lob-coulomb": ("8-lob-coulomb", "11-free-particle"),
    "lob-oscillator": ("9-lob-oscillator",),
    "heun": ("10-heun",),
    "determinism": ("12-determinism",),
}
EXPECTED_FAILING = frozenset({"6-lob-minj-coulomb"})


def flat_l_values(j: Fraction, k: Fraction) -> np.ndarray:
    """Effective L of the three mixing branches, ascending, by eigensolve."""
    c = math.sqrt(float((j + k) * (j - k + 1) / 4))
    d = math.sqrt(float((j - k) * (j + k + 1) / 4))
    s2 = math.sqrt(2.0)
    matrix = np.array([
        [2.0 * c * c, s2 * c, 0.0],
        [s2 * c, c * c + d * d + 1.0, s2 * d],
        [0.0, s2 * d, 2.0 * d * d],
    ])
    a = np.linalg.eigvalsh(matrix)
    return -0.5 + np.sqrt(0.25 + 2.0 * np.maximum(a, 0.0))


def _oscillator_n_energy(big_n: float, k_osc: float, mass: float) -> float:
    return big_n * math.sqrt(k_osc / mass + 0.25 / (mass * mass)) - (big_n**2 + 0.25) / (2.0 * mass)


def expected_levels(spec: dict) -> dict[tuple[str, int], tuple[float, bool]]:
    """(E, admissible) for every (channel, n) of a spectrum request spec."""
    geometry, potential = spec["geometry"], spec["potential"]
    mass = float(spec["mass"])
    jf = float(Fraction(spec["j"]))
    ns = range(spec["n_count"])
    out = {}
    if geometry == "flat":
        l_values = flat_l_values(Fraction(spec["j"]), Fraction(spec["k"]))
        for channel, lval in zip(BRANCHES, l_values.tolist()):
            for n in ns:
                if potential == "coulomb":
                    alpha = float(spec["alpha"])
                    energy = -0.5 * alpha * alpha * mass / (n + lval + 1.0) ** 2
                else:
                    energy = math.sqrt(float(spec["k_osc"]) / mass) * (1.5 + lval + 2.0 * n)
                out[(channel, n)] = (energy, True)
    elif spec.get("no_monopole") and potential == "coulomb":
        alpha = float(spec["alpha"])
        for n in ns:
            for channel, big_n in (("parity-odd", jf + 1.0 + n), ("even-1", jf + 1.5 + 0.5 * n),
                                   ("even-2", jf + 0.5 + 0.5 * n)):
                energy = -mass * alpha * alpha / (2.0 * big_n * big_n) - big_n * big_n / (2.0 * mass)
                out[(channel, n)] = (energy, mass * alpha > big_n * big_n)
    elif spec.get("no_monopole"):
        k_osc = float(spec["k_osc"])
        limit = math.sqrt(1.0 + 4.0 * k_osc * mass) / 2.0
        for n in ns:
            for channel, big_n in (("parity-odd", 2.0 * n + jf + 1.5), ("even-1", 2.0 + jf + n),
                                   ("even-2", 1.0 + jf + n)):
                out[(channel, n)] = (_oscillator_n_energy(big_n, k_osc, mass), big_n < limit)
    elif potential == "coulomb":
        alpha = float(spec["alpha"])
        for n in ns:
            nu = n + (1.0 + math.sqrt(1.0 - 4.0 * alpha * alpha)) / 2.0
            rad = 1.0 - (alpha * alpha + nu * nu) / (mass * mass)
            if rad < 0.0:
                out[("min-j", n)] = (math.nan, False)
                continue
            eps = mass / math.sqrt(1.0 + alpha * alpha / (nu * nu)) * math.sqrt(rad)
            out[("min-j", n)] = (eps - mass, eps * alpha - nu * nu > 0.0)
    else:
        k_osc = float(spec["k_osc"])
        s_well = (-1.0 + math.sqrt(1.0 + 4.0 * mass * k_osc)) / 2.0
        for n in ns:
            out[("min-j", n)] = (_oscillator_n_energy(2.0 * n + 1.5, k_osc, mass), 2 * n + 1 < s_well)
    return out


def spectrum_channels(spec: dict) -> tuple[str, ...]:
    if spec["geometry"] == "flat":
        return BRANCHES
    return NOMONOPOLE_CHANNELS if spec.get("no_monopole") else ("min-j",)


def spectrum_argv(spec: dict, fmt: str) -> list[str]:
    """The `spectrum` command line for a request spec (all inadmissible rows kept)."""
    argv = ["spectrum", "--geometry", spec["geometry"], "--potential", spec["potential"],
            "--j", spec["j"], "--mass", spec["mass"], "--n", f"0..{spec['n_count'] - 1}",
            "--include-inadmissible", "--format", fmt]
    argv += ["--no-monopole"] if spec.get("no_monopole") else ["--k", spec["k"]]
    argv += ["--alpha", spec["alpha"]] if spec["potential"] == "coulomb" else ["--k-osc", spec["k_osc"]]
    return argv


def parse_levels(text: str, fmt: str) -> list[tuple[str, int, int, float, bool]]:
    """Rows (channel, j2, n, E, admissible) of a `spectrum` output."""
    rows = []
    if fmt == "json":
        for rec in json.loads(text):
            rows.append((rec["channel"], int(rec["j2"]), int(rec["n"]), float(rec["E"]),
                         bool(rec["admissible"])))
    elif fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        if next(reader)[:5] != ["channel", "j2", "n", "E", "admissible"]:
            raise ValueError("unexpected csv header")
        for rec in reader:
            if rec[4] not in ("true", "false"):
                raise ValueError(f"bad admissible field {rec[4]!r}")
            rows.append((rec[0], int(rec[1]), int(rec[2]), float(rec[3]), rec[4] == "true"))
    elif fmt == "table":
        lines = text.splitlines()
        if not lines or lines[0].split()[:5] != ["channel", "j2", "n", "E", "ok"]:
            raise ValueError("unexpected table header")
        for line in lines[2:]:
            rec = line.split(None, 5)
            if rec[4] not in ("y", "n"):
                raise ValueError(f"bad ok field {rec[4]!r}")
            rows.append((rec[0], int(rec[1]), int(rec[2]), float(rec[3]), rec[4] == "y"))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return rows


def same_energy(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= REL_TOL * abs(want)


def check_spectrum(spec: dict, fmt: str, exit_code: int, text: str,
                   include_inadmissible: bool = True) -> list[str]:
    """Problems with one `spectrum` output: a nonzero exit code, output that
    does not parse, a missing, extra or repeated (channel, n) row, an
    admissible row whose E is nan or inf, or any row whose E or admissible
    flag differs from the recomputation."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        rows = parse_levels(text, fmt)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable {fmt} output: {exc}"]
    want = expected_levels(spec)
    if not include_inadmissible:
        want = {key: value for key, value in want.items() if value[1]}
    j2 = int(Fraction(spec["j"]) * 2)
    seen = set()
    problems = []
    for channel, row_j2, n, energy, admissible in rows:
        key = (channel, n)
        if key not in want or key in seen or row_j2 != j2:
            problems.append(f"unexpected row {channel} j2={row_j2} n={n}")
            continue
        seen.add(key)
        want_e, want_ok = want[key]
        if admissible and not math.isfinite(energy):
            problems.append(f"admissible {channel} n={n} has E = {energy}")
        elif not same_energy(energy, want_e) or admissible != want_ok:
            problems.append(f"{channel} n={n}: E = {energy!r} admissible={admissible}, "
                            f"expected {want_e!r} admissible={want_ok}")
    if len(seen) != len(want):
        problems.append(f"{len(want) - len(seen)} expected rows missing")
    return problems


def check_roots(k: str, j: str, exit_code: int, text: str) -> list[str]:
    """Problems with one `roots` output: exit code, parse, or L values off
    the eigensolve."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        out = json.loads(text)
        kf, jf = Fraction(k), Fraction(j)
        if out["j2"] != int(2 * jf) or out["k2"] != int(2 * kf):
            return [f"roots echoed (j2, k2) = ({out['j2']}, {out['k2']})"]
        if out["channel_kind"] == "min-j":
            return [] if "notice" in out else ["min-j roots output without its notice"]
        got = [float(x) for x in out["L"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable roots output: {exc}"]
    want = flat_l_values(jf, kf)
    if any(abs(g - w) > REL_TOL * max(1.0, abs(w)) for g, w in zip(got, want)) or len(got) != 3:
        return [f"L = {got}, expected {want.tolist()}"]
    return []


def check_criteria(suites, criteria: list[dict]) -> tuple[int, list[str]]:
    """(attempted, problems) for one validation report: each expected
    criterion must be present once with its expected pass state, and no
    other criterion may appear."""
    expected = [cid for suite in suites for cid in SUITE_CRITERIA[suite]]
    problems = []
    seen = {}
    for rec in criteria:
        cid = rec.get("id")
        if cid not in expected or cid in seen:
            problems.append(f"unexpected criterion {cid!r}")
            continue
        seen[cid] = rec.get("passed")
    for cid in expected:
        if cid not in seen:
            problems.append(f"missing criterion {cid}")
        elif seen[cid] is not (cid not in EXPECTED_FAILING):
            problems.append(f"{cid}: passed = {seen[cid]}, expected {cid not in EXPECTED_FAILING}")
    unexpected = len(criteria) - len(seen)
    return len(expected) + unexpected, problems
