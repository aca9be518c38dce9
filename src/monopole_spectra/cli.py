"""Command-line interface: spectrum tables, mixing roots, wavefunction export,
and the validation suites.

Configuration comes from flags plus an optional plain key-value file (one
`key = value` per line, later flags override the file). Output is fully
deterministic: numbers are printed with 12 significant digits, rows are
sorted by (channel, j, n), and no timestamps enter data records.

Exit codes: 0 success, 1 computation error, 2 configuration error. `main`
alone maps errors to them, each with one stderr line: a subcommand reads its
options inside `with _options():`, which makes any ValueError or
OverflowError there a `ConfigError` (exit 2), and then computes unguarded, so
a ValueError from the computation exits 1. A request whose closed forms
overflow double precision (j of about 1e52 and up for `roots`, far larger j
for `spectrum` and `wavefunction`) is a computation error.

Only `validate` imports the oracle (and with it scipy), when it runs;
`wavefunction` loads numpy. Neither `spectrum` nor `roots` loads numpy, scipy,
`dataclasses` or `inspect`: their records are NamedTuples. Their cold start,
median of 40 fresh processes on a 2-vCPU VM (Python 3.11.7), is 78-80 ms
under PYTHONDONTWRITEBYTECODE=1 and 62-65 ms with bytecode cached (92-96
and 77-79 ms with dataclasses), against 47-49 ms for `python -c pass`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

from . import mixing, spectra
from .core import Scenario, as_half_integer, channel_kind, couplings

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Bad input: `main` prints it as one line and exits EXIT_CONFIG."""


@contextmanager
def _options():
    """Read options: a ValueError or OverflowError raised in the block, or an
    OSError from reading a config file, becomes a ConfigError."""
    try:
        yield
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(exc) from exc


def fmt12(x) -> str:
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(fmt12(x))


# --- config file ---------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; blank lines and #-comments are ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_BOOLEAN_KEYS = {"no-monopole", "include-inadmissible"}


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config FILE into flags injected right after the subcommand, so
    that explicitly passed flags (later in argv) override the file."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    with open(known.config, "r", encoding="utf-8") as fh:
        cfg = parse_config_text(fh.read())
    injected: list[str] = []
    for key, value in cfg.items():
        if key in _BOOLEAN_KEYS:
            if value.lower() in ("1", "true", "yes", "on"):
                injected.append(f"--{key}")
        else:
            injected.append(f"--{key}={value}")  # one token: a value may start with '-'
    out = list(argv)
    for i, tok in enumerate(out):
        if not tok.startswith("-"):  # the subcommand
            return out[: i + 1] + injected + out[i + 1 :]
    return out + injected


# --- parsing helpers -------------------------------------------------------------


def parse_number(text: str, flag: str, kind=float):
    """`text` as a `kind` (float or int), or a ValueError naming `flag`."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{flag} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def parse_radial_index(text: str) -> int:
    n = parse_number(text, "--n", int)
    if n < 0:
        raise ValueError(f"radial index n = {n} must be >= 0")
    return n


def _distinct(values: list, flag: str) -> list:
    """`values` unchanged, or a ValueError naming the first repeated one."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{flag} lists {value} twice")
        seen.add(value)
    return values


def parse_n_range(spec: str) -> list[int]:
    """'0..3', '2', or '0,2,5'; every index must be >= 0, a range must not
    run backwards and a list must not repeat an index."""
    spec = spec.strip()
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        first, last = parse_radial_index(lo), parse_radial_index(hi)
        if last < first:
            raise ValueError(f"--n range {spec} runs backwards")
        try:
            return list(range(first, last + 1))
        except OverflowError:
            raise ValueError(f"--n range {spec} is too long") from None
    return _distinct([parse_radial_index(tok) for tok in spec.split(",")], "--n")


def parse_channels(spec: str) -> list[str]:
    """'branch-1, branch-2' -> channel labels, stripped; each must be one of
    `spectra.CHANNELS` and named once."""
    labels = [tok.strip() for tok in spec.split(",")]
    for label in labels:
        if label not in spectra.CHANNELS:
            raise ValueError(f"unknown channel {label!r}; expected one of {', '.join(spectra.CHANNELS)}")
    return _distinct(labels, "--channel")


def parse_grid_spec(spec: str):
    """'r0:r1:N' -> N uniformly spaced radii from r0 to r1 inclusive."""
    from . import radial
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be r0:r1:N, got {spec!r}")
    r0, r1 = parse_number(parts[0], "--grid r0"), parse_number(parts[1], "--grid r1")
    return radial.uniform_grid(r0, r1, parse_number(parts[2], "--grid N", int))


_POTENTIAL_FLAGS = {"coulomb": ("alpha", "--alpha"), "oscillator": ("k_osc", "--k-osc")}


def _scenario_from_args(args) -> Scenario:
    needed = _POTENTIAL_FLAGS.get(args.potential)
    if needed is not None and getattr(args, needed[0]) is None:
        raise ValueError(f"--potential {args.potential} needs {needed[1]}")
    charge = Fraction(0) if getattr(args, "no_monopole", False) else as_half_integer(args.k, "k")
    return Scenario(
        geometry=args.geometry,
        potential=args.potential,
        charge=charge,
        mass=parse_number(args.mass, "--mass"),
        alpha=0.0 if args.alpha is None else parse_number(args.alpha, "--alpha"),
        k_osc=0.0 if args.k_osc is None else parse_number(args.k_osc, "--k-osc"),
        radius=parse_number(args.radius, "--radius"),
    )


# --- rendering --------------------------------------------------------------------

_LEVEL_COLUMNS = ("channel", "j2", "n", "E", "admissible", "derivation", "reason")


def _json_float(x: float) -> str:
    """`x` rounded to 12 digits and written as `json.dumps` writes a float,
    `float.__repr__(float(fmt12(x)))`. That is the `fmt12` text wherever the
    two provably agree: a normal double written with at most 12 significant
    digits reads back with those digits as its shortest round-trip ones, and
    `repr` places them as `.12g` does, in fixed notation for decimal exponents
    in [-4, 12) (adding `.0` to an integer) and in exponent notation outside
    [-4, 16), as for an exponent text with |x| < 1 or |x| >= 1e16. Exponents
    12-15, |x| < 1e-307 (subnormals hold fewer digits) and non-finite values
    take `repr`."""
    text = f"{float(x):.12g}"
    if "e" in text:
        size = abs(x)
        if 1e-307 <= size < 1.0 or 1e16 <= size:
            return text
    elif "." in text:
        return text
    elif text[-1].isdigit():
        return text + ".0"
    x = float(text)
    if -math.inf < x < math.inf:
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


class _JsonText(dict):
    """text -> its JSON string literal, encoded on first lookup."""

    def __missing__(self, text: str) -> str:
        self[text] = encoded = _json_str(text)
        return encoded


def _json_rows(blocks) -> str:
    """The rows as `json.dumps(records, sort_keys=True, indent=1)` writes
    them, with E and epsilon rounded to 12 digits. A record holds the
    scenario's record, 2j and the printed fields of the level, its keys
    written here in sorted order; each scenario's record is encoded once, the
    channel and j2 lines once per (channel, j) block, and each derivation,
    formula and reason text once per block.
    `tests/test_render.py` builds the same records independently."""
    scenario_json: dict[int, str] = {}
    rows = []
    for (channel, j), levels in blocks:
        channel_line = f'  "channel": {_json_str(channel)},\n'
        j2_line = f'  "j2": {int(j * 2)},\n  "n": '
        text = _JsonText()
        for lv in levels:
            scen = scenario_json.get(id(lv.scenario))
            if scen is None:
                scen = json.dumps(lv.scenario.to_record(), sort_keys=True, indent=1)
                scen = scenario_json[id(lv.scenario)] = scen.replace("\n", "\n  ")
            eps = "" if lv.epsilon is None else f'  "epsilon": {_json_float(lv.epsilon)},\n'
            rows.append(
                f' {{\n  "E": {_json_float(lv.energy)},\n'
                f'  "admissible": {"true" if lv.admissible else "false"},\n'
                f'{channel_line}  "derivation": {text[lv.derivation]},\n'
                f'{eps}  "formula": {text[lv.formula]},\n{j2_line}{lv.n},\n'
                f'  "reason": {text[lv.reason]},\n  "scenario": {scen}\n }}'
            )
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def _csv_rows(blocks) -> str:
    lines = [",".join(_LEVEL_COLUMNS)]
    for (channel, j), levels in blocks:
        prefix = f"{channel},{int(j * 2)},"
        for lv in levels:
            reason = '"' + lv.reason.replace('"', "'") + '"' if lv.reason else ""
            lines.append(f"{prefix}{lv.n},{float(lv.energy):.12g},{'true' if lv.admissible else 'false'},"
                         f"{lv.derivation},{reason}")
    return "\n".join(lines) + "\n"


def _table_rows(blocks) -> str:
    header = f"{'channel':<12} {'j2':>3} {'n':>3} {'E':>20} {'ok':>3}  reason"
    lines = [header, "-" * len(header)]
    for (channel, j), levels in blocks:
        prefix = f"{channel:<12} {int(j * 2):>3} "
        for lv in levels:
            lines.append(f"{prefix}{lv.n:>3} {float(lv.energy):>20.12g} "
                         f"{'y' if lv.admissible else 'n':>3}  {lv.reason}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _json_rows, "csv": _csv_rows, "table": _table_rows}
_ROW_ORDER = attrgetter("channel", "j", "n")


def _blocks(levels) -> list | None:
    """The levels as [((channel, j), rows)], one entry per run of rows with
    equal channel and j, or None at the first row that comes before the row
    above it in (channel, j, n) order. Channel and j are compared by `is`
    before `==`: the rows of a `spectra.spectrum_levels` block share both."""
    if not levels:
        return []
    channel, j, n = levels[0].channel, levels[0].j, levels[0].n
    rows: list = []
    blocks = [((channel, j), rows)]
    for lv in levels:
        c, jj = lv.channel, lv.j
        if c is channel or c == channel:
            if jj is not j and jj != j:
                if jj < j:
                    return None
                j, rows = jj, []
                blocks.append(((c, jj), rows))
            elif lv.n < n:
                return None
        elif c < channel:
            return None
        else:
            channel, j, rows = c, jj, []
            blocks.append(((c, jj), rows))
        n = lv.n
        rows.append(lv)
    return blocks


def render_levels(levels, fmt: str) -> str:
    """The levels (a sequence) as one table, rows sorted by (channel, j, n).
    Rows already in that order, as `spectra.spectrum_levels` returns them,
    are taken in one pass; others are sorted first. Each renderer writes the
    columns shared by a (channel, j) block once per block."""
    render = _RENDERERS.get(fmt)
    if render is None:
        raise ValueError(f"unknown format {fmt!r}")
    blocks = _blocks(levels)
    if blocks is None:
        blocks = _blocks(sorted(levels, key=_ROW_ORDER))
    return render(blocks)


def _emit(text: str, output: str | None) -> int:
    """Write `text` to the file `output`, or to stdout when there is none. A
    file that cannot be written raises ConfigError."""
    if not output:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {output}: {exc.strerror or exc}") from exc
    return EXIT_OK


# --- subcommands -------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    with _options():
        scen = _scenario_from_args(args)
        j = as_half_integer(args.j, "j")
        n_values = parse_n_range(args.n)
        channels = parse_channels(args.channel) if args.channel else None
    levels = spectra.spectrum_levels(scen, j, n_values, channels, args.include_inadmissible)
    return _emit(render_levels(levels, args.format), args.output)


def cmd_roots(args) -> int:
    with _options():
        k = as_half_integer(args.k, "k")
        j = as_half_integer(args.j, "j")
    kind = channel_kind(j, k)
    out: dict = {"j2": int(j * 2), "k2": int(k * 2), "channel_kind": kind}
    if kind == "min-j":
        out["notice"] = "j = |k| - 1 is the reduced single-component channel; no 3x3 mixing system exists"
        return _emit(json.dumps(out, sort_keys=True, indent=1) + "\n", args.output)
    cp = couplings(j, k)
    inv = mixing.cubic_invariants(j, k)
    triple = mixing.mixing_roots(j, k)
    out.update(
        {
            "c": _round12(cp.c),
            "d": _round12(cp.d),
            "cubic": {
                "r": _round12(float(inv.r)),
                "s": _round12(float(inv.s)),
                "t": _round12(float(inv.t)),
                "p_from_matrix": _round12(float(inv.p)),
                "q_from_matrix": _round12(float(inv.q)),
                "p_closed_form": _round12(float(inv.p_closed)),
                "q_closed_form": _round12(float(inv.q_closed)),
                "discriminant": _round12(float(inv.disc)),
            },
            "roots": [_round12(a) for a in triple.a],
            "L": [_round12(l) for l in triple.l],
        }
    )
    if kind == "j-equals-k":
        out["caution"] = "j = |k|: one root is exactly zero and the transform is degenerate"
    elif k == 0:
        # c = d makes the middle root equal 2c^2 exactly: the unit-diagonal
        # transform degenerates and the parity split takes its place
        out["caution"] = "k = 0: parity split diagonalizes the system (transform degenerate)"
        if j >= 1:
            pair = mixing.parity_eigenvalues(j)
            out["parity_pair"] = [str(pair[0]), str(pair[1])]
    else:
        s = mixing.transform_matrix(cp.c, cp.d, triple)
        out["transform"] = [[_round12(v) for v in row] for row in s]
        out["eigen_residual"] = _round12(mixing.transform_residual(cp.c, cp.d, triple, s))
    return _emit(json.dumps(out, sort_keys=True, indent=1) + "\n", args.output)


def cmd_validate(args) -> int:
    from . import validate
    with _options():
        selected = validate.selected_suites([args.suite])
    # an unwritable report path fails before any suite runs
    if args.report:
        _emit("", args.report)
    report = validate.run_suites(selected)
    for record in report["results"]["criteria"]:
        print(validate.line(record))
    if args.report:
        _emit(json.dumps(report, sort_keys=True, indent=1) + "\n", args.report)
    if report["results"]["passed"]:
        print("all hard criteria passed")
        return EXIT_OK
    print(f"hard criteria failed: {', '.join(report['results']['hard_failures'])}", file=sys.stderr)
    return EXIT_COMPUTE


def cmd_wavefunction(args) -> int:
    from . import radial
    with _options():
        scen = _scenario_from_args(args)
        j = as_half_integer(args.j, "j")
        grid = parse_grid_spec(args.grid)
        n = parse_radial_index(args.n)
        energy = None if args.energy is None else parse_number(args.energy, "--energy")
        if energy is not None and not math.isfinite(energy):
            raise ValueError(f"--energy must be finite, got {args.energy}")
        if scen.potential == "none" and (energy is None or energy >= 0.0):
            raise ValueError("the free reduced channel profile needs --energy E < 0")
        channel = args.channel or spectra.default_channels(scen, j)[0]
    problem = radial.build_problem(scen, channel, j)
    if scen.potential == "none":
        level = spectra.peculiar_flat_level(energy, scen)
    else:
        level = spectra.single_level(scen, j, n, channel)
    if not level.admissible:
        raise spectra.SpectrumError(f"level inadmissible: {level.reason}")
    sol = radial.analytic_solution(problem, level, grid=grid)
    res = _wavefunction_residual(problem, level)
    header = {
        "closed_form": sol.closed_form,
        "channel": channel,
        "j2": int(j * 2),
        "n": level.n,
        "E": _round12(level.energy),
        "l2_norm": _round12(sol.norm),
        "nodes": sol.node_count(),
    }
    if res is not None:
        header["ode_residual"] = _round12(res)
    lines = [json.dumps(header, sort_keys=True), "r,u"]
    for r, u in zip(sol.grid, sol.values):
        lines.append(f"{fmt12(r)},{fmt12(u)}")
    return _emit("\n".join(lines) + "\n", args.output)


def _wavefunction_residual(problem, level):
    """Validation residual on the solver's own grid (the export grid may be
    too coarse near a fractional-power origin to reflect the closed form)."""
    from . import radial
    try:
        check_sol = radial.analytic_solution(problem, level)
        return radial.residual(problem, check_sol, level)
    except radial.RadialError:
        return None


# --- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monopole-spectra",
        description="Energy spectra of a nonrelativistic spin-1 particle in a Dirac "
        "monopole field (flat and Lobachevsky geometry) with numerical validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--geometry", choices=["flat", "lobachevsky"], default="flat")
        p.add_argument("--potential", choices=["none", "coulomb", "oscillator"], default="coulomb")
        p.add_argument("--k", default="1", help="monopole charge, half-integer (e.g. 1/2)")
        p.add_argument("--no-monopole", action="store_true", help="force the k = 0 limit")
        p.add_argument("--j", default="0", help="total angular momentum, half-integer")
        p.add_argument("--alpha", help="Coulomb coupling (needed by --potential coulomb)")
        p.add_argument("--k-osc", dest="k_osc", help="oscillator constant (needed by --potential oscillator)")
        p.add_argument("--mass", default="1", help="particle mass (natural units)")
        p.add_argument("--radius", default="1", help="curvature radius (Lobachevsky)")
        p.add_argument("--output", help="write to file instead of stdout")

    p_spec = sub.add_parser("spectrum", help="emit energy-level records")
    add_scenario_flags(p_spec)
    p_spec.add_argument("--n", default="0..3", help="radial index range, e.g. 0..3")
    p_spec.add_argument("--channel", help="comma-separated channel list (default: all for scenario)")
    p_spec.add_argument("--include-inadmissible", action="store_true")
    p_spec.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_spec.set_defaults(func=cmd_spectrum)

    p_roots = sub.add_parser("roots", help="mixing-matrix invariants, roots, and transform")
    p_roots.add_argument("--config", help="key = value file; flags override it")
    p_roots.add_argument("--k", required=True)
    p_roots.add_argument("--j", required=True)
    p_roots.add_argument("--output")
    p_roots.set_defaults(func=cmd_roots)

    p_val = sub.add_parser("validate", help="run validation suites against the oracle")
    p_val.add_argument("--suite", default="all", help="one suite name, or all")
    p_val.add_argument("--report", help="write the JSON report here")
    p_val.set_defaults(func=cmd_validate)

    p_wf = sub.add_parser("wavefunction", help="export a closed-form radial solution as CSV")
    add_scenario_flags(p_wf)
    p_wf.add_argument("--n", default="0", help="radial index")
    p_wf.add_argument("--channel", help="channel label (default: first for scenario)")
    p_wf.add_argument("--energy", help="energy for the free reduced-channel profile (E < 0)")
    p_wf.add_argument("--grid", default="0.001:40:4000", help="r0:r1:N")
    p_wf.set_defaults(func=cmd_wavefunction)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. This is the one place an error becomes an exit
    code and one stderr line: ConfigError exits 2; an OverflowError, or a
    ValueError from the computation (every package error the subcommands
    can raise is one), exits 1."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        with _options():
            args = build_parser().parse_args(_apply_config_file(argv))
        return args.func(args)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError:
        print(f"error: j = {args.j}: the closed form overflows double precision for these parameters",
              file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
