"""Command-line interface: spectrum tables, mixing roots, wavefunction export,
and the validation suites.

Configuration comes from flags plus an optional plain key-value file (one
`key = value` per line, later flags override the file). Output is fully
deterministic: numbers are printed with 12 significant digits, rows are
sorted by (channel, j, n), and no timestamps enter data records.

Exit codes: 0 success, 1 computation error, 2 configuration error.

Only `validate` and `wavefunction` import the oracle modules (and scipy), when
they run; `spectrum` and `roots` start without them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

from . import mixing, spectra
from .core import QuantumNumberError, Scenario, as_half_integer, channel_kind, couplings

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2


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


def serialize_config(cfg: dict[str, str]) -> str:
    """Canonical `key = value` text; parse -> serialize is byte-stable."""
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


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
            injected.extend([f"--{key}", value])
    out = list(argv)
    for i, tok in enumerate(out):
        if not tok.startswith("-"):  # the subcommand
            return out[: i + 1] + injected + out[i + 1 :]
    return out + injected


# --- parsing helpers -------------------------------------------------------------


def parse_radial_index(text: str) -> int:
    n = int(text)
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
        return list(range(first, last + 1))
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
    r0, r1, n = float(parts[0]), float(parts[1]), int(parts[2])
    return radial.uniform_grid(r0, r1, n)


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
        mass=float(args.mass),
        alpha=0.0 if args.alpha is None else float(args.alpha),
        k_osc=0.0 if args.k_osc is None else float(args.k_osc),
        radius=float(args.radius),
    )


# --- rendering --------------------------------------------------------------------

_LEVEL_COLUMNS = ("channel", "j2", "n", "E", "admissible", "derivation", "reason")


def _json_float(x: float) -> str:
    """`x` rounded to 12 digits and written as `json.dumps` writes a float."""
    x = _round12(x)
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _sorted_levels(levels) -> list[tuple[tuple[str, int, int], object]]:
    """((channel, 2j, n), level) pairs in row order. 2j is computed once per
    distinct `j` object: the levels of one table share it."""
    j2_of: dict[int, int] = {}
    keyed = []
    for lv in levels:
        j2 = j2_of.get(id(lv.j))
        if j2 is None:
            j2 = j2_of[id(lv.j)] = int(lv.j * 2)
        keyed.append(((lv.channel, j2, lv.n), lv))
    keyed.sort(key=itemgetter(0))
    return keyed


def _json_rows(keyed) -> str:
    """The rows as `json.dumps([lv.to_record() ...], sort_keys=True, indent=1)`
    writes them, with E and epsilon rounded to 12 digits. The keys are
    written in the sorted order of `EnergyLevel.to_record`, and each
    scenario's block is encoded once."""
    if not keyed:
        return "[]\n"
    blocks: dict[int, str] = {}
    rows = []
    for (channel, j2, n), lv in keyed:
        block = blocks.get(id(lv.scenario))
        if block is None:
            block = json.dumps(lv.scenario.to_record(), sort_keys=True, indent=1)
            block = blocks[id(lv.scenario)] = block.replace("\n", "\n  ")
        eps = "" if lv.epsilon is None else f'  "epsilon": {_json_float(lv.epsilon)},\n'
        rows.append(
            f' {{\n  "E": {_json_float(lv.energy)},\n'
            f'  "admissible": {"true" if lv.admissible else "false"},\n'
            f'  "channel": {_json_str(channel)},\n  "derivation": {_json_str(lv.derivation)},\n'
            f'{eps}  "formula": {_json_str(lv.formula)},\n  "j2": {j2},\n  "n": {n},\n'
            f'  "reason": {_json_str(lv.reason)},\n  "scenario": {block}\n }}'
        )
    return "[\n" + ",\n".join(rows) + "\n]\n"


def _csv_rows(keyed) -> str:
    lines = [",".join(_LEVEL_COLUMNS)]
    for (channel, j2, n), lv in keyed:
        reason = '"' + lv.reason.replace('"', "'") + '"' if lv.reason else ""
        lines.append(f"{channel},{j2},{n},{fmt12(lv.energy)},{'true' if lv.admissible else 'false'},"
                     f"{lv.derivation},{reason}")
    return "\n".join(lines) + "\n"


def _table_rows(keyed) -> str:
    header = f"{'channel':<12} {'j2':>3} {'n':>3} {'E':>20} {'ok':>3}  reason"
    lines = [header, "-" * len(header)]
    for (channel, j2, n), lv in keyed:
        lines.append(f"{channel:<12} {j2:>3} {n:>3} {fmt12(lv.energy):>20} "
                     f"{'y' if lv.admissible else 'n':>3}  {lv.reason}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _json_rows, "csv": _csv_rows, "table": _table_rows}


def render_levels(levels, fmt: str) -> str:
    """The levels as one table, rows sorted by (channel, j, n)."""
    render = _RENDERERS.get(fmt)
    if render is None:
        raise ValueError(f"unknown format {fmt!r}")
    return render(_sorted_levels(levels))


def _emit(text: str, output: str | None) -> int:
    """Write `text` to the file `output`, or to stdout when there is none.
    A file that cannot be written is a configuration error: one line on
    stderr and EXIT_CONFIG."""
    if not output:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# --- subcommands -------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    try:
        scen = _scenario_from_args(args)
        j = as_half_integer(args.j, "j")
        n_values = parse_n_range(args.n)
        channels = parse_channels(args.channel) if args.channel else None
    except (ValueError, QuantumNumberError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        levels = spectra.spectrum_levels(scen, j, n_values, channels, args.include_inadmissible)
        return _emit(render_levels(levels, args.format), args.output)
    except (spectra.SpectrumError, QuantumNumberError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def cmd_roots(args) -> int:
    try:
        k = as_half_integer(args.k, "k")
        j = as_half_integer(args.j, "j")
    except QuantumNumberError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        kind = channel_kind(j, k)
        out: dict = {"j2": int(j * 2), "k2": int(k * 2), "channel_kind": kind}
        if kind == "min-j":
            out["notice"] = (
                "j = |k| - 1 is the reduced single-component channel; no 3x3 mixing system exists"
            )
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
            out["transform"] = [[_round12(v) for v in row] for row in s.tolist()]
            out["eigen_residual"] = _round12(mixing.transform_residual(cp.c, cp.d, triple, s))
        return _emit(json.dumps(out, sort_keys=True, indent=1) + "\n", args.output)
    except (mixing.MixingError, QuantumNumberError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def cmd_validate(args) -> int:
    from . import validate
    try:
        selected = validate.selected_suites([args.suite] if args.suite != "all" else "all")
    except KeyError as exc:
        print(f"error: unknown suite {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # an unwritable report path fails before any suite runs
    if args.report and _emit("", args.report) != EXIT_OK:
        return EXIT_CONFIG
    report = validate.run_suites(selected)
    results = report.pop("_objects")
    for res in results:
        print(res.line())
    if args.report:
        payload = {"envelope": report["envelope"], "results": report["results"]}
        if _emit(json.dumps(payload, sort_keys=True, indent=1) + "\n", args.report) != EXIT_OK:
            return EXIT_CONFIG
    if report["results"]["passed"]:
        print("all hard criteria passed")
        return EXIT_OK
    print(f"hard criteria failed: {', '.join(report['results']['hard_failures'])}", file=sys.stderr)
    return EXIT_COMPUTE


def cmd_wavefunction(args) -> int:
    from . import oracle, radial
    try:
        scen = _scenario_from_args(args)
        j = as_half_integer(args.j, "j")
        grid = parse_grid_spec(args.grid)
        n = parse_radial_index(args.n)
        channel = args.channel or spectra.default_channels(scen, j)[0]
    except (ValueError, QuantumNumberError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        problem = radial.build_problem(scen, channel, j)
        if scen.potential == "none":
            if args.energy is None or float(args.energy) >= 0:
                raise radial.RadialError("the free reduced channel profile needs --energy E < 0")
            level = spectra.peculiar_flat_level(float(args.energy), scen)
        else:
            level = spectra.single_level(scen, j, n, channel)
        if not level.admissible:
            print(f"error: level inadmissible: {level.reason}", file=sys.stderr)
            return EXIT_COMPUTE
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
    except (radial.RadialError, spectra.SpectrumError, oracle.OracleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
