"""Benchmark entry point.

    python3 perfbench/run.py --workload spectrum-deep --seed 1 --seconds 30 --trace 0

Runs one workload (spectrum-deep, cli-cold or validate-all) from the root of
a source checkout, with the package imported from `src/`. With `--trace 0`
it times operations for `--seconds` and reports the end-to-end metrics; with
`--trace 1` it runs one fixed unit of work untraced and then traced, and
reports the per-layer metrics and the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported: one BLAS thread, no package thread pool.
os.environ.pop("MONOPOLE_SPECTRA_THREADS", None)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
IMPORT_PROBES = 3
CLI_TRACE_REQUESTS = 8

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it. Below 21 samples that percentile would not be above
    the median, so the maximum (percentile 100) is reported instead."""
    xs = sorted(samples)
    if len(xs) < 21:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "grid_points", "rhs_evals", "distinct_keys")):
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith(".reuse"):
        return "calls/key"
    if name == "oracle.max_resolution":
        return "dimensionless"
    return "s"


def environment(seed: int) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(args) -> float:
    """Seconds from spawning a fresh benchmark process to the point where it
    would start its first timed operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def probe_import(env: dict) -> float:
    """Seconds a fresh interpreter takes to import monopole_spectra.cli."""
    code = ("import time; t = time.perf_counter(); import monopole_spectra.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, args) -> tuple[dict, dict, list[str], int]:
    """Time operations for `args.seconds`: the next one starts only while the
    median so far still fits, so a run does not overshoot by a whole op.
    The set-up probes are spread over the run, between operations and off
    its clock, so that they sample the same stretch of machine time."""
    samples, work, attempted, problems, setup = [], 0, 0, [], []
    start = time.perf_counter()
    probing = 0.0

    def elapsed() -> float:
        return time.perf_counter() - start - probing

    while len(samples) < workload.min_ops or elapsed() + statistics.median(samples) <= args.seconds:
        if len(setup) < SETUP_PROBES and elapsed() >= len(setup) * args.seconds / SETUP_PROBES:
            t0 = time.perf_counter()
            setup.append(probe_setup(args))
            probing += time.perf_counter() - t0
        out = workload.op(len(samples))
        samples.append(out.seconds)
        work += out.work
        attempted += out.attempted
        problems += out.problems
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args))
    rss = peak_rss_mb(workload)
    tail_s, tail_pct = tail(samples)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "work_per_s": work / sum(samples),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_s,
    }
    details = {
        "operations": len(samples),
        workload.unit_label: work,
        "tail_percentile": tail_pct,
        "op_samples_s": samples,
        "setup_samples_s": setup,
    }
    return metrics, details, problems, attempted


def traced_unit(workload, tracer, traced: bool) -> tuple[float, int, list[str]]:
    """Run the workload's fixed unit of work; returns (wall s, attempted, problems)."""
    if workload.name == "cli-cold":
        return traced_cli_unit(workload, tracer, traced)
    with tracer if traced else contextlib.nullcontext():
        out = workload.op(0)
    return out.seconds, out.attempted, out.problems


def traced_cli_unit(workload, tracer, traced: bool) -> tuple[float, int, list[str]]:
    wall, problems = 0.0, []
    for i, req in enumerate(workload.requests[:CLI_TRACE_REQUESTS]):
        spans_path = workload.tmpdir / f"spans{i}.json"
        cmd = workload.command(req)
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *req["argv"]]
        seconds, proc = workload.run(cmd)
        wall += seconds
        problems += [f"{' '.join(req['argv'])}: {p}" for p in workload.check(req, proc)[:1]]
        if traced and spans_path.exists():
            tracer.extend(json.loads(spans_path.read_text(encoding="utf-8")))
            spans_path.unlink()
    return wall, min(CLI_TRACE_REQUESTS, len(workload.requests)), problems


def traced_run(workload, args) -> tuple[dict, dict, list[str], int]:
    from tracer import Tracer
    from workloads import SUITES, child_env

    import_s = statistics.median(probe_import(child_env()) for _ in range(IMPORT_PROBES))
    tracer = Tracer()
    untraced_s, attempted_a, problems_a = traced_unit(workload, tracer, traced=False)
    timing = dict(getattr(workload, "last_timing", {}))
    traced_s, attempted_b, problems_b = traced_unit(workload, tracer, traced=True)
    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = import_s
    for suite in SUITES:
        metrics[f"validate.suite.{suite}.s"] = float(timing.get(suite, 0.0))
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"trace-{workload.name}.jsonl"
    tracer.write(spans_file)
    details = {"absent": tracer.absent, "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, details, problems_a + problems_b, attempted_a + attempted_b


def report(workload, args, metrics: dict, units: dict, details: dict, attempted: int,
           problems: list[str]) -> None:
    print(f"# env {json.dumps(environment(args.seed), sort_keys=True)}")
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    failed = len(problems)
    print(f"  {'error_rate':<46} {failed / attempted:>14.6g} ({failed} failed / {attempted} attempted)")
    if not args.trace:
        print(f"  {ALIASES[workload.name]}")
    print(f"# details {json.dumps(details, sort_keys=True)}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


ALIASES = {
    "spectrum-deep": "levels_per_s = work_per_s; op = one round of 4 tables",
    "cli-cold": "cli_p50_s = op_p50_s, cli_tail_s = op_tail_s; op = one CLI process",
    "validate-all": "validate_s = op_p50_s; op = one checked pass over the suites",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "monopole_spectra" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, tmp)
        workload.setup()
        if args.setup_only:
            print(time.monotonic())
            return 0
        if args.trace:
            metrics, details, problems, attempted = traced_run(workload, args)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, details, problems, attempted = timed_run(workload, args)
            units = E2E_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    report(workload, args, metrics, units, details, attempted, problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
