"""Run-to-run spread of the benchmark, and the baseline it records.

    python3 perfbench/spread.py --workloads spectrum-deep cli-cold validate-all --seeds 1-10
    python3 perfbench/spread.py --workloads validate-all --seeds 1-10 --trace --out baseline.json

Runs `perfbench/run.py` once per (workload, seed), one run at a time, with
the run length from BENCHMARK.json, and prints for every metric its median,
quartiles (`statistics.quantiles(values, n=4)`) and the IQR as a share of
the median next to the metric's bound. With `--out` the summary is written
as JSON, which is how perfbench/baseline.json is produced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, env) of one run: its last JSON line and its '# env' line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations\n{proc.stdout}")
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return result, env


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    summary: dict = {"run_seconds": manifest["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in seed_range(args.seeds):
            result, env = run_once(workload, seed, manifest["run_seconds"], 0)
            summary["env"] = {k: v for k, v in env.items() if k != "seed"}
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {"end_to_end": {}}
        for name, vals in values.items():
            stats = summarize(vals)
            entry["end_to_end"][name] = stats
            print(f"{workload:<14} {name:<12} median {stats['median']:<12.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"iqr/median {stats['iqr_over_median']:.4f} (bound {bounds[name]})", flush=True)
        if args.trace:
            seed = seed_range(args.seeds)[0]
            traced, _ = run_once(workload, seed, manifest["run_seconds"], 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["per_layer_seed"] = seed
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
