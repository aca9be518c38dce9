"""The benchmark's own test, on tiny inputs.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that corrupted program output (a wrong E, a flipped criterion, a
nonzero exit code, output that differs between processes) is counted as a
failed operation rather than passing unnoticed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_tmp" / "test"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check_result(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(printed["value"]), m["name"])

    def test_end_to_end_metrics_on_every_workload(self):
        for w in MANIFEST["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
                result = last_json(proc)
                self.check_result(result, MANIFEST["end_to_end"])
                for m in MANIFEST["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0.0, m["name"])
                self.assertIn("error_rate", proc.stdout)

    def test_per_layer_metrics_on_every_workload(self):
        for w in MANIFEST["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny")
                result = last_json(proc)
                self.check_result(result, MANIFEST["per_layer"])
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                self.assertGreater(metrics["cli.import_s"], 0.0)
                if w["name"] == "validate-all":
                    self.assertGreater(metrics["oracle.fd_eigen.grid_points"], 0)
                    self.assertLessEqual(metrics["oracle.max_resolution"], 0.05)
                else:
                    self.assertGreater(metrics["spectra.single_level.calls"], 0)

    def test_fails_without_the_package_source(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "spectrum-deep", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class FailuresCounted(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_one_wrong_energy_fails_its_table(self):
        w = workloads.SpectrumDeep(seed=4, tiny=True, tmpdir=SCRATCH)
        real_main = w._main
        corrupted = []

        def main_with_one_wrong_row(argv):
            code = real_main(argv)
            if not corrupted and "csv" in argv:
                path = Path(argv[argv.index("--output") + 1])
                lines = path.read_text().splitlines()
                fields = lines[-1].split(",")
                fields[3] = repr(float(fields[3]) * (1 + 1e-9))
                lines[-1] = ",".join(fields)
                path.write_text("\n".join(lines) + "\n")
                corrupted.append(argv)
            return code

        w._main = main_with_one_wrong_row
        out = w.op(0)
        self.assertEqual(len(corrupted), 1)
        self.assertEqual(out.attempted, len(workloads.SPECTRUM_KINDS))
        self.assertEqual(len(out.problems), 1)

    def test_nonzero_exit_fails_its_table(self):
        w = workloads.SpectrumDeep(seed=4, tiny=True, tmpdir=SCRATCH)
        real_main = w._main

        def main_failing_json(argv):
            code = real_main(argv)
            return 2 if "json" in argv else code

        w._main = main_failing_json
        problems = [p for i in range(3) for p in w.op(i).problems]
        self.assertEqual(len(problems), len(workloads.SPECTRUM_KINDS))  # one json table per kind
        self.assertTrue(all("exit code 2" in p for p in problems))

    def test_nan_admissible_row_fails(self):
        spec = {"geometry": "flat", "potential": "coulomb", "k": "1", "j": "2", "mass": "1",
                "alpha": "1", "n_count": 2}
        rows = ["channel,j2,n,E,admissible,derivation,reason"]
        for (channel, n), (energy, _) in sorted(reference.expected_levels(spec).items()):
            rows.append(f"{channel},4,{n},{'nan' if n else repr(energy)},true,x,")
        problems = reference.check_spectrum(spec, "csv", 0, "\n".join(rows) + "\n")
        self.assertEqual(len(problems), 3)
        self.assertTrue(all("nan" in p for p in problems))

    def test_cli_nonzero_exit_and_drift_fail(self):
        w = workloads.CliCold(seed=4, tiny=True, tmpdir=SCRATCH)
        w.setup()
        bad = {"kind": "roots", "k": "1", "j": "1/3", "argv": ["roots", "--k", "1", "--j", "1/3"]}
        w.requests[0] = bad
        out = w.op(0)
        self.assertEqual(out.attempted, 1)
        self.assertEqual(len(out.problems), 1)
        self.assertIn("exit code 2", out.problems[0])

        req = w.requests[1]
        _, good = w.run(w.command(req))
        self.assertEqual(w.check(req, good), [])
        drifted = subprocess.CompletedProcess(req["argv"], 0, stdout=good.stdout + b" ", stderr=b"")
        self.assertIn("differs", w.check(req, drifted)[-1])

    def test_flipped_missing_or_extra_criterion_fails(self):
        w = workloads.ValidateAll(seed=4, tiny=True, tmpdir=SCRATCH)
        real = w._run_suites
        out = w.op(0)
        self.assertEqual(out.problems, [])
        self.assertEqual(out.attempted, 4)

        def flipped(order):
            report = real(order)
            report["results"]["criteria"][0]["passed"] = not report["results"]["criteria"][0]["passed"]
            return report

        w._run_suites = flipped
        self.assertEqual(len(w.op(1).problems), 1)

        def dropped_and_extra(order):
            report = real(order)
            crit = report["results"]["criteria"]
            crit[0] = dict(crit[0], id="99-made-up")
            return report

        w._run_suites = dropped_and_extra
        out = w.op(2)
        self.assertEqual(out.attempted, 5)
        self.assertEqual(len(out.problems), 2)

    def test_expected_failure_must_still_fail(self):
        crit = [{"id": cid, "passed": True} for cid in reference.SUITE_CRITERIA["lob-minj"]]
        attempted, problems = reference.check_criteria(["lob-minj"], crit)
        self.assertEqual(attempted, 2)
        self.assertEqual(len(problems), 1)
        self.assertIn("6-lob-minj-coulomb", problems[0])


class Predictions(unittest.TestCase):
    def test_every_layer_metric_has_a_prediction(self):
        predictions = json.loads((HERE / "predictions.json").read_text())
        e2e = {m["name"] for m in MANIFEST["end_to_end"]}
        names = {w["name"] for w in MANIFEST["workloads"]}
        predicted = set()
        for group in predictions["per_layer"]:
            predicted.update(group["metrics"])
            for target in group["moves"]:
                metric, _, workload = target.partition("@")
                self.assertIn(metric, e2e, target)
                self.assertIn(workload, names, target)
            self.assertLessEqual(set(group["unchanged"]), names)
        layer_names = {m["name"] for m in MANIFEST["per_layer"]}
        covered = {n for n in layer_names if n in predicted or n.rsplit(".", 1)[0] in predicted}
        self.assertEqual(covered, layer_names)
        self.assertEqual(set(predictions["workloads"]), names)


class Percentiles(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        samples = [float(i) for i in range(40)]
        value, pct = run.tail(samples)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertAlmostEqual(pct, 75.0)
        self.assertEqual(run.tail([1.0, 3.0, 2.0]), (3.0, 100.0))
        self.assertEqual(run.tail([float(i) for i in range(20)]), (19.0, 100.0))


if __name__ == "__main__":
    unittest.main()
