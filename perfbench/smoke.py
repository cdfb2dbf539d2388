"""Smoke test of the benchmark itself, at tiny workload sizes.

    python3 perfbench/smoke.py

Checks that every workload emits every metric named in BENCHMARK.json
with its unit and no failed op, that a corrupted artifact counts as a
failed op, and that the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
import unittest

import run
import workloads


def _spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Smoke(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = _spec()
        for name in workloads.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, _ = run.run_workload(name, seed=1, seconds=0, trace=trace, tiny=True)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in spec[key]})
                    self.assertEqual((result["correct"], result["failed"]), (True, 0))

    def test_layer_map_names_every_per_layer_metric(self):
        with open(run.BENCH_DIR / "layer_map.json", encoding="utf-8") as fh:
            layer_map = json.load(fh)
        names = {m["name"] for m in _spec()["per_layer"]}
        self.assertEqual({m for layer in layer_map.values() for m in layer}, names)

    def _corrupt(self, workload: str, command: str, artifact: str, old: str, new: str) -> dict:
        bench = run.Run(workload, seed=1, tiny=True)
        bench.measure(0, trace=False)
        self.assertEqual(bench.result(False)[0]["failed"], 0)
        path = bench.work / "out" / artifact
        text = path.read_text(encoding="utf-8")
        self.assertIn(old, text)
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        bench.ops.append({"command": command, "traced": False, "failures": bench.check(command)})
        return bench.result(False)[0]

    def test_corrupted_artifacts_count_as_failed_ops(self):
        cases = [
            # a report breaching a criterion-7 bound
            ("brusselator-loop", "effective-eq", "effective-eq/effective_eq.json",
             '"closed_loop_deviation": ', '"closed_loop_deviation": 1'),
            # a Lyapunov verdict flipped
            ("robertson-stiff", "ledger", "ledger/ledger.json", '"nonincreasing": true', '"nonincreasing": false'),
            # a conserved row that is no longer in the left kernel
            ("hypergraph-scan", "info", "info.stdout", "  [", "  [7, "),
            # bytes that differ from the first pass, bounds still met
            ("hypergraph-scan", "classify", "classify/classify.json", "{", "{ "),
        ]
        for workload, command, artifact, old, new in cases:
            with self.subTest(workload=workload, artifact=artifact):
                result = self._corrupt(workload, command, artifact, old, new)
                self.assertEqual((result["correct"], result["failed"]), (False, 1))

    def test_refuses_to_run_without_the_package(self):
        bare = run.WORK_ROOT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "robertson-stiff", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
