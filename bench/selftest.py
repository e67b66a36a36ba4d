"""Self-test of the benchmark on reduced-size workloads.

Run from the repository root: ``python3 bench/selftest.py`` (about a
minute). It checks that every metric named in BENCHMARK.json is produced,
that a corrupted CSV byte is counted as a failed sample, that the tracer
tolerates a target the program no longer has, and that the benchmark
refuses to run without the program's source.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _flip_byte(workdir: Path, name: str = "throughput.csv") -> None:
    path = workdir / name
    data = bytearray(path.read_bytes())
    offset = len(data) // 2
    data[offset] = ord("7") if data[offset] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


class ReducedWorkloads(unittest.TestCase):
    def test_every_declared_metric_is_emitted(self):
        for trace in (False, True):
            declared = {m["name"]: m["unit"] for m in run.declared_metrics(trace)}
            for name in run.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result = run.run_workload(name, 1, 0.1, trace, reduced=True)
                    self.assertEqual(result["failed"], 0, result["errors"])
                    metrics = result["metrics"]
                    missing = sorted(set(declared) - set(metrics))
                    self.assertEqual(missing, [], "metrics not computed")
                    for key in declared:
                        self.assertTrue(math.isfinite(metrics[key]), key)
                    if not trace:
                        self.assertTrue(all(metrics[k] > 0 for k in declared))

    def test_setup_readings_and_paces(self):
        result = run.run_workload("planning", 1, 0.1, False, reduced=True)
        self.assertEqual(result["failed"], 0, result["errors"])
        for sample in result["samples"]:
            calls = 3 if sample["timed"] else 0  # one set-up-only child per call
            self.assertEqual(len(sample["setups_s"]), 3 + calls)
            self.assertEqual(len(sample["setup_paces"]), len(sample["setups_s"]))
            self.assertEqual(len(sample["step_paces"]), 3)
            self.assertTrue(all(p > 0 for p in sample["step_paces"] + sample["setup_paces"]))

    def test_calibration_restores_cpu_affinity(self):
        before = run.os.sched_getaffinity(0)
        self.assertGreater(run.calibrate(), 0)
        self.assertEqual(run.os.sched_getaffinity(0), before)

    def test_drop_tail_level_does_not_depend_on_sample_count(self):
        self.assertEqual(run._tail_level(run.TAIL_POOL_SAMPLES * 500), 99)
        self.assertEqual(run._tail_level(run.TAIL_POOL_SAMPLES * 20), 75)

    def test_flipped_byte_in_a_repeat_counts_as_failure(self):
        def tamper(index, workdir):
            if index == 1:
                _flip_byte(workdir)

        result = run.run_workload("case_study", 1, 0.1, False, reduced=True, tamper=tamper)
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_flipped_byte_against_recorded_digest_counts_as_failure(self):
        clean = run.run_workload("dense_m1024", 1, 0.1, False, reduced=True)
        self.assertEqual(clean["failed"], 0, clean["errors"])

        def tamper(index, workdir):
            if index == 0:
                _flip_byte(workdir)

        result = run.run_workload("dense_m1024", 1, 0.1, False, reduced=True,
                                  expected=clean["digests"], tamper=tamper)
        self.assertEqual(result["failed"], result["attempted"])

    def test_invariants_reject_non_finite_values(self):
        spec = run.workload_steps("case_study", 1, reduced=True)[0].outputs["throughput.csv"]
        header = ",".join(spec.columns)
        row = "udn,bbof,16,8,3,1.0,nan,0.0"
        errors = run.check_csv(f"{header}\n{row}\n".encode(), spec)
        self.assertTrue(any("not finite" in e for e in errors), errors)


class Tracer(unittest.TestCase):
    def test_missing_target_is_skipped(self):
        sys.path.insert(0, str(run.SRC))
        import layertrace

        saved = dict(layertrace.METHOD_TARGETS)
        layertrace.METHOD_TARGETS["geometry.gone"] = "geometry.NetworkLayout.gone"
        try:
            tracer = layertrace.install()
        finally:
            layertrace.METHOD_TARGETS.clear()
            layertrace.METHOD_TARGETS.update(saved)
        self.assertNotIn("geometry.gone", tracer.wrapped)
        self.assertIn("geometry.distance_matrix", tracer.wrapped)
        self.assertIn("sweeps.run_throughput_sweep", tracer.wrapped)


class WithoutProgram(unittest.TestCase):
    def test_refuses_to_run_without_source(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH_DIR, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "case_study", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        with self.assertRaises(ValueError):
            json.loads(last)


if __name__ == "__main__":
    unittest.main(verbosity=2)
