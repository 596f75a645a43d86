#!/usr/bin/env python3
"""The benchmark's own tests: python3 rocobench/test_rocobench.py

Builds rocobench like run.py does, then checks the correctness gate,
seed handling, environment refusal and run.py's metric tables.
"""
import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_py(*args, cwd=run.ROOT, env=None):
    return subprocess.run([sys.executable, "rocobench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


class RocobenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(set(run.load_golden()), set(run.WORKLOADS))

    def test_perturbed_golden_is_caught(self):
        sample = run.child("run", "--workload", "open_lowload", "--seed",
                           str(run.DEFAULT_SEED))
        golden = run.load_golden()["open_lowload"]
        self.assertEqual(run.check_jobs(sample, golden, "golden"), 0)

        perturbed = copy.deepcopy(golden)
        name = next(iter(perturbed))
        perturbed[name] = "%016x" % (int(perturbed[name], 16) ^ 1)
        self.assertEqual(run.check_jobs(sample, perturbed, "golden"), 1)

    def test_seed_sets_inputs_and_statistics(self):
        def digests(seed):
            s = run.child("run", "--workload", "closed_faults", "--seed",
                          str(seed))
            return s["inputs"], [j["digest"] for j in s["jobs"]]

        inputs1, stats1 = digests(1)
        again = digests(1)
        inputs2, stats2 = digests(run.HELD_OUT_SEED)
        self.assertEqual((inputs1, stats1), again)
        self.assertNotEqual(inputs1, inputs2)
        for a, b in zip(stats1, stats2):
            self.assertNotEqual(a, b)

    def test_traced_run_reproduces_untraced(self):
        spans = run.BUILD / "selftest_spans.csv"
        s = run.child("trace", "--workload", "mesh16_sharded", "--seed",
                      str(run.DEFAULT_SEED), "--spans", str(spans))
        self.assertEqual(s["failed"], 0)
        self.assertTrue(s["spans_written"])
        self.assertEqual(set(s["layers"]), set(run.PER_LAYER))
        self.assertGreater(spans.stat().st_size, 0)
        spans.unlink()

    def test_refuses_measurement_changing_environment(self):
        for var in ("NOC_SKIP_CHECK", "NOC_SHARDS", "NOC_TRACE_OUT",
                    "NOC_BENCH_WARMUP"):
            env = dict(os.environ, **{var: "1"})
            p = run_py("--workload", "open_lowload", "--seconds", "1",
                       env=env)
            self.assertNotEqual(p.returncode, 0, var)
            self.assertNotIn('"correct"', p.stdout, var)

    def test_fails_without_the_repository(self):
        bare = run.BUILD / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "rocobench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run_py("--workload", "open_lowload", "--seconds", "1", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
