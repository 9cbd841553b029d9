"""Smoke test for the benchmark at a tiny input size.

    python3 -m unittest discover -s perfbench/tests      (or pytest perfbench/tests)

Every workload must print every metric ``BENCHMARK.json`` names, with its
unit, in both modes; a corrupted tree text must count as a failed replan;
and without the program beside it the benchmark must fail without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", trace, "--size", "tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, {m["name"]: m["unit"] for m in SPEC[listed]})

    def test_corrupted_tree_text_counts_as_a_failure(self):
        sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
        import workloads

        scale = workloads.SCALES["tiny"]
        text = workloads.build_pool_round(5, 0, scale)[0]
        world = workloads.pool_member(5, 0, 0, scale)[0]
        lines = text.splitlines(keepends=True)
        unreadable = "".join(lines[:3] + [lines[3].replace(" ", " x", 1)] + lines[4:])
        # Loads, but the root now has fewer visits than its children together.
        fields = lines[1].split()
        fields[3] = str(int(fields[3]) - 1)
        inconsistent = "".join(lines[:1] + [" ".join(fields) + "\n"] + lines[2:])
        pool = [(text, world), (unreadable, world), (inconsistent, world)]
        phase = workloads.Phase()
        op = workloads.replan_op(pool, seed=1)
        for index in range(len(pool)):  # one pass over the pool
            op(phase, index)
        self.assertEqual(phase.attempted, 3)
        self.assertEqual(phase.failed, 2, phase.problems)

    def test_fails_without_the_program(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
