#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the driver (as run.py does) and checks, for every workload:
  * determinism: two untraced runs and one traced run of one seed give
    identical simulated results, and the next seed gives a different
    arrival stream (the driver's --selftest);
  * the result line carries exactly the metrics BENCHMARK.json declares,
    with their units, in both modes.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = [w["name"] for w in
             json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
DEV_SEED = 1


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(run.build())

    def test_same_seed_same_results_traced_or_not(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = subprocess.run(
                    [self.binary, "--selftest", "--workload", workload,
                     "--seed", str(DEV_SEED)],
                    capture_output=True, text=True, timeout=600)
                self.assertEqual(done.returncode, 0, done.stderr)

    def test_result_line_matches_declaration(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [self.binary, "--workload", workload, "--seed",
                         str(DEV_SEED), "--seconds", "0.1", "--trace",
                         str(trace)],
                        capture_output=True, text=True, timeout=600)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    last = done.stdout.strip().splitlines()[-1]
                    run.check_result(last, trace == 1)
                    result = json.loads(last)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
