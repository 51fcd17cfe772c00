#!/usr/bin/env python3
"""Drives tools/perf_gate.py over the fixture table in tests/perf_gate/.

Every fixture gate copies a checked-in results file, so each case pins one
verdict: a pass at just under each bound, a regression of each metric kind
(lower at 1.30x, higher at 0.70x, a failed `min`, a ratio below its `min`),
a missing metric, a non-zero exit and malformed results JSON.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(os.path.dirname(HERE), "tools", "perf_gate.py")


class PerfGateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.build = os.path.join(tmp.name, "build")
        shutil.copytree(os.path.join(HERE, "perf_gate"), self.build)
        self.table = os.path.join(self.build, "table.json")

    def gate(self, mode, *gates):
        """Runs the comparator over the fixture gates named (all if none)."""
        with open(self.table) as f:
            table = json.load(f)
        table["gates"] = [g for g in table["gates"] if not gates or g["name"] in gates]
        with open(self.table, "w") as f:
            json.dump(table, f)
        return subprocess.run(
            [sys.executable, GATE, mode, "--table", self.table, "--build", self.build],
            capture_output=True, text=True)

    def verdicts(self, *gates):
        run = self.gate("check", *gates)
        self.assertNotIn("Traceback", run.stderr)
        return run.returncode, [l for l in run.stdout.splitlines()
                                if l.startswith(("perf_gate: ok", "perf_gate: FAIL"))]

    def assert_fails(self, gate, message):
        status, lines = self.verdicts(gate)
        self.assertEqual(status, 1, lines)
        self.assertEqual(len(lines), 1, lines)
        self.assertTrue(lines[0].startswith(f"perf_gate: FAIL {gate} "), lines)
        self.assertIn(message, lines[0])

    def test_pass_just_under_every_bound(self):
        status, lines = self.verdicts("pass", "pass_flat")
        self.assertEqual(status, 0, lines)
        self.assertEqual(len(lines), 6, lines)
        self.assertTrue(all(l.startswith("perf_gate: ok") for l in lines), lines)
        self.assertIn("bm_search_indexed/4 = 11.9 us", lines[0])
        self.assertIn("4 values", lines[0])  # 2 runs x 2 repetitions

    def test_lower_metric_at_130_percent_fails(self):
        self.assert_fails("lower_regressed", "= 13 us (<= 12:")

    def test_higher_metric_at_70_percent_fails(self):
        self.assert_fails("higher_regressed", "= 1.4 x (>= 1.6:")

    def test_failed_min_check_fails(self):
        self.assert_fails("min_failed", "kills = 4 count (>= 5")

    def test_ratio_below_min_fails(self):
        self.assert_fails("ratio_below_min", "= 1.4 x (>= 1.5")

    def test_missing_metric_fails(self):
        self.assert_fails("missing_metric", "metric p95_ms missing from results")

    def test_nonzero_exit_fails(self):
        self.assert_fails("nonzero_exit", "exited with status 3")

    def test_malformed_json_fails_with_one_line(self):
        self.assert_fails("malformed_json", "is not JSON")

    def test_any_failing_gate_fails_the_table(self):
        status, lines = self.verdicts()
        self.assertEqual(status, 1)
        self.assertEqual(sum(l.startswith("perf_gate: ok") for l in lines), 6)

    def test_capture_rewrites_captured_values_and_context(self):
        run = self.gate("capture", "pass", "pass_flat")
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        with open(self.table) as f:
            captured = json.load(f)
        metrics = captured["gates"][0]["metrics"] + captured["gates"][1]["metrics"]
        self.assertEqual([m.get("captured") for m in metrics],
                         [11.9, 0.33, None, 1.19, None, 1.62])
        context = captured["context"]
        self.assertEqual(context["runs"]["pass"], "2 processes x 2 repetitions")
        self.assertEqual(context["library_build_type"], "release")
        for key in ("nproc", "load_avg_1m", "date", "commit"):
            self.assertIn(key, context)


if __name__ == "__main__":
    unittest.main()
