#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py — the gate every bench lane
funnels through. Covers: clean pass, gated-field drift, benchmark-set
mismatch, gating only the baseline's gated_fields, malformed inputs
(exit 2, a missing gated_fields among them), and the
--allow-missing-baseline bootstrap path.

Run directly (python3 scripts/test_check_bench_regression.py) or via the
ctest entry `check_bench_regression_py`.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402


def bench_doc(rows, gated_fields=("swaps", "makespan", "cycles"),
              total_wall_ms=None):
    """A bench JSON document; gated_fields=None leaves the array out."""
    doc = {"results": rows}
    if gated_fields is not None:
        doc["gated_fields"] = gated_fields
    if total_wall_ms is not None:
        doc["summary"] = {"total_wall_ms": total_wall_ms}
    return doc


class GateHarness(unittest.TestCase):
    """Runs gate.main() against JSON docs written to a temp directory."""

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory(prefix="codar_gate_test_")
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if isinstance(doc, str):
                f.write(doc)  # raw bytes for malformed-input cases
            else:
                json.dump(doc, f)
        return path

    def missing(self, name):
        return os.path.join(self._dir.name, name)

    def run_gate(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gate.main(["check_bench_regression.py", *argv])
            except SystemExit as e:  # load() exits directly on bad input
                code = e.code
        return code, out.getvalue(), err.getvalue()


class CleanRuns(GateHarness):
    def test_identical_docs_pass(self):
        rows = [{"name": "a", "swaps": 3, "makespan": 70, "cycles": 9}]
        base = self.write("base.json", bench_doc(rows))
        cand = self.write("cand.json", bench_doc(rows))
        code, out, _ = self.run_gate(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("no drift", out)

    def test_ungated_fields_may_differ(self):
        base = self.write("base.json", bench_doc(
            [{"name": "a", "swaps": 3, "makespan": 70, "cycles": 9,
              "wall_ms": 10.0}], total_wall_ms=100.0))
        cand = self.write("cand.json", bench_doc(
            [{"name": "a", "swaps": 3, "makespan": 70, "cycles": 9,
              "wall_ms": 99.0}], total_wall_ms=900.0))
        code, out, _ = self.run_gate(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("informational", out)  # wall time printed, not gating

    def test_multiple_pairs_in_one_invocation(self):
        rows = [{"name": "a", "swaps": 1, "makespan": 2, "cycles": 3}]
        b1 = self.write("b1.json", bench_doc(rows))
        c1 = self.write("c1.json", bench_doc(rows))
        b2 = self.write("b2.json", bench_doc(rows))
        c2 = self.write("c2.json", bench_doc(rows))
        code, out, _ = self.run_gate(b1, c1, b2, c2)
        self.assertEqual(code, 0)
        self.assertIn("2 pair(s)", out)


class DriftDetection(GateHarness):
    def test_only_the_baselines_gated_fields_are_checked(self):
        # With gated_fields = ["disk_hits"], swaps drift is ignored but
        # disk_hits drift fails — the serve-bench warm-start contract.
        base = self.write("base.json", bench_doc(
            [{"name": "warm", "swaps": 3, "disk_hits": 121}],
            gated_fields=["disk_hits"]))
        cand_ok = self.write("cand_ok.json", bench_doc(
            [{"name": "warm", "swaps": 99, "disk_hits": 121}]))
        code, _, _ = self.run_gate(base, cand_ok)
        self.assertEqual(code, 0)

        cand_bad = self.write("cand_bad.json", bench_doc(
            [{"name": "warm", "swaps": 3, "disk_hits": 120}]))
        code, out, _ = self.run_gate(base, cand_bad)
        self.assertEqual(code, 1)
        self.assertIn("disk_hits 121 -> 120", out)

    def test_missing_gated_field_in_candidate_is_drift(self):
        base = self.write("base.json", bench_doc(
            [{"name": "a", "swaps": 3, "makespan": 70, "cycles": 9}]))
        cand = self.write("cand.json", bench_doc(
            [{"name": "a", "swaps": 3, "makespan": 70}]))
        code, out, _ = self.run_gate(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("cycles 9 -> None", out)

    def test_benchmark_set_mismatch_fails_both_ways(self):
        base = self.write("base.json", bench_doc(
            [{"name": "a", "swaps": 1}, {"name": "b", "swaps": 2}]))
        cand = self.write("cand.json", bench_doc(
            [{"name": "a", "swaps": 1}, {"name": "c", "swaps": 3}]))
        code, out, _ = self.run_gate(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("b: missing from candidate run", out)
        self.assertIn("c: not in baseline", out)


class MalformedInputs(GateHarness):
    def test_malformed_json_exits_2(self):
        base = self.write("base.json", "{not json")
        cand = self.write("cand.json", bench_doc([{"name": "a"}]))
        code, _, err = self.run_gate(base, cand)
        self.assertEqual(code, 2)
        self.assertIn("cannot read", err)

    def test_missing_results_array_exits_2(self):
        base = self.write("base.json", {"summary": {}})
        cand = self.write("cand.json", bench_doc([{"name": "a"}]))
        code, _, err = self.run_gate(base, cand)
        self.assertEqual(code, 2)
        self.assertIn("no 'results' array", err)

    def test_missing_gated_fields_exits_2(self):
        # No default set of gated fields: a baseline must name its own.
        row = {"name": "a", "swaps": 3, "makespan": 70, "cycles": 9}
        base = self.write("base.json", bench_doc([row], gated_fields=None))
        cand = self.write("cand.json", bench_doc([row]))
        code, _, err = self.run_gate(base, cand)
        self.assertEqual(code, 2)
        self.assertIn("no 'gated_fields' array", err)

    def test_malformed_gated_fields_exits_2(self):
        for bad in ([], [7], "swaps", [None]):
            base = self.write("base.json", bench_doc(
                [{"name": "a", "swaps": 1}], gated_fields=bad))
            cand = self.write("cand.json", bench_doc(
                [{"name": "a", "swaps": 1}]))
            code, _, err = self.run_gate(base, cand)
            self.assertEqual(code, 2, repr(bad))
            self.assertIn("malformed 'gated_fields'", err)

    def test_bad_invocation_exits_2(self):
        base = self.write("base.json", bench_doc([{"name": "a"}]))
        for argv in ((), (base,), (base, base, base)):  # odd arg counts
            code, _, _ = self.run_gate(*argv)
            self.assertEqual(code, 2, argv)


class MissingBaseline(GateHarness):
    def test_missing_baseline_fails_by_default(self):
        cand = self.write("cand.json", bench_doc([{"name": "a"}]))
        code, _, err = self.run_gate(self.missing("base.json"), cand)
        self.assertEqual(code, 2)
        self.assertIn("cannot read", err)

    def test_allow_missing_baseline_bootstraps(self):
        cand = self.write("cand.json", bench_doc([{"name": "a"}]))
        code, out, _ = self.run_gate(
            "--allow-missing-baseline", self.missing("base.json"), cand)
        self.assertEqual(code, 0)
        self.assertIn("bootstrap", out)

    def test_allow_missing_still_gates_existing_baselines(self):
        # The flag skips ABSENT baselines only; a present-but-drifting
        # pair in the same invocation still fails.
        base = self.write("base.json", bench_doc([{"name": "a", "swaps": 1}]))
        cand = self.write("cand.json", bench_doc([{"name": "a", "swaps": 2}]))
        code, out, _ = self.run_gate(
            "--allow-missing-baseline",
            self.missing("new_base.json"), cand, base, cand)
        self.assertEqual(code, 1)
        self.assertIn("swaps 1 -> 2", out)

    def test_allow_missing_with_malformed_existing_baseline_still_fails(self):
        base = self.write("base.json", "][")
        cand = self.write("cand.json", bench_doc([{"name": "a"}]))
        code, _, _ = self.run_gate("--allow-missing-baseline", base, cand)
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
