#!/usr/bin/env python3
"""Self-tests for compare.py: every verdict proven on synthetic results.

Run from the repository root:

  python3 -m unittest discover -s bench/pipeline -p "test_*.py"

Each test writes result files shaped like run.py's into a temporary
directory and checks the verdict compare.py reaches on them, under a
small spec with one lower-is-better and one higher-is-better metric.
"""

import io
import json
import os
import tempfile
import unittest

import compare

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}
LATENCY = SPEC["end_to_end"][0]
RATE = SPEC["end_to_end"][1]


def runs(values):
    """seed -> value, seeds 1..n."""
    return {seed: v for seed, v in enumerate(values, start=1)}


def result(seed, latency, rate=1000.0, **extra):
    r = {
        "workload": "w", "seed": seed, "trace": 0, "valid": True,
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"latency_us": {"value": latency, "unit": "us"},
                    "rate": {"value": rate, "unit": "1/s"}},
        "fingerprint": {"nproc": 4, "seed": seed, "cpu_model": "test"},
    }
    r.update(extra)
    return r


class VerdictTest(unittest.TestCase):
    def test_regression_beyond_bound(self):
        base = runs([100, 101, 99, 100, 100, 102, 98, 100, 101, 99])
        new = runs([115, 116, 114, 115, 115, 117, 113, 115, 116, 114])
        self.assertEqual(compare.verdict(base, new, LATENCY), "regression")

    def test_worse_within_bound_is_not_a_regression(self):
        base = runs([100, 101, 99, 100, 100, 102, 98, 100, 101, 99])
        new = runs([105, 106, 104, 105, 105, 107, 103, 105, 106, 104])
        self.assertEqual(compare.verdict(base, new, LATENCY), "unchanged")

    def test_higher_is_better_direction(self):
        base = runs([1000] * 5 + [1010] * 5)
        new = runs([850] * 5 + [860] * 5)
        self.assertEqual(compare.verdict(base, new, RATE), "regression")
        self.assertEqual(compare.verdict(new, base, RATE), "gain")

    def test_wide_spread_is_unresolved(self):
        base = runs([60, 80, 100, 120, 140, 60, 80, 100, 120, 140])
        new = runs([70, 90, 110, 130, 150, 70, 90, 110, 130, 150])
        self.assertEqual(compare.verdict(base, new, LATENCY), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base = runs([200, 250, 300, 350, 400])
        new = runs([50, 70, 90, 110, 130])
        self.assertEqual(compare.verdict(base, new, LATENCY), "better")

    def test_gain_needs_nine_of_ten_pair_wins(self):
        base = runs([100, 101, 99, 100, 100, 102, 98, 100, 101, 99])
        nine = runs([95, 96, 94, 95, 95, 97, 93, 95, 96, 100])
        self.assertEqual(compare.verdict(base, nine, LATENCY), "gain")
        # Two pairs lost: 8 of 10 is not enough.
        eight = runs([95, 96, 94, 95, 95, 97, 93, 95, 102, 100])
        self.assertEqual(compare.verdict(base, eight, LATENCY), "unchanged")

    def test_ties_count_for_neither_side(self):
        base = runs([100, 101, 99, 100, 100, 102, 98, 100, 101, 99])
        tied = dict(runs([95, 96, 94, 95, 95, 97, 93, 95, 96, 99]))
        tied[10] = base[10]
        self.assertEqual(compare.verdict(base, tied, LATENCY), "gain")
        tied[9] = base[9]
        self.assertEqual(compare.verdict(base, tied, LATENCY), "unchanged")

    def test_gain_must_exceed_base_quartile_distance(self):
        # Every pair won, but by less than BASE's own quartile distance.
        base = runs([100, 104, 96, 100, 104, 96, 100, 104, 96, 100])
        new = runs([99, 103, 95, 99, 103, 95, 99, 103, 95, 99])
        self.assertEqual(compare.verdict(base, new, LATENCY), "unchanged")


class FilesTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, side, name, obj):
        path = os.path.join(self.dir.name, side)
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, name), "w", encoding="utf-8") as f:
            json.dump(obj, f)
        return path

    def test_traced_and_chrome_trace_files_are_skipped(self):
        path = self.write("a", "w_seed1.json", result(1, 100))
        self.write("a", "w_seed2.json", result(2, 500, valid=False))
        self.write("a", "w_seed3.json", result(3, 500, trace=1))
        self.write("a", "trace_w.json", {"traceEvents": []})
        loaded = compare.load_results([path])
        self.assertEqual([r["seed"] for r in loaded], [1, 2])

    def test_compare_reports_and_counts_regressions(self):
        for seed in range(1, 6):
            base = self.write("base", f"{seed}.json", result(seed, 100 + seed))
            new = self.write("new", f"{seed}.json", result(seed, 150 + seed))
        out = io.StringIO()
        regressions = compare.compare(SPEC, compare.load_results([base]),
                                      compare.load_results([new]), out)
        self.assertEqual(regressions, 1)
        self.assertIn("latency_us", out.getvalue())
        self.assertIn("regression", out.getvalue())

    def test_summarize_keeps_shared_fingerprint_fields(self):
        results = [result(s, 100 + s) for s in range(1, 6)]
        results.append(result(6, 900, valid=False))
        summary = compare.summarize(SPEC, results)
        self.assertEqual(summary["fingerprint"],
                         {"nproc": 4, "cpu_model": "test"})
        entry = summary["workloads"]["w"]
        self.assertEqual(entry["runs"], 5)
        self.assertEqual(entry["latency_us"]["median"], 103)
        self.assertLessEqual(entry["latency_us"]["q1"], 103)
        self.assertGreaterEqual(entry["latency_us"]["q3"], 103)


class RunChecksTest(unittest.TestCase):
    """Run-level regressions: the metrics alone would pass all of these."""

    BASE = [result(s, 100 + s) for s in range(1, 6)]

    def compare(self, new, base=None):
        out = io.StringIO()
        regressions = compare.compare(SPEC, base or self.BASE, new, out)
        return regressions, out.getvalue()

    def test_same_runs_pass(self):
        regressions, _ = self.compare([result(s, 100 + s)
                                       for s in range(1, 6)])
        self.assertEqual(regressions, 0)

    def test_no_runs_on_one_side_is_a_regression(self):
        regressions, text = self.compare([])
        self.assertEqual(regressions, 1)
        self.assertIn("new: no valid runs  regression", text)

    def test_only_invalid_runs_on_one_side_is_a_regression(self):
        new = [result(s, 100 + s, valid=False) for s in range(1, 6)]
        regressions, text = self.compare(new)
        self.assertEqual(regressions, 1)
        self.assertIn("new: 5 invalid runs left out", text)
        self.assertIn("new: no valid runs  regression", text)

    def test_incorrect_run_is_a_regression(self):
        new = [result(s, 100 + s) for s in range(1, 6)]
        new[2]["correct"] = False
        regressions, text = self.compare(new)
        self.assertEqual(regressions, 1)
        self.assertIn("seeds [3] failed their output checks", text)

    def test_rising_failures_are_a_regression_and_refuse_a_gain(self):
        # Every run 10% faster than BASE's, but one in ten operations
        # now fails.
        new = [result(s, 0.9 * (100 + s), failed=1) for s in range(1, 6)]
        regressions, text = self.compare(new)
        self.assertEqual(regressions, 1)
        self.assertIn("failures rose  regression", text)
        self.assertNotIn("gain", text)
        self.assertNotIn("better", text)
        # The same speed-up without the failures is a gain.
        regressions, text = self.compare(
            [result(s, 0.9 * (100 + s)) for s in range(1, 6)])
        self.assertEqual(regressions, 0)
        self.assertIn("gain", text)


if __name__ == "__main__":
    unittest.main()
