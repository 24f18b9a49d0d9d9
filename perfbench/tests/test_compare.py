"""Tests of the paired-comparison verdicts (perfbench/compare.py).

Run: python3 perfbench/run.py --self-test
"""
import io
import json
import statistics
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value(self):
        self.assertEqual(compare.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_relative_spread(self):
        # quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(compare.relative_spread(range(1, 11)), 1.0)
        self.assertEqual(compare.relative_spread([0.0, 0.0, 0.0]), 0.0)


class VerdictTest(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_clear_gain_is_improved(self):
        change = [v * 1.10 for v in self.base]
        result, d = compare.verdict(self.base, change, "higher", 0.05)
        self.assertEqual(result, "improved")
        self.assertEqual(d["wins"], 10)

    def test_gain_in_the_lower_direction(self):
        change = [v * 0.90 for v in self.base]
        self.assertEqual(compare.verdict(self.base, change, "lower", 0.05)[0],
                         "improved")
        self.assertEqual(compare.verdict(self.base, change, "higher", 0.05)[0],
                         "worse")

    def test_eight_wins_of_ten_is_not_a_gain(self):
        change = [v * 1.02 for v in self.base]
        change[0] = self.base[0] * 0.99
        change[1] = self.base[1] * 0.99
        result, d = compare.verdict(self.base, change, "higher", 0.05)
        self.assertEqual(d["wins"], 8)
        self.assertEqual(result, "within bound")

    def test_ties_count_for_neither_side(self):
        result, d = compare.verdict(self.base, list(self.base), "higher", 0.05)
        self.assertEqual((d["wins"], d["losses"]), (0, 0))
        self.assertEqual(result, "within bound")

    def test_small_loss_is_within_bound(self):
        change = [v * 0.97 for v in self.base]
        self.assertEqual(compare.verdict(self.base, change, "higher", 0.05)[0],
                         "within bound")

    def test_wide_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        change = [v * 0.98 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "higher", 0.05)[0],
                         "unresolved")

    def test_wide_spread_but_every_change_run_better(self):
        noisy = [60.0, 70.0, 80.0, 90.0, 95.0, 60.0, 70.0, 80.0, 90.0, 95.0]
        change = [200.0, 300.0, 250.0, 220.0, 280.0, 210.0, 260.0, 240.0,
                  230.0, 270.0]
        self.assertEqual(compare.verdict(noisy, change, "higher", 0.05)[0],
                         "improved")

    def test_wide_spread_but_every_change_run_worse(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        change = [v / 4.0 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "higher", 0.05)[0],
                         "worse")

    def test_one_failed_run_makes_an_exact_metric_worse(self):
        ok = [1.0] * 10
        change = [1.0] * 9 + [0.9]
        self.assertEqual(compare.verdict(ok, change, "higher", 0.001)[0],
                         "worse")
        self.assertEqual(compare.verdict(ok, list(ok), "higher", 0.001)[0],
                         "within bound")

    def test_needs_paired_runs(self):
        with self.assertRaises(ValueError):
            compare.verdict([1.0], [1.0, 2.0], "higher", 0.1)


FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open("../order.log", "a") as f:
    f.write("{side} %s %d\\n" % (args["--seconds"], seed))
if seed in {crash_seeds}:
    sys.exit(1)
failed = 1 if seed in {fail_seeds} else 0
rate = {rate} + seed % 3
print("some human-readable line")
print(json.dumps({{"correct": not failed, "attempted": 10, "failed": failed,
    "metrics": {{
    "units_per_s": {{"value": rate, "unit": "units/s"}},
    "setup_s": {{"value": 1.0, "unit": "s"}},
    "ok_share": {{"value": 1 - failed / 10, "unit": "ratio"}}}}}}))
"""

SPEC = {"run_seconds": 7,
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": 0.25},
            {"name": "units_per_s", "unit": "units/s",
             "better": "higher", "bound": 0.1},
            {"name": "ok_share", "unit": "ratio", "better": "higher",
             "bound": 0.001}]}


class MainTest(unittest.TestCase):
    def compare(self, change_rate=150, fail_seeds=(), crash_seeds=()):
        """Runs compare.main on two fake checkouts; returns (exit code,
        verdicts by metric, order log lines)."""
        with tempfile.TemporaryDirectory() as tmp:
            sides = {}
            for side, rate in (("base", 100), ("change", change_rate)):
                d = Path(tmp) / side
                (d / "perfbench").mkdir(parents=True)
                (d / "BENCHMARK.json").write_text(json.dumps(SPEC))
                (d / "perfbench" / "run.py").write_text(FAKE_RUN.format(
                    side=side, rate=rate,
                    fail_seeds=set(fail_seeds) if side == "change" else set(),
                    crash_seeds=set(crash_seeds) if side == "change"
                    else set()))
                sides[side] = d
            out_json = Path(tmp) / "verdicts.json"
            argv = ["compare.py", str(sides["base"]), str(sides["change"]),
                    "--json", str(out_json)]
            old_argv, sys.argv = sys.argv, argv
            try:
                with redirect_stdout(io.StringIO()), \
                        redirect_stderr(io.StringIO()):
                    code = compare.main()
            finally:
                sys.argv = old_argv
            out = json.loads(out_json.read_text())
            report = {r["metric"]: r for r in out["verdicts"]}
            order = (Path(tmp) / "order.log").read_text().splitlines()
            return code, report, order, out["failed"]

    def test_runs_alternating_pairs_and_reports_verdicts(self):
        code, report, order, failed = self.compare()
        self.assertEqual((code, failed), (0, []))
        self.assertEqual(report["units_per_s"]["verdict"], "improved")
        self.assertEqual(report["units_per_s"]["wins"], 10)
        self.assertEqual(report["setup_s"]["verdict"], "within bound")
        self.assertEqual(report["ok_share"]["verdict"], "within bound")
        # Pairs share a seed, the side that goes first alternates, and
        # every run lasts BENCHMARK.json's run_seconds.
        expected = []
        for i in range(10):
            pair = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            expected += [f"{side} 7 {1000 + i}" for side in pair]
        self.assertEqual(order, expected)

    def test_failed_output_checks_are_worse_and_fail_the_comparison(self):
        code, report, _, failed = self.compare(fail_seeds=(1003,))
        self.assertEqual(code, 1)
        self.assertEqual(len(failed), 1)
        self.assertEqual(report["ok_share"]["verdict"], "worse")
        self.assertEqual(report["units_per_s"]["verdict"], "improved")

    def test_run_without_result_is_worse_and_fails_the_comparison(self):
        code, report, order, failed = self.compare(crash_seeds=(1005,))
        self.assertEqual(code, 1)
        self.assertEqual(len(failed), 1)
        self.assertEqual(len(order), 20)
        self.assertTrue(all(r["verdict"] == "worse" for r in report.values()))


if __name__ == "__main__":
    unittest.main()
