"""BENCHMARK.json must describe what certquic_perfbench actually prints.

Checks the metric names, units and order in BENCHMARK.json against the
tables in src/workloads.cpp, and the bounds against the benchmark's
rules. Run: python3 perfbench/run.py --self-test
"""
import json
import re
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
SOURCE = (BENCH_DIR / "src" / "workloads.cpp").read_text()


@unittest.skipUnless(SPEC_PATH.exists(), "no BENCHMARK.json beside perfbench/")
class SpecTest(unittest.TestCase):
    spec = json.loads(SPEC_PATH.read_text()) if SPEC_PATH.exists() else {}

    def test_per_layer_table_matches_source(self):
        in_source = re.findall(r'metric_def\{"([^"]+)", "([^"]+)"\}', SOURCE)
        listed = [(m["name"], m["unit"]) for m in self.spec["per_layer"]]
        self.assertEqual(listed, in_source)

    def test_end_to_end_metrics_match_source(self):
        untraced = SOURCE[SOURCE.index("rep.metrics = {"):]
        untraced = untraced[:untraced.index("};")]
        in_source = re.findall(r'\{"(\w+)", [^{}]+?, "([^"]+)"\}', untraced)
        listed = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        self.assertEqual(listed, in_source)

    def test_workloads_match_source(self):
        names = re.search(r"workload_names\(\) \{.*?\{(.*?)\};", SOURCE,
                          re.S).group(1)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         re.findall(r'"([^"]+)"', names))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
