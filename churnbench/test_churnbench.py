#!/usr/bin/env python3
"""Tests of the churnbench benchmark: its output checks, the schema of its
result line, BENCHMARK.json's agreement with run.py, and the program's
bitwise guards (replay, flood reference, campaign CSV) on small specs.

    python3 churnbench/test_churnbench.py

The program tests build .bench_build/ first if needed (about a minute).
"""

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

NAN = None  # how the program encodes NaN in JSON


def small_spec(**fields):
    spec = {"n": [600], "d": [8], "replications": 1, "seed": 7,
            "intra_threads": 1}
    spec.update(fields)
    return spec


FLOOD = small_spec(scenarios=["SDG", "SDGR"], n=[2000],
                   metrics=["completion_step", "final_fraction",
                            "flood_steps", "messages"])
OBSERVE = small_spec(scenarios=["SDGR", "PDGR"],
                     metrics=["alive", "isolated", "largest_component_frac"],
                     observers="expansion(8)+spectral+isolated+degrees",
                     incremental_observers=True)
RESILIENCE = small_spec(scenarios=["PDGR+maxdeg(0.5)", "PDGR+mindeg(0.5)",
                                   "PDGR+cutset(0.5)", "PDGR+eclipse(0.5)"],
                        metrics=["alive", "completion_step",
                                 "final_fraction", "flood_steps",
                                 "messages"])
CAMPAIGN = small_spec(scenarios=["SDGR", "PDGR", "PDGR+pareto(2.5)",
                                 "PDGR+massfail(0.2,1)"],
                      protocols=["flood", "push(3)"], n=[300],
                      metrics=["alive", "isolated", "completion_step",
                               "final_fraction", "flood_steps", "messages"],
                      replications=2)


class RowChecks(unittest.TestCase):
    NAMES = ["alive", "isolated", "completion_step", "final_fraction",
             "flood_steps", "messages"]

    def test_valid_rows_pass(self):
        self.assertEqual(run.row_problems(self.NAMES,
                                          [1000, 0, 7, 1.0, 7, 4000]), [])
        # A run that never completed reports completion_step as NaN.
        self.assertEqual(run.row_problems(self.NAMES,
                                          [1000, 3, NAN, 0.99, 9, 4000]), [])

    def test_each_range_violation_is_caught(self):
        bad_rows = [
            [1000, 0, 7, 1.5, 7, 4000],      # final_fraction > 1
            [1000, 0, 8, 1.0, 7, 4000],      # completion_step > flood_steps
            [1000, 0, 7, 1.0, 7, -1],        # negative messages
            [0, 0, 7, 1.0, 7, 4000],         # no node alive
            [1000, 1001, 7, 1.0, 7, 4000],   # isolated > alive
            [1000, 0, 7, NAN, 7, 4000],      # NaN outside completion_step
            [1000, 0, 7, 1.0],               # short row
        ]
        for row in bad_rows:
            with self.subTest(row=row):
                self.assertNotEqual(run.row_problems(self.NAMES, row), [])

    def test_observer_columns(self):
        names = ["spectral_gap", "expansion_min_ratio", "degree_min",
                 "degree_p50", "degree_max"]
        self.assertEqual(run.row_problems(names, [0.3, 0.9, 8, 16, 37]), [])
        self.assertNotEqual(run.row_problems(names, [1.2, 0.9, 8, 16, 37]),
                            [])
        self.assertNotEqual(run.row_problems(names, [0.3, -0.1, 8, 16, 37]),
                            [])
        self.assertNotEqual(run.row_problems(names, [0.3, 0.9, 17, 16, 37]),
                            [])

    def test_failed_jobs_unions_program_flags_and_range_checks(self):
        doc = {"metric_names": ["final_fraction"], "passes": [
            {"failed_jobs": [2], "rows": [[1.0], [2.0], [0.5]]},
            {"failed_jobs": [], "rows": [[1.0], [1.0], [0.5]]},
        ]}
        self.assertEqual(run.failed_jobs(doc), [{1, 2}, set()])

    def test_p90_support(self):
        value, above = run.percentile_with_support(list(range(1, 101)), 0.9)
        self.assertEqual((value, above), (90, 10))
        _, above = run.percentile_with_support([1.0, 2.0], 0.9)
        self.assertEqual(above, 0)


def good_result(trace):
    table = run.PER_LAYER if trace else run.END_TO_END
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {row[0]: {"value": 1.5, "unit": row[1]}
                        for row in table}}


class ResultSchema(unittest.TestCase):
    def test_good_results_pass(self):
        for trace in (False, True):
            self.assertEqual(run.result_problems(good_result(trace), trace),
                             [])

    def test_violations_are_caught(self):
        mutations = [
            lambda r: r.pop("failed"),
            lambda r: r.update(extra=1),
            lambda r: r.update(attempted=0),
            lambda r: r.update(failed=1.0),
            lambda r: r.update(correct="yes"),
            lambda r: r["metrics"].pop("setup_s"),
            lambda r: r["metrics"].update(bogus={"value": 1, "unit": "s"}),
            lambda r: r["metrics"]["jobs_per_s"].update(unit="1/s"),
            lambda r: r["metrics"]["jobs_per_s"].update(value=float("nan")),
            lambda r: r["metrics"]["peak_rss_mb"].update(value=0.0),
        ]
        for index, mutate in enumerate(mutations):
            with self.subTest(mutation=index):
                result = good_result(False)
                mutate(result)
                self.assertNotEqual(run.result_problems(result, False), [])

    def test_per_layer_metrics_may_be_zero(self):
        result = good_result(True)
        result["metrics"]["service.scaling_eff"]["value"] = 0.0
        self.assertEqual(run.result_problems(result, True), [])


class BenchmarkJson(unittest.TestCase):
    def test_matches_run_py(self):
        path = run.ROOT / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        bench = json.loads(path.read_text())
        self.assertEqual(bench["command"], ["python3", "churnbench/run.py"])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]], run.PER_LAYER)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))

    def test_specs_follow_the_seed(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.make_spec(workload, 5),
                             run.make_spec(workload, 5))
            self.assertEqual(run.make_spec(workload, 5)["seed"], 5)
            self.assertEqual(run.make_spec(workload, 5)["intra_threads"], 1)
        with self.assertRaises(ValueError):
            run.make_spec("campaign", -1)


class Program(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def timed(self, spec, exec_mode="inproc", **kw):
        return run.run_program(spec, exec_mode, 0.5, False, **kw)

    def traced(self, spec, exec_mode="inproc", **kw):
        return run.run_program(spec, exec_mode, 0.5, True, **kw)

    def assert_result_ok(self, doc, trace):
        summarize = run.summarize_traced if trace else run.summarize_timed
        summary = summarize(doc, "test", 7)
        result = run.result_object(summary, trace)
        self.assertEqual(run.result_problems(result, trace), [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return result

    def test_timed_inproc(self):
        doc = self.timed(RESILIENCE)
        self.assertGreaterEqual(len(doc["passes"]), 1)
        self.assertEqual(len(doc["job_s"]),
                         sum(p["jobs"] for p in doc["passes"]))
        # kBatchesPerPoint set-up samples at the start, more between jobs.
        self.assertGreaterEqual(len(doc["setup_s"]), 4)
        self.assert_result_ok(doc, False)

    def test_fnv_is_deterministic(self):
        self.assertEqual(self.timed(FLOOD)["csv_fnv"],
                         self.traced(FLOOD)["csv_fnv"])

    def test_replay_is_bit_identical(self):
        for spec in (FLOOD, OBSERVE, RESILIENCE):
            with self.subTest(spec=spec["scenarios"]):
                doc = self.traced(spec)
                self.assertEqual(doc["checks"]["replay_mismatches"], 0)
                result = self.assert_result_ok(doc, True)
                unexplained = result["metrics"]["trace.unexplained_frac"]
                self.assertLess(unexplained["value"], run.UNEXPLAINED_FLAG)

    def test_flood_reference_matches_disseminate(self):
        doc = self.traced(FLOOD)
        self.assertEqual(doc["checks"]["flood_reference_jobs"], 2)
        self.assertEqual(doc["checks"]["flood_trace_mismatches"], 0)
        self.assertGreater(doc["layers"]["flooding.flood_s"], 0)

    def test_observers_are_traced(self):
        doc = self.traced(OBSERVE)
        for observer in ("expansion", "spectral", "isolated", "degrees"):
            self.assertGreater(doc["layers"]["observe.%s_s" % observer], 0)
        self.assertGreater(doc["layers"]["expansion.sets_probed"], 0)
        self.assertEqual(doc["layers"]["protocols.messages"], 0)

    def test_replay_guard_catches_a_differing_row(self):
        doc = self.traced(FLOOD, corrupt_job=1)
        self.assertEqual(doc["checks"]["replay_mismatches"], 1)
        self.assertIn(1, doc["passes"][0]["failed_jobs"])
        correct, _, failed, _, _ = run.summarize_traced(doc, "test", 7)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)

    def test_campaign_matches_in_process_fold(self):
        doc = self.timed(CAMPAIGN, "service")
        kinds = [p["kind"] for p in doc["passes"]]
        self.assertEqual(kinds[0], "reference")
        self.assertIn("service", kinds)
        self.assertGreater(doc["peak_rss_kb"]["children"], 0)
        self.assert_result_ok(doc, False)

    def test_campaign_guard_catches_a_differing_row(self):
        doc = self.timed(CAMPAIGN, "service", corrupt_job=3)
        for p in doc["passes"]:
            if p["kind"] == "service":
                self.assertEqual(p["failed_jobs"], [3])
        correct, _, failed, _, _ = run.summarize_timed(doc, "test", 7)
        self.assertFalse(correct)
        self.assertGreater(failed, 0)

    def test_traced_campaign(self):
        doc = self.traced(CAMPAIGN, "service")
        layers = doc["layers"]
        self.assertGreater(layers["journal.bytes_per_job"], 0)
        self.assertGreater(layers["stream.bytes_per_job"], 0)
        self.assertGreater(layers["service.files_setup_s"], 0)
        self.assertGreater(layers["service.scaling_eff"], 0)
        self.assertGreater(layers["protocols.useful_ratio"], 0)
        self.assertTrue(math.isfinite(layers["service.overhead_frac"]))
        self.assert_result_ok(doc, True)


class BareCheckout(unittest.TestCase):
    def test_fails_without_the_repository(self):
        """Only BENCHMARK.json and churnbench/: no result, non-zero exit."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "churnbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if (run.ROOT / "BENCHMARK.json").exists():
                shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "churnbench/run.py", "--workload",
                 "campaign", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
