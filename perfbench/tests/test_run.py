"""Tests for the benchmark's own math, names and command-line contract.

    python3 -m unittest discover -s perfbench/tests -v

The invocation tests build the benchmark (about a minute the first time)
and run short trials; set PERFBENCH_SKIP_RUN=1 to run only the fast ones.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The names the benchmark was specified with.
WORKLOADS = {"grid225_boot", "indoor_retele_ch19", "soak_churn_observed", "field1k_boot"}
LAYERS = {"topo", "radio", "sim", "mac", "net", "core", "harness", "stats", "check"}
PER_LAYER = {
    "sim.events", "sim.events_per_sim_s", "sim.ns_per_event", "sim.max_queue_depth",
    "sim.untagged_wall_share", "sim.window_wall_p50_ms", "sim.window_wall_tail_ms",
    "radio.transmissions", "radio.us_per_tx", "radio.gain_table_s", "radio.noise_model_s",
    "mac.send_ops", "mac.tx_copies", "mac.copies_per_send",
    "net.beacons", "net.parent_changes", "net.data_delivery_ratio",
    "core.claims", "core.forwards", "core.suppressions", "core.backtracks", "core.duplicates",
    "core.claims_per_command", "core.code_bits_mean", "core.code_bits_max",
    "core.prefix_match_ns",
    "harness.network_ctor_s", "harness.start_s", "harness.retries", "harness.escalations",
    "harness.gave_up",
    "stats.collect_metrics_ms", "stats.command_spans_ms", "stats.trace_dropped",
    "stats.timeline_wall_share", "stats.timeline_samples",
    "check.checkpoints", "check.claims_audited", "check.invariant_views_ms",
    "topo.generate_s", "trace_overhead_pct",
}
INVARIANT_RULES = {
    "addr.parent_prefix", "addr.sibling_unique", "addr.code_bounds", "fwd.claim_justified",
    "fwd.unique_delivery", "fwd.verdict_conservation", "tbl.lease_monotone", "ctp.no_loop",
}


def window(wall_s, events=100, txs=10, sim_end_s=1.0):
    return {"wall_s": wall_s, "events": events, "transmissions": txs, "sim_end_s": sim_end_s}


def setup(total_s):
    return {"topo_s": 0.0, "ctor_s": total_s, "start_s": 0.0, "total_s": total_s}


def record(walls, outcome=None, setup_s=0.01, checks=None, latencies=()):
    out = {"duty_cycle_pct": 5.0, "sim_end_s": float(len(walls))}
    out.update(outcome or {})
    return {
        "setup": setup(setup_s),
        "windows": [window(w) for w in walls],
        "peak_rss_mb": 10.0,
        "outcome": out,
        "latencies": list(latencies),
        "checks": checks or {"ok": True},
        "layers": {},
        "span_self_s": {},
    }


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(0))
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(99), 75.0)  # p90 would leave 9
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_at_least_ten_samples_lie_beyond_the_reported_tail(self):
        for n in range(20, 600):
            values = list(range(n))
            s = run.summarize(values)
            self.assertEqual(s["n"], n)
            self.assertGreaterEqual(sum(v > s["tail"] for v in values), 10, n)

    def test_nearest_rank(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(run.nearest_rank(values, 50.0), 3)
        self.assertEqual(run.nearest_rank(values, 100.0), 5)
        self.assertEqual(run.nearest_rank(values, 0.0), 1)

    def test_small_samples_report_count_without_tail(self):
        s = run.summarize([3.0, 1.0, 2.0])
        self.assertEqual((s["n"], s["p50"], s["tail_p"], s["tail"]), (3, 2.0, None, None))


class WindowAggregationTest(unittest.TestCase):
    def test_window_stats_sums_and_rates(self):
        ws = run.window_stats([window(0.5, 1000, 100), window(1.5, 3000, 300)])
        self.assertEqual(ws["wall_s"], 2.0)
        self.assertEqual(ws["events"], 4000)
        self.assertAlmostEqual(ws["ns_per_event"], 5e5)
        self.assertAlmostEqual(ws["us_per_tx"], 5e3)
        self.assertEqual(ws["window_ms"]["n"], 2)
        self.assertEqual(ws["window_ms"]["p50"], 500.0)

    def test_window_tail_over_many_windows(self):
        ws = run.window_stats([window(0.001 * (i + 1)) for i in range(100)])
        self.assertEqual(ws["window_ms"]["tail_p"], 90.0)
        self.assertAlmostEqual(ws["window_ms"]["tail"], 90.0)

    def test_end_to_end_takes_medians_over_trials(self):
        recs = [record([1.0, 2.0], setup_s=0.01),
                record([4.0], setup_s=0.05),
                record([1.0, 1.0], setup_s=0.04)]
        e2e = run.end_to_end(recs, [setup(0.03), setup(0.02)])
        self.assertEqual(e2e["wall_s"], 3.0)  # trial walls 3, 4, 2
        self.assertEqual(e2e["setup_s"], 0.03)  # trials' and set-up processes' pooled
        self.assertEqual(e2e["peak_rss_mb"], 10.0)

    def test_protocol_outcomes_count_failures_against_attempts(self):
        recs = [record([1.0], {"commands": 10, "delivered": 9, "tx_per_command": 2.0},
                       latencies=[1.0] * 9),
                record([1.0], {"commands": 30, "delivered": 30, "tx_per_command": 4.0},
                       latencies=[2.0] * 30)]
        out = run.protocol_outcomes(recs)
        self.assertEqual(out["commands"], 40)
        self.assertAlmostEqual(out["control_pdr"], 39 / 40)
        self.assertAlmostEqual(out["tx_per_command"], (20 + 120) / 40)
        self.assertEqual(out["latency_samples"], 39)
        self.assertIsNone(out["latency_p90_s"])  # 39 samples cannot support p90
        self.assertLessEqual(set(out), set(run.OUTCOME_UNITS))


class VerifyTest(unittest.TestCase):
    def pair(self, seed, untraced, traced=None):
        p = {"input": seed, "untraced": untraced}
        if traced is not None:
            p["traced"] = traced
        return p

    def test_clean_run(self):
        a = record([1.0], {"x": 1.0})
        self.assertEqual(run.verify([self.pair(1, a, a), self.pair(1, a, a)], True), (0, []))

    def test_probe_purity_failure(self):
        a, b = record([1.0], {"x": 1.0}), record([1.0], {"x": 2.0})
        failed, problems = run.verify([self.pair(1, a, b)], True)
        self.assertEqual(failed, 1)
        self.assertIn("traced and untraced", problems[0])

    def test_equal_inputs_must_give_equal_outcomes(self):
        a, b = record([1.0], {"x": 1.0}), record([1.0], {"x": 2.0})
        self.assertEqual(run.verify([self.pair(1, a), self.pair(1, b)], False)[0], 1)
        self.assertEqual(run.verify([self.pair(1, a), self.pair(2, b)], False)[0], 0)

    def test_failed_check_and_failed_process_count(self):
        bad = record([1.0], checks={"coverage_reached": False})
        failed, _ = run.verify([self.pair(1, bad), self.pair(2, None)], False)
        self.assertEqual(failed, 2)


class SeedTest(unittest.TestCase):
    def test_seeded_workload_inputs_follow_the_seed(self):
        w = "indoor_retele_ch19"
        self.assertEqual(run.request_seed(w, 7, 0), run.request_seed(w, 7, 0))
        self.assertNotEqual(run.request_seed(w, 7, 0), run.request_seed(w, 8, 0))
        self.assertNotEqual(run.request_seed(w, 7, 0), run.request_seed(w, 7, 1))
        self.assertLess(run.request_seed(w, 7, 0), 2 ** 63)

    def test_pinned_workloads_take_no_request_seed(self):
        for w in ("grid225_boot", "soak_churn_observed", "field1k_boot"):
            self.assertIsNone(run.request_seed(w, 12345, 3))

    def test_pinned_pairs_with_no_input_are_finished(self):
        a = record([1.0])
        self.assertTrue(run.finished({"input": None, "untraced": a}))
        self.assertTrue(run.finished({"input": None, "untraced": a, "traced": a}))
        self.assertFalse(run.finished({"input": None, "untraced": a, "traced": None}))
        self.assertEqual(run.verify([{"input": None, "untraced": a}] * 2, False), (0, []))


class DeadlineTest(unittest.TestCase):
    """A trial process still running at the run's deadline truncates the
    run; it is left out, not counted as a failed check."""

    def setUp(self):
        self.saved = run.run_trial

    def tearDown(self):
        run.run_trial = self.saved

    def cut_after(self, finished_trials):
        started = []

        def fake(workload, seed, trial, trace, deadline, measure=True):
            if not measure:
                return {"setup": setup(0.01)}
            started.append(trial)
            if len(started) > finished_trials:
                raise run.DeadlineReached()
            return record([1.0])
        run.run_trial = fake

    def test_a_trial_cut_at_the_deadline_is_left_out(self):
        self.cut_after(2)
        pairs, setups = run.run_trials("field1k_boot", 1, 1000.0, False)
        self.assertEqual(len(pairs), 2)
        self.assertEqual(run.verify(pairs, False), (0, []))
        self.assertEqual(len(setups), 3 * run.WORKLOADS["field1k_boot"]["setup_runs"])

    def test_a_run_with_no_finished_trial_reports_no_result(self):
        self.cut_after(0)
        self.assertIsNone(run.report(SPEC, "field1k_boot", 1, 1000.0, False))


class NamesTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})

    def test_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(set(names), WORKLOADS)
        self.assertEqual(set(run.WORKLOADS), WORKLOADS)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        self.assertEqual(names, set(run.end_to_end([record([1.0])], [])))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertLessEqual(m["bound"], setup["bound"])

    def test_per_layer(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        violations = {"check.violations." + r for r in INVARIANT_RULES}
        self.assertEqual(set(names), PER_LAYER | violations)
        for name in names:
            if name != "trace_overhead_pct":
                self.assertIn(name.split(".")[0], LAYERS)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_name_and_unit_syntax(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in metrics:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))


def last_json_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_RUN") == "1", "PERFBENCH_SKIP_RUN=1")
class InvocationTest(unittest.TestCase):
    # A seed none of the benchmark's tuning runs used.
    HELD_OUT_SEED = 90017

    def invoke(self, workload, trace, cwd=ROOT):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(self.HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=900)

    def test_held_out_seed_untraced(self):
        proc = self.invoke("indoor_retele_ch19", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json_line(proc.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, unit in expected.items():
            self.assertRegex(proc.stdout, rf"\n  {re.escape(name)} +\S+ {re.escape(unit)}\n")
        self.assertRegex(proc.stdout, r"\n    latency_p90_s +[0-9.]+ sim_s\n")
        self.assertRegex(proc.stdout, r"\n    control_pdr +[0-9.]+ ratio\n")

    def test_held_out_seed_traced_is_pure(self):
        proc = self.invoke("indoor_retele_ch19", 1)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json_line(proc.stdout)
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        for layer in LAYERS:
            self.assertIn(f"  [{layer}]\n", proc.stdout)

    def test_one_command_runs_every_workload(self):
        proc = self.invoke("all", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        results = [json.loads(line) for line in proc.stdout.splitlines()
                   if line.startswith("{")]
        self.assertEqual(len(results), len(WORKLOADS))
        for workload in WORKLOADS:
            self.assertIn(f"workload {workload} ", proc.stdout)
        for result in results:
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["end_to_end"]})

    def test_benchmark_soak_is_the_library_soak(self):
        self.assertTrue(run.build())
        subprocess.run(["cmake", "--build", run.BUILD_DIR, "--target",
                        "perfbench_soak_reference"], check=True, capture_output=True)
        reference = json.loads(subprocess.run(
            [os.path.join(run.BUILD_DIR, "perfbench_soak_reference")],
            check=True, capture_output=True, text=True).stdout)
        trial = last_json_line(subprocess.run(
            [run.BINARY, "--workload", "soak_churn_observed"],
            check=True, capture_output=True, text=True).stdout)
        self.assertEqual({k: trial["outcome"][k] for k in reference}, reference)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.invoke("grid225_boot", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
