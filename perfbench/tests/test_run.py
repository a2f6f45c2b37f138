"""Self-tests of run.py, the benchmark command.

    python3 -m unittest discover -s perfbench/tests

The worker's own tests (span self times, failure counting) run with
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

DIGEST = "00112233aabbccdd"


def rep(mode="timed", digest=DIGEST, failed=0, **extra):
    r = {"mode": mode, "attempted": 10, "failed": failed, "problems": [],
         "digest": digest, "wall_s": 2.0, "setup_s": 0.5, "process_start_s": 0.001,
         "peak_rss_mb": 70.0, "cycles": 195000, "events": 0, "layers": {}, "job_us": [],
         "calib_s": [run.CALIB_REFERENCE_S] * 4}
    r.update(extra)
    return r


EXPECT = {"default_seed": 42, "digests": {"pod-steady": {"42": DIGEST}, "campaign-cold": DIGEST}}


class MetricNames(unittest.TestCase):
    def test_printed_names_and_units_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
            spec = json.load(f)
        for table, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[table]}
            self.assertEqual(declared, printed, table)
            for name, unit in printed.items():
                self.assertTrue(unit, f"{name} has no unit")

    def test_aggregates_report_exactly_the_declared_metrics(self):
        reps = [rep(), rep(), rep(mode="check"), rep(mode="traced")]
        self.assertEqual(set(run.end_to_end(reps)), set(run.END_TO_END))
        self.assertEqual(set(run.per_layer(reps)), set(run.PER_LAYER))


class CorrectnessGate(unittest.TestCase):
    def test_matching_digests_pass(self):
        attempted, failed, problems = run.gate("pod-steady", 42, [rep(), rep()], EXPECT)
        self.assertEqual((attempted, failed, problems), (20, 0, []))

    def test_perturbed_recorded_digest_fails(self):
        perturbed = DIGEST[:-1] + "e"
        _, failed, problems = run.gate("pod-steady", 42, [rep(digest=perturbed)] * 2, EXPECT)
        self.assertEqual(failed, 1)
        self.assertIn("recorded", problems[0])

    def test_digest_differing_across_runs_fails_on_any_seed(self):
        _, failed, problems = run.gate("pod-steady", 7, [rep(), rep(digest="ff" * 8)], EXPECT)
        self.assertEqual(failed, 1)
        self.assertIn("differs", problems[0])

    def test_campaign_digest_is_checked_on_every_seed(self):
        _, failed, _ = run.gate("campaign-cold", 7, [rep(digest="ff" * 8)], EXPECT)
        self.assertEqual(failed, 1)

    def test_perturbed_default_seed_check_fails_at_another_seed(self):
        perturbed = DIGEST[:-1] + "e"
        reps = [rep(digest="ff" * 8), rep(digest="ff" * 8)]
        self.assertEqual(run.gate("pod-steady", 7, reps + [rep(mode="check")], EXPECT)[1], 0)
        _, failed, problems = run.gate("pod-steady", 7, reps + [rep(mode="check", digest=perturbed)],
                                       EXPECT)
        self.assertEqual(failed, 1)
        self.assertIn("seed 42", problems[0])

    def test_failed_operation_raises_failed_frac(self):
        attempted, failed, _ = run.gate("pod-steady", 42, [rep(), rep(failed=1)], EXPECT)
        self.assertEqual(failed, 1)
        self.assertGreater(failed / attempted, 0)


class Aggregation(unittest.TestCase):
    def test_medians_over_timed_repetitions_only(self):
        reps = [rep(wall_s=w, setup_s=s, process_start_s=0.0)
                for w, s in ((1.0, 0.1), (3.0, 0.3), (2.0, 0.2))]
        reps += [rep(mode="check", wall_s=9.0, setup_s=9.0), rep(mode="traced", wall_s=9.0)]
        e2e = run.end_to_end(reps)
        self.assertEqual(e2e["wall_ref_s"], 2.0)
        self.assertEqual(e2e["setup_s"], 0.2)

    def test_times_are_rescaled_to_the_reference_speed(self):
        ref = run.CALIB_REFERENCE_S
        # A repetition in a phase twice as slow as the reference host, and
        # one at reference speed: both report the reference time.
        reps = [rep(wall_s=4.0, setup_s=1.0, process_start_s=0.0,
                    calib_s=[2 * ref, 2 * ref, 2 * ref, 9 * ref]),
                rep(wall_s=2.0, setup_s=0.5, process_start_s=0.0)]
        e2e = run.end_to_end(reps)
        self.assertAlmostEqual(e2e["wall_ref_s"], 2.0)
        self.assertAlmostEqual(e2e["setup_s"], 0.5)

    def test_trace_overhead_and_unattributed_remainder_are_reported(self):
        layers = {"trace.unattributed_s": 0.25}
        reps = [rep(wall_s=2.0), rep(mode="traced", wall_s=2.5, layers=layers)]
        out = run.per_layer(reps)
        self.assertAlmostEqual(out["trace.overhead_frac"], 0.25)
        self.assertEqual(out["trace.unattributed_s"], 0.25)

    def test_job_percentiles_pool_every_traced_run(self):
        reps = [rep(mode="traced", job_us=list(range(1, 101))),
                rep(mode="traced", job_us=list(range(101, 201)))]
        out = run.per_layer(reps)
        self.assertEqual(out["exec.job_samples"], 200)
        self.assertEqual(out["exec.job_p50_ms"], 0.1)
        self.assertEqual(out["exec.job_p95_ms"], 0.19)


if __name__ == "__main__":
    unittest.main()
