"""Self-tests of the benchmark's own logic (no cluster is started).

    python3 perfbench/run.py --self-test

The schedule test builds and runs the `pb` binary, so it runs from the
root of a source checkout like the benchmark itself.
"""

import json
import os
import re
import subprocess
import sys
import unittest

import benchlib as bl


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        vals = list(range(1, 101))
        self.assertEqual(bl.percentile(vals, 0.5), 50)
        self.assertEqual(bl.percentile(vals, 0.99), 99)
        self.assertEqual(bl.percentile(vals, 1.0), 100)
        self.assertEqual(bl.percentile([7], 0.99), 7)

    def test_ten_samples_beyond(self):
        # the highest ladder quantile that leaves at least ten samples above
        self.assertIsNone(bl.tail_quantile(19))
        self.assertEqual(bl.tail_quantile(20), 0.5)
        self.assertEqual(bl.tail_quantile(99), 0.5)
        self.assertEqual(bl.tail_quantile(100), 0.9)
        self.assertEqual(bl.tail_quantile(999), 0.9)
        self.assertEqual(bl.tail_quantile(1000), 0.99)
        self.assertEqual(bl.tail_quantile(9999), 0.99)
        self.assertEqual(bl.tail_quantile(10000), 0.999)
        self.assertEqual(bl.tail_quantile(10 ** 7), 0.99999)

    def test_median(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 2, 3]), 2.5)

    def test_completion_rate_leaves_out_start_and_tail(self):
        # 1000 completions per second after a slow start and before a
        # straggler; one request never answered
        done = [5.0 + i / 1000 for i in range(1000)]
        done[0], done[-1] = 0.0, 60.0
        done.append(float("nan"))
        self.assertAlmostEqual(bl.completion_rate(done), 1000.0, places=6)
        with self.assertRaises(ValueError):
            bl.completion_rate([1.0, 1.0])


class Backlog(unittest.TestCase):
    rate = 10000.0
    limit = 0.01

    def test_flat_noisy_series_does_not_grow(self):
        series = [(t / 10, 50 + (17 * t) % 23) for t in range(1, 11)]
        self.assertFalse(bl.backlog_grows(series, self.rate, self.limit))

    def test_linear_growth_is_detected(self):
        # 20% over capacity: the backlog gains 2000 requests per second
        series = [(t / 10, 50 + 200 * t) for t in range(1, 11)]
        self.assertTrue(bl.backlog_grows(series, self.rate, self.limit))

    def test_growth_within_the_latency_limit_is_tolerated(self):
        # rising, but never more than rate x limit requests outstanding
        series = [(t / 10, 3 * t) for t in range(1, 11)]
        self.assertFalse(bl.backlog_grows(series, self.rate, self.limit))

    def test_latency_windows(self):
        nan = float("nan")
        intended = [0.0, 0.1, 0.2, 0.3, 0.4]
        sent = [0.0, 0.15, 0.2, 0.3, 0.45]
        completed = [0.5, 0.2, nan, 0.35, 0.5]
        wins = bl.latency_windows(intended, sent, completed, 0.25)
        # window 0: requests 0 and 1 (2 unanswered); window 1: 3 and 4
        self.assertEqual(len(wins), 2)
        self.assertEqual([round(x, 9) for x in wins[0][0]], [0.1, 0.5])
        self.assertEqual([round(x, 9) for x in wins[0][1]], [0.0, 0.05])
        self.assertEqual([round(x, 9) for x in wins[1][0]], [0.05, 0.1])

    def test_late_share(self):
        self.assertEqual(bl.late_share([1.0, 3.0, 5.0, 2.0], 2.5), 0.5)
        with self.assertRaises(ValueError):
            bl.late_share([], 1.0)

    def test_run_is_invalid_when_most_windows_are_late(self):
        import run
        ok, late = 0.5 * run.LAG_LIMIT_S, 2 * run.LAG_LIMIT_S
        for lags, failed in (([ok, late], 0), ([ok, late, late], 1),
                             ([ok] * 3, 0)):
            tally = run.Tally()
            run.judge_lag(lags, tally)
            self.assertEqual((tally.attempted, tally.failed), (1, failed))

    def test_run_fails_a_check_when_most_samples_do(self):
        import run
        ok, over = 0.5 * run.LIMIT_S, 1.1 * run.LIMIT_S
        for grew, p99s, failed in (
                ([True, False, False], [over, ok, ok], 0),
                ([True, True, False], [ok, ok], 1),
                ([False, False], [over, over, ok], 1)):
            obs = run.Obs()
            obs.window_lags = [0.0]
            obs.backlog_grew = grew
            obs.capacity_p99 = p99s
            tally = run.Tally()
            run.judge_run(obs, tally)
            self.assertEqual((tally.attempted, tally.failed), (3, failed))

    def test_slowdown_is_the_mean_of_the_readings_around(self):
        import run
        times = iter([run.REF_S, 2 * run.REF_S, run.REF_S])
        speed = run.Speed(job=lambda: next(times))
        self.assertEqual(speed.read(), 1.0)
        self.assertEqual(speed.span(), 1.5)
        self.assertEqual(speed.span(), 1.5)
        self.assertEqual(speed.readings, [1.0, 2.0, 1.0])

    def test_outstanding_series(self):
        intended = [0.0, 0.1, 0.2, 0.3]
        completed = [0.05, 0.35, float("nan"), 0.31]
        series = bl.outstanding_series(intended, completed, 0.0, 0.4, 4)
        self.assertEqual([n for _, n in series], [1, 2, 3, 1])


STAT = ("4242 (serve (x) y) S 1 4242 4242 0 -1 4194560 1000 0 0 0 "
        "250 75 0 0 20 0 1 0 12345 1000000 500 18446744073709551615")

STATUS = """Name:\tconsensus_sim.e
VmPeak:\t  100000 kB
VmHWM:\t   41234 kB
VmRSS:\t   40000 kB
voluntary_ctxt_switches:\t1500
nonvoluntary_ctxt_switches:\t25
"""


class Proc(unittest.TestCase):
    def test_stat_with_parentheses_in_the_name(self):
        self.assertEqual(bl.parse_proc_stat(STAT), (250, 75))

    def test_status(self):
        s = bl.parse_proc_status(STATUS)
        self.assertEqual(s["VmHWM"], 41234)
        self.assertEqual(s["voluntary_ctxt_switches"], 1500)
        self.assertEqual(s["nonvoluntary_ctxt_switches"], 25)

    def test_live_sample_of_this_process(self):
        s = bl.proc_sample(os.getpid())
        self.assertGreater(s["hwm_kb"], 0)
        self.assertGreaterEqual(s["cpu_s"], 0.0)

    def test_stop_line(self):
        import run
        d = run.parse_stop_line(
            "replica 1 stopped: 10 requests, 4 decrees applied, "
            "kv_applied=9 kv_checksum=-12\n")
        self.assertEqual(d, {"decrees": 4, "kv_applied": 9,
                             "kv_checksum": -12})


class Manifest(unittest.TestCase):
    """BENCHMARK.json (at the repository root) against what run.py emits
    and the limits a benchmark manifest must respect."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.manifest = json.load(f)

    def test_per_layer_matches_run(self):
        import run
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.manifest["per_layer"]], run.PER_LAYER)

    def test_workloads_match_run(self):
        import run
        self.assertEqual(sorted(w["name"] for w in self.manifest["workloads"]),
                         sorted(run.WORKLOADS))

    def test_names_units_bounds(self):
        e2e = self.manifest["end_to_end"]
        names = [m["name"] for m in e2e + self.manifest["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e + self.manifest["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in e2e}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Schedule(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import run
        run.build()
        cls.pb = run.PB

    def digest(self, seed, mix="mixed"):
        out = subprocess.run(
            [self.pb, "schedule", "--seed", str(seed), "--rate", "5000",
             "--seconds", "2", "--mix", mix],
            capture_output=True, text=True, check=True)
        return out.stdout

    def test_same_seed_same_inputs(self):
        self.assertEqual(self.digest(3), self.digest(3))
        self.assertEqual(self.digest(3, "unique"), self.digest(3, "unique"))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(self.digest(3), self.digest(4))

    def test_poisson_count_near_rate(self):
        n = json.loads(self.digest(5))["requests"]
        self.assertTrue(9500 < n < 10500, n)


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    ok = unittest.TextTestRunner(stream=sys.stderr, verbosity=2).run(
        suite).wasSuccessful()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
