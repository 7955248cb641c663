"""Tests of the benchmark's own arithmetic and input generation.

    python3 perfbench/test_metrics.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as m  # noqa: E402
import run  # noqa: E402


class HighPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        value, pct, n = m.high_percentile(samples)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)  # 91..100 lie beyond it
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_smallest_sample_count_with_a_tail(self):
        value, pct, n = m.high_percentile(list(range(1, 22)))
        self.assertEqual((value, n), (11, 21))
        self.assertAlmostEqual(pct, 100 * 11 / 21)

    def test_too_few_samples_give_the_median(self):
        self.assertEqual(m.high_percentile([5, 1, 3]), (3, 50.0, 3))
        self.assertEqual(m.high_percentile([7.5])[0], 7.5)
        self.assertEqual(m.high_percentile(list(range(20)))[1], 50.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            m.high_percentile([])


class SelfTime(unittest.TestCase):
    def test_aggregate_scope_minus_children(self):
        self.assertAlmostEqual(m.self_time(8.35, [3.33]), 5.02)
        self.assertAlmostEqual(m.self_time(1.0, [0.25, 0.5]), 0.25)

    def test_aggregate_never_negative(self):
        self.assertEqual(m.self_time(1.0, [0.75, 0.5]), 0.0)

    def test_span_minus_covered_part(self):
        # Children [10,20) and [30,40) inside [0,100): 80 of self time.
        self.assertEqual(m.span_self_time((0, 100), [(10, 20), (30, 40)]), 80)

    def test_overlapping_children_count_once(self):
        self.assertEqual(m.span_self_time((0, 100), [(10, 30), (20, 40)]), 70)
        self.assertEqual(m.span_self_time((0, 100), [(10, 40), (20, 30)]), 70)

    def test_children_clipped_to_the_span(self):
        self.assertEqual(m.span_self_time((50, 100), [(0, 60), (90, 200)]),
                         30)
        self.assertEqual(m.span_self_time((0, 10), [(20, 30)]), 10)


class Ratio(unittest.TestCase):
    def test_value_with_its_base(self):
        value, text = m.ratio(1, 4)
        self.assertEqual(value, 0.25)
        self.assertEqual(text, "0.25 = 1 / 4")

    def test_empty_base(self):
        self.assertEqual(m.ratio(0, 0), (0.0, "0 = 0 / 0"))

    def test_iqr_share(self):
        self.assertAlmostEqual(m.iqr_share([10, 10, 10, 10]), 0.0)
        # statistics.quantiles (exclusive method) of 9..12: 9.25, 10.5, 11.75
        self.assertAlmostEqual(m.iqr_share([9, 10, 11, 12]), 2.5 / 10.5)


def trial_seeds(seed):
    lines, _ = run.make_plan("paper-star", seed, 15)
    return set(next(l for l in lines if l.startswith("seeds ")).split()[1:])


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in ("paper-star", "geo-10k", "fleet"):
            self.assertEqual(run.make_plan(w, 5, 2), run.make_plan(w, 5, 2))

    def test_default_seed_is_the_committed_seed(self):
        self.assertEqual(run.seed_block(run.DEFAULT_SEED), 1)
        lines, scn = run.make_plan("geo-10k", run.DEFAULT_SEED, 15)
        self.assertIn("seed = 1\n", scn)
        lines, _ = run.make_plan("fleet", run.DEFAULT_SEED, 1)
        seeds = [int(l.split()[6]) for l in lines if l.startswith("tenant t")]
        self.assertEqual(seeds, list(range(2001, 2017)))

    def test_seeds_give_disjoint_trials(self):
        a, b = trial_seeds(1), trial_seeds(2)
        self.assertEqual(len(a), 840)
        self.assertFalse(a & b)
        self.assertFalse(a & trial_seeds(run.HELD_OUT_SEED))


class Outcome(unittest.TestCase):
    def trial(self, completed, match):
        return {"completed": completed, "expected": 20, "match": match}

    def test_mismatch_counts_as_incomplete(self):
        res = {"dissem": [self.trial(20, True), self.trial(20, False),
                          self.trial(19, True)]}
        attempted, failed, share = run.outcome(res)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertAlmostEqual(share, 39 / 60)

    def test_fleet_cells(self):
        res = {"dissem": [], "tenants": [
            {"cells": 64, "converged": 64, "images_ok": True},
            {"cells": 64, "converged": 63, "images_ok": True},
            {"cells": 64, "converged": 64, "images_ok": False}]}
        self.assertEqual(run.outcome(res), (192, 65, 127 / 192))


if __name__ == "__main__":
    unittest.main()
