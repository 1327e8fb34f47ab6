#!/usr/bin/env python3
"""Pins the verdicts of scripts/ab.py on fixed inputs.

    python3 tests/test_ab.py

Imports ab.py and feeds `summarize` and `failed_share_rises` hand-made
runs, so a change to a verdict rule shows up here before it decides an
A/B. Standard library only; runs no benchmark.
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "scripts"))
import ab  # noqa: E402

STEP = {"name": "op2_step_s", "better": "lower", "bound": 0.25}
SPEEDUP = {"name": "ca_speedup", "better": "higher", "bound": 0.05}

# Ten base step times: median 1.01, quartiles 1.0025 and 1.0175.
BASE = [1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.01]
# CHANGE 10% faster in nine pairs and slower in the last.
NINE_WINS = [0.90] * 9 + [1.05]


def verdict(metric, base, change):
    return ab.summarize(metric, {"base": base, "change": change})


class Summarize(unittest.TestCase):
    def test_nine_wins_of_ten_beyond_the_iqr_is_a_gain(self):
        row = verdict(STEP, BASE, NINE_WINS)
        self.assertEqual(row["wins"], 9)
        self.assertEqual(row["verdict"], "gain")

    def test_nine_wins_of_nine_pairs_is_not_a_gain(self):
        row = verdict(STEP, BASE[:9], NINE_WINS[:9])
        self.assertEqual(row["wins"], 9)
        self.assertEqual(row["verdict"], "ok")

    def test_a_delta_inside_the_base_iqr_is_not_a_gain(self):
        row = verdict(STEP, BASE, [b - 0.001 for b in BASE])
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "ok")

    def test_ties_count_for_neither_side(self):
        row = verdict(STEP, BASE, BASE)
        self.assertEqual(row["wins"], 0)
        # Two ties and eight wins: eight of ten is short of a gain.
        row = verdict(STEP, BASE, [0.9] * 8 + BASE[8:])
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["verdict"], "ok")
        row = verdict(SPEEDUP, BASE, BASE)
        self.assertEqual(row["wins"], 0)

    def test_a_median_worse_than_the_bound_is_worse(self):
        self.assertEqual(verdict(STEP, BASE, [1.3 * b for b in BASE])
                         ["verdict"], "worse")
        self.assertEqual(verdict(SPEEDUP, BASE, [0.9 * b for b in BASE])
                         ["verdict"], "worse")
        # Within the bound it is not.
        self.assertEqual(verdict(STEP, BASE, [1.2 * b for b in BASE])
                         ["verdict"], "ok")

    def test_a_base_iqr_wider_than_the_bound_is_spread(self):
        wide = [0.5, 1.0, 1.5] * 3 + [1.0]
        row = verdict(STEP, wide, wide)
        self.assertGreater(row["base_iqr"], STEP["bound"])
        self.assertEqual(row["verdict"], "spread")


class FailedShare(unittest.TestCase):
    def test_a_larger_failed_share_is_flagged(self):
        self.assertTrue(ab.failed_share_rises({"base": 0, "change": 1},
                                              {"base": 40, "change": 40}))

    def test_an_equal_or_smaller_share_is_not(self):
        self.assertFalse(ab.failed_share_rises({"base": 1, "change": 1},
                                               {"base": 40, "change": 40}))
        # More failures, but of more attempts: the share fell.
        self.assertFalse(ab.failed_share_rises({"base": 1, "change": 2},
                                               {"base": 40, "change": 100}))
        self.assertFalse(ab.failed_share_rises({"base": 0, "change": 0},
                                               {"base": 0, "change": 0}))


if __name__ == "__main__":
    unittest.main()
