"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.31, 0.29, 0.35, 0.30, 0.33, 0.32, 0.36, 0.28, 0.34, 0.30]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))

    def test_quartiles_known_values(self):
        # Exclusive method on 1..9: positions 2.5 and 7.5.
        self.assertEqual(stats.quartiles(list(range(1, 10))), (2.5, 7.5))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0))

    def test_spread_is_iqr_over_median(self):
        values = list(range(1, 10))
        self.assertAlmostEqual(stats.spread(values), (7.5 - 2.5) / 5)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0]), 0.0)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_percentile_is_order_independent(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 60), 3)

    def test_ten_beyond_rule(self):
        # p90 of 100 samples has exactly ten above it; of 99 only nine.
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertTrue(stats.supports_percentile(100, 90))
        self.assertFalse(stats.supports_percentile(99, 90))
        self.assertTrue(stats.supports_percentile(20, 50))
        self.assertFalse(stats.supports_percentile(19, 50))

    def test_highest_supported_percentile(self):
        self.assertEqual(stats.highest_supported_percentile(100), 90)
        self.assertEqual(stats.highest_supported_percentile(1000), 99)
        self.assertEqual(stats.highest_supported_percentile(40), 75)
        self.assertIsNone(stats.highest_supported_percentile(15))

    def test_bad_percentile_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


def span(i, parent, start, end):
    return {"id": i, "parent": parent, "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(1, 0, 10, 30)]), {1: 20})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60)]
        self.assertEqual(stats.self_times(spans)[1], 70)

    def test_overlapping_children_count_once(self):
        # Children in other processes (rank spans) may overlap each other.
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60)]
        self.assertEqual(stats.self_times(spans)[1], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 150)]
        self.assertEqual(stats.self_times(spans)[1], 90)

    def test_grandchildren_do_not_count_against_the_grandparent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 50), span(3, 2, 0, 50)]
        result = stats.self_times(spans)
        self.assertEqual(result[1], 50)
        self.assertEqual(result[2], 0)
        self.assertEqual(result[3], 50)


if __name__ == "__main__":
    unittest.main()
