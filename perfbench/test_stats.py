"""Tests for perfbench/stats.py: python3 -m unittest discover -s perfbench"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_expanded_samples(self):
        hist = {v: 1 for v in range(1, 101)}  # 1..100
        self.assertEqual(stats.percentile(hist, 0.5), 50)
        self.assertEqual(stats.percentile(hist, 0.99), 99)
        self.assertEqual(stats.percentile(hist, 1.0), 100)
        self.assertEqual(stats.percentile(hist, 0.001), 1)

    def test_counts_weight_the_rank(self):
        hist = {10: 98, 500: 1, 9000: 1}
        self.assertEqual(stats.percentile(hist, 0.5), 10)
        self.assertEqual(stats.percentile(hist, 0.98), 10)
        self.assertEqual(stats.percentile(hist, 0.99), 500)
        self.assertEqual(stats.percentile(hist, 0.995), 9000)

    def test_unsorted_keys_and_single_sample(self):
        self.assertEqual(stats.percentile({30: 1, 10: 1, 20: 1}, 0.5), 20)
        self.assertEqual(stats.percentile({7: 1}, 0.999), 7)

    def test_exact_rank_is_not_pushed_up_by_float_error(self):
        # 0.999 * 1000 is 998.9999999999999 in binary floating point.
        hist = {v: 1 for v in range(1, 1001)}
        self.assertEqual(stats.percentile(hist, 0.999), 999)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile({}, 0.5)
        with self.assertRaises(ValueError):
            stats.percentile({1: 1}, 0)
        with self.assertRaises(ValueError):
            stats.percentile({1: 1}, 1.5)


class TopPercentileTest(unittest.TestCase):
    def test_beyond_counts_samples_past_the_rank(self):
        self.assertEqual(stats.beyond(1000, 0.99), 10)
        self.assertEqual(stats.beyond(1000, 0.999), 1)
        self.assertEqual(stats.beyond(43008, 0.999), 43)

    def test_climbs_while_ten_samples_lie_beyond(self):
        hist = {v: 1 for v in range(1, 1001)}
        q, value, n = stats.top_percentile(hist)
        self.assertEqual((q, value, n), (0.99, 990, 1000))

    def test_large_sample_reaches_p9999(self):
        hist = {v: 1 for v in range(1, 100_001)}
        q, value, n = stats.top_percentile(hist)
        self.assertEqual(q, 0.9999)
        self.assertEqual(value, 99_990)
        self.assertEqual(n, 100_000)

    def test_too_few_samples_resolve_nothing(self):
        self.assertIsNone(stats.top_percentile({5: 19}))
        self.assertEqual(stats.top_percentile({5: 20})[0], 0.5)

    def test_labels(self):
        self.assertEqual(stats.percent_label(0.5), "p50")
        self.assertEqual(stats.percent_label(0.999), "p99.9")
        self.assertEqual(stats.percent_label(0.9999), "p99.99")


class RatioTest(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        self.assertEqual(stats.ratio(18, 43008),
                         {"value": 18 / 43008, "base": 43008})

    def test_zero_base_reads_zero(self):
        self.assertEqual(stats.ratio(0, 0), {"value": 0.0, "base": 0})
        self.assertEqual(stats.ratio(5, 0), {"value": 0.0, "base": 0})


if __name__ == "__main__":
    unittest.main()
