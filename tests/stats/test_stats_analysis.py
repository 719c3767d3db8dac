"""Unit tests for confidence intervals, histograms and comparison metrics."""

from __future__ import annotations

import math
import timeit

import numpy as np
import pytest

from repro.stats.compare import (
    absolute_error,
    compare_series,
    max_relative_error,
    mean_absolute_percentage_error,
    relative_error,
    root_mean_square_error,
)
from repro.stats.histogram import Histogram
from repro.stats.intervals import batch_means, mean_confidence_interval, t_quantile


#: Exact two-sided Student-t quantiles, rounded to the nearest double:
#: ``EXACT_T[dof][i]`` is the ``t`` with ``P(|T| > t) = 1 - CONFIDENCES[i]``.
CONFIDENCES = (0.8, 0.9, 0.95, 0.98, 0.99, 0.999)
EXACT_T = {
    1: ("0x1.89f188bdcd7b0p+1", "0x1.9414813ba662dp+2", "0x1.96993aacc4d1ep+3",
        "0x1.fd20d55634e27p+4", "0x1.fd410182c3c30p+5", "0x1.3e4f438b2cde5p+9"),
    2: ("0x1.e2b7dddfefa67p+0", "0x1.75c2166634963p+1", "0x1.135ea98e146b9p+2",
        "0x1.bdbb4c2b38868p+2", "0x1.3d9850c4bbe78p+3", "0x1.f995ba406582cp+4"),
    3: ("0x1.a34336c655793p+0", "0x1.2d3b035609bc7p+1", "0x1.975a66893c1a9p+1",
        "0x1.229ae02999d88p+2", "0x1.75d175480d3a8p+2", "0x1.9d913ba558d00p+3"),
    4: ("0x1.888034d51aecfp+0", "0x1.10e05b01ad866p+1", "0x1.63628d9efb5dep+1",
        "0x1.df9bf8d59a04cp+1", "0x1.26a97d89084a7p+2", "0x1.1387972e9712fp+3"),
    5: ("0x1.79d3897a63a39p+0", "0x1.01ed1ae7a9632p+1", "0x1.4908d359dff38p+1",
        "0x1.aeb606b551627p+1", "0x1.020ea171ca98ap+2", "0x1.b79adafe036acp+2"),
    6: ("0x1.7093d528bb5adp+0", "0x1.f174434b0b9b0p+0", "0x1.393468546e653p+1",
        "0x1.9242f54f2755fp+1", "0x1.da8d005bee94dp+1", "0x1.7d5d3e88b9be9p+2"),
    7: ("0x1.6a38745b9638dp+0", "0x1.e5031a7c90190p+0", "0x1.2eac01e9f5b1cp+1",
        "0x1.7fbce07f589ccp+1", "0x1.bfef11958261ep+1", "0x1.5a1abf49ed836p+2"),
    8: ("0x1.6595b029e6ea2p+0", "0x1.dc0b57168943cp+0", "0x1.272b24bc92429p+1",
        "0x1.72bf2ee50d30bp+1", "0x1.ad7d5502beaccp+1", "0x1.42a4bf8b5f160p+2"),
    9: ("0x1.620e2be0d7781p+0", "0x1.d546e39fa218bp+0", "0x1.218e5dac50b23p+1",
        "0x1.6924e0bfd7088p+1", "0x1.9ffa9c6c4220ep+1", "0x1.31fa78c866fa5p+2"),
    10: ("0x1.5f476d56acd2fp+0", "0x1.cffd73bfbf621p+0", "0x1.1d33a7661d303p+1",
         "0x1.61c33296238abp+1", "0x1.95aaba187f876p+1", "0x1.258fab425677dp+2"),
    19: ("0x1.53e5fef3bf2b2p+0", "0x1.baa872abecc0ap+0", "0x1.0be83653b666dp+1",
         "0x1.450dc9023c5f1p+1", "0x1.6e331aed617fep+1", "0x1.f1137166fd2edp+1"),
    20: ("0x1.534987508eec5p+0", "0x1.b987228028cc3p+0", "0x1.0b00d9a954437p+1",
         "0x1.4394c01be8572p+1", "0x1.6c341773c54ecp+1", "0x1.ecbcf3051fb2ep+1"),
    29: ("0x1.4fba1d9208becp+0", "0x1.b2f9fd22b60a8p+0", "0x1.05ca15bce2871p+1",
         "0x1.3b238413f3217p+1", "0x1.60d140d7b5d81p+1", "0x1.d4676238b68bdp+1"),
    30: ("0x1.4f775bee3e38dp+0", "0x1.b27fb080b375bp+0", "0x1.05692f10aaee9p+1",
         "0x1.3a878bd52a1e8p+1", "0x1.5fffdb8a1b4ffp+1", "0x1.d2aec5c609821p+1"),
    49: ("0x1.4c8fc599befd1p+0", "0x1.ad327075de768p+0", "0x1.0139c2e92927dp+1",
         "0x1.33d37e40d12cdp+1", "0x1.5708aa90cc90dp+1", "0x1.c00e833df8217p+1"),
    99: ("0x1.4a480530192b2p+0", "0x1.a90f6511a91dcp+0", "0x1.fbf5a4633b83ap+0",
         "0x1.2eab67a627044p+1", "0x1.502e0dd4874e5p+1", "0x1.b21d9de75e73ep+1"),
    199: ("0x1.492b83634e170p+0", "0x1.a70d4db5e587dp+0", "0x1.f8d224e2b1c80p+0",
          "0x1.2c3091db184e9p+1", "0x1.4ce5b5f45ac7bp+1", "0x1.ab87f4ce42e4fp+1"),
    999: ("0x1.484b5695b70fbp+0", "0x1.a5792eac63717p+0", "0x1.f65c028f272c6p+0",
          "0x1.2a40459350698p+1", "0x1.4a5654f0735e8p+1", "0x1.a66ffb915fd20p+1"),
}
#: The same at confidence 0.9, 0.95 and 0.99.
EXACT_T_LARGE_DOF = {
    10_000: ("0x1.a51f1d4954a13p+0", "0x1.f5cfbf9ae8acfp+0", "0x1.49c4e357b80a8p+1"),
    100_000: ("0x1.a516203c75c89p+0", "0x1.f5c1c1206c543p+0", "0x1.49b662bd5d0e1p+1"),
    1_000_000: ("0x1.a5153a270220fp+0", "0x1.f5c05aebc6dffp+0", "0x1.49b4ef8ba291dp+1"),
}


class TestTQuantile:
    def test_matches_known_values(self):
        # Classic t-table values.
        assert t_quantile(0.95, 10) == pytest.approx(2.228, abs=0.01)
        assert t_quantile(0.95, 30) == pytest.approx(2.042, abs=0.01)
        assert t_quantile(0.99, 20) == pytest.approx(2.845, abs=0.01)

    def test_approaches_normal_for_large_dof(self):
        assert t_quantile(0.95, 100_000) == pytest.approx(1.96, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            t_quantile(1.5, 10)
        with pytest.raises(ValueError):
            t_quantile(0.95, 0)

    @pytest.mark.parametrize("dof", [2.5, 19.0, float("nan"), "19"])
    def test_non_integer_dof_rejected(self, dof):
        with pytest.raises(ValueError, match="integer"):
            t_quantile(0.95, dof)

    def test_numpy_integer_dof(self):
        assert t_quantile(0.95, np.int64(19)) == t_quantile(0.95, 19)

    @pytest.mark.parametrize("dof", sorted(EXACT_T))
    def test_matches_exact_reference(self, dof):
        """Within 1e-13 of the exact quantile, with neither scipy nor mpmath.

        The references were computed once at 60 digits with mpmath and
        checked against the central form and the dof 1 and 2 closed forms::

            import mpmath as mp
            mp.mp.dps = 60

            def reference(confidence, dof):
                alpha = 1 - mp.mpf(confidence)
                tail = lambda t: mp.betainc(
                    mp.mpf(dof) / 2, 0.5, 0, dof / (dof + t * t), regularized=True
                )
                # any start near the root will do
                t = mp.findroot(lambda t: tail(t) - alpha, t_quantile(confidence, dof))
                return float(t).hex()
        """
        for confidence, expected in zip(CONFIDENCES, EXACT_T[dof]):
            exact = float.fromhex(expected)
            assert t_quantile(confidence, dof) == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("dof", sorted(EXACT_T_LARGE_DOF))
    def test_matches_exact_reference_large_dof(self, dof):
        for confidence, expected in zip((0.9, 0.95, 0.99), EXACT_T_LARGE_DOF[dof]):
            exact = float.fromhex(expected)
            assert t_quantile(confidence, dof) == pytest.approx(exact, rel=1e-10, abs=0)

    @pytest.mark.parametrize("confidence", [1e-300, 0.01, 0.5, 0.999999, 1.0 - 2.0**-53])
    def test_extreme_inputs_match_closed_forms(self, confidence):
        # dof 1 (Cauchy): t = tan(pi c / 2) = 1 / tan(pi (1 - c) / 2), about
        # 6.4e5 at c = 0.999999; dof 2: t = c sqrt(2 / (1 - c^2)).
        alpha = 1.0 - confidence
        if confidence < 0.5:
            cauchy = math.tan(math.pi * confidence / 2)
        else:
            cauchy = 1.0 / math.tan(math.pi * alpha / 2)
        dof2 = confidence * math.sqrt(2.0 / (alpha * (1.0 + confidence)))
        assert t_quantile(confidence, 1) == pytest.approx(cauchy, rel=1e-14, abs=0)
        assert t_quantile(confidence, 2) == pytest.approx(dof2, rel=1e-14, abs=0)

    def test_subnormal_confidence(self):
        for dof in (1, 2, 50):
            assert 0.0 < t_quantile(5e-324, dof) < 1e-322

    def test_call_is_cheap_at_small_dof(self):
        fastest = min(timeit.repeat(lambda: t_quantile(0.99, 199), number=1, repeat=20))
        assert fastest < 1e-3


class TestConfidenceIntervals:
    def test_basic_interval(self):
        data = [10.0, 12.0, 9.0, 11.0, 13.0, 10.0, 12.0, 11.0]
        ci = mean_confidence_interval(data, confidence=0.95)
        assert ci.mean == pytest.approx(float(np.mean(data)))
        assert ci.lower < ci.mean < ci.upper
        assert ci.contains(ci.mean)
        assert ci.sample_size == 8

    def test_single_observation_infinite_width(self):
        ci = mean_confidence_interval([5.0])
        assert math.isinf(ci.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_higher_confidence_wider(self):
        data = list(np.random.default_rng(3).random(50))
        assert (
            mean_confidence_interval(data, 0.99).half_width
            > mean_confidence_interval(data, 0.90).half_width
        )

    def test_coverage_of_known_mean(self):
        """95% CI should contain the true mean roughly 95% of the time."""
        rng = np.random.default_rng(4)
        hits = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(10.0, 2.0, size=30)
            if mean_confidence_interval(sample, 0.95).contains(10.0):
                hits += 1
        assert hits / trials > 0.88

    def test_relative_half_width_and_str(self):
        ci = mean_confidence_interval([10.0, 10.5, 9.5, 10.2])
        assert 0 < ci.relative_half_width < 1
        assert "95%" in str(ci)

    def test_batch_means_requires_enough_data(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0], num_batches=10)
        with pytest.raises(ValueError):
            batch_means(list(range(100)), num_batches=1)

    def test_batch_means_interval_reasonable(self):
        rng = np.random.default_rng(5)
        data = rng.exponential(2.0, size=2000)
        ci = batch_means(data, num_batches=20)
        assert ci.mean == pytest.approx(2.0, rel=0.1)
        assert ci.sample_size == 20

    def test_batch_means_drops_no_observation(self):
        """Regression: the tail remainder folds into the final batch."""
        # 107 = 5 batches of 21 + remainder 2; the old code silently dropped
        # the last 2 observations.  With equal-size head batches the grand
        # batch-mean average weighted by batch length must equal the overall
        # mean of *all* observations.
        data = np.arange(107, dtype=float)
        num_batches = 5
        ci = batch_means(data, num_batches=num_batches)
        batch_size = data.size // num_batches
        head = batch_size * (num_batches - 1)
        expected_means = [
            data[i * batch_size:(i + 1) * batch_size].mean()
            for i in range(num_batches - 1)
        ] + [data[head:].mean()]
        assert ci.mean == pytest.approx(np.mean(expected_means))
        # The final batch's observations (including the tail) are all used:
        # shifting only the tail values must change the interval.
        shifted = data.copy()
        shifted[-2:] += 1000.0
        assert batch_means(shifted, num_batches=num_batches).mean != ci.mean

    def test_batch_means_exact_multiple_unchanged(self):
        data = np.arange(100, dtype=float)
        ci = batch_means(data, num_batches=5)
        assert ci.mean == pytest.approx(data.mean())
        assert ci.sample_size == 5


class TestHistogram:
    def test_binning(self):
        hist = Histogram(0.0, 10.0, bins=10)
        hist.add(0.5)
        hist.add(9.99)
        hist.add(-1.0)
        hist.add(10.0)
        assert hist.counts[0] == 1
        assert hist.counts[9] == 1
        assert hist.underflow == 1
        assert hist.overflow == 1
        assert hist.total == 4

    def test_add_many_matches_add(self):
        values = np.random.default_rng(8).uniform(0, 10, size=1000)
        a = Histogram(0.0, 10.0, bins=20)
        b = Histogram(0.0, 10.0, bins=20)
        for v in values:
            a.add(v)
        b.add_many(values)
        assert np.array_equal(a.counts, b.counts)

    def test_normalized_sums_to_one(self):
        hist = Histogram(0.0, 1.0, bins=4)
        hist.add_many([0.1, 0.3, 0.6, 0.9])
        assert hist.normalized().sum() == pytest.approx(1.0)

    def test_quantile(self):
        hist = Histogram(0.0, 100.0, bins=100)
        hist.add_many(np.linspace(0, 99.9, 1000))
        assert hist.quantile(0.5) == pytest.approx(50.0, abs=2.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_zero_without_underflow_hits_first_occupied_bin(self):
        # Regression: with an empty underflow bucket, running >= target is
        # 0 >= 0 and q=0 wrongly returned ``low`` instead of the centre of
        # the first occupied bin.
        hist = Histogram(0.0, 10.0, bins=10)
        hist.add_many([3.5, 4.5, 7.5])
        assert hist.quantile(0.0) == pytest.approx(3.5)
        assert hist.quantile(1.0) == pytest.approx(7.5)

    def test_quantile_zero_with_underflow_returns_low(self):
        hist = Histogram(0.0, 10.0, bins=10)
        hist.add(-1.0)
        hist.add(5.5)
        assert hist.quantile(0.0) == 0.0

    def test_quantile_empty_histogram_is_nan(self):
        assert np.isnan(Histogram(0.0, 10.0, bins=10).quantile(0.5))

    def test_nan_observations_rejected_consistently(self):
        # add() and add_many() must agree: NaN is an error, never silently
        # dropped by add_many.
        hist = Histogram(0.0, 10.0, bins=10)
        with pytest.raises(ValueError):
            hist.add(float("nan"))
        with pytest.raises(ValueError):
            hist.add_many([1e-3, float("nan")])
        assert hist.total == 0

    def test_merge(self):
        a = Histogram(0.0, 10.0, bins=5)
        b = Histogram(0.0, 10.0, bins=5)
        a.add(1.0)
        b.add(9.0)
        merged = a.merge(b)
        assert merged.total == 2
        with pytest.raises(ValueError):
            a.merge(Histogram(0.0, 20.0, bins=5))

    def test_bin_edges_and_centers(self):
        hist = Histogram(0.0, 10.0, bins=10)
        assert len(hist.bin_edges()) == 11
        assert len(hist.bin_centers()) == 10
        assert hist.bin_centers()[0] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(5.0, 1.0)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, bins=0)


class TestComparisonMetrics:
    def test_relative_and_absolute_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert absolute_error(11.0, 10.0) == pytest.approx(1.0)
        assert math.isnan(relative_error(1.0, 0.0))

    def test_mape(self):
        assert mean_absolute_percentage_error([11.0, 9.0], [10.0, 10.0]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([], [])

    def test_rmse(self):
        assert root_mean_square_error([1.0, 2.0], [1.0, 4.0]) == pytest.approx(math.sqrt(2.0))

    def test_max_relative_error(self):
        assert max_relative_error([11.0, 12.0], [10.0, 10.0]) == pytest.approx(0.2)

    @pytest.mark.parametrize("metric", [root_mean_square_error, max_relative_error])
    def test_shape_mismatch_rejected(self, metric):
        with pytest.raises(ValueError, match="shape mismatch"):
            metric([1.0, 2.0], [1.0])

    def test_rmse_of_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            root_mean_square_error([], [])

    def test_all_zero_observations_have_no_relative_error(self):
        assert math.isnan(max_relative_error([1.0, 2.0], [0.0, 0.0]))
        assert math.isnan(mean_absolute_percentage_error([1.0, 2.0], [0.0, 0.0]))

    def test_relative_metrics_skip_zero_observations(self):
        assert max_relative_error([5.0, 11.0], [0.0, 10.0]) == pytest.approx(0.1)
        assert mean_absolute_percentage_error([5.0, 11.0], [0.0, 10.0]) == pytest.approx(10.0)

    def test_compare_series_summary(self):
        summary = compare_series([1.0, 2.0, 3.0], [1.1, 2.2, 2.7])
        assert summary.n_points == 3
        assert summary.mape_percent > 0
        assert "MAPE" in str(summary)
        assert set(summary.as_dict()) == {"mape_percent", "rmse", "max_relative_error", "n_points"}

    def test_perfect_prediction(self):
        summary = compare_series([1.0, 2.0], [1.0, 2.0])
        assert summary.mape_percent == pytest.approx(0.0)
        assert summary.rmse == pytest.approx(0.0)
