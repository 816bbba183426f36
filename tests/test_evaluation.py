"""Run scores against loop oracles; aggregation statistics by hand."""

import numpy as np
import pytest

from quantforecast.errors import (ConfigError, EmptyEval, MissingMedian,
                                  ShapeError)
from quantforecast.evaluation import RunReport, aggregate_runs, make_run_report
from quantforecast.losses import DEFAULT_QUANTILES


def rmse_loops(y, y_hat):
    per_h = []
    for h in range(y.shape[1]):
        acc = 0.0
        for i in range(y.shape[0]):
            acc += (y[i, h] - y_hat[i, h]) ** 2
        per_h.append((acc / y.shape[0]) ** 0.5)
    return sum(per_h) / len(per_h), per_h


def score(y, p, quantiles):
    return make_run_report(0, y, p, quantiles, wall_seconds=0.0)


class TestRmse:
    def test_perfect_prediction(self, rng):
        y = rng.normal(size=(5, 3))
        report = score(y, y[:, :, None].copy(), (0.5,))
        assert report.mean_rmse == 0.0
        assert np.all(report.per_horizon_rmse == 0.0)
        assert report.coverage_05_95 is None and report.crossing is None

    def test_unit_error(self):
        report = score(np.zeros((4, 1)), np.ones((4, 1, 1)), (0.5,))
        assert report.mean_rmse == 1.0

    def test_matches_loop_oracle(self, rng):
        y = rng.normal(size=(100, 4))
        y_hat = rng.normal(size=(100, 4))
        report = score(y, y_hat[:, :, None], (0.5,))
        o_scalar, o_per_h = rmse_loops(y, y_hat)
        assert report.mean_rmse == pytest.approx(o_scalar, abs=1e-12)
        assert np.allclose(report.per_horizon_rmse, o_per_h, atol=1e-12)
        assert report.per_quantile_rmse.tolist() == [report.mean_rmse]

    def test_single_horizon_is_byte_equal_to_one_dimensional_means(self, rng):
        # A reduction over windows of the broadcast (n, 1, K) error array
        # sums in another order than the mean of each level's n errors.
        y = rng.normal(size=(2389, 1))
        p = rng.normal(size=(2389, 1, 3))
        report = score(y, p, (0.05, 0.5, 0.95))
        want = [np.sqrt(np.mean((y[:, 0] - p[:, 0, j]) ** 2))
                for j in range(3)]
        assert report.per_quantile_rmse.tolist() == want
        assert report.per_horizon_rmse.tolist() == [want[1]]
        assert report.mean_rmse == want[1]

    def test_empty_rejected(self):
        with pytest.raises(EmptyEval):
            score(np.zeros((0, 2)), np.zeros((0, 2, 1)), (0.5,))

    def test_shape_mismatch(self):
        for targets, predictions in (((3, 2), (3, 3, 1)), ((3, 2), (3, 2)),
                                     ((3, 2), (3, 2, 2)), ((4, 2), (3, 2, 1))):
            with pytest.raises(ShapeError):
                score(np.zeros(targets), np.zeros(predictions), (0.5,))


class TestQuantileRmse:
    def test_identical_slices_are_zero(self, rng):
        y = rng.normal(size=(6, 2))
        p = np.repeat(y[:, :, None], 5, axis=2)
        out = score(y, p, DEFAULT_QUANTILES).per_quantile_rmse
        assert np.all(out == 0.0)

    def test_triple_loop_oracle(self, rng):
        y = rng.normal(size=(2, 2))
        p = rng.normal(size=(2, 2, 3))
        quantiles = (0.25, 0.5, 0.75)
        out = score(y, p, quantiles).per_quantile_rmse
        for j in range(3):
            scalar, _ = rmse_loops(y, p[:, :, j])
            assert out[j] == pytest.approx(scalar, abs=1e-12)

    def test_median_required(self):
        # the campaign config's error and message: one rule for both
        with pytest.raises(ConfigError, match=r"^quantile set \(0\.25, "
                           r"0\.75\) must include 0\.5, the level the run "
                           r"reports score$") as exc:
            score(np.zeros((2, 2)), np.zeros((2, 2, 2)), (0.25, 0.75))
        assert exc.type is MissingMedian

    def test_single_level_must_be_the_median(self):
        # mean_rmse is the 0.5 level's, so a lone 0.9 level is not scored
        with pytest.raises(MissingMedian, match=r"\(0\.9,\)"):
            score(np.zeros((2, 2)), np.zeros((2, 2, 1)), (0.9,))


class TestCoverage:
    def test_all_inside_band(self, rng):
        y = rng.uniform(0.4, 0.6, size=(5, 3))
        p = np.empty((5, 3, 3))
        p[:, :, 0] = -100.0
        p[:, :, 1] = 0.5
        p[:, :, 2] = 100.0
        assert score(y, p, (0.05, 0.5, 0.95)).coverage_05_95 == 1.0

    def test_degenerate_band_misses_everything(self, rng):
        y = rng.uniform(0.4, 0.6, size=(5, 3))
        p = np.full((5, 3, 3), 2.0)
        assert score(y, p, (0.05, 0.5, 0.95)).coverage_05_95 == 0.0

    def test_counting_oracle(self, rng):
        y = rng.normal(size=(20, 4))
        p = np.sort(rng.normal(size=(20, 4, 3)), axis=2)
        got = score(y, p, (0.1, 0.5, 0.9)).coverage_05_95
        count = 0
        for i in range(20):
            for h in range(4):
                if p[i, h, 0] <= y[i, h] <= p[i, h, 2]:
                    count += 1
        assert got == pytest.approx(count / 80.0)


class TestCrossingRate:
    def test_monotone_has_no_crossings(self, rng):
        p = np.sort(rng.normal(size=(10, 3, 5)), axis=2)
        assert score(p[:, :, 2], p, DEFAULT_QUANTILES).crossing == 0.0

    def test_swapped_slices_cross_everywhere(self, rng):
        p = np.sort(rng.normal(size=(10, 3, 5)), axis=2)
        p = p.copy()
        p[:, :, [1, 3]] = p[:, :, [3, 1]]
        assert score(p[:, :, 2], p, DEFAULT_QUANTILES).crossing == 1.0

    def test_counting_oracle(self, rng):
        p = rng.normal(size=(30, 2, 4))
        got = score(rng.normal(size=(30, 2)), p,
                    (0.1, 0.4, 0.5, 0.9)).crossing
        count = 0
        for i in range(30):
            for h in range(2):
                if any(p[i, h, j] > p[i, h, j + 1] for j in range(3)):
                    count += 1
        assert got == pytest.approx(count / 60.0)


class TestRunReport:
    def test_mean_rmse_is_median_quantile_mean(self, rng):
        y = rng.normal(size=(8, 3))
        p = rng.normal(size=(8, 3, 5))
        report = make_run_report(7, y, p, DEFAULT_QUANTILES, wall_seconds=1.0)
        scalar, per_h = rmse_loops(y, p[:, :, 2])
        assert report.mean_rmse == pytest.approx(scalar, abs=1e-12)
        assert np.allclose(report.per_horizon_rmse, per_h, atol=1e-12)
        assert report.mean_rmse == pytest.approx(
            float(np.mean(report.per_horizon_rmse)))
        assert report.per_quantile_rmse[2] == pytest.approx(report.mean_rmse)

    def test_json_roundtrip(self, rng):
        y = rng.normal(size=(8, 3))
        p = rng.normal(size=(8, 3, 5))
        report = make_run_report(3, y, p, DEFAULT_QUANTILES, wall_seconds=2.5)
        clone = RunReport.from_dict(report.to_dict())
        assert clone.seed == 3
        assert np.allclose(clone.per_quantile_rmse, report.per_quantile_rmse)
        assert clone.coverage_05_95 == report.coverage_05_95


class TestAggregation:
    def test_hand_computed_statistics(self):
        # five synthetic mean RMSE values; 95% half-width = 1.96 s / sqrt(5)
        values = np.array([0.010, 0.012, 0.011, 0.013, 0.009])
        reports = [
            RunReport(seed=i, quantiles=(0.5,),
                      per_horizon_rmse=np.array([v]),
                      per_quantile_rmse=np.array([v]), mean_rmse=float(v),
                      wall_seconds=0.0)
            for i, v in enumerate(values)]
        agg = aggregate_runs(reports)
        assert agg.mean_rmse.mean == pytest.approx(values.mean())
        expected_hw = 1.96 * values.std(ddof=1) / np.sqrt(5)
        assert agg.mean_rmse.half_width == pytest.approx(expected_hw)
        assert agg.runs_completed == 5

    def test_single_run_zero_halfwidth_with_warning(self):
        report = RunReport(seed=0, quantiles=(0.5,),
                           per_horizon_rmse=np.array([0.5]),
                           per_quantile_rmse=np.array([0.5]), mean_rmse=0.5,
                           wall_seconds=0.0)
        with pytest.warns(UserWarning):
            agg = aggregate_runs([report])
        assert agg.mean_rmse.half_width == 0.0

    def test_halfwidth_shrinks_like_inverse_sqrt(self, rng):
        # resample synthetic run reports at R and 4R: half-width halves
        def agg_of(r):
            reports = [
                RunReport(seed=i, quantiles=(0.5,),
                          per_horizon_rmse=np.array([v]),
                          per_quantile_rmse=np.array([v]), mean_rmse=float(v),
                          wall_seconds=0.0)
                for i, v in enumerate(rng.normal(0.01, 0.001, size=r))]
            return aggregate_runs(reports).mean_rmse.half_width

        small = np.mean([agg_of(8) for _ in range(200)])
        large = np.mean([agg_of(32) for _ in range(200)])
        assert large == pytest.approx(small / 2.0, rel=0.1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyEval):
            aggregate_runs([])
