"""Closed-form least squares and the pinball gradient-descent fit against
empirical-quantile oracles."""

import warnings

import numpy as np
import pytest

from quantforecast.baselines import (LinearModel, fit_ols,
                                     fit_quantile_linear, predict)
from quantforecast.datapipe import WindowedDataset
from quantforecast.errors import TrainingDiverged


def dataset_from_arrays(inputs, targets, train_share=1.0):
    n = inputs.shape[0]
    split = int(round(train_share * n))
    return WindowedDataset(
        inputs=inputs, targets=targets, train_idx=np.arange(split),
        test_idx=np.arange(split, n) if split < n else np.arange(0),
        split_seed=0)


def intercept_only_dataset(sample, horizons=1):
    """Zero-variance-free inputs that carry no signal: windows are constant,
    so only the intercept can matter... but constant features would make the
    normal matrix singular, so a tiny distinct pattern is used instead with
    zero weight in the generating process."""
    n = sample.shape[0]
    rng = np.random.default_rng(42)
    inputs = rng.uniform(size=(n, 2, 1)) * 1e-12  # negligible signal
    targets = np.repeat(np.asarray(sample)[:, None], horizons, axis=1)
    return dataset_from_arrays(inputs, targets)


class TestFitOls:
    def test_exact_linear_data_recovers_coefficients(self, rng):
        n, d = 60, 3
        inputs = rng.normal(size=(n, d, 1))
        targets = (2.0 * inputs[:, :, 0]).sum(axis=1, keepdims=True)
        model = fit_ols(dataset_from_arrays(inputs, targets))
        assert np.allclose(model.coef[:, 0, 0], [2.0, 2.0, 2.0], atol=1e-9)
        assert abs(model.intercept[0, 0]) < 1e-9

    def test_zero_variance_target(self, rng):
        inputs = rng.normal(size=(40, 2, 1))
        targets = np.full((40, 1), 3.25)
        model = fit_ols(dataset_from_arrays(inputs, targets))
        assert np.allclose(model.coef, 0.0, atol=1e-9)
        assert model.intercept[0, 0] == pytest.approx(3.25)

    def test_one_column_per_horizon(self, rng):
        inputs = rng.normal(size=(50, 4, 1))
        targets = rng.normal(size=(50, 5))
        model = fit_ols(dataset_from_arrays(inputs, targets))
        assert model.coef.shape == (4, 5, 1)
        assert model.intercept.shape == (5, 1)

    def test_residuals_orthogonal_to_inputs(self, rng):
        n = 80
        inputs = rng.normal(size=(n, 5, 1))
        targets = rng.normal(size=(n, 3))
        ds = dataset_from_arrays(inputs, targets)
        model = fit_ols(ds)
        x = inputs.reshape(n, 5)
        residuals = targets - predict(model, inputs)[:, :, 0]
        assert np.max(np.abs(x.T @ residuals)) < 1e-8

    def test_ill_conditioned_full_rank_design_matches_lstsq(self, rng):
        # Two window steps differ by 1e-9: the design has full rank
        # (condition about 1e9) but its normal matrix is numerically
        # singular (condition about 1e18).
        n = 200
        base = rng.normal(size=n)
        inputs = np.stack([base, base + 1e-9 * rng.normal(size=n),
                           rng.normal(size=n)], axis=1)[:, :, None]
        targets = (inputs[:, :, 0] @ np.array([[1.0, -2.0], [1.0, 0.5],
                                               [0.3, 0.0]])
                   + 0.01 * rng.normal(size=(n, 2)))
        aug = np.hstack([inputs[:, :, 0], np.ones((n, 1))])
        assert np.linalg.matrix_rank(aug) == 4
        assert np.linalg.matrix_rank(aug.T @ aug) < 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_ols(dataset_from_arrays(inputs, targets))
        theta = np.linalg.lstsq(aug, targets, rcond=None)[0]
        got = np.vstack([model.coef[:, :, 0], model.intercept[:, 0][None]])
        assert np.allclose(got, theta, rtol=1e-12, atol=0)

    def test_singular_without_fallback(self, rng):
        inputs = np.repeat(rng.normal(size=(30, 1, 1)), 3, axis=1)  # rank 1
        targets = rng.normal(size=(30, 1))
        ds = dataset_from_arrays(inputs, targets)
        with pytest.warns(UserWarning):
            model = fit_ols(ds)  # minimum-norm solution of the singular system
        assert np.all(np.isfinite(model.coef))


class TestFitQuantileLinear:
    def test_intercept_only_median_of_small_sample(self):
        ds = intercept_only_dataset(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        model = fit_quantile_linear(ds, (0.5,), iterations=4000,
                                    learning_rate=0.05)
        assert model.intercept[0, 0] == pytest.approx(3.0, abs=1e-3)

    def test_intercept_only_upper_quantile(self):
        # empirical 0.9-quantile of {1..5}: the pinball minimiser is the
        # ceil(n q) = 5th order statistic; linear interpolation puts 4.6
        # within the same sample step
        sample = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ds = intercept_only_dataset(sample)
        model = fit_quantile_linear(ds, (0.9,), iterations=4000,
                                    learning_rate=0.05)
        assert abs(model.intercept[0, 0] - 4.6) <= 1.0  # one sample step

    def test_median_slope_matches_ols_under_symmetric_noise(self, rng):
        n = 400
        inputs = rng.uniform(-1.0, 1.0, size=(n, 2, 1))
        slope = np.array([1.5, -0.75])
        noise = rng.uniform(-0.2, 0.2, size=n)  # symmetric about zero
        targets = (inputs[:, :, 0] @ slope + 0.3 + noise)[:, None]
        ds = dataset_from_arrays(inputs, targets)
        ols = fit_ols(ds)
        quant = fit_quantile_linear(ds, (0.5,), iterations=6000,
                                    learning_rate=0.05)
        rel = np.abs(quant.coef[:, 0, 0] - ols.coef[:, 0, 0]) \
            / np.abs(ols.coef[:, 0, 0])
        assert np.max(rel) < 0.05

    def test_objective_trace_non_increasing(self, rng):
        inputs = rng.normal(size=(100, 3, 1))
        targets = rng.normal(size=(100, 2))
        ds = dataset_from_arrays(inputs, targets)
        model = fit_quantile_linear(ds, (0.25, 0.5, 0.75), iterations=500,
                                    learning_rate=0.05)
        trace = np.asarray(model.fit_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_intercept_equals_empirical_median_property(self, rng):
        # odd sample sizes keep the pinball minimiser unique: the middle
        # order statistic
        for _ in range(5):
            n = int(rng.integers(20, 120)) * 2 + 1
            sample = rng.normal(loc=rng.uniform(-2, 2), size=n)
            ds = intercept_only_dataset(sample)
            model = fit_quantile_linear(ds, (0.5,), iterations=6000,
                                        learning_rate=0.05)
            median = np.sort(sample)[n // 2]
            assert abs(model.intercept[0, 0] - median) <= 1e-3

    def test_quantile_columns_orderable(self, rng):
        # independent per-level fits on noisy data: higher levels sit higher
        sample = rng.uniform(0.0, 1.0, size=300)
        ds = intercept_only_dataset(sample)
        model = fit_quantile_linear(ds, (0.05, 0.5, 0.95), iterations=4000,
                                    learning_rate=0.02)
        levels = model.intercept[0]
        assert levels[0] < levels[1] < levels[2]


    def test_divergence_is_training_diverged(self, mg_dataset):
        # The first step overflows the weights; the next objective's
        # non-finite matmul is reported as divergence at that iteration.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged, match="iteration 1"):
                fit_quantile_linear(mg_dataset, (0.05, 0.5, 0.95),
                                    iterations=10, learning_rate=1e308)


class TestPredict:
    def test_zero_coefficients_give_intercept(self):
        model = LinearModel(coef=np.zeros((6, 2, 1)),
                            intercept=np.full((2, 1), 1.25),
                            quantiles=(0.5,))
        out = predict(model, np.random.default_rng(0).normal(size=(4, 3, 2)))
        assert out.shape == (4, 2, 1)
        assert np.all(out == 1.25)

    def test_identity_single_feature(self):
        # weight 1 on the last window entry reproduces it
        coef = np.zeros((3, 1, 1))
        coef[2, 0, 0] = 1.0
        model = LinearModel(coef=coef, intercept=np.zeros((1, 1)),
                            quantiles=(0.5,))
        windows = np.arange(12.0).reshape(4, 3, 1)
        out = predict(model, windows)
        assert np.array_equal(out[:, 0, 0], windows[:, 2, 0])

    def test_matches_manual_loop(self, rng):
        p, m, k = 6, 3, 2
        model = LinearModel(coef=rng.normal(size=(p, m, k)),
                            intercept=rng.normal(size=(m, k)),
                            quantiles=(0.25, 0.75))
        windows = rng.normal(size=(5, 3, 2))
        out = predict(model, windows)
        flat = windows.reshape(5, p)
        for i in range(5):
            for h in range(m):
                for j in range(k):
                    manual = model.intercept[h, j] + float(
                        np.dot(flat[i], model.coef[:, h, j]))
                    assert out[i, h, j] == pytest.approx(manual, rel=1e-12)
