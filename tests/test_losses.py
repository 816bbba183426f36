"""Pinball loss values against hand evaluation and brute-force oracles."""

import numpy as np
import pytest

from quantforecast.engine import (Tensor, backward, pinball_branch,
                                  reduce_mean, sub)
from quantforecast.errors import InvalidQuantile, ShapeError
from quantforecast.losses import (DEFAULT_QUANTILES, check_quantiles,
                                  mse_loss_batch, quantile_loss_batch)


def pinball(y, y_hat, q):
    """The batched loss of one residual: a (1, 1) target against a
    (1, 1, 1) prediction at the single level q."""
    return quantile_loss_batch(np.array([[y]]), np.array([[[y_hat]]]),
                               (q,)).total


def pinball_loops(targets, predictions, quantiles):
    """Straight-line double-loop reimplementation of the batched loss."""
    total = 0.0
    count = 0
    for i in range(targets.shape[0]):
        for h in range(targets.shape[1]):
            for j, q in enumerate(quantiles):
                u = targets[i, h] - predictions[i, h, j]
                total += q * u if u >= 0 else (q - 1) * u
                count += 1
    return total / count


class TestPinballScalar:
    def test_upper_quantile_under_prediction(self):
        assert pinball(1.0, 0.5, 0.95) == pytest.approx(0.475, abs=1e-15)

    def test_upper_quantile_over_prediction(self):
        assert pinball(0.5, 1.0, 0.95) == pytest.approx(0.025, abs=1e-15)

    def test_zero_residual(self):
        for q in DEFAULT_QUANTILES:
            assert pinball(1.3, 1.3, q) == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(InvalidQuantile):
            pinball(1.0, 0.5, 0.0)
        with pytest.raises(InvalidQuantile):
            pinball(1.0, 0.5, 1.0)

    def test_symmetry_identity(self, rng):
        # For r > 0: pinball(y, y-r, q) + pinball(y, y+r, q) == r.
        for _ in range(100):
            y = rng.normal()
            r = abs(rng.normal()) + 1e-6
            q = rng.uniform(0.01, 0.99)
            assert pinball(y, y - r, q) + pinball(y, y + r, q) == pytest.approx(r)

    def test_positive_homogeneity(self, rng):
        for _ in range(100):
            y, y_hat = rng.normal(size=2)
            q = rng.uniform(0.01, 0.99)
            lam = rng.uniform(0.1, 10.0)
            assert pinball(lam * y, lam * y_hat, q) == pytest.approx(
                lam * pinball(y, y_hat, q))


class TestQuantileLossBatch:
    def test_perfect_predictions_have_zero_loss(self):
        targets = np.array([[1.0, 2.0], [3.0, 4.0]])
        preds = np.repeat(targets[:, :, None], 3, axis=2)
        value = quantile_loss_batch(targets, preds, (0.25, 0.5, 0.75))
        assert value.total == 0.0

    def test_median_single_cell(self):
        value = quantile_loss_batch(np.array([[2.0]]), np.array([[[1.0]]]),
                                    (0.5,))
        assert value.total == pytest.approx(0.5)

    def test_matches_loop_oracle(self, rng):
        targets = rng.normal(size=(2, 2))
        preds = rng.normal(size=(2, 2, 2))
        quantiles = (0.25, 0.75)
        value = quantile_loss_batch(targets, preds, quantiles)
        assert value.total == pytest.approx(
            pinball_loops(targets, preds, quantiles), rel=1e-12)

    def test_array_equals_numpy_oracle_bytewise(self, rng):
        # An array takes the tensor ops as a leaf: same bytes as the plain
        # numpy expression, and a node with no tape behind it.
        for _ in range(20):
            targets = rng.normal(size=(7, 3))
            preds = rng.normal(size=(7, 3, 5))
            q = np.asarray(DEFAULT_QUANTILES).reshape(1, 1, 5)
            u = targets[:, :, None] - preds
            oracle = float(np.where(u >= 0, q * u, (q - 1) * u).mean())
            value = quantile_loss_batch(targets, preds, DEFAULT_QUANTILES)
            assert value.total == oracle
            assert value.node.item() == oracle
            assert value.node.parents == ()

    @pytest.mark.parametrize("shape", [(7, 3, 5), (6, 1, 3), (5, 4, 1),
                                       (1, 1, 1)])
    def test_broadcast_targets_equal_tiled_formula_bytewise(self, rng, shape):
        # The targets broadcast across the levels; value and prediction
        # gradient are the bytes of the formula on explicitly tiled targets.
        batch, horizons, k = shape
        quantiles = DEFAULT_QUANTILES[:k] if k > 1 else (0.5,)
        targets = rng.normal(size=(batch, horizons))
        base = rng.normal(size=shape)

        tiled = Tensor(np.repeat(targets[:, :, None], k, axis=2))
        pred = Tensor(base.copy(), requires_grad=True)
        node = reduce_mean(pinball_branch(
            sub(tiled, pred), np.asarray(quantiles).reshape(1, 1, k)))
        oracle_value = node.item()
        oracle_grad = backward(node, [pred])[pred]

        assert quantile_loss_batch(targets, base, quantiles).total \
            == oracle_value
        pred = Tensor(base.copy(), requires_grad=True)
        value = quantile_loss_batch(targets, pred, quantiles)
        assert value.total == oracle_value
        grad = backward(value.node, [pred])[pred]
        assert grad.tobytes() == oracle_grad.tobytes()

    def test_flat_layout_mismatch(self):
        # only the (batch, horizons, levels) layout is accepted, even when
        # a flat block has the right number of cells
        for flat in (np.zeros((3, 4)), np.zeros((3, 5))):
            with pytest.raises(ShapeError):
                quantile_loss_batch(np.zeros((3, 2)), flat, (0.25, 0.75))
            with pytest.raises(ShapeError):
                quantile_loss_batch(np.zeros((3, 2)), Tensor(flat),
                                    (0.25, 0.75))

    def test_gradient_matches_finite_difference(self, rng):
        targets = rng.normal(size=(3, 2))
        base = rng.normal(size=(3, 2, 3))
        quantiles = (0.1, 0.5, 0.9)

        pred = Tensor(base.copy(), requires_grad=True)
        value = quantile_loss_batch(targets, pred, quantiles)
        grads = backward(value.node, [pred])

        h = 1e-6
        flat = pred.data.ravel()
        for i in range(0, flat.size, 7):
            orig = flat[i]
            flat[i] = orig + h
            fp = quantile_loss_batch(targets, pred.data, quantiles).total
            flat[i] = orig - h
            fm = quantile_loss_batch(targets, pred.data, quantiles).total
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            assert grads[pred].ravel()[i] == pytest.approx(numeric, abs=1e-6)


class TestEmpiricalQuantileMinimizer:
    def test_constant_minimizer_lands_on_empirical_quantile(self, rng):
        # Brute-force grid search for the constant minimising mean pinball;
        # it must sit within one grid step of the empirical quantile. The
        # sample size keeps n*q fractional so the minimizer is unique, and
        # the oracle uses the inverse-CDF order statistic (the pinball
        # minimizer) rather than an interpolated quantile.
        sample = rng.normal(size=121)
        n = sample.size
        grid = np.linspace(sample.min(), sample.max(), 4001)
        step = grid[1] - grid[0]
        for q in DEFAULT_QUANTILES:
            assert (n * q) % 1 != 0
            losses = [np.mean(np.where(sample - c >= 0, q * (sample - c),
                                       (q - 1) * (sample - c)))
                      for c in grid]
            best = grid[int(np.argmin(losses))]
            empirical = np.sort(sample)[int(np.ceil(n * q)) - 1]
            assert abs(best - empirical) <= step + 1e-12


class TestMseLoss:
    def test_identical_is_zero(self, rng):
        y = rng.normal(size=(4, 3))
        assert mse_loss_batch(y, y[:, :, None].copy()).total == 0.0

    def test_unit_error(self):
        assert mse_loss_batch(np.zeros((1, 2)),
                              np.ones((1, 2, 1))).total == 1.0

    def test_equals_squared_rmse(self, rng):
        y = rng.normal(size=(10, 1))
        y_hat = rng.normal(size=(10, 1))
        value = mse_loss_batch(y, y_hat[:, :, None])
        scalar = np.sqrt(np.mean((y - y_hat) ** 2))
        assert value.total == pytest.approx(scalar ** 2)

    def test_single_level_axis_squeezed(self, rng):
        for _ in range(20):
            y = rng.normal(size=(4, 3))
            p = rng.normal(size=(4, 3, 1))
            value = mse_loss_batch(y, p)
            assert value.total == float(((y - p[:, :, 0]) ** 2).mean())
            assert value.node.parents == ()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss_batch(np.zeros((2, 2)), np.zeros((2, 3, 1)))
        # only the single-level (batch, horizons, 1) layout is accepted
        for pred in (np.zeros((2, 2)), Tensor(np.zeros((2, 2)))):
            with pytest.raises(ShapeError):
                mse_loss_batch(np.zeros((2, 2)), pred)


class TestQuantileValidation:
    def test_default_set(self):
        assert check_quantiles(DEFAULT_QUANTILES) == (0.05, 0.25, 0.5, 0.75, 0.95)

    def test_not_increasing_rejected(self):
        with pytest.raises(InvalidQuantile):
            check_quantiles((0.5, 0.5))
        with pytest.raises(InvalidQuantile):
            check_quantiles((0.7, 0.2))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidQuantile):
            check_quantiles((0.0, 0.5))
