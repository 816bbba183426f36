"""Pinball (check) loss, its batched aggregation, and MSE for classic models.

Predictions carry one value per (horizon, quantile) cell, laid out as
(batch, horizons, levels); targets are (batch, horizons).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Tensor, pinball_branch, reduce_mean, reshape, sub
from .errors import InvalidQuantile, MissingMedian, ShapeError

DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def check_quantiles(quantiles) -> tuple[float, ...]:
    """Validate a quantile set: each level in (0, 1), strictly increasing."""
    qs = tuple(float(q) for q in quantiles)
    if not qs:
        raise InvalidQuantile("quantile set is empty")
    for q in qs:
        if not 0.0 < q < 1.0:
            raise InvalidQuantile(f"quantile {q} outside (0, 1)")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise InvalidQuantile(f"quantiles must be strictly increasing: {qs}")
    return qs


@dataclass
class LossValue:
    """Scalar loss plus its per-(horizon, quantile) breakdown.

    total is the uniform mean of the breakdown entries. node holds the
    differentiable scalar when the loss was built from a graph tensor.
    """
    total: float
    breakdown: np.ndarray
    node: Tensor | None = None


def pinball(y: float, y_hat: float, q: float) -> float:
    """Check loss of a single residual: q*(y - y_hat) if y >= y_hat,
    else (q - 1)*(y - y_hat)."""
    if not 0.0 < q < 1.0:
        raise InvalidQuantile(f"quantile {q} outside (0, 1)")
    u = y - y_hat
    return q * u if u >= 0 else (q - 1.0) * u


def _pinball_cells(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.where(u >= 0, q * u, (q - 1.0) * u)


def quantile_loss_batch(targets: np.ndarray, predictions, quantiles) -> LossValue:
    """Mean pinball loss of (batch, horizons, levels) predictions against
    (batch, horizons) targets replicated across the quantile axis.

    Graph tensors keep a differentiable total in LossValue.node.
    """
    qs = check_quantiles(quantiles)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2:
        raise ShapeError("quantile-loss", targets.shape)
    batch, horizons = targets.shape
    k = len(qs)

    if predictions.shape != (batch, horizons, k):
        raise ShapeError("quantile-loss", targets.shape, predictions.shape)

    q_arr = np.asarray(qs).reshape(1, 1, k)
    tiled = np.repeat(targets[:, :, None], k, axis=2)
    if isinstance(predictions, Tensor):
        u = sub(Tensor(tiled), predictions)
        cells = pinball_branch(u, q_arr)
        node = reduce_mean(cells)
        cell_values = cells.data
        total = node.item()
    else:
        cell_values = _pinball_cells(tiled - predictions, q_arr)
        node = None
        total = float(np.mean(cell_values))
    return LossValue(total=total, breakdown=cell_values.mean(axis=0), node=node)


def mse_loss_batch(targets: np.ndarray, predictions) -> LossValue:
    """Mean squared error; accepts (batch, horizons) predictions or the
    single-level (batch, horizons, 1) form."""
    targets = np.asarray(targets, dtype=np.float64)
    is_tensor = isinstance(predictions, Tensor)
    pred_shape = predictions.shape
    if len(pred_shape) == 3 and pred_shape[2] == 1:
        if is_tensor:
            predictions = reshape(predictions, pred_shape[:2])
        else:
            predictions = np.asarray(predictions).reshape(pred_shape[:2])
        pred_shape = pred_shape[:2]
    if pred_shape != targets.shape:
        raise ShapeError("mse-loss", targets.shape, pred_shape)

    if is_tensor:
        from .engine import hadamard
        e = sub(Tensor(targets), predictions)
        node = reduce_mean(hadamard(e, e))
        sq = (targets - predictions.data) ** 2
        total = node.item()
    else:
        sq = (targets - np.asarray(predictions, dtype=np.float64)) ** 2
        node = None
        total = float(np.mean(sq))
    return LossValue(total=total, breakdown=sq.mean(axis=0)[:, None], node=node)


def median_extract(predictions: np.ndarray, quantiles) -> np.ndarray:
    """Slice out the q=0.5 level from (batch, horizons, levels) predictions."""
    qs = check_quantiles(quantiles)
    if 0.5 not in qs:
        raise MissingMedian(f"0.5 not in quantile set {qs}")
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim != 3 or predictions.shape[2] != len(qs):
        raise ShapeError("median-extract", predictions.shape, (len(qs),))
    return predictions[:, :, qs.index(0.5)]
