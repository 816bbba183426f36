"""Pinball (check) loss, its batched aggregation, and MSE for classic models.

Predictions carry one value per (horizon, quantile) cell, laid out as
(batch, horizons, levels); targets are (batch, horizons). The batched
losses send arrays and graph tensors through the same engine ops, so the
training loop, the quantile linear fit and any array caller score with
one pinball, quantile_loss_batch; a single residual is scored as a
(1, 1) target against a (1, 1, 1) prediction. check_quantiles owns the
rule for a quantile set; the engine op only guards its levels to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (Tensor, hadamard, pinball_branch, reduce_mean, reshape,
                     sub)
from .errors import InvalidQuantile, ShapeError

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
    """Scalar loss: total is its value, node the scalar Tensor holding it.

    node is differentiable when the predictions were a graph tensor; an
    array enters the same ops as a leaf and its node records no tape.
    """
    total: float
    node: Tensor


def quantile_loss_batch(targets: np.ndarray, predictions, quantiles) -> LossValue:
    """Mean pinball loss of (batch, horizons, levels) predictions against
    (batch, horizons) targets, broadcast across the quantile axis."""
    qs = check_quantiles(quantiles)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2:
        raise ShapeError("quantile-loss", targets.shape)
    batch, horizons = targets.shape
    k = len(qs)
    if predictions.shape != (batch, horizons, k):
        raise ShapeError("quantile-loss", targets.shape, predictions.shape)

    u = sub(Tensor(targets[:, :, None]), predictions)
    node = reduce_mean(pinball_branch(u, np.asarray(qs).reshape(1, 1, k)))
    return LossValue(total=node.item(), node=node)


def mse_loss_batch(targets: np.ndarray, predictions) -> LossValue:
    """Mean squared error of single-level (batch, horizons, 1) predictions
    against (batch, horizons) targets."""
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape + (1,):
        raise ShapeError("mse-loss", targets.shape, predictions.shape)
    e = sub(Tensor(targets), reshape(predictions, targets.shape))
    node = reduce_mean(hadamard(e, e))
    return LossValue(total=node.item(), node=node)
