"""Multi-output linear regression baselines: closed-form least squares and
pinball-objective quantile fits, over (batch, window, features) windows
flattened to (batch, window * features) rows."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor, add, backward, matmul, reshape
from .errors import ConfigError, NumericalError, TrainingDiverged
from .losses import check_quantiles, quantile_loss_batch

# Convergence rule for the gradient-descent quantile fit: stop once the
# best objective has improved by less than this over the last 100 iterations.
_CONVERGENCE_EPS = 1e-9
_CONVERGENCE_WINDOW = 100


@dataclass
class LinearModel:
    """Affine map from a flattened window to every (horizon, quantile) cell."""
    coef: np.ndarray       # (d*f, m, K)
    intercept: np.ndarray  # (m, K)
    quantiles: tuple[float, ...]
    fit_trace: list[float] = field(default_factory=list)


def _flatten_windows(inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ConfigError(f"expected (batch, d, f) windows, "
                          f"got shape {inputs.shape}")
    return inputs.reshape(inputs.shape[0], -1)


def fit_ols(dataset) -> LinearModel:
    """Closed-form least squares per horizon on flattened training windows.

    Solved by np.linalg.lstsq on the design itself, whose condition number
    is the square root of the normal matrix's; a rank-deficient design
    warns and gets the minimum-norm solution.
    """
    x = _flatten_windows(dataset.train_inputs)
    y = np.asarray(dataset.train_targets, dtype=np.float64)
    n, p = x.shape
    aug = np.hstack([x, np.ones((n, 1))])
    theta, _, rank, _ = np.linalg.lstsq(aug, y, rcond=None)
    if rank < p + 1:
        warnings.warn(f"rank-deficient design (rank {rank} of {p + 1}); "
                      f"using the minimum-norm solution", stacklevel=2)
    m = y.shape[1]
    return LinearModel(coef=theta[:p].reshape(p, m, 1),
                       intercept=theta[p].reshape(m, 1),
                       quantiles=(0.5,))


def fit_quantile_linear(dataset, quantiles, iterations: int = 5000,
                        learning_rate: float = 0.05) -> LinearModel:
    """Coefficients minimising the mean pinball loss per (horizon, quantile),
    by full-batch gradient descent on the pinball objective.

    The objective is piecewise linear, so the returned parameters are the
    best iterate seen; fit_trace records the best-so-far objective, which
    is non-increasing by construction. Intercepts start at the per-horizon
    training target mean, weights at zero. An objective that goes
    non-finite raises TrainingDiverged naming the iteration.
    """
    qs = check_quantiles(quantiles)
    x = _flatten_windows(dataset.train_inputs)
    y = np.asarray(dataset.train_targets, dtype=np.float64)
    n, p = x.shape
    m = y.shape[1]
    k = len(qs)
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")

    w = Tensor(np.zeros((p, m * k)), requires_grad=True, name="w")
    b = Tensor(np.repeat(y.mean(axis=0), k), requires_grad=True, name="b")
    x_t = Tensor(x)

    def objective() -> Tensor:
        pred = reshape(add(matmul(x_t, w), b), (n, m, k))
        return quantile_loss_batch(y, pred, qs).node

    best = np.inf
    best_w = w.data.copy()
    best_b = b.data.copy()
    trace: list[float] = []
    for it in range(iterations):
        try:
            node = objective()
        except NumericalError as exc:
            raise TrainingDiverged(f"pinball objective diverged at "
                                   f"iteration {it}: {exc}") from exc
        value = node.item()
        if value < best:
            best = value
            best_w = w.data.copy()
            best_b = b.data.copy()
        trace.append(best)
        if (len(trace) > _CONVERGENCE_WINDOW
                and trace[-_CONVERGENCE_WINDOW - 1] - best < _CONVERGENCE_EPS):
            break
        grads = backward(node, params=[w, b])
        w.data -= learning_rate * grads[w]
        b.data -= learning_rate * grads[b]

    return LinearModel(coef=best_w.reshape(p, m, k),
                       intercept=best_b.reshape(m, k),
                       quantiles=qs, fit_trace=trace)


def predict(model: LinearModel, windows) -> np.ndarray:
    """Affine evaluation: (batch, horizons, levels) predictions."""
    x = _flatten_windows(windows)
    _, m, k = model.coef.shape
    flat = x @ model.coef.reshape(x.shape[1], m * k) + model.intercept.ravel()
    return flat.reshape(x.shape[0], m, k)
