"""Multi-output linear regression baselines: closed-form least squares and
pinball-objective quantile fits."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor, add, backward, matmul, reshape
from .errors import ConfigError, TrainingDiverged
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

    @property
    def horizons(self) -> int:
        return self.coef.shape[1]

    @property
    def levels(self) -> int:
        return self.coef.shape[2]


def _flatten_windows(inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim == 3:
        return inputs.reshape(inputs.shape[0], -1)
    if inputs.ndim == 2:
        return inputs
    raise ConfigError(f"expected (batch, d, f) or (batch, p) windows, "
                      f"got shape {inputs.shape}")


def fit_ols(dataset) -> LinearModel:
    """Closed-form least squares per horizon on flattened training windows.

    A rank-deficient normal matrix falls back to a tiny ridge (1e-8) with a
    warning.
    """
    x = _flatten_windows(dataset.train_inputs)
    y = np.asarray(dataset.train_targets, dtype=np.float64)
    n, p = x.shape
    aug = np.hstack([x, np.ones((n, 1))])
    gram = aug.T @ aug
    rhs = aug.T @ y
    try:
        if np.linalg.matrix_rank(gram) < gram.shape[0]:
            raise np.linalg.LinAlgError("rank deficient")
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        warnings.warn("singular normal matrix; applying ridge 1e-8",
                      stacklevel=2)
        theta = np.linalg.solve(gram + 1e-8 * np.eye(gram.shape[0]), rhs)
    m = y.shape[1]
    return LinearModel(coef=theta[:p].reshape(p, m, 1),
                       intercept=theta[p].reshape(m, 1),
                       quantiles=(0.5,))


def fit_quantile_linear(dataset, quantiles=None, iterations: int = 5000,
                        learning_rate: float = 0.05) -> LinearModel:
    """Coefficients minimising the mean pinball loss per (horizon, quantile),
    by full-batch gradient descent on the pinball objective.

    The objective is piecewise linear, so the returned parameters are the
    best iterate seen; fit_trace records the best-so-far objective, which
    is non-increasing by construction. Intercepts start at the per-horizon
    training target mean, weights at zero.
    """
    qs = check_quantiles(quantiles if quantiles is not None else (0.5,))
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
        node = objective()
        value = node.item()
        if not np.isfinite(value):
            raise TrainingDiverged(f"pinball objective diverged at "
                                   f"iteration {it}")
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
    m, k = model.horizons, model.levels
    flat = x @ model.coef.reshape(x.shape[1], m * k) + model.intercept.ravel()
    return flat.reshape(x.shape[0], m, k)
