"""Adam optimiser and the deterministic training loop.

A run is strictly single-threaded and fully determined by (seed, config):
the shuffle order comes from the run's SeededRng and parameters update in
the fixed name order of the model's parameter table, so identical runs
reproduce each other bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import SeededRng, Tensor, backward
from .errors import ConfigError, NumericalError, TrainingDiverged
from .losses import LossValue, mse_loss_batch, quantile_loss_batch
from .models import Model, forward_pass

LOSS_KINDS = ("quantile", "mse")

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Adaptive moment estimates keyed by parameter name."""
    learning_rate: float = 1e-4
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[Tensor, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place on the parameter tensors."""
    state.step += 1
    t = state.step
    scale1 = 1.0 - BETA1 ** t
    scale2 = 1.0 - BETA2 ** t
    for name in params:
        p = params[name]
        g = grads[p]
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros(p.shape)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros(p.shape)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        g2 = g * g
        g2 *= 1.0 - BETA2
        v += g2
        # lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order with
        # two scratch arrays instead of six.
        step = m / scale1
        step *= state.learning_rate
        denom = v / scale2
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p.data -= step


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-4
    loss: str = "quantile"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and positive, "
                              f"got {self.learning_rate}")


@dataclass
class TrainResult:
    epoch_losses: list[float]


def _batch_loss(model: Model, inputs: np.ndarray, targets: np.ndarray,
                kind: str) -> LossValue:
    pred = forward_pass(model, inputs)
    try:
        if kind == "quantile":
            return quantile_loss_batch(targets, pred, model.spec.quantiles)
        return mse_loss_batch(targets, pred)
    except NumericalError as exc:
        raise NumericalError(f"{model.spec.family} loss: {exc}") from exc


def train(model: Model, dataset, config: TrainConfig,
          rng: SeededRng) -> TrainResult:
    """Train on the dataset's training split; returns the per-epoch mean
    loss trace. Raises TrainingDiverged, naming the epoch and the failing
    stage, if the loss or a gradient goes non-finite."""
    inputs = dataset.train_inputs
    targets = dataset.train_targets
    n = inputs.shape[0]
    if n == 0:
        raise ConfigError("training split is empty")

    adam = AdamState(learning_rate=config.learning_rate)
    losses: list[float] = []

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_sum = 0.0
        for lo in range(0, n, config.batch_size):
            index = order[lo:lo + config.batch_size]
            try:
                value = _batch_loss(model, inputs[index], targets[index],
                                    config.loss)
                grads = backward(value.node, params=list(model.params.values()))
                adam_step(model.params, grads, adam)
            except NumericalError as exc:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}: {exc}") from exc
            epoch_sum += value.total * len(index)
        losses.append(epoch_sum / n)
    return TrainResult(epoch_losses=losses)
