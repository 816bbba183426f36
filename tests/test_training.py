"""Adam against closed-form single-step values; training determinism,
divergence and the op kinds a training step records."""

from collections import Counter

import numpy as np
import pytest

from quantforecast import training
from quantforecast.datapipe import WindowedDataset
from quantforecast.engine import OP_TABLE, SeededRng, Tensor
from quantforecast.errors import (ConfigError, NumericalError, ShapeError,
                                  TrainingDiverged)
from quantforecast.models import FAMILIES, ModelSpec, build_model, forward_pass
from quantforecast.training import AdamState, TrainConfig, adam_step, train


def grads_for(params, arrays):
    return {p: np.asarray(a, dtype=np.float64)
            for p, a in zip(params.values(), arrays)}


class TestAdamStep:
    def test_zero_gradients_leave_parameters_unchanged(self):
        params = {"w": Tensor([1.0, -2.0], requires_grad=True)}
        state = AdamState(learning_rate=0.1)
        adam_step(params, grads_for(params, [np.zeros(2)]), state)
        assert params["w"].data.tolist() == [1.0, -2.0]
        assert np.all(state.m["w"] == 0.0)
        assert np.all(state.v["w"] == 0.0)

    def test_first_step_magnitude_is_learning_rate(self):
        # bias-corrected first step with g=1: delta = -lr / (1 + eps)
        lr = 0.05
        params = {"w": Tensor([0.0], requires_grad=True)}
        state = AdamState(learning_rate=lr)
        adam_step(params, grads_for(params, [np.ones(1)]), state)
        assert params["w"].data[0] == pytest.approx(-lr, abs=1e-6 * lr)

    def test_constant_gradient_approaches_sign_step(self):
        # iterate the closed-form recursion on a scalar: with g constant,
        # m_hat -> g and v_hat -> g^2, so the step tends to -lr * sign(g)
        lr = 1e-3
        g = -3.7
        params = {"w": Tensor([0.0], requires_grad=True)}
        state = AdamState(learning_rate=lr)
        previous = 0.0
        for _ in range(500):
            previous = params["w"].data[0]
            adam_step(params, grads_for(params, [np.full(1, g)]), state)
        last_delta = params["w"].data[0] - previous
        assert last_delta == pytest.approx(lr, rel=1e-6)  # -lr*sign(-|g|)

    def test_nan_gradient_names_parameter(self):
        params = {"bad": Tensor([1.0], requires_grad=True)}
        with pytest.raises(NumericalError, match="bad"):
            adam_step(params, grads_for(params, [np.array([np.nan])]),
                      AdamState())

    def test_step_counter_monotone(self):
        params = {"w": Tensor([0.0], requires_grad=True)}
        state = AdamState()
        for expected in (1, 2, 3):
            adam_step(params, grads_for(params, [np.ones(1)]), state)
            assert state.step == expected


def linear_dataset(n=64, seed=0):
    """Windows drawn from y = W x + b exactly (no noise)."""
    rng = np.random.default_rng(seed)
    d, m = 3, 2
    inputs = rng.uniform(0.0, 1.0, size=(n, d, 1))
    w = np.array([[0.4, -0.2], [0.1, 0.3], [-0.5, 0.2]])
    b = np.array([0.15, 0.4])
    targets = inputs[:, :, 0] @ w + b
    split = int(0.8 * n)
    return WindowedDataset(
        inputs=inputs, targets=targets, train_idx=np.arange(split),
        test_idx=np.arange(split, n), split_seed=seed)


class TestTrainLoop:
    def test_toy_lstm_fits_linear_data(self):
        dataset = linear_dataset()
        spec = ModelSpec(family="lstm", features=1, window=3, horizons=2,
                         hidden1=8, hidden2=8)
        model = build_model(spec, SeededRng(0))
        # 2000 optimisation steps: 2000 epochs x 1 full batch
        result = train(model, dataset,
                       TrainConfig(epochs=2000, batch_size=64,
                                   learning_rate=5e-2, loss="mse"),
                       SeededRng(1))
        assert result.epoch_losses[-1] < 1e-6
        assert len(result.epoch_losses) == 2000

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_bad_batch_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=0)

    def test_mse_on_multilevel_model_rejected(self):
        dataset = linear_dataset()
        spec = ModelSpec(family="lstm", features=1, window=3, horizons=2,
                         hidden1=3, hidden2=3, quantiles=(0.25, 0.5, 0.75))
        model = build_model(spec, SeededRng(0))
        before = {name: p.data.copy() for name, p in model.params.items()}
        # mse_loss_batch rejects the first batch, before any update
        with pytest.raises(ShapeError, match="^mse-loss: "):
            train(model, dataset, TrainConfig(epochs=1, loss="mse"),
                  SeededRng(1))
        assert all(np.array_equal(p.data, before[name])
                   for name, p in model.params.items())

    def test_identical_seeds_identical_traces(self):
        dataset = linear_dataset()
        spec = ModelSpec(family="lstm", features=1, window=3, horizons=2,
                         hidden1=3, hidden2=3, quantiles=(0.25, 0.5, 0.75))

        def run():
            model = build_model(spec, SeededRng(5))
            result = train(model, dataset,
                           TrainConfig(epochs=5, batch_size=16,
                                       learning_rate=1e-3), SeededRng(6))
            return result.epoch_losses, {name: p.data.copy()
                                         for name, p in model.params.items()}

        losses_a, snap_a = run()
        losses_b, snap_b = run()
        assert losses_a == losses_b  # bitwise
        for name in snap_a:
            assert np.array_equal(snap_a[name], snap_b[name])

    def test_divergence_names_epoch_and_stage(self):
        dataset = linear_dataset()
        spec = ModelSpec(family="convlstm", features=1, window=3, horizons=2,
                         hidden1=3, hidden2=3, conv_filters=4)
        model = build_model(spec, SeededRng(0))
        # The one step of epoch 0 moves the weights to about 1e200, so in
        # epoch 1 the conv output (about 1e200) times lstm1's input weights
        # overflows in the matmul.
        config = TrainConfig(epochs=200, batch_size=64, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged,
                               match="epoch 1: convlstm lstm1: .*'matmul'"):
                train(model, dataset, config, SeededRng(1))

    def test_divergence_in_the_loss_names_the_loss(self):
        dataset = linear_dataset()
        spec = ModelSpec(family="lstm", features=1, window=3, horizons=2,
                         hidden1=3, hidden2=3)
        model = build_model(spec, SeededRng(0))
        # After epoch 0 the head's weights are about 1e200 and its input
        # states lie in (-1, 1), so the predictions are finite but so large
        # that the squared residual of the MSE loss overflows in epoch 1.
        config = TrainConfig(epochs=200, batch_size=64, learning_rate=1e200,
                             loss="mse")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged,
                               match="epoch 1: lstm loss: .*'hadamard'"):
                train(model, dataset, config, SeededRng(1))


class TestRecordedOps:
    def test_training_steps_record_exactly_the_op_table(self, monkeypatch):
        # Every op kind is recorded by some family's training step, under
        # one loss or the other, and no step records a kind outside it.
        recorded = set()
        real_backward = training.backward

        def recording_backward(loss, params=None):
            stack, seen = [loss], set()
            while stack:
                node = stack.pop()
                if node.node_id not in seen:
                    seen.add(node.node_id)
                    recorded.add(node.op)
                    stack.extend(node.parents)
            return real_backward(loss, params)

        monkeypatch.setattr(training, "backward", recording_backward)
        rng = np.random.default_rng(0)
        for f in (1, 3):
            dataset = WindowedDataset(
                inputs=rng.uniform(size=(4, 4, f)),
                targets=rng.uniform(size=(4, 2)), train_idx=np.arange(4),
                test_idx=np.arange(0), split_seed=0)
            for family in FAMILIES:
                for loss, qs in (("quantile", (0.25, 0.5, 0.75)),
                                 ("mse", (0.5,))):
                    spec = ModelSpec(family=family, features=f, window=4,
                                     horizons=2, hidden1=3, hidden2=3,
                                     quantiles=qs)
                    train(build_model(spec, SeededRng(0)), dataset,
                          TrainConfig(epochs=1, batch_size=4, loss=loss),
                          SeededRng(1))
        assert recorded - {"leaf"} == set(OP_TABLE)

    def test_recurrences_skip_known_work(self, monkeypatch):
        # Matmuls recorded by one training step, by the parameter they
        # multiply. Every stage starts from zero states, so its first step
        # has no h @ w_h product; the edlstm decoder reads the same context
        # at every step and projects it once; its head is one matmul.
        tapes = []
        real_backward = training.backward

        def recording_backward(loss, params=None):
            counts, stack, seen = Counter(), [loss], set()
            while stack:
                node = stack.pop()
                if node.node_id not in seen:
                    seen.add(node.node_id)
                    if node.op == "matmul":
                        counts.update(p.name for p in node.parents if p.name)
                    stack.extend(node.parents)
            tapes.append(counts)
            return real_backward(loss, params)

        monkeypatch.setattr(training, "backward", recording_backward)
        d, m = 4, 3
        rng = np.random.default_rng(0)
        dataset = WindowedDataset(
            inputs=rng.uniform(size=(4, d, 1)),
            targets=rng.uniform(size=(4, m)), train_idx=np.arange(4),
            test_idx=np.arange(0), split_seed=0)
        stage_steps = {
            "lstm": {"lstm1": d, "lstm2": d},
            "bdlstm": {"fwd": d, "bwd": d, "lstm2": d},
            "edlstm": {"enc": d, "dec": m},
            "convlstm": {"lstm1": d - 1},
        }
        matmuls = {}
        for family, stages in stage_steps.items():
            spec = ModelSpec(family=family, features=1, window=d, horizons=m,
                             hidden1=3, hidden2=3, quantiles=(0.25, 0.5, 0.75))
            tapes.clear()
            train(build_model(spec, SeededRng(0)), dataset,
                  TrainConfig(epochs=1, batch_size=4), SeededRng(1))
            assert len(tapes) == 1
            matmuls[family] = tapes[0]
            for stage, steps in stages.items():
                assert tapes[0][f"{stage}.w_h"] == steps - 1, (family, stage)
        assert matmuls["edlstm"] == {"enc.w_x": d, "enc.w_h": d - 1,
                                     "dec.w_x": 1, "dec.w_h": m - 1,
                                     "head.w": 1}


class TestQuantileSeparation:
    def test_noise_around_constant_orders_levels(self):
        # i.i.d. noise around a level: after convergence the learned 0.05
        # line sits below the median, which sits below the 0.95 line
        quantiles = (0.05, 0.5, 0.95)
        votes = 0
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            n, d, m = 200, 3, 1
            inputs = np.full((n, d, 1), 0.5)
            targets = 0.5 + rng.uniform(-0.3, 0.3, size=(n, m))
            dataset = WindowedDataset(
                inputs=inputs, targets=targets, train_idx=np.arange(160),
                test_idx=np.arange(160, 200), split_seed=seed)
            spec = ModelSpec(family="lstm", features=1, window=d,
                             horizons=m, hidden1=3, hidden2=3,
                             quantiles=quantiles)
            model = build_model(spec, SeededRng(seed))
            train(model, dataset,
                  TrainConfig(epochs=300, batch_size=160,
                              learning_rate=2e-2), SeededRng(seed + 100))
            pred = forward_pass(model, dataset.test_inputs).data
            lo, mid, hi = (pred[:, 0, j].mean() for j in range(3))
            if lo < mid < hi:
                votes += 1
        assert votes == 3
