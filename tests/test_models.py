"""Architecture wiring, parameter inventories, and the LSTM cell against an
independent straight-line oracle."""

import tracemalloc

import numpy as np
import pytest

from quantforecast.engine import (SeededRng, Tensor, add, concat, conv1d,
                                  matmul, reshape)
from quantforecast.errors import ConfigError, NumericalError, ShapeError
from quantforecast.losses import DEFAULT_QUANTILES
from quantforecast.models import (FAMILIES, PREDICT_ROWS, ModelSpec,
                                  build_model, forward_pass)

from lstm_oracle import lstm_cell_step


def reference_lstm_step(x, h_prev, c_prev, w_x, w_h, b):
    """Independent elementwise reimplementation of the five cell equations."""
    hidden = h_prev.shape[1]
    z = x @ w_x + h_prev @ w_h + b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(z[:, 0:hidden])
    f = sig(z[:, hidden:2 * hidden])
    g = np.tanh(z[:, 2 * hidden:3 * hidden])
    o = sig(z[:, 3 * hidden:4 * hidden])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def glorot(rng, shape, fan_in, fan_out):
    """The documented initial draw: uniform on (-L, L), L = sqrt(6 / (fan_in
    + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def zeros(*shape):
    return Tensor(np.zeros(shape))


def toy_spec(family, f=1, quantiles=(0.5,), **kw):
    defaults = dict(features=f, window=4, horizons=2, hidden1=3, hidden2=3,
                    quantiles=quantiles)
    defaults.update(kw)
    return ModelSpec(family=family, **defaults)


def oracle_lstm(steps, params, prefix):
    """The states of one LSTM stage, by an explicit loop of cell steps."""
    stage = {part: params[f"{prefix}.{part}"] for part in ("w_x", "w_h", "b")}
    hidden = stage["w_h"].shape[0]
    h = Tensor(np.zeros((steps[0].shape[0], hidden)))
    c = Tensor(np.zeros((steps[0].shape[0], hidden)))
    states = []
    for x_t in steps:
        h, c = lstm_cell_step(x_t, h, c, stage)
        states.append(h)
    return states


class TestLstmCell:
    def test_zero_weights_closed_form(self):
        hidden = 3
        params = {
            "w_x": zeros(2, 4 * hidden),
            "w_h": zeros(hidden, 4 * hidden),
            "b": zeros(4 * hidden),
        }
        x = Tensor([[5.0, -3.0]])
        c_prev = Tensor([[0.4, -1.0, 2.0]])
        h_prev = Tensor([[1.0, 1.0, 1.0]])
        h, c = lstm_cell_step(x, h_prev, c_prev, params)
        # all gates sigmoid(0)=0.5, candidate tanh(0)=0
        assert np.allclose(c.data, 0.5 * c_prev.data)
        assert np.allclose(h.data, 0.5 * np.tanh(0.5 * c_prev.data))

    def test_zero_weights_zero_cell_state(self):
        hidden = 2
        params = {
            "w_x": zeros(1, 4 * hidden),
            "w_h": zeros(hidden, 4 * hidden),
            "b": zeros(4 * hidden),
        }
        h, c = lstm_cell_step(Tensor([[7.0]]), zeros(1, 2), zeros(1, 2),
                              params)
        assert np.all(h.data == 0.0)
        assert np.all(c.data == 0.0)

    def test_matches_straight_line_oracle(self):
        rng = SeededRng(3)
        normal = np.random.default_rng(3).standard_normal
        hidden = 2
        params = {
            "w_x": Tensor(glorot(rng, (2, 4 * hidden), 2, 4 * hidden)),
            "w_h": Tensor(glorot(rng, (hidden, 4 * hidden), hidden,
                                 4 * hidden)),
            "b": Tensor(normal((4 * hidden,))),
        }
        x = np.array([[1.0, -1.0]])
        h_prev = normal((1, hidden))
        c_prev = normal((1, hidden))
        h, c = lstm_cell_step(Tensor(x), Tensor(h_prev), Tensor(c_prev), params)
        h_ref, c_ref = reference_lstm_step(
            x, h_prev, c_prev, params["w_x"].data, params["w_h"].data,
            params["b"].data)
        assert np.allclose(h.data, h_ref, atol=1e-12)
        assert np.allclose(c.data, c_ref, atol=1e-12)


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            ModelSpec(family="transformer", features=1, window=4, horizons=2,
                      hidden1=3, hidden2=3)

    def test_linear_is_not_a_model_family(self):
        # The linear comparator is fitted by baselines, not built here.
        assert FAMILIES == ("lstm", "bdlstm", "edlstm", "convlstm")
        with pytest.raises(ConfigError, match="unknown model family"):
            toy_spec("linear")

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            toy_spec("lstm", window=1)
        with pytest.raises(ConfigError):
            toy_spec("lstm", horizons=0)
        with pytest.raises(ConfigError, match="features >= 1"):
            toy_spec("lstm", f=0)

    def test_bad_quantiles(self):
        from quantforecast.errors import InvalidQuantile
        with pytest.raises(InvalidQuantile):
            toy_spec("lstm", quantiles=(0.9, 0.1))

    def test_no_conv_filters(self):
        with pytest.raises(ConfigError, match="filters=0"):
            toy_spec("convlstm", conv_filters=0)


def parameter_table(family, f, m, k, h1, h2, filters):
    """The models shape table in draw order: (name, shape, (fan_in,
    fan_out)) for a Glorot block, fans None for a zero bias."""
    def lstm(prefix, n, h):
        return [(f"{prefix}.w_x", (n, 4 * h), (n, 4 * h)),
                (f"{prefix}.w_h", (h, 4 * h), (h, 4 * h)),
                (f"{prefix}.b", (4 * h,), None)]

    def head(n, out):
        return [("head.w", (n, out), (n, out)), ("head.b", (out,), None)]

    if family == "lstm":
        return lstm("lstm1", f, h1) + lstm("lstm2", h1, h2) + head(h2, m * k)
    if family == "bdlstm":
        return (lstm("fwd", f, h1) + lstm("bwd", f, h1)
                + lstm("lstm2", 2 * h1, h2) + head(h2, m * k))
    if family == "edlstm":
        return lstm("enc", f, h1) + lstm("dec", h1, h2) + head(h2, k)
    # convlstm: the kernel is (2, f, 1, filters) for every f; its
    # receptive field, 2 steps times f features, scales both fans.
    return ([("conv.w", (2, f, 1, filters), (2 * f, 2 * f * filters)),
             ("conv.b", (filters,), None)]
            + lstm("lstm1", filters, h1) + head(h1, m * k))


class TestInitialWeights:
    @pytest.mark.parametrize("f", [1, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_blocks_are_glorot_draws_in_table_order(self, family, f):
        spec = toy_spec(family, f=f, quantiles=DEFAULT_QUANTILES,
                        hidden2=4, conv_filters=5)
        model = build_model(spec, SeededRng(11, (1,)))
        table = parameter_table(family, f, spec.horizons, spec.levels,
                                spec.hidden1, spec.hidden2, 5)
        assert list(model.params) == [name for name, _, _ in table]
        rng = SeededRng(11, (1,))
        for name, shape, fans in table:
            block = model.params[name]
            assert block.requires_grad and block.name == name
            assert block.shape == shape, name
            if fans is None:
                assert np.all(block.data == 0.0), name
            else:
                assert np.array_equal(block.data, glorot(rng, shape, *fans)), \
                    name


class TestBuildShapes:
    def test_edlstm_reference_output_shape(self):
        spec = ModelSpec(family="edlstm", features=6, window=6, horizons=5,
                         hidden1=100, hidden2=100, quantiles=DEFAULT_QUANTILES)
        model = build_model(spec, SeededRng(0))
        pred = forward_pass(model, np.zeros((3, 6, 6)))
        assert pred.shape == (3, 5, 5)

    def test_bdlstm_concat_width_doubles(self):
        spec = ModelSpec(family="bdlstm", features=1, window=6, horizons=5,
                         hidden1=50, hidden2=50)
        model = build_model(spec, SeededRng(0))
        # The second stage reads the 2 * h1 concatenated states.
        assert model.params["lstm2.w_x"].shape == (100, 200)
        assert forward_pass(model, np.zeros((2, 6, 1))).shape == (2, 5, 1)

    def test_convlstm_valid_conv_length(self):
        spec = ModelSpec(family="convlstm", features=1, window=6, horizons=5,
                         hidden1=20, hidden2=20)
        model = build_model(spec, SeededRng(0))
        window = np.zeros((2, 6, 1))
        kernel = reshape(model.params["conv.w"], (2, 1, 64))
        conv = conv1d(Tensor(window), kernel)
        assert conv.shape == (2, 5, 64)  # d - kernel + 1
        assert forward_pass(model, window).shape == (2, 5, 1)

    def test_decoder_emits_exactly_m_steps(self):
        for m in (1, 3, 7):
            spec = toy_spec("edlstm", horizons=m)
            model = build_model(spec, SeededRng(4))
            pred = forward_pass(model, np.zeros((2, 4, 1)))
            assert pred.shape == (2, m, 1)

    def test_changing_horizons_keeps_encoder_parameters(self):
        m2 = build_model(toy_spec("edlstm", horizons=2), SeededRng(9))
        m5 = build_model(toy_spec("edlstm", horizons=5), SeededRng(9))
        for name in ("enc.w_x", "enc.w_h", "enc.b"):
            assert np.array_equal(m2.params[name].data, m5.params[name].data)
        # decoder/head shapes are horizon-independent too; only unrolling changes
        assert m2.params["head.w"].shape == m5.params["head.w"].shape


def lstm_stage_count(n_in, hidden):
    return n_in * 4 * hidden + hidden * 4 * hidden + 4 * hidden


def head_count(n_in, n_out):
    return n_in * n_out + n_out


class TestParameterCounts:
    """Golden parameter counts for the reference architecture table
    (market-data sizes, m=5), classic and five-level quantile variants."""

    @pytest.mark.parametrize("family,f,h1,h2,k,expected", [
        # bdlstm 50/50: fwd + bwd + second stage (input 100) + head
        ("bdlstm", 1, 50, 50, 1,
         2 * lstm_stage_count(1, 50) + lstm_stage_count(100, 50) + head_count(50, 5)),
        ("bdlstm", 6, 50, 50, 5,
         2 * lstm_stage_count(6, 50) + lstm_stage_count(100, 50) + head_count(50, 25)),
        # edlstm 100/100: encoder + decoder (input 100) + per-step head
        ("edlstm", 1, 100, 100, 1,
         lstm_stage_count(1, 100) + lstm_stage_count(100, 100) + head_count(100, 1)),
        ("edlstm", 6, 100, 100, 5,
         lstm_stage_count(6, 100) + lstm_stage_count(100, 100) + head_count(100, 5)),
        # convlstm 20: conv kernel (2 x f) x 64 + bias + lstm + head
        ("convlstm", 1, 20, 20, 1,
         2 * 1 * 64 + 64 + lstm_stage_count(64, 20) + head_count(20, 5)),
        ("convlstm", 6, 20, 20, 5,
         2 * 6 * 1 * 64 + 64 + lstm_stage_count(64, 20) + head_count(20, 25)),
        # stacked lstm
        ("lstm", 1, 50, 50, 1,
         lstm_stage_count(1, 50) + lstm_stage_count(50, 50) + head_count(50, 5)),
    ])
    def test_count_matches_closed_form(self, family, f, h1, h2, k, expected):
        quantiles = DEFAULT_QUANTILES if k == 5 else (0.5,)
        spec = ModelSpec(family=family, features=f, window=6, horizons=5,
                         hidden1=h1, hidden2=h2, quantiles=quantiles)
        model = build_model(spec, SeededRng(0))
        assert sum(p.size for p in model.params.values()) == expected


class TestForwardPass:
    def test_zero_head_bias_prediction(self):
        model = build_model(toy_spec("lstm"), SeededRng(1))
        model.params["head.w"].data[...] = 0.0
        model.params["head.b"].data[...] = 0.25
        pred = forward_pass(model, np.random.default_rng(0).normal(size=(4, 4, 1)))
        assert np.allclose(pred.data, 0.25)

    def test_batch_independence(self, rng):
        for family in FAMILIES:
            model = build_model(toy_spec(family, f=1), SeededRng(2))
            window = rng.normal(size=(1, 4, 1))
            single = forward_pass(model, window).data
            repeated = forward_pass(model, np.repeat(window, 8, axis=0)).data
            assert np.allclose(repeated, np.repeat(single, 8, axis=0),
                               atol=1e-12), family

    def test_wrong_window_shape(self):
        model = build_model(toy_spec("lstm"), SeededRng(2))
        with pytest.raises(ShapeError):
            forward_pass(model, np.zeros((2, 5, 1)))

    def test_nan_parameters_name_the_layer(self):
        model = build_model(toy_spec("edlstm"), SeededRng(2))
        model.params["dec.w_h"].data[0, 0] = np.nan
        with pytest.raises(NumericalError) as err:
            forward_pass(model, np.zeros((1, 4, 1)))
        assert "edlstm decoder" in str(err.value)

    def test_trained_toy_model_fits_constant_series(self):
        from quantforecast.datapipe import WindowedDataset
        from quantforecast.training import TrainConfig, train
        # constant windows bypass scaling (a constant feature is degenerate
        # for min-max); the trainer must drive every horizon to the level
        c = 0.6
        n, d, m = 40, 4, 2
        dataset = WindowedDataset(
            inputs=np.full((n, d, 1), c),
            targets=np.full((n, m), c), train_idx=np.arange(32),
            test_idx=np.arange(32, 40), split_seed=0)
        model = build_model(toy_spec("lstm", hidden1=4, hidden2=4), SeededRng(0))
        # 200 optimisation steps: 40 epochs x 5 batches of 8
        train(model, dataset,
              TrainConfig(epochs=40, batch_size=8, learning_rate=5e-2,
                          loss="mse"), SeededRng(1))
        pred = forward_pass(model, dataset.test_inputs).data[:, :, 0]
        assert np.max(np.abs(pred - c)) < 1e-2


class TestForwardOracles:
    def test_bdlstm_equals_explicit_cell_loops_bytewise(self, rng):
        spec = toy_spec("bdlstm", f=2, quantiles=(0.25, 0.5, 0.75))
        model = build_model(spec, SeededRng(11))
        window = rng.normal(size=(5, 4, 2))
        steps = [Tensor(window[:, t, :]) for t in range(4)]
        fwd = oracle_lstm(steps, model.params, "fwd")
        bwd = oracle_lstm(steps[::-1], model.params, "bwd")[::-1]
        merged = [concat([f, b], axis=1) for f, b in zip(fwd, bwd)]
        last = oracle_lstm(merged, model.params, "lstm2")[-1]
        head = add(matmul(last, model.params["head.w"]),
                   model.params["head.b"]).data.reshape(5, 2, 3)
        pred = forward_pass(model, window).data
        assert pred.tobytes() == head.tobytes()

    def test_lstm_equals_explicit_cell_loops(self, rng):
        spec = toy_spec("lstm", f=2, quantiles=(0.25, 0.5, 0.75))
        model = build_model(spec, SeededRng(14))
        window = rng.normal(size=(5, 4, 2))
        steps = [Tensor(window[:, t, :]) for t in range(4)]
        seq = oracle_lstm(steps, model.params, "lstm1")
        last = oracle_lstm(seq, model.params, "lstm2")[-1]
        expected = add(matmul(last, model.params["head.w"]),
                       model.params["head.b"]).data.reshape(5, 2, 3)
        pred = forward_pass(model, window).data
        assert np.allclose(pred, expected, rtol=0, atol=1e-12)

    def test_edlstm_equals_explicit_cell_loops(self, rng):
        # The oracle feeds the context to the decoder m times and applies
        # the head step by step; the model projects the context once and
        # applies the head to all m steps in one matmul.
        spec = toy_spec("edlstm", f=2, horizons=3, quantiles=(0.25, 0.5, 0.75))
        model = build_model(spec, SeededRng(15))
        window = rng.normal(size=(5, 4, 2))
        steps = [Tensor(window[:, t, :]) for t in range(4)]
        context = oracle_lstm(steps, model.params, "enc")[-1]
        dec = oracle_lstm([context] * 3, model.params, "dec")
        heads = [add(matmul(h, model.params["head.w"]), model.params["head.b"])
                 for h in dec]
        expected = concat(heads, axis=1).data.reshape(5, 3, 3)
        pred = forward_pass(model, window).data
        assert np.allclose(pred, expected, rtol=0, atol=1e-12)

    def test_multivariate_convlstm_matches_numpy_oracle(self, rng):
        spec = toy_spec("convlstm", f=3, conv_filters=4)
        model = build_model(spec, SeededRng(12))
        assert model.params["conv.w"].shape == (2, 3, 1, 4)
        model.params["conv.b"].data[...] = rng.normal(size=4)
        window = rng.normal(size=(2, 4, 3))
        w = model.params["conv.w"].data
        conv = np.empty((2, 3, 4))
        for b in range(2):
            for o in range(4):
                conv[b, :, o] = sum(
                    np.correlate(window[b, :, c], w[:, c, 0, o], "valid")
                    for c in range(3))
        conv = np.maximum(conv + model.params["conv.b"].data, 0.0)
        steps = [Tensor(conv[:, t, :]) for t in range(3)]
        last = oracle_lstm(steps, model.params, "lstm1")[-1].data
        expected = (last @ model.params["head.w"].data
                    + model.params["head.b"].data).reshape(2, 2, 1)
        pred = forward_pass(model, window).data
        assert np.allclose(pred, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_frozen_prediction_keeps_no_tape(self, rng, family):
        model = build_model(toy_spec(family, f=2, conv_filters=4),
                            SeededRng(13))
        window = rng.normal(size=(3, 4, 2))
        recorded = forward_pass(model, window)
        frozen = forward_pass(model.frozen(), window)
        assert recorded.parents and recorded.backward_fn is not None
        assert frozen.parents == () and frozen.backward_fn is None
        assert frozen.data.tobytes() == recorded.data.tobytes()


def prediction_model(family, hidden, levels):
    quantiles = {1: (0.5,), 3: (0.05, 0.5, 0.95), 5: DEFAULT_QUANTILES}
    spec = ModelSpec(family=family, features=1, window=5, horizons=10,
                     hidden1=hidden, hidden2=hidden,
                     quantiles=quantiles[levels])
    return build_model(spec, SeededRng(3))


class TestBlockedPrediction:
    # 597 is the Mackey-Glass test split (3000 steps, d=5, m=10); 641 is
    # two full blocks and a one-row tail, which joins the second block.
    @pytest.mark.parametrize("windows", [597, 2 * PREDICT_ROWS + 1])
    @pytest.mark.parametrize("family, hidden, levels", [
        ("edlstm", 100, 5), ("edlstm", 100, 1), ("lstm", 50, 3)])
    def test_frozen_blocks_equal_one_recorded_pass(self, family, hidden,
                                                   levels, windows):
        model = prediction_model(family, hidden, levels)
        inputs = np.random.default_rng(windows).uniform(size=(windows, 5, 1))
        frozen = forward_pass(model.frozen(), inputs)
        recorded = forward_pass(model, inputs)
        assert frozen.shape == (windows, 10, levels)
        assert frozen.data.tobytes() == recorded.data.tobytes()

    def test_frozen_edlstm_prediction_peak(self):
        # One pass over all 597 windows peaks at 11.9 MiB (every (597, 400)
        # gate array at once); blocks of 320 rows, at 6.4 MiB.
        model = prediction_model("edlstm", 100, 5).frozen()
        inputs = np.random.default_rng(0).uniform(size=(597, 5, 1))
        tracemalloc.start()
        try:
            forward_pass(model, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, peak / 2**20
