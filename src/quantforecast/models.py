"""Sequence model architectures and their parameter inventories.

Families and wiring (window d, features f, horizons m, levels K = |Q|):

  lstm      stacked LSTM(h1) -> LSTM(h2) over the window; final state ->
            dense head (h2, m*K).
  bdlstm    forward LSTM(h1) over the window steps and backward LSTM(h1)
            over the reversed steps; the per-step states are concatenated
            (width 2*h1, backward states reversed back to input time) ->
            LSTM(h2) -> dense head.
  edlstm    encoder LSTM(h1) summarises the window; its final state is
            the decoder LSTM(h2)'s input at each of m steps; a shared
            per-step head (h2, K) emits each horizon (time-distributed
            head), applied as one matmul to the (batch * m, h2) stack of
            decoder states.
  convlstm  one valid conv over time, kernel 2, spanning all f features,
            64 filters + bias + relu -> sequence of length d-1 ->
            LSTM(h1) -> dense head.
  linear    single affine map from the flattened window (d*f, m*K).

Parameter shape table (per LSTM stage with input width n, hidden width h;
gate blocks ordered [input, forget, cell, output] along the fused axis):

  <stage>.w_x  (n, 4h)   glorot uniform
  <stage>.w_h  (h, 4h)   glorot uniform
  <stage>.b    (4h,)     zeros
  conv.w       (2, 1, 64) univariate / (2, f, 1, 64) multivariate, glorot;
               the multivariate kernel is used as (2, f, 64)
  conv.b       (64,)     zeros
  head.w       (width, m*K) or (h2, K) for edlstm, glorot
  head.b       matching head.w columns, zeros

The head is linear (no output activation). forward_pass is the one entry
point; it emits predictions as (batch, m, K).

Every LSTM stage runs through _lstm over its per-step input projections
x_t @ w_x, each (batch, 4h), from zero states. The first step skips the
work whose result is known, h @ w_h and the forget gate, so its cell state
is input * tanh-candidate. The edlstm decoder's input is the same context
at every step, so its projection is computed once and passed m times.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .engine import (SeededRng, Tensor, add, concat, conv1d, hadamard, matmul,
                     relu, reshape, sigmoid, slice_axis, tanh, tensor_new)
from .errors import (ConfigError, NumericalError, ShapeError,
                     check_known_fields)
from .losses import check_quantiles

FAMILIES = ("lstm", "bdlstm", "edlstm", "convlstm", "linear")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative architecture description."""
    family: str
    features: int
    window: int
    horizons: int
    hidden1: int
    hidden2: int
    quantiles: tuple[float, ...] = (0.5,)
    conv_filters: int = 64
    conv_kernel: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.features < 1 or self.window < 2 or self.horizons < 1:
            raise ConfigError(
                f"need features >= 1, window >= 2, horizons >= 1; got "
                f"f={self.features}, d={self.window}, m={self.horizons}")
        if self.hidden1 < 1 or self.hidden2 < 1:
            raise ConfigError("hidden sizes must be >= 1")
        if self.family == "convlstm" and self.conv_kernel > self.window:
            raise ConfigError("conv kernel longer than the window")
        object.__setattr__(self, "quantiles", check_quantiles(self.quantiles))

    @property
    def levels(self) -> int:
        return len(self.quantiles)

    def to_dict(self) -> dict:
        return {
            "family": self.family, "features": self.features,
            "window": self.window, "horizons": self.horizons,
            "hidden1": self.hidden1, "hidden2": self.hidden2,
            "quantiles": list(self.quantiles),
            "conv_filters": self.conv_filters, "conv_kernel": self.conv_kernel,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        d = dict(d)
        # v1 checkpoints carry the retired output-layout setting; it never
        # changed the predictions, so it is dropped.
        d.pop("output_layout", None)
        check_known_fields(cls, d, "model spec")
        d["quantiles"] = tuple(d["quantiles"])
        return cls(**d)


class Model:
    """A ModelSpec instantiated as named parameter tensors."""

    def __init__(self, spec: ModelSpec, params: dict[str, Tensor]):
        self.spec = spec
        self.params = params

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def frozen(self) -> "Model":
        """A view sharing these weights through which no op records a
        tape, for predictions that no backward() consumes."""
        return Model(self.spec, {name: Tensor(p.data)
                                 for name, p in self.params.items()})


def _lstm_params(rng: SeededRng, prefix: str, n_in: int, hidden: int,
                 params: dict[str, Tensor]) -> None:
    params[f"{prefix}.w_x"] = tensor_new(
        [n_in, 4 * hidden], "glorot", rng=rng, requires_grad=True,
        name=f"{prefix}.w_x")
    params[f"{prefix}.w_h"] = tensor_new(
        [hidden, 4 * hidden], "glorot", rng=rng, requires_grad=True,
        name=f"{prefix}.w_h")
    params[f"{prefix}.b"] = tensor_new(
        [4 * hidden], "zeros", requires_grad=True, name=f"{prefix}.b")


def _head_params(rng: SeededRng, n_in: int, n_out: int,
                 params: dict[str, Tensor]) -> None:
    params["head.w"] = tensor_new([n_in, n_out], "glorot", rng=rng,
                                  requires_grad=True, name="head.w")
    params["head.b"] = tensor_new([n_out], "zeros", requires_grad=True,
                                  name="head.b")


def build_model(spec: ModelSpec, rng: SeededRng) -> Model:
    """Instantiate the parameter set for a spec; draws are consumed in the
    fixed order of the shape table, so one seed pins every weight."""
    f, d, m, k = spec.features, spec.window, spec.horizons, spec.levels
    h1, h2 = spec.hidden1, spec.hidden2
    params: dict[str, Tensor] = {}

    if spec.family == "lstm":
        _lstm_params(rng, "lstm1", f, h1, params)
        _lstm_params(rng, "lstm2", h1, h2, params)
        _head_params(rng, h2, m * k, params)
    elif spec.family == "bdlstm":
        _lstm_params(rng, "fwd", f, h1, params)
        _lstm_params(rng, "bwd", f, h1, params)
        _lstm_params(rng, "lstm2", 2 * h1, h2, params)
        _head_params(rng, h2, m * k, params)
    elif spec.family == "edlstm":
        _lstm_params(rng, "enc", f, h1, params)
        _lstm_params(rng, "dec", h1, h2, params)
        _head_params(rng, h2, k, params)
    elif spec.family == "convlstm":
        if f == 1:
            kernel_shape = [spec.conv_kernel, 1, spec.conv_filters]
        else:
            kernel_shape = [spec.conv_kernel, f, 1, spec.conv_filters]
        params["conv.w"] = tensor_new(kernel_shape, "glorot", rng=rng,
                                      requires_grad=True, name="conv.w")
        params["conv.b"] = tensor_new([spec.conv_filters], "zeros",
                                      requires_grad=True, name="conv.b")
        _lstm_params(rng, "lstm1", spec.conv_filters, h1, params)
        _head_params(rng, h1, m * k, params)
    elif spec.family == "linear":
        _head_params(rng, d * f, m * k, params)
    else:  # pragma: no cover - guarded by ModelSpec
        raise ConfigError(f"unknown model family {spec.family!r}")
    return Model(spec, params)


def _steps(x: Tensor) -> list[Tensor]:
    """(batch, time, features) -> list of (batch, features) step tensors."""
    batch, steps, feats = x.shape
    return [reshape(slice_axis(x, 1, t, t + 1), (batch, feats))
            for t in range(steps)]


def _project(steps: list[Tensor], params: dict[str, Tensor],
             prefix: str) -> Iterator[Tensor]:
    """The input projections x_t @ w_x of the LSTM stage named prefix, each
    made when the recurrence reaches its step: a prediction through frozen
    weights then holds one (batch, 4h) projection at a time, not T."""
    w_x = params[f"{prefix}.w_x"]
    return (matmul(x_t, w_x) for x_t in steps)


def _lstm(projections: Iterable[Tensor], params: dict[str, Tensor],
          prefix: str) -> list[Tensor]:
    """Run the LSTM stage named prefix from zero states over its per-step
    input projections x_t @ w_x, each (batch, 4h); returns the (batch, h)
    state of every step. Step 0 has h = c = 0, so there z = x_0 w_x + b
    and c_0 = input * tanh-candidate, with no h @ w_h and no forget gate.
    """
    w_h, b = params[f"{prefix}.w_h"], params[f"{prefix}.b"]
    h = c = None
    outputs = []
    for xw in projections:
        h, c = _cell(xw, h, c, w_h, b)
        outputs.append(h)
    return outputs


def _cell(xw: Tensor, h: Tensor | None, c: Tensor | None, w_h: Tensor,
          b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step from input projection xw and states h, c (None at step
    0); returns the new (h, c). The pre-activation and gates are locals, so
    a prediction through frozen weights frees them when the step returns,
    not when the next step rebinds them."""
    hidden = w_h.shape[0]
    z = add(xw, b) if h is None else add(add(xw, matmul(h, w_h)), b)
    i = sigmoid(slice_axis(z, 1, 0, hidden))
    g = tanh(slice_axis(z, 1, 2 * hidden, 3 * hidden))
    o = sigmoid(slice_axis(z, 1, 3 * hidden, 4 * hidden))
    if c is None:
        c = hadamard(i, g)
    else:
        fg = sigmoid(slice_axis(z, 1, hidden, 2 * hidden))
        c = add(hadamard(fg, c), hadamard(i, g))
    return hadamard(o, tanh(c)), c


def _dense(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    return add(matmul(x, params["head.w"]), params["head.b"])


def bidirectional_sequence(model: Model, x: Tensor) -> list[Tensor]:
    """The per-step concatenated forward/backward states of a bdlstm,
    window steps of (batch, 2*h1), before the second recurrent stage. The
    backward stage runs over the reversed steps; its states are reversed
    back so step t pairs both directions' states at input time t."""
    if model.spec.family != "bdlstm":
        raise ConfigError("bidirectional sequence only defined for bdlstm")
    steps = _steps(x)
    fwd = _lstm(_project(steps, model.params, "fwd"), model.params, "fwd")
    bwd = _lstm(_project(steps[::-1], model.params, "bwd"), model.params,
                "bwd")[::-1]
    return [concat([f, b], axis=1) for f, b in zip(fwd, bwd)]


def forward_pass(model: Model, window_batch) -> Tensor:
    """Predictions of shape (batch, horizons, levels) for a window batch of
    shape (batch, window, features). A non-finite intermediate raises
    NumericalError naming the stage and the op that produced it. Only
    matmul, add, hadamard and conv1d can produce one here (by overflow);
    the slices, reshapes, concats and activations map finite inputs to
    finite results and are not checked (engine.ops)."""
    spec = model.spec
    x = (window_batch if isinstance(window_batch, Tensor)
         else Tensor(window_batch))
    if x.ndim != 3 or x.shape[1] != spec.window or x.shape[2] != spec.features:
        raise ShapeError("forward-pass", x.shape,
                         ("batch", spec.window, spec.features))
    batch = x.shape[0]
    m, k = spec.horizons, spec.levels
    params = model.params
    stage = "input"
    try:
        if spec.family == "lstm":
            stage = "lstm1"
            seq = _lstm(_project(_steps(x), params, "lstm1"), params, "lstm1")
            stage = "lstm2"
            seq2 = _lstm(_project(seq, params, "lstm2"), params, "lstm2")
            stage = "head"
            out = _dense(seq2[-1], params)
        elif spec.family == "bdlstm":
            stage = "bidirectional"
            merged = bidirectional_sequence(model, x)
            stage = "lstm2"
            seq2 = _lstm(_project(merged, params, "lstm2"), params, "lstm2")
            stage = "head"
            out = _dense(seq2[-1], params)
        elif spec.family == "edlstm":
            stage = "encoder"
            context = _lstm(_project(_steps(x), params, "enc"), params,
                            "enc")[-1]
            stage = "decoder"
            # The decoder reads the same context at every step, so its
            # input projection is computed once.
            dec = _lstm([matmul(context, params["dec.w_x"])] * m, params,
                        "dec")
            stage = "head"
            # Time-distributed head: one matmul over the (batch * m, h2)
            # rows, which the final reshape returns to (batch, m, K).
            out = _dense(reshape(concat(dec, axis=1),
                                 (batch * m, spec.hidden2)), params)
        elif spec.family == "convlstm":
            stage = "conv"
            w = params["conv.w"]
            if spec.features > 1:  # (k, f, 1, filters) -> (k, f, filters)
                w = reshape(w, (spec.conv_kernel, spec.features,
                                spec.conv_filters))
            conv = relu(add(conv1d(x, w), params["conv.b"]))
            stage = "lstm1"
            seq = _lstm(_project(_steps(conv), params, "lstm1"), params,
                        "lstm1")
            stage = "head"
            out = _dense(seq[-1], params)
        elif spec.family == "linear":
            stage = "head"
            out = _dense(reshape(x, (batch, spec.window * spec.features)),
                         params)
        else:  # pragma: no cover
            raise ConfigError(f"unknown model family {spec.family!r}")
    except NumericalError as exc:
        raise NumericalError(f"{spec.family} {stage}: {exc}") from exc
    return reshape(out, (batch, m, k))


# --- checkpoint container -------------------------------------------------
#
# Self-describing JSON: spec fields plus named parameter tensors whose
# values are stored as space-joined C float.hex() strings, so round-trips
# are bit-exact and portable.

CHECKPOINT_FORMAT = "quantforecast-model-v1"


def array_to_hex(arr: np.ndarray) -> str:
    return " ".join(v.hex() for v in map(float, arr.ravel()))


def array_from_hex(text: str, shape) -> np.ndarray:
    values = [float.fromhex(tok) for tok in text.split()]
    return np.array(values, dtype=np.float64).reshape(tuple(shape))


def model_to_dict(model: Model) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "spec": model.spec.to_dict(),
        "params": {
            name: {"shape": list(p.shape), "hex": array_to_hex(p.data)}
            for name, p in model.params.items()
        },
    }


def model_from_dict(payload: dict) -> Model:
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"unrecognised checkpoint format "
                          f"{payload.get('format')!r}")
    spec = ModelSpec.from_dict(payload["spec"])
    model = build_model(spec, SeededRng(0))
    for name, entry in payload["params"].items():
        if name not in model.params:
            raise ConfigError(f"checkpoint parameter {name!r} not in spec")
        model.params[name].data[...] = array_from_hex(entry["hex"],
                                                      entry["shape"])
    return model


def save_model(path, model: Model) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
