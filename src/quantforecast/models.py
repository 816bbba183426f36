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

Parameter shape table (per LSTM stage with input width n, hidden width h;
gate blocks ordered [input, forget, cell, output] along the fused axis):

  <stage>.w_x  (n, 4h)   glorot uniform
  <stage>.w_h  (h, 4h)   glorot uniform
  <stage>.b    (4h,)     zeros
  conv.w       (2, f, 1, 64) glorot, used as (2, f, 64)
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

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .datapipe import check_geometry
from .engine import (SeededRng, Tensor, add, concat, conv1d, hadamard, matmul,
                     relu, reshape, sigmoid, slice_axis, tanh)
from .errors import ConfigError, NumericalError, ShapeError
from .losses import check_quantiles

FAMILIES = ("lstm", "bdlstm", "edlstm", "convlstm")
# The convlstm kernel spans two time steps; a window has at least two.
CONV_KERNEL = 2


@dataclass(frozen=True)
class ModelSpec:
    """Declarative architecture description: the family, the input and
    output geometry, the hidden sizes and the quantile levels."""
    family: str
    features: int
    window: int
    horizons: int
    hidden1: int
    hidden2: int | None
    quantiles: tuple[float, ...] = (0.5,)
    conv_filters: int = 64

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        check_geometry(self.window, self.horizons)
        if self.features < 1:
            raise ConfigError(f"need features >= 1, got f={self.features}")
        # convlstm has one LSTM stage, so it reads no hidden2
        if self.hidden1 < 1 or self.conv_filters < 1 or (
                self.family != "convlstm" and self.hidden2 < 1):
            raise ConfigError(
                f"need hidden sizes and conv filters >= 1; got "
                f"h1={self.hidden1}, h2={self.hidden2}, "
                f"filters={self.conv_filters}")
        object.__setattr__(self, "quantiles", check_quantiles(self.quantiles))

    @property
    def levels(self) -> int:
        return len(self.quantiles)


class Model:
    """A ModelSpec instantiated as named parameter tensors."""

    def __init__(self, spec: ModelSpec, params: dict[str, Tensor]):
        self.spec = spec
        self.params = params

    def frozen(self) -> "Model":
        """A view sharing these weights through which no op records a
        tape, for predictions that no backward() consumes. A training step
        already frees the forward arrays that no backward closure reads; a
        frozen pass keeps no closures, so it also frees the gate
        activations and cell states that training holds for backward."""
        return Model(self.spec, {name: Tensor(p.data)
                                 for name, p in self.params.items()})


def _param(params: dict[str, Tensor], name: str, shape: tuple[int, ...],
           rng: SeededRng | None = None) -> None:
    """Add the trainable block name: zeros, or, given an rng, Glorot-uniform
    draws on (-L, L) with L = sqrt(6 / (fan_in + fan_out)). The last two
    axes are (in, out); a kernel's leading axes are its receptive field,
    which scales both fans."""
    if rng is None:
        data = np.zeros(shape)
    else:
        receptive = math.prod(shape[:-2])
        limit = np.sqrt(6.0 / (receptive * (shape[-2] + shape[-1])))
        data = rng.uniform(-limit, limit, shape)
    params[name] = Tensor(data, requires_grad=True, name=name)


def _lstm_params(rng: SeededRng, prefix: str, n_in: int, hidden: int,
                 params: dict[str, Tensor]) -> None:
    _param(params, f"{prefix}.w_x", (n_in, 4 * hidden), rng)
    _param(params, f"{prefix}.w_h", (hidden, 4 * hidden), rng)
    _param(params, f"{prefix}.b", (4 * hidden,))


def _head_params(rng: SeededRng, n_in: int, n_out: int,
                 params: dict[str, Tensor]) -> None:
    _param(params, "head.w", (n_in, n_out), rng)
    _param(params, "head.b", (n_out,))


def build_model(spec: ModelSpec, rng: SeededRng) -> Model:
    """Instantiate the parameter set for a spec; draws are consumed in the
    fixed order of the shape table, so one seed pins every weight."""
    f, m, k = spec.features, spec.horizons, spec.levels
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
    else:  # convlstm
        _param(params, "conv.w", (CONV_KERNEL, f, 1, spec.conv_filters), rng)
        _param(params, "conv.b", (spec.conv_filters,))
        _lstm_params(rng, "lstm1", spec.conv_filters, h1, params)
        _head_params(rng, h1, m * k, params)
    return Model(spec, params)


def _steps(x: Tensor) -> list[Tensor]:
    """(batch, time, features) -> list of (batch, features) step tensors."""
    batch, steps, feats = x.shape
    return [reshape(slice_axis(x, 1, t, t + 1), (batch, feats))
            for t in range(steps)]


def _project(steps: list[Tensor], params: dict[str, Tensor],
             prefix: str) -> Iterator[Tensor]:
    """The input projections x_t @ w_x of the LSTM stage named prefix, each
    made when the recurrence reaches its step. No backward closure reads a
    projection (the add that takes it keeps only shapes), so a forward
    pass, recorded or frozen, holds one (batch, 4h) projection at a time,
    not T."""
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
        # Free this projection before the generator makes the next one.
        del xw
        outputs.append(h)
    return outputs


def _cell(xw: Tensor, h: Tensor | None, c: Tensor | None, w_h: Tensor,
          b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step from input projection xw and states h, c (None at step
    0); returns the new (h, c). The pre-activation and gates are locals, so
    their arrays are freed when the step returns, not when the next step
    rebinds them, unless a backward closure reads them: in training the
    gate activations stay on the tape (sigmoid, tanh and hadamard keep
    them), while the pre-activation z and its slices go."""
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
            # The backward stage runs over the reversed steps; its states
            # are reversed back, so step t pairs both directions' states
            # at input time t.
            steps = _steps(x)
            merged = [concat([f, b], axis=1) for f, b in zip(
                _lstm(_project(steps, params, "fwd"), params, "fwd"),
                _lstm(_project(steps[::-1], params, "bwd"), params,
                      "bwd")[::-1])]
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
        else:  # convlstm
            stage = "conv"
            w = reshape(params["conv.w"], (CONV_KERNEL, spec.features,
                                           spec.conv_filters))
            conv = relu(add(conv1d(x, w), params["conv.b"]))
            stage = "lstm1"
            seq = _lstm(_project(_steps(conv), params, "lstm1"), params,
                        "lstm1")
            stage = "head"
            out = _dense(seq[-1], params)
    except NumericalError as exc:
        raise NumericalError(f"{spec.family} {stage}: {exc}") from exc
    return reshape(out, (batch, m, k))
