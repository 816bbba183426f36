"""The LSTM cell written out step by step: the reference that the model
recurrences are tested against."""

from quantforecast.engine import (Tensor, add, hadamard, matmul, sigmoid,
                                  slice_axis, tanh)


def lstm_cell_step(x_t: Tensor, h_prev: Tensor, c_prev: Tensor,
                   params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """One LSTM cell update.

    params holds w_x (n, 4h), w_h (h, 4h) and b (4h,) with gate blocks
    [input, forget, cell, output]. Returns (h_t, c_t) where
    c_t = forget * c_prev + input * tanh-candidate and
    h_t = output * tanh(c_t).
    """
    w_x, w_h, b = params["w_x"], params["w_h"], params["b"]
    hidden = w_h.shape[0]
    z = add(add(matmul(x_t, w_x), matmul(h_prev, w_h)), b)
    i = sigmoid(slice_axis(z, 1, 0, hidden))
    fg = sigmoid(slice_axis(z, 1, hidden, 2 * hidden))
    g = tanh(slice_axis(z, 1, 2 * hidden, 3 * hidden))
    o = sigmoid(slice_axis(z, 1, 3 * hidden, 4 * hidden))
    c_t = add(hadamard(fg, c_prev), hadamard(i, g))
    h_t = hadamard(o, tanh(c_t))
    return h_t, c_t
