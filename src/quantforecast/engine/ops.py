"""Differentiable operations over Tensors.

Every op validates input shapes, computes the forward value and, when a
gradient can reach it, records the node on the tape with a closure that
maps the output gradient to per-parent gradients. Forward results are
checked for finiteness; a NaN or Inf raises NumericalError at the
producing op instead of propagating.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .tensor import Tensor


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(op: str, data, parents, backward_fn) -> Tensor:
    # Off every gradient path (no parent is trainable or recorded) the
    # result keeps neither its parents nor its closure, so a forward pass
    # through frozen tensors holds no tape.
    if any(p.requires_grad or p.backward_fn is not None for p in parents):
        return Tensor(data, op=op, parents=tuple(parents),
                      backward_fn=backward_fn)
    return Tensor(data, op=op)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(op: str, a: Tensor, b: Tensor):
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(op, a.shape, b.shape) from None


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast("add", a, b)

    def backward_fn(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))]

    return _node("add", a.data + b.data, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast("sub", a, b)

    def backward_fn(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape))]

    return _node("sub", a.data - b.data, (a, b), backward_fn)


def hadamard(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_broadcast("hadamard", a, b)

    def backward_fn(g):
        return [(a, _unbroadcast(g * b.data, a.shape)),
                (b, _unbroadcast(g * a.data, b.shape))]

    return _node("hadamard", a.data * b.data, (a, b), backward_fn)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)

    def backward_fn(g):
        return [(a, g @ b.data.T), (b, a.data.T @ g)]

    return _node("matmul", a.data @ b.data, (a, b), backward_fn)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat", ())
    ndim = tensors[0].ndim
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if t.ndim != ndim or ref[:axis] + ref[axis + 1:] != other[:axis] + other[axis + 1:]:
            raise ShapeError("concat", tensors[0].shape, t.shape)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        out = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * ndim
            index[axis] = slice(int(lo), int(hi))
            out.append((t, g[tuple(index)]))
        return out

    return _node("concat", np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, backward_fn)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _wrap(a)
    if not (0 <= start < stop <= a.shape[axis]):
        raise ShapeError("slice", a.shape, (start, stop))
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def backward_fn(g):
        full = np.zeros(a.shape)
        full[index] = g
        return [(a, full)]

    return _node("slice", a.data[index], (a,), backward_fn)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(int(n) for n in shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError("reshape", a.shape, shape)

    def backward_fn(g):
        return [(a, g.reshape(a.shape))]

    return _node("reshape", a.data.reshape(shape), (a,), backward_fn)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    # Split by sign so exp never overflows.
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def backward_fn(g):
        return [(a, g * out * (1.0 - out))]

    return _node("sigmoid", out, (a,), backward_fn)


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)

    def backward_fn(g):
        return [(a, g * (1.0 - out * out))]

    return _node("tanh", out, (a,), backward_fn)


def relu(a) -> Tensor:
    a = _wrap(a)
    # Gradient at exactly 0 is defined as 0.
    mask = a.data > 0

    def backward_fn(g):
        return [(a, g * mask)]

    return _node("relu", np.where(mask, a.data, 0.0), (a,), backward_fn)


def conv1d(x, w) -> Tensor:
    """Valid cross-correlation with stride 1 over a batched multichannel
    signal: (B, L, Cin) with kernel (K, Cin, Cout) -> (B, L-K+1, Cout)."""
    x, w = _wrap(x), _wrap(w)
    if x.ndim != 3 or w.ndim != 3 or x.shape[2] != w.shape[1] or w.shape[0] > x.shape[1]:
        raise ShapeError("conv1d", x.shape, w.shape)
    k = w.shape[0]
    length_out = x.shape[1] - k + 1
    windows = sliding_window_view(x.data, k, axis=1)  # (B, Lout, Cin, K)
    out = np.tensordot(windows, w.data, axes=([3, 2], [0, 1]))

    def backward_fn(g):
        gw = np.tensordot(windows, g, axes=([0, 1], [0, 1]))  # (Cin, K, Cout)
        gw = gw.transpose(1, 0, 2)
        gx = np.zeros(x.shape)
        for j in range(k):
            gx[:, j:j + length_out, :] += g @ w.data[j].T
        return [(x, gx), (w, gw)]

    return _node("conv1d", out, (x, w), backward_fn)


def reduce_mean(a) -> Tensor:
    a = _wrap(a)
    n = a.size

    def backward_fn(g):
        return [(a, np.broadcast_to(g / n, a.shape).copy())]

    return _node("reduce-mean", np.mean(a.data), (a,), backward_fn)


def pinball_branch(u, q) -> Tensor:
    """Asymmetric branch on residuals u: q*u where u >= 0, (q-1)*u below.

    q is a fixed level (scalar or array broadcastable to u); it is an op
    attribute, never differentiated. The subgradient at u == 0 takes the
    non-negative branch, i.e. slope q.
    """
    u = _wrap(u)
    q_arr = np.asarray(q, dtype=np.float64)
    try:
        np.broadcast_shapes(u.shape, q_arr.shape)
    except ValueError:
        raise ShapeError("pinball-residual-branch", u.shape, q_arr.shape) from None
    slope = np.where(u.data >= 0, q_arr, q_arr - 1.0)

    def backward_fn(g):
        return [(u, _unbroadcast(g * slope, u.shape))]

    return _node("pinball-residual-branch", slope * u.data, (u,), backward_fn)


OP_TABLE = {
    "matmul": matmul,
    "add": add,
    "sub": sub,
    "hadamard": hadamard,
    "concat": concat,
    "slice": slice_axis,
    "reshape": reshape,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "relu": relu,
    "conv1d": conv1d,
    "reduce-mean": reduce_mean,
    "pinball-residual-branch": pinball_branch,
}
