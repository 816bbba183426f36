"""Reverse-mode differentiation engine over dense float64 tensors."""

from .autodiff import backward
from .ops import (OP_TABLE, add, concat, conv1d, hadamard, matmul,
                  pinball_branch, reduce_mean, relu, reshape, sigmoid,
                  slice_axis, sub, tanh)
from .tensor import SeededRng, Tensor

__all__ = [
    "Tensor", "SeededRng",
    "add", "sub", "hadamard", "matmul", "concat", "slice_axis", "reshape",
    "sigmoid", "tanh", "relu", "conv1d", "reduce_mean", "pinball_branch",
    "OP_TABLE",
    "backward",
]
