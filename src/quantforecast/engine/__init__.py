"""Reverse-mode differentiation engine over dense float64 tensors."""

from .autodiff import BlockReport, GradCheckReport, backward, grad_check
from .ops import (OP_TABLE, add, concat, conv1d, hadamard, matmul,
                  pinball_branch, reduce_mean, reduce_sum, relu, reshape,
                  scalar_mul, sigmoid, slice_axis, sub, tanh, transpose)
from .tensor import SeededRng, Tensor, tensor_new

__all__ = [
    "Tensor", "SeededRng", "tensor_new",
    "add", "sub", "hadamard", "scalar_mul", "matmul", "concat", "slice_axis",
    "reshape", "transpose", "sigmoid", "tanh", "relu", "conv1d",
    "reduce_mean", "reduce_sum", "pinball_branch",
    "OP_TABLE",
    "backward", "grad_check", "GradCheckReport", "BlockReport",
]
