"""Reverse-mode differentiation engine over dense float64 tensors."""

from .autodiff import BlockReport, GradCheckReport, Gradients, backward, grad_check
from .ops import (OP_TABLE, add, concat, conv1d, conv2d, hadamard, matmul,
                  pinball_branch, reduce_mean, reduce_sum, relu, reshape,
                  reverse_time, scalar_mul, sigmoid, slice_axis, sub, tanh,
                  transpose)
from .tensor import SeededRng, Tensor, tensor_new

__all__ = [
    "Tensor", "SeededRng", "tensor_new",
    "add", "sub", "hadamard", "scalar_mul", "matmul", "concat", "slice_axis",
    "reshape", "transpose", "sigmoid", "tanh", "relu", "conv1d", "conv2d",
    "reduce_mean", "reduce_sum", "reverse_time", "pinball_branch",
    "OP_TABLE",
    "backward", "Gradients", "grad_check", "GradCheckReport", "BlockReport",
]
