"""Forward semantics of the op set: values, shape errors, determinism."""

import numpy as np
import pytest

from quantforecast.engine import (OP_TABLE, SeededRng, Tensor, add, concat,
                                  conv1d, hadamard, matmul, pinball_branch,
                                  reduce_mean, relu, reshape, sigmoid,
                                  slice_axis, sub, tanh, tensor_new)
from quantforecast.errors import (InvalidQuantile, InvalidShape,
                                  NumericalError, ShapeError)


class TestTensorNew:
    def test_zeros(self):
        t = tensor_new([2, 3], "zeros")
        assert t.shape == (2, 3)
        assert np.all(t.data == 0.0)

    def test_glorot_same_seed_is_bitwise_identical(self):
        a = tensor_new([4, 4], "glorot", rng=SeededRng(7))
        b = tensor_new([4, 4], "glorot", rng=SeededRng(7))
        assert np.array_equal(a.data, b.data)

    def test_glorot_bounds(self):
        t = tensor_new([40, 60], "glorot", rng=SeededRng(0))
        limit = np.sqrt(6.0 / (40 + 60))
        assert np.all(np.abs(t.data) < limit)

    def test_zero_extent_rejected(self):
        with pytest.raises(InvalidShape):
            tensor_new([2, 0], "zeros")

    def test_empty_shape_rejected(self):
        with pytest.raises(InvalidShape):
            tensor_new([], "zeros")

    def test_nan_input_rejected(self):
        with pytest.raises(NumericalError):
            Tensor([1.0, np.nan])


class TestOpValues:
    def test_matmul_identity(self):
        out = matmul(Tensor([[1, 2], [3, 4]]), Tensor(np.eye(2)))
        assert out.data.tolist() == [[1, 2], [3, 4]]

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data.tolist() == [0.5]

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_sigmoid_bitwise_equals_sign_split_formula(self, rng):
        x = np.concatenate([rng.normal(scale=s, size=500)
                            for s in (1e-8, 1.0, 10.0, 300.0)]
                           + [[0.0, -0.0, 708.0, -708.0, 746.0, -746.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            pos = 1.0 / (1.0 + np.exp(-x))
            neg = np.exp(x) / (1.0 + np.exp(x))
        expected = np.where(x >= 0, pos, neg)
        assert sigmoid(Tensor(x)).data.tobytes() == expected.tobytes()

    def test_conv1d_sliding_dot_product(self):
        out = conv1d(Tensor(np.reshape([1, 2, 3, 4], (1, 4, 1))),
                     Tensor(np.ones((2, 1, 1))))
        assert out.shape == (1, 3, 1)
        assert out.data.ravel().tolist() == [3, 5, 7]

    def test_conv1d_batched_matches_plain(self, rng):
        signal = np.array([0.5, -1.0, 2.0, 0.25, 3.0])
        kernel = np.array([2.0, -0.5])
        batched = conv1d(Tensor(signal.reshape(1, 5, 1)),
                         Tensor(kernel.reshape(2, 1, 1))).data
        assert np.allclose(batched.ravel(),
                           np.correlate(signal, kernel, mode="valid"))
        # several channels: each filter sums its per-channel correlations
        x = rng.normal(size=(2, 6, 3))
        w = rng.normal(size=(2, 3, 4))
        out = conv1d(Tensor(x), Tensor(w)).data
        assert out.shape == (2, 5, 4)
        for b in range(2):
            for o in range(4):
                expected = sum(np.correlate(x[b, :, c], w[:, c, o], "valid")
                               for c in range(3))
                assert np.allclose(out[b, :, o], expected)

    def test_tanh_relu(self):
        assert tanh(Tensor([0.0])).data[0] == 0.0
        assert relu(Tensor([-2.0, 0.0, 3.0])).data.tolist() == [0, 0, 3]

    def test_reductions(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert reduce_mean(t).item() == 2.5

    def test_pinball_branch_values(self):
        out = pinball_branch(Tensor([0.5, -0.5]), 0.95)
        assert np.allclose(out.data, [0.475, 0.025])

    def test_add_broadcasts_bias(self):
        out = add(Tensor(np.zeros((2, 3))), Tensor([1.0, 2.0, 3.0]))
        assert np.allclose(out.data, [[1, 2, 3], [1, 2, 3]])


class TestOpErrors:
    def test_matmul_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        message = str(err.value)
        assert "matmul" in message and "(2, 3)" in message and "(4, 2)" in message

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_concat_shape_error(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_slice_out_of_range(self):
        with pytest.raises(ShapeError):
            slice_axis(Tensor(np.zeros((2, 3))), 1, 2, 5)

    def test_overflowing_op_surfaces_numerical_error(self):
        big = Tensor(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError):
                hadamard(big, big)


# Ops that can turn finite inputs into a non-finite result, each given
# finite inputs that overflow.
OVERFLOWING = {
    "add": lambda: add(Tensor([1.7e308]), Tensor([1.7e308])),
    "sub": lambda: sub(Tensor([1.7e308]), Tensor([-1.7e308])),
    "hadamard": lambda: hadamard(Tensor([1e200]), Tensor([1e200])),
    "matmul": lambda: matmul(Tensor([[1e200]]), Tensor([[1e200]])),
    "conv1d": lambda: conv1d(Tensor(np.full((1, 1, 1), 1e200)),
                             Tensor(np.full((1, 1, 1), 1e200))),
    "reduce-mean": lambda: reduce_mean(Tensor([1.7e308, 1.7e308])),
}
# Ops whose result is finite whenever their inputs are, so they skip the
# check; each is applied to the extremes of the float64 range.
EXTREMES = np.array([[1.7e308, -1.7e308, 1e-320, -1e-320]])
BOUNDED = {
    "slice": lambda x: slice_axis(x, 1, 1, 3),
    "reshape": lambda x: reshape(x, (2, 2)),
    "concat": lambda x: concat([x, x], axis=0),
    "sigmoid": sigmoid,
    "tanh": tanh,
    "relu": relu,
    "pinball-residual-branch": lambda x: pinball_branch(x, [[0.05], [0.95]]),
}


class TestFinitenessContract:
    def test_kinds_split_the_op_table(self):
        assert set(OVERFLOWING) | set(BOUNDED) == set(OP_TABLE)
        assert not set(OVERFLOWING) & set(BOUNDED)

    @pytest.mark.parametrize("kind", sorted(OVERFLOWING))
    def test_checking_op_raises_on_overflow(self, kind):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=kind):
                OVERFLOWING[kind]()

    @pytest.mark.parametrize("kind", sorted(BOUNDED))
    def test_exempt_op_stays_finite_at_the_extremes(self, kind):
        out = BOUNDED[kind](Tensor(EXTREMES))
        assert out.op == kind
        assert np.isfinite(out.data).all()

    def test_tensor_constructor_still_checks(self):
        for bad in (np.inf, -np.inf, [[1.0, np.inf]]):
            with pytest.raises(NumericalError):
                Tensor(bad)

    @pytest.mark.parametrize("q", [2.0, -0.5, np.nan, [[0.5], [np.inf]]])
    def test_pinball_branch_rejects_levels_outside_unit_interval(self, q):
        # The branch skips the finiteness check only because its slope's
        # magnitude is at most 1, which a level outside [0, 1] breaks.
        with pytest.raises(InvalidQuantile):
            pinball_branch(Tensor([[1e308, -1e308]]), q)


class TestStructuralProperties:
    def test_concat_slice_roundtrip(self, rng):
        for axis in (0, 1):
            a = Tensor(rng.normal(size=(3, 4)))
            b = Tensor(rng.normal(size=(3, 4)))
            joined = concat([a, b], axis=axis)
            size = a.shape[axis]
            first = slice_axis(joined, axis, 0, size)
            second = slice_axis(joined, axis, size, 2 * size)
            assert np.array_equal(first.data, a.data)
            assert np.array_equal(second.data, b.data)

    def test_op_sequence_is_deterministic(self):
        def build(seed):
            rng = SeededRng(seed)
            x = tensor_new([4, 4], "glorot", rng=rng)
            y = Tensor(rng.standard_normal((4, 4)))
            out = reduce_mean(tanh(matmul(sigmoid(x), sub(y, x))))
            return out.item()

        assert build(42) == build(42)

    def test_forward_dispatch_covers_op_table(self):
        # a table entry is the op itself and records its key as op kind
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        out = OP_TABLE["matmul"](a, b)
        assert out.op == "matmul" and out.data.tolist() == [[11.0]]
        out = OP_TABLE["concat"]([a, a], axis=0)
        assert out.op == "concat" and out.shape == (2, 2)
        out = OP_TABLE["slice"](a, axis=1, start=0, stop=1)
        assert out.op == "slice" and out.data.tolist() == [[1.0]]
        assert set(OP_TABLE) == {
            "matmul", "add", "sub", "hadamard", "concat", "slice", "reshape",
            "sigmoid", "tanh", "relu", "conv1d", "reduce-mean",
            "pinball-residual-branch"}
