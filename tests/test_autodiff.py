"""Reverse pass against independent finite-difference oracles."""

import numpy as np
import pytest

from quantforecast.engine import (OP_TABLE, SeededRng, Tensor, add, backward,
                                  concat, conv1d, grad_check, hadamard,
                                  matmul, pinball_branch, reduce_mean,
                                  reshape, sigmoid, slice_axis, sub, tanh,
                                  tensor_new)
from quantforecast.errors import NotScalar
from quantforecast.gradsuite import check_all_families, check_all_ops
from quantforecast.models import FAMILIES


def central_difference(loss_fn, param, h=1e-5):
    """Entry-wise central finite differences on a parameter tensor."""
    flat = param.data.ravel()
    grad = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn().item()
        flat[i] = orig - h
        fm = loss_fn().item()
        flat[i] = orig
        grad[i] = (fp - fm) / (2 * h)
    return grad.reshape(param.shape)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        p = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
        grads = backward(matmul(p, Tensor(np.ones((3, 1)))), [p])
        assert grads[p].tolist() == [[1.0, 1.0, 1.0]]

    def test_square_gradient(self):
        p = Tensor([2.0], requires_grad=True)
        grads = backward(reduce_mean(hadamard(p, p)), [p])
        assert grads[p].tolist() == [4.0]

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NotScalar):
            backward(hadamard(p, p), [p])

    def test_unreachable_parameter_gets_zero_gradient(self):
        p = Tensor([1.0], requires_grad=True)
        unused = Tensor([[5.0, 1.0]], requires_grad=True)
        grads = backward(reduce_mean(p), [p, unused])
        assert grads[unused].shape == (1, 2)
        assert np.all(grads[unused] == 0.0)

    def test_fanout_accumulates(self):
        p = Tensor([3.0], requires_grad=True)
        # f = p*p + (p + p) -> f' = 2p + 2 = 8
        loss = reduce_mean(add(hadamard(p, p), add(p, p)))
        grads = backward(loss, [p])
        assert grads[p].tolist() == [8.0]

    def test_fanout_sum_leaves_shared_gradients_alone(self):
        # add hands the same gradient array to both parents; p then takes
        # two more contributions, which must not write into q's gradient.
        p = Tensor([[1.0, 2.0]], requires_grad=True)
        q = Tensor([[3.0, 4.0]], requires_grad=True)
        f = add(add(add(add(p, p), p), add(p, q)), p)
        grads = backward(reduce_mean(f), [p, q])
        assert grads[p].tolist() == [[2.5, 2.5]]
        assert grads[q].tolist() == [[0.5, 0.5]]

    def test_ops_off_gradient_path_record_no_tape(self):
        x = Tensor([[1.0, 2.0]])
        p = Tensor([[3.0], [-4.0]], requires_grad=True)
        frozen = tanh(matmul(x, Tensor(p.data)))
        assert frozen.parents == () and frozen.backward_fn is None
        live = tanh(matmul(x, p))
        assert live.parents[0].parents == (x, p)
        assert frozen.data.tobytes() == live.data.tobytes()
        # a recorded op still takes gradients through an unrecorded parent
        loss = reduce_mean(hadamard(p, tanh(Tensor([[0.5], [-1.0]]))))
        assert backward(loss, [p])[p].tolist() == [[np.tanh(0.5) / 2],
                                                   [np.tanh(-1.0) / 2]]

    def test_no_gradient_toward_constants(self, rng):
        # A closure hands back gradients only for the parents that a
        # gradient can reach, not for input windows or loss targets.
        def pair(shape):
            return (Tensor(rng.normal(size=shape)),
                    Tensor(rng.normal(size=shape), requires_grad=True))

        for op in (matmul, add, sub, hadamard):
            const, live = pair((3, 3))
            for args in ((const, live), (live, const)):
                out = op(*args)
                assert [p for p, _ in out.backward_fn(np.ones((3, 3)))] \
                    == [live]
        x, w = Tensor(rng.normal(size=(2, 3, 2))), pair((2, 2, 4))[1]
        out = conv1d(x, w)
        assert [p for p, _ in out.backward_fn(np.ones(out.shape))] == [w]
        const, live = pair((2, 3))
        out = concat([const, live], axis=1)
        assert [p for p, _ in out.backward_fn(np.ones((2, 6)))] == [live]

    def test_returned_gradients_are_writable(self):
        # reduce_mean's backward hands back a read-only broadcast view;
        # the table holds arrays a caller can update in place.
        p = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        for loss in (reduce_mean(p), reduce_mean(reshape(p, (4,)))):
            grad = backward(loss, [p])[p]
            grad *= 2.0
            assert grad.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_graph_consumed_after_backward(self):
        p = Tensor([1.0], requires_grad=True)
        loss = reduce_mean(hadamard(p, p))
        backward(loss, [p])
        with pytest.raises(RuntimeError):
            backward(loss, [p])


class TestFiniteDifferenceOracle:
    def test_random_ten_parameter_graph(self):
        rng = SeededRng(5)
        params = {f"p{i}": Tensor(rng.standard_normal((2, 2)),
                                  requires_grad=True, name=f"p{i}")
                  for i in range(10)}

        def loss_fn():
            acc = params["p0"]
            for i in range(1, 5):
                acc = tanh(add(matmul(acc, params[f"p{i}"]), params[f"p{i + 5}"]))
            acc = hadamard(acc, sigmoid(params["p5"]))
            return reduce_mean(acc)

        analytic = backward(loss_fn(), list(params.values()))
        for p in params.values():
            numeric = central_difference(loss_fn, p)
            a = analytic[p]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-4)
            assert np.max(np.abs(a - numeric) / denom) < 1e-4

    def test_composite_with_conv_concat_slice(self):
        rng = SeededRng(9)
        x = Tensor(rng.standard_normal((2, 6, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)

        def loss_fn():
            c = tanh(conv1d(x, w))
            left = slice_axis(c, 1, 0, 2)
            right = slice_axis(c, 1, 2, 5)
            merged = concat([reshape(left, (2, 6)), reshape(right, (2, 9))],
                            axis=1)
            return reduce_mean(hadamard(merged, merged))

        analytic = backward(loss_fn(), [x, w])
        for p in (x, w):
            numeric = central_difference(loss_fn, p)
            a = analytic[p]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-4)
            assert np.max(np.abs(a - numeric) / denom) < 1e-4

    def test_pinball_gradient_away_from_kink(self):
        u = Tensor([0.4, -0.7, 1.2], requires_grad=True)

        def loss_fn():
            return reduce_mean(pinball_branch(u, 0.9))

        grads = backward(loss_fn(), [u])
        assert np.allclose(grads[u], [0.3, -0.1 / 3, 0.3])


class TestGradCheckHarness:
    def test_linear_map_is_exact(self):
        w = Tensor([[1.0]], requires_grad=True, name="w")
        x = Tensor([[1.0]])

        report = grad_check(lambda: reduce_mean(matmul(x, w)), {"w": w})
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_single_lstm_cell(self):
        from lstm_oracle import lstm_cell_step
        rng = SeededRng(1)
        hidden = 4
        params = {
            "w_x": tensor_new([3, 4 * hidden], "glorot", rng=rng,
                              requires_grad=True),
            "w_h": tensor_new([hidden, 4 * hidden], "glorot", rng=rng,
                              requires_grad=True),
            "b": Tensor(rng.standard_normal((4 * hidden,)),
                        requires_grad=True),
        }
        x = Tensor(rng.standard_normal((2, 3)))
        h0 = Tensor(rng.standard_normal((2, hidden)))
        c0 = Tensor(rng.standard_normal((2, hidden)))

        def loss_fn():
            h, c = lstm_cell_step(x, h0, c0, params)
            return reduce_mean(hadamard(h, add(h, c)))

        report = grad_check(loss_fn, params)
        assert report.passed, report.lines()
        assert report.max_rel_err < 1e-4

    def test_pinball_kink_flagged_and_excluded(self):
        u = Tensor([0.0], requires_grad=True, name="u")

        def loss_fn():
            return reduce_mean(pinball_branch(u, 0.75))

        report = grad_check(loss_fn, {"u": u})
        block = report.blocks["u"]
        assert block.kink_entries == 1
        assert block.checked == 0
        assert report.passed  # kink entries never count against the max

    def test_rejects_bad_tolerances(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: reduce_mean(p), {"p": p}, h=-1.0)


class TestSuiteProperties:
    def test_every_op_kind_passes_randomised_check(self):
        reports = check_all_ops(seed=3, trials=3)
        assert set(reports) == set(OP_TABLE)
        for name, report in reports.items():
            assert report.passed, f"{name}: {report.lines()}"

    def test_every_family_passes_at_toy_size(self):
        reports = check_all_families(seed=3)
        assert {name.split("/")[0] for name in reports} == set(FAMILIES)
        for name, report in reports.items():
            assert report.passed, f"{name}: {report.lines()}"
