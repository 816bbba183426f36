"""Reverse pass against independent finite-difference oracles, and what
the tape keeps."""

import tracemalloc
import weakref

import numpy as np
import pytest

from quantforecast import training
from quantforecast.engine import (OP_TABLE, SeededRng, Tensor, add, backward,
                                  concat, conv1d, hadamard, matmul,
                                  pinball_branch, reduce_mean, relu, reshape,
                                  sigmoid, slice_axis, sub, tanh)
from quantforecast.engine.tensor import _op_result
from quantforecast.errors import NotScalar
from quantforecast.gradsuite import (check_all_families, check_all_ops,
                                     grad_check)
from quantforecast.losses import DEFAULT_QUANTILES, quantile_loss_batch
from quantforecast.models import (FAMILIES, ModelSpec, build_model,
                                  forward_pass)


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


# One recorded call per op kind, given a maker of recorded (non-leaf)
# inputs of a shape, so that every parent entry is a record.
TAPE_CASES = {
    "matmul": lambda t: matmul(t((2, 3)), t((3, 4))),
    "add": lambda t: add(t((2, 3)), t((2, 3))),
    "sub": lambda t: sub(t((2, 3)), t((1, 3))),
    "hadamard": lambda t: hadamard(t((2, 3)), t((2, 3))),
    "concat": lambda t: concat([t((2, 3)), t((2, 2))], axis=1),
    "slice": lambda t: slice_axis(t((2, 3)), 1, 0, 2),
    "reshape": lambda t: reshape(t((2, 3)), (3, 2)),
    "sigmoid": lambda t: sigmoid(t((2, 3))),
    "tanh": lambda t: tanh(t((2, 3))),
    "relu": lambda t: relu(t((2, 3))),
    "conv1d": lambda t: conv1d(t((2, 4, 2)), t((2, 2, 3))),
    "reduce-mean": lambda t: reduce_mean(t((2, 3))),
    "pinball-residual-branch": lambda t: pinball_branch(t((2, 3)), 0.3),
}
# Kinds whose gradient reads no forward value.
SHAPE_ONLY = ("add", "sub", "slice", "reshape", "concat", "reduce-mean")


class TestTapeContract:
    @pytest.mark.parametrize("kind", sorted(OP_TABLE))
    def test_recorded_closure_holds_no_tensor(self, kind, rng):
        def recorded(shape):
            leaf = Tensor(rng.normal(size=shape), requires_grad=True)
            return reshape(leaf, shape)

        out = TAPE_CASES[kind](recorded)
        assert out.op == kind and out.backward_fn is not None
        held = [cell.cell_contents for cell in out.backward_fn.__closure__]
        held += [x for c in held if isinstance(c, (list, tuple)) for x in c]
        assert not any(isinstance(c, Tensor) for c in held)
        if kind in SHAPE_ONLY:
            assert not any(isinstance(c, np.ndarray) and c.dtype == np.float64
                           for c in held)

    def test_unread_array_dies_with_its_tensor(self):
        # add's closure keeps shapes only and tanh's its own output, so
        # nothing on the tape reads the sum once its Tensor is dropped.
        p = Tensor([[1.0, -2.0]], requires_grad=True)
        q = Tensor([[0.5, 3.0]], requires_grad=True)

        def grads(drop):
            s = add(p, q)
            ref = weakref.ref(s.data)
            loss = reduce_mean(hadamard(tanh(s), q))
            if drop:
                del s
                assert ref() is None
            return backward(loss, [p, q])

        kept, dropped = grads(False), grads(True)
        for t in (p, q):
            assert dropped[t].tobytes() == kept[t].tobytes()

    def test_edlstm_step_tape_size(self):
        # Criterion 4's shape: hidden 100/100, batch 64, five levels.
        # Keeping every forward array holds 16.2 MiB here; keeping only
        # what backward reads, 5.5 MiB.
        spec = ModelSpec(family="edlstm", features=1, window=5, horizons=10,
                         hidden1=100, hidden2=100,
                         quantiles=DEFAULT_QUANTILES)
        model = build_model(spec, SeededRng(0))
        rng = np.random.default_rng(0)
        inputs = rng.uniform(size=(64, 5, 1))
        targets = rng.uniform(size=(64, 10))
        tracemalloc.start()
        try:
            value = quantile_loss_batch(
                targets, forward_pass(model, inputs), spec.quantiles)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 8 * 2**20, held / 2**20
        assert set(backward(value.node, list(model.params.values()))) \
            == set(model.params.values())

    def test_edlstm_backward_overshoot(self):
        # Same step: freeing each record as the walk passes it keeps
        # backward within 0.8 MiB of what the tape held before it; freeing
        # the whole tape after the walk overshot by 1.96 MiB.
        spec = ModelSpec(family="edlstm", features=1, window=5, horizons=10,
                         hidden1=100, hidden2=100,
                         quantiles=DEFAULT_QUANTILES)
        model = build_model(spec, SeededRng(0))
        rng = np.random.default_rng(0)
        inputs = rng.uniform(size=(64, 5, 1))
        targets = rng.uniform(size=(64, 10))
        tracemalloc.start()
        try:
            value = quantile_loss_batch(
                targets, forward_pass(model, inputs), spec.quantiles)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = backward(value.node, list(model.params.values()))
            overshoot = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert overshoot <= 1.25 * 2**20, overshoot / 2**20
        assert set(grads) == set(model.params.values())

    def test_closure_freed_before_next_closure_runs(self):
        # tanh's closure alone holds its output once its Tensor is gone;
        # by the time the lower-id sigmoid closure runs, it must be freed.
        p = Tensor([[0.3, -1.2]], requires_grad=True)
        s = sigmoid(p)
        t = tanh(s)
        held_by_tanh = weakref.ref(t.data)
        loss = reduce_mean(t)
        del t
        seen = []
        sigmoid_fn = s.record.backward_fn

        def probe(g):
            seen.append(held_by_tanh() is None)
            return sigmoid_fn(g)

        s.record.backward_fn = probe
        grad = backward(loss, [p])[p]
        assert seen == [True]
        sig = 1.0 / (1.0 + np.exp(-p.data))
        expected = 0.5 * (1.0 - np.tanh(sig) ** 2) * sig * (1.0 - sig)
        assert np.allclose(grad, expected, rtol=1e-12, atol=0)
        assert s.consumed and s.backward_fn is None and s.parents == ()


class TestVisitOrder:
    def test_contributions_sum_in_descending_consumer_id_order(self):
        # Three consumers hand p fixed gradients whose float sum depends on
        # the order: by descending id (-1e16 + 1e16) + 1.0 = 1.0, where
        # ascending id gives (1.0 + 1e16) - 1e16 = 0.0. The loss wires
        # them in neither order.
        p = Tensor([0.0], requires_grad=True)
        consumers = [_op_result(np.zeros(1), "probe", (p,),
                                lambda g, v=v: [(p, np.array([v]))])
                     for v in (1.0, 1e16, -1e16)]
        loss = reduce_mean(add(add(consumers[2], consumers[0]),
                               consumers[1]))
        assert backward(loss, [p])[p].tolist() == [(-1e16 + 1e16) + 1.0]

    def test_every_op_id_exceeds_its_parents_ids(self, monkeypatch,
                                                  mg_dataset):
        # Descending id is a topological order only if every recorded op
        # drew its id after its parents' ids.
        steps = []
        real_backward = training.backward

        def checking_backward(loss, params=None):
            stack, seen = [loss], set()
            while stack:
                node = stack.pop()
                if node.node_id not in seen:
                    seen.add(node.node_id)
                    assert all(node.node_id > parent.node_id
                               for parent in node.parents), node
                    stack.extend(node.parents)
            steps.append(len(seen))
            return real_backward(loss, params)

        monkeypatch.setattr(training, "backward", checking_backward)
        for family in FAMILIES:
            spec = ModelSpec(family=family, features=1, window=5, horizons=3,
                             hidden1=3, hidden2=3,
                             quantiles=(0.25, 0.5, 0.75))
            training.train(build_model(spec, SeededRng(0)), mg_dataset,
                           training.TrainConfig(epochs=1, batch_size=512),
                           SeededRng(1))
        assert len(steps) == len(FAMILIES) and min(steps) > 1


class TestFiniteDifferenceOracle:
    def test_random_ten_parameter_graph(self):
        rng = np.random.default_rng(5)
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
        rng = np.random.default_rng(9)
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
        normal = np.random.default_rng(1).standard_normal
        hidden = 4

        def glorot(n_in, n_out):
            limit = np.sqrt(6.0 / (n_in + n_out))
            return Tensor(rng.uniform(-limit, limit, (n_in, n_out)),
                          requires_grad=True)

        params = {
            "w_x": glorot(3, 4 * hidden),
            "w_h": glorot(hidden, 4 * hidden),
            "b": Tensor(normal((4 * hidden,)), requires_grad=True),
        }
        x = Tensor(normal((2, 3)))
        h0 = Tensor(normal((2, hidden)))
        c0 = Tensor(normal((2, hidden)))

        def loss_fn():
            h, c = lstm_cell_step(x, h0, c0, params)
            return reduce_mean(hadamard(h, add(h, c)))

        report = grad_check(loss_fn, params)
        assert report.passed, report.blocks
        assert report.max_rel_err < 1e-4

    def test_pinball_kink_flagged_and_excluded(self):
        u = Tensor([0.0], requires_grad=True, name="u")

        def loss_fn():
            return reduce_mean(pinball_branch(u, 0.75))

        report = grad_check(loss_fn, {"u": u})
        # The one entry is a kink, so no entry is checked.
        assert report.blocks["u"] == (0.0, 1)
        assert report.passed  # kink entries never count against the max

    def test_non_finite_analytic_gradient_fails(self):
        p = Tensor([0.3, -0.2], requires_grad=True, name="p")

        def loss_fn():
            # The loss is finite; only the gradient handed back is NaN.
            probe = _op_result(p.data.copy(), "probe", (p,),
                               lambda g: [(p, np.full(p.shape, np.nan))])
            return reduce_mean(probe)

        report = grad_check(loss_fn, {"p": p})
        assert report.blocks["p"] == (np.inf, 0)
        assert not report.passed

    @pytest.mark.parametrize("op", [add, sub, hadamard],
                             ids=["add", "sub", "hadamard"])
    @pytest.mark.parametrize("a_shape, b_shape",
                             [((3, 1), (3, 4)), ((1, 4), (3, 4)),
                              ((3, 4), (1, 1))],
                             ids=["3x1-3x4", "1x4-3x4", "3x4-1x1"])
    def test_broadcast_operands_sum_gradients_back(self, op, a_shape,
                                                   b_shape):
        # A size-1 axis of either operand is stretched in the forward
        # pass, so its gradient is the sum over that axis.
        normal = np.random.default_rng(4).standard_normal
        params = {"a": Tensor(normal(a_shape), requires_grad=True),
                  "b": Tensor(normal(b_shape), requires_grad=True)}
        weights = Tensor(normal((3, 4)))

        def loss_fn():
            return reduce_mean(hadamard(op(params["a"], params["b"]),
                                        weights))

        report = grad_check(loss_fn, params)
        assert report.passed, report.blocks


class TestSuiteProperties:
    def test_every_op_kind_passes_randomised_check(self):
        reports = check_all_ops(seed=3)
        assert set(reports) == set(OP_TABLE)
        for name, report in reports.items():
            assert report.passed, f"{name}: {report.blocks}"

    def test_every_family_passes_at_toy_size(self):
        reports = check_all_families(seed=3)
        assert {name.split("/")[0] for name in reports} == set(FAMILIES)
        for name, report in reports.items():
            assert report.passed, f"{name}: {report.blocks}"
