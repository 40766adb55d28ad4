import math
import re

import numpy as np
import pytest

from memtrace import traced
from spanqa import autodiff as ad
from spanqa.diagnostics import OP_THRESHOLD, make_tiny_problem, op_gradcheck_cases
from spanqa.model import forward, loss


def scalar_loss(f):
    """Wrap a tensor->tensor function into tensor->scalar via sum."""
    return lambda t: ad.reduce_sum(f(t))


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, np.eye(2))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        # [[1,2],[3,4]] @ [[5,6],[7,8]] multiplied out by hand
        out = ad.matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch_names_both_shapes(self):
        # inner sizes that differ, batch sizes that differ, 3-D matmul operands
        for op, a, b in [(ad.matmul, (2, 3), (2, 3)), (ad.bmm, (2, 3, 4), (3, 4, 5)),
                         (ad.matmul, (2, 3, 4), (2, 4, 5))]:
            with pytest.raises(ad.DimensionError, match=re.escape(f"{a} and {b}")):
                op(np.zeros(a), np.zeros(b))


class TestElementwise:
    def test_relu_signs(self):
        assert np.array_equal(ad.relu([-1.0, 0.0, 2.0]).data, [0.0, 0.0, 2.0])

    def test_sigmoid_symmetry_point(self):
        assert ad.sigmoid([0.0]).data[0] == 0.5
        # s(x) + s(-x) = 1, in [0, 1], and no exp overflows
        for x in (30.0, 800.0):
            with np.errstate(over="raise", invalid="raise"):
                pos, neg = ad.sigmoid([x, -x]).data
            assert 0.0 <= neg <= pos <= 1.0
            assert abs(pos + neg - 1.0) <= 1e-15

    def test_tanh_scalar(self):
        # math.tanh(0.5) evaluated independently
        assert ad.tanh([0.5]).data[0] == pytest.approx(0.4621171572600098, abs=1e-15)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ad.DimensionError):
            ad.add(np.zeros(3), np.zeros(4))

    def test_scalar_broadcast(self):
        out = ad.mul(ad.Tensor([1.0, 2.0, 3.0]), 2.0)
        assert np.array_equal(out.data, [2.0, 4.0, 6.0])

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_broadcast_mismatch_names_both_shapes(self, op):
        with pytest.raises(ad.DimensionError, match=r"\(2, 3, 4\).*\(2, 4\)"):
            op(np.zeros((2, 3, 4)), np.zeros((2, 4)))

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3, 2, 5), (5,)), ((2, 4, 1), (2, 1, 3)), ((2, 1, 3), (2, 4, 3)),
        ((4, 1), ()), ((1, 3), (2, 1, 1))])
    def test_broadcast_matches_numpy_and_sums_gradients_back(self, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape) + 3 * len(b_shape))
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        out_shape = np.broadcast_shapes(a_shape, b_shape)
        weights = rng.normal(size=out_shape)
        for op, forward, da, db in [
                (ad.add, a + b, weights, weights),
                (ad.mul, a * b, weights * b, weights * a)]:
            graph = ad.Graph()
            ta = graph.leaf(a)
            tb = graph.leaf(b)
            out = op(ta, tb)
            assert out.shape == out_shape
            assert np.array_equal(out.data, forward)
            grads = graph.backward(ad.reduce_sum(ad.mul(out, weights)))
            # the gradient of a repeated operand is the sum over its copies
            for leaf, shape, local in [(ta, a_shape, da), (tb, b_shape, db)]:
                expected = np.zeros(shape)
                local = np.broadcast_to(local, out_shape)
                for index in np.ndindex(out_shape):
                    expected[_source(index, shape)] += local[index]
                assert grads[leaf.node_id].shape == shape
                assert np.allclose(grads[leaf.node_id], expected, rtol=1e-13, atol=1e-13)


def _source(index, shape):
    """The element of an operand of `shape` that broadcasting puts at `index`."""
    index = index[len(index) - len(shape):]
    return tuple(0 if n == 1 else i for i, n in zip(index, shape))


class TestTranspose:
    def test_matrix(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(ad.transpose(x).data, x.T)

    def test_swaps_last_two_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = ad.transpose(x)
        assert np.array_equal(out.data, np.swapaxes(x, 1, 2))
        assert out.data.flags.c_contiguous

    def test_vector_rejected(self):
        with pytest.raises(ad.DimensionError):
            ad.transpose(np.zeros(3))


class TestTakeRows:
    def test_forward_gathers_and_backward_sums_repeats(self):
        x = np.arange(12.0).reshape(3, 4)
        index = np.array([2, 0, 2, 2])
        graph = ad.Graph()
        leaf = graph.leaf(x)
        out = ad.take_rows(leaf, index)
        assert np.array_equal(out.data, x[index])
        weights = np.arange(16.0).reshape(4, 4)
        grads = graph.backward(ad.reduce_sum(ad.mul(out, weights)))
        expected = np.zeros_like(x)
        for row, source in enumerate(index):
            expected[source] += weights[row]
        assert np.array_equal(grads[leaf.node_id], expected)   # row 1 untaken: zeros

    def test_keeps_float32(self):
        x = np.ones((2, 3), dtype=np.float32)
        assert ad.take_rows(x, np.array([1, 1, 0])).data.dtype == np.float32

    @pytest.mark.parametrize("index", [np.array([0, 3]), np.array([-1]),
                                       np.array([0.0, 1.0]), np.array([[0, 1]])])
    def test_bad_index(self, index):
        with pytest.raises(ad.DimensionError):
            ad.take_rows(np.ones((3, 2)), index)


class TestConcat:
    def test_vectors(self):
        out = ad.concat([ad.Tensor([1.0, 2.0]), ad.Tensor([3.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_shape_arithmetic(self):
        out = ad.concat([ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 5)))], axis=1)
        assert out.shape == (2, 8)

    def test_mismatch(self):
        # no operands, and a non-axis size that differs
        for tensors in [[], [ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 3)))]]:
            with pytest.raises(ad.DimensionError, match=re.escape(
                    f"concat: incompatible shapes {[t.shape for t in tensors]}")):
                ad.concat(tensors, axis=1)

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        joined = ad.concat([ad.Tensor(a), ad.Tensor(b)], axis=1)
        assert np.array_equal(ad.slice_axis(joined, 1, 0, 3).data, a)
        assert np.array_equal(ad.slice_axis(joined, 1, 3, 8).data, b)


class TestMaskedSoftmax:
    def test_uniform(self):
        out = ad.masked_softmax([5.0, 5.0, 5.0], [1.0, 1.0, 1.0])
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_single_survivor(self):
        out = ad.masked_softmax([9.0, 2.0, 7.0], [0.0, 1.0, 0.0])
        assert np.array_equal(out.data, [0.0, 1.0, 0.0])

    def test_direct_evaluation(self):
        # exp(0) : exp(ln 3) = 1 : 3
        out = ad.masked_softmax([0.0, math.log(3.0)], [1.0, 1.0])
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_masked_exactly_zero_and_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 9)) * 10
        mask = (rng.random((6, 9)) > 0.4).astype(float)
        mask[:, 0] = 1.0
        out = ad.masked_softmax(logits, mask).data
        assert np.all(out[mask == 0] == 0.0)
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) < 1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 7))
        mask = np.ones((4, 7))
        mask[:, 5:] = 0.0
        base = ad.masked_softmax(logits, mask).data
        shifted = ad.masked_softmax(logits + 123.456, mask).data
        assert np.all(np.abs(base - shifted) < 1e-12)
        assert np.array_equal(base.argmax(axis=-1), shifted.argmax(axis=-1))

    def test_fully_masked_row(self):
        with pytest.raises(ad.DegenerateMaskError):
            ad.masked_softmax(np.zeros((2, 3)), [[1, 1, 1], [0, 0, 0]])


class TestCrossEntropy:
    def test_one_hot_is_zero(self):
        # only the gold position kept: softmax puts all its mass there
        out = ad.cross_entropy([[9.0, -4.0, 7.0]], [1], [[0.0, 1.0, 0.0]])
        assert out.item() == 0.0

    def test_uniform(self):
        out = ad.cross_entropy(np.full((2, 4), 3.5), [0, 3], np.ones((2, 4)))
        assert out.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_point_one(self):
        # softmax([0, ln 9]) = [0.1, 0.9], so the loss is -ln(0.1)
        out = ad.cross_entropy([[0.0, math.log(9.0)]], [0], np.ones((1, 2)))
        assert out.item() == pytest.approx(2.302585092994046, abs=1e-12)

    def test_masked_gold_rejected(self):
        with pytest.raises(ad.LabelError):
            ad.cross_entropy(np.zeros((1, 3)), [2], [[1, 1, 0]])

    def test_out_of_range_gold_rejected(self):
        with pytest.raises(ad.LabelError):
            ad.cross_entropy(np.zeros((1, 3)), [3], np.ones((1, 3)))

    def test_nonnegative_and_zero_iff_certain(self):
        # equals -ln of the masked softmax at gold; 0 exactly when only gold is kept
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.normal(size=(1, 5)) * 3
            mask = (rng.random((1, 5)) < 0.5).astype(float)
            gold = rng.integers(5)
            mask[0, gold] = 1.0
            loss = ad.cross_entropy(logits, [gold], mask).item()
            p = ad.masked_softmax(logits, mask).data[0, gold]
            assert loss >= 0.0
            assert loss == pytest.approx(-math.log(p), abs=1e-12)
            assert (loss == 0.0) == (mask.sum() == 1.0)

    def test_confidently_wrong_row_keeps_loss_and_gradient(self):
        # float32 row 0 puts its gold logit 80 below its max: softmax gives
        # the gold position 1.8e-35, under any clamp at 1e-30, yet the loss
        # is lse - z_gold and the gradient (softmax - onehot) / B
        logits = np.array([[80.0, 0.0, 1.0, 5.0], [0.5, 0.0, -1.0, 2.0]], np.float32)
        gold, mask = np.array([1, 0]), np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
        wide = logits.astype(np.float64)
        kept = np.where(mask > 0, wide, -np.inf)
        top = kept.max(axis=1)
        lse = top + np.log(np.exp(kept - top[:, None]).sum(axis=1))
        graph = ad.Graph()
        z = graph.leaf(logits)
        out = ad.cross_entropy(z, gold, mask)
        per_row = lse - wide[[0, 1], gold]
        assert per_row[0] == pytest.approx(80.0, abs=1e-6)
        assert out.data.dtype == np.float32
        assert out.item() == pytest.approx(per_row.mean(), rel=1e-6)
        grad = graph.backward(out)[z.node_id]
        want = (ad.masked_softmax(wide, mask).data - np.eye(4)[gold]) / 2
        assert grad.dtype == np.float32
        assert np.allclose(grad, want, rtol=1e-6, atol=1e-7)
        assert grad[0, 1] == pytest.approx(-0.5, rel=1e-6)
        assert grad[1, 3] == 0.0

class TestDropout:
    def test_zero_rate_identity(self):
        x = ad.Tensor([1.0, 2.0])
        assert ad.dropout(x, 0.0, seed=0) is x

    def test_mean_preserved(self):
        x = np.ones(100_000)
        out = ad.dropout(ad.Tensor(x), 0.5, seed=7)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_seed_fixes_mask(self):
        x = np.ones(64)
        a = ad.dropout(ad.Tensor(x), 0.3, seed=5).data
        b = ad.dropout(ad.Tensor(x), 0.3, seed=5).data
        assert np.array_equal(a, b)

    def test_bad_rate(self):
        with pytest.raises(ad.ConfigError):
            ad.dropout(ad.Tensor([1.0]), 1.0, seed=0)

    def test_survivors_scaled_for_the_threshold_used(self):
        # rate acts at a resolution of 1/65536: 0.3 drops 19661/65536 of the
        # draws, so survivors are scaled by 65536/45875, not 1/0.7
        out = ad.dropout(ad.Tensor(np.ones(1000)), 0.3, seed=1).data
        assert 0 < np.count_nonzero(out) < 1000
        assert np.all(out[out != 0] == 65536 / (65536 - 19661))
        tiny = ad.dropout(ad.Tensor(np.ones(1000)), 1e-6, seed=1)
        assert np.all(tiny.data == 1.0)
        near_one = ad.dropout(ad.Tensor(np.ones(1000)), 1 - 1e-9, seed=1)
        assert np.all(np.isin(near_one.data, [0.0, 65536.0]))

    def test_taped_mask_is_compact(self):
        # backward keeps a boolean keep-mask, not a float scale array per element
        x = np.random.default_rng(2).normal(size=(200, 500))
        graph = ad.Graph()
        leaf = graph.leaf(x)
        out, retained, _ = traced(ad.dropout, leaf, 0.2, seed=3)
        assert retained < 1.25 * x.nbytes
        grad = graph.backward(ad.reduce_sum(out))[leaf.node_id]
        assert np.array_equal(grad != 0, out.data != 0)


class TestBackward:
    def test_sum_gives_ones(self):
        g = ad.Graph()
        x = g.leaf(np.arange(6.0).reshape(2, 3))
        grads = g.backward(ad.reduce_sum(x))
        assert np.array_equal(grads[x.node_id], np.ones((2, 3)))

    def test_square_sum(self):
        # d/dx sum(x*x) = 2x
        g = ad.Graph()
        x = g.leaf([1.0, 2.0, 3.0])
        grads = g.backward(ad.reduce_sum(ad.mul(x, x)))
        assert np.array_equal(grads[x.node_id], [2.0, 4.0, 6.0])

    def test_unused_parameter_gets_zeros(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        unused = g.leaf(np.ones((3, 3)))
        grads = g.backward(ad.reduce_sum(x))
        assert np.array_equal(grads[unused.node_id], np.zeros((3, 3)))

    def test_non_scalar_root_rejected(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        with pytest.raises(ad.DimensionError):
            g.backward(ad.mul(x, x))

    def test_fanout_accumulates(self):
        # y = sum(x*x + x): node x feeds two consumers; dy/dx = 2x + 1
        g = ad.Graph()
        x = g.leaf([1.0, -2.0, 0.5])
        root = ad.reduce_sum(ad.add(ad.mul(x, x), x))
        grads = g.backward(root)
        assert np.allclose(grads[x.node_id], [3.0, -3.0, 2.0], atol=1e-15)
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.add(ad.mul(t, t), t)),
                            np.array([1.0, -2.0, 0.5]))
        assert err < 1e-8

    def test_returns_exactly_the_requires_grad_leaves(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        unused = g.leaf(np.ones(3))
        frozen = ad.Tensor([3.0, 4.0])
        hidden = ad.tanh(ad.mul(x, frozen))
        root = ad.reduce_sum(ad.add(hidden, x))
        grads = g.backward(root)
        assert set(grads) == {x.node_id, unused.node_id}

    def test_detached_tensors_stay_detached(self):
        out = ad.add(ad.Tensor([1.0]), ad.Tensor([2.0]))
        assert out.graph is None and out.node_id is None

    def test_constant_shared_by_two_graphs(self):
        c = ad.Tensor([2.0, -1.0])
        for weight in ([3.0, 4.0], [0.5, 0.25]):
            g = ad.Graph()
            w = g.leaf(weight)
            grads = g.backward(ad.reduce_sum(ad.mul(w, c)))
            assert set(grads) == {w.node_id}
            assert np.array_equal(grads[w.node_id], c.data)
            assert len(g) == 3      # leaf, mul, sum: the constant is no node

    def test_constant_stays_detached_after_backward(self):
        c = ad.Tensor([0.5, 1.5])
        g = ad.Graph()
        w = g.leaf([1.0, 2.0])
        g.backward(ad.reduce_sum(ad.mul(w, c)))
        before = len(g)
        out = ad.tanh(c)
        assert len(g) == before
        assert c.graph is None and c.node_id is None
        assert out.graph is None and np.array_equal(out.data, np.tanh(c.data))

    @pytest.mark.parametrize("dropout", [0.0, 0.2])   # shared-context path at 0
    def test_model_tape_holds_only_gradient_paths(self, dropout):
        # the embeddings, masks and attention constants join no tape: the
        # only leaves are the parameters, and every other node has a backward
        config, params, table, batch = make_tiny_problem(seed=3, hidden=5, batch_size=3,
                                                         dropout=dropout, shared_context=True)
        g = ad.Graph()
        leaves = {name: g.leaf(value) for name, value in params.items()}
        out = forward(batch, leaves, table, config, training=True, step=1)
        loss(out, batch.gold_starts, batch.gold_ends, batch.context_mask)
        nodes = g._nodes
        assert [n.op for n in nodes].count("leaf") == len(params)
        assert all(n.backward is not None for n in nodes if n.op != "leaf")
        assert all(pid is None or pid < i for i, n in enumerate(nodes) for pid in n.parents)


class TestGradCheck:
    def test_tanh_sum(self):
        rng = np.random.default_rng(11)
        err = ad.grad_check(scalar_loss(ad.tanh), rng.normal(size=(3, 3)))
        assert err < 1e-6

    def test_linear(self):
        rng = np.random.default_rng(12)
        err = ad.grad_check(ad.reduce_sum, rng.normal(size=(4,)))
        assert err < 1e-10

    @staticmethod
    def _tiny_gradient_loss(doubled):
        """4 + 1e-8 * sum(w * tanh(x)): gradients near 1e-8 on an O(1) loss,
        where central differences at a 1e-5 step lose ~1e-3 to round-off.
        With `doubled`, the backward reports twice the true gradient."""
        w = np.random.default_rng(13).normal(size=(3, 4)) * 1e-8

        def loss(t):
            small = ad.reduce_sum(ad.mul(ad.tanh(t), w))
            if doubled:
                frozen = ad.reduce_sum(ad.mul(ad.tanh(ad.Tensor(t.data.copy())), w))
                small = ad.add(ad.add(small, small), ad.mul(frozen, -1.0))
            return ad.add(small, 4.0)

        return loss

    def test_tiny_gradients_are_resolved(self):
        x = np.random.default_rng(14).normal(size=(3, 4))
        # within the per-op bound; central differences at the 1e-5 step alone give 2.5e-3
        assert ad.grad_check(self._tiny_gradient_loss(False), x) < 1e-4

    def test_wrong_tiny_gradient_fails(self):
        x = np.random.default_rng(14).normal(size=(3, 4))
        assert ad.grad_check(self._tiny_gradient_loss(True), x) > 0.4

    @staticmethod
    def _relu_loss(doubled):
        """sum(w * relu(x)); with `doubled`, the backward reports twice the
        true gradient."""
        w = np.arange(1.0, 5.0)

        def loss(t):
            out = ad.reduce_sum(ad.mul(ad.relu(t), w))
            if doubled:
                frozen = ad.reduce_sum(ad.mul(ad.relu(ad.Tensor(t.data.copy())), w))
                out = ad.add(ad.add(out, out), ad.mul(frozen, -1.0))
            return out

        return loss

    # two probes within one 1e-5 step of relu's kink at 0, one on each side:
    # the 1e-5 step crosses it and reads 0.75 and 0.35 of the slope there
    KINK_PROBE = np.array([0.7, 5e-6, -0.4, -3e-6])

    def test_probe_near_a_kink_is_resolved(self):
        assert ad.grad_check(self._relu_loss(False), self.KINK_PROBE) < 1e-8

    def test_wrong_gradient_near_a_kink_fails(self):
        assert ad.grad_check(self._relu_loss(True), self.KINK_PROBE) > 0.4


@pytest.mark.parametrize("name,f,x", op_gradcheck_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_every_op_passes_gradcheck(name, f, x):
    assert ad.grad_check(f, x) < OP_THRESHOLD


def test_first_nonfinite_reports_op():
    g = ad.Graph()
    x = g.leaf([1e308])
    with np.errstate(over="ignore"):
        y = ad.mul(x, x)
        ad.tanh(y)
    nid, op = g.first_nonfinite()
    assert op == "mul"
