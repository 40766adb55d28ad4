import functools
import math
import re

import numpy as np
import pytest

from lstm_oracle import packed_logits, padded
from memtrace import traced
from spanqa import autodiff as ad
from spanqa.diagnostics import OP_THRESHOLD, make_tiny_problem, op_gradcheck_cases
from spanqa.model import forward, loss


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
            grads = graph.backward(out, weights)
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


# rows out of length order, one of them empty: 7 packed rows
UNSORTED = ad.Packing(np.arange(4) < np.array([[2], [0], [4], [1]]))


class TestMaskedSoftmax:
    def test_uniform(self):
        out = ad.masked_softmax(*packed_logits([[5.0, 5.0, 5.0]], [[1, 1, 1]]))
        assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_single_survivor(self):
        # the one live position takes all the mass, exactly, and the padding
        # none, however large its logits
        out = ad.masked_softmax(*packed_logits([[2.0, 9.0, 7.0]], [[1, 0, 0]]))
        assert np.array_equal(out, [[1.0, 0.0, 0.0]])

    def test_direct_evaluation(self):
        # exp(0) : exp(ln 3) = 1 : 3
        out = ad.masked_softmax(*packed_logits([[0.0, math.log(3.0)]], [[1, 1]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_masked_exactly_zero_and_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 9)) * 10
        mask = np.arange(9) < rng.integers(1, 10, size=6)[:, None]
        out = ad.masked_softmax(*packed_logits(logits, mask))
        assert np.all(out[~mask] == 0.0)
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) < 1e-12)

    def test_rows_out_of_length_order_match_each_row_alone(self):
        lengths = [2, 3, 4, 1]
        logits = np.random.default_rng(4).normal(size=(4, 4))
        out = ad.masked_softmax(*packed_logits(logits, np.arange(4) < np.c_[lengths]))
        for row, length in enumerate(lengths):
            alone = np.exp(logits[row, :length]) / np.exp(logits[row, :length]).sum()
            assert np.allclose(out[row, :length], alone, rtol=1e-14, atol=0)
            assert np.all(out[row, length:] == 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 7))
        mask = np.ones((4, 7))
        mask[:, 5:] = 0.0
        base = ad.masked_softmax(*packed_logits(logits, mask))
        shifted = ad.masked_softmax(*packed_logits(logits + 123.456, mask))
        assert np.all(np.abs(base - shifted) < 1e-12)
        assert np.array_equal(base.argmax(axis=-1), shifted.argmax(axis=-1))

    def test_fully_masked_row(self):
        with pytest.raises(ad.DegenerateMaskError):
            ad.masked_softmax(*packed_logits(np.zeros((2, 3)), [[1, 1, 1], [0, 0, 0]]))
        with pytest.raises(ad.DegenerateMaskError):
            ad.masked_softmax(np.zeros((UNSORTED.size, 1)), UNSORTED)

    @pytest.mark.parametrize("shape", [(6, 1), (8, 1), (7,), (7, 2)])
    def test_logits_must_be_one_per_packed_row(self, shape):
        with pytest.raises(ad.DimensionError, match=r"do not match 7 packed rows"):
            ad.masked_softmax(np.zeros(shape), UNSORTED)

    def test_graph_input_gives_a_plain_array_off_the_tape(self):
        graph = ad.Graph()
        logits = graph.leaf(np.array([[1.0], [2.0]], np.float32))
        out = ad.masked_softmax(logits, ad.Packing([[1, 1, 0]]))
        assert type(out) is np.ndarray and out.dtype == np.float32
        assert len(graph) == 1
        assert np.allclose(out, [[1 / (1 + math.e), math.e / (1 + math.e), 0.0]])


class TestCrossEntropy:
    def test_one_hot_is_zero(self):
        # only the gold position live: softmax puts all its mass there
        z, packing = packed_logits([[-4.0, 9.0, 7.0]], [[1, 0, 0]])
        out = ad.cross_entropy((z,), ([0],), packing)
        assert out.item() == 0.0

    def test_uniform(self):
        z, packing = packed_logits(np.full((2, 4), 3.5), np.ones((2, 4)))
        out = ad.cross_entropy((z,), ([0, 3],), packing)
        assert out.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_point_one(self):
        # softmax([0, ln 9]) = [0.1, 0.9], so the loss is -ln(0.1)
        z, packing = packed_logits([[0.0, math.log(9.0)]], np.ones((1, 2)))
        out = ad.cross_entropy((z,), ([0],), packing)
        assert out.item() == pytest.approx(2.302585092994046, abs=1e-12)

    def test_masked_gold_rejected(self):
        z, packing = packed_logits(np.zeros((1, 3)), [[1, 1, 0]])
        with pytest.raises(ad.LabelError):
            ad.cross_entropy((z,), ([2],), packing)

    def test_out_of_range_gold_rejected(self):
        z, packing = packed_logits(np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ad.LabelError):
            ad.cross_entropy((z,), ([3],), packing)

    @pytest.mark.parametrize("lengths,gold,row", [
        ([2, 0, 4, 1], [1, 0, 3, 0], 1),     # an empty row has no place for gold
        ([2, 0, 4, 1], [2, 0, 3, 0], 0),
        ([2, 3, 4, 1], [1, 2, 3, 1], 3),
        ([2, 3, 4, 1], [1, 2, 4, 0], 2),     # at the padded width too
        ([2, 3, 4, 1], [1, 5, 0, 0], 1),
        ([2, 3, 4, 1], [1, -1, 0, 0], 1),
    ], ids=["empty_row", "at_length", "at_length_last_row", "at_width",
            "past_width", "negative"])
    def test_gold_outside_its_row_rejected(self, lengths, gold, row):
        packing = ad.Packing(np.arange(4) < np.array(lengths)[:, None])
        with pytest.raises(ad.LabelError, match=f"row {row} of length {lengths[row]}$"):
            ad.cross_entropy((np.zeros((packing.size, 1)),), (gold,), packing)

    @pytest.mark.parametrize("shape", [(6, 1), (8, 1), (7,), (7, 2)])
    def test_logits_must_be_one_per_packed_row(self, shape):
        with pytest.raises(ad.DimensionError, match=r"do not match 7 packed rows"):
            ad.cross_entropy((np.zeros(shape),), ([0, 0, 0, 0],), UNSORTED)

    def test_rows_out_of_length_order_give_each_row_its_gradient(self):
        # (softmax - onehot) / B of each row alone, at that row's packed rows
        lengths, gold = [2, 3, 4, 1], [1, 0, 3, 0]
        logits = np.random.default_rng(5).normal(size=(4, 4))
        packed, packing = packed_logits(logits, np.arange(4) < np.c_[lengths])
        graph = ad.Graph()
        z = graph.leaf(packed)
        out = ad.cross_entropy((z,), (gold,), packing)
        grad = graph.backward(out)[z.node_id]
        want_loss, want_grad = 0.0, np.zeros_like(logits)
        for row, (length, g) in enumerate(zip(lengths, gold)):
            p = np.exp(logits[row, :length]) / np.exp(logits[row, :length]).sum()
            want_loss -= math.log(p[g]) / 4
            want_grad[row, :length] = (p - np.eye(length)[g]) / 4
        assert out.item() == pytest.approx(want_loss, rel=1e-14)
        assert grad.shape == (packing.size, 1)
        assert np.allclose(grad[:, 0], want_grad[packing.index], rtol=1e-13, atol=1e-16)

    def test_nonnegative_and_zero_iff_certain(self):
        # equals -ln of the masked softmax at gold; 0 exactly when only gold is live
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.normal(size=(1, 5)) * 3
            length = rng.integers(1, 6)
            gold = rng.integers(length)
            z, packing = packed_logits(logits, [np.arange(5) < length])
            loss = ad.cross_entropy((z,), ([gold],), packing).item()
            p = ad.masked_softmax(z, packing)[0, gold]
            assert loss >= 0.0
            assert loss == pytest.approx(-math.log(p), abs=1e-12)
            assert (loss == 0.0) == (length == 1)

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
        packed, packing = packed_logits(logits, mask)
        z = graph.leaf(packed)
        out = ad.cross_entropy((z,), (gold,), packing)
        per_row = lse - wide[[0, 1], gold]
        assert per_row[0] == pytest.approx(80.0, abs=1e-6)
        assert out.data.dtype == np.float32
        assert out.item() == pytest.approx(per_row.mean(), rel=1e-6)
        grad = graph.backward(out)[z.node_id]
        want = (ad.masked_softmax(packed.astype(np.float64), packing)
                - np.eye(4)[gold]) / 2
        assert grad.dtype == np.float32 and grad.shape == (7, 1)
        grad = padded(grad[:, 0], mask)
        assert np.allclose(grad, want, rtol=1e-6, atol=1e-7)
        assert grad[0, 1] == pytest.approx(-0.5, rel=1e-6)

    def test_two_heads_are_one_node_summing_each_heads_loss(self):
        # the start and end heads' losses in one node: their sum, and each
        # head's logits get that head's own gradient
        rng = np.random.default_rng(9)
        mask = np.arange(5) < np.c_[[3, 5, 2]]
        logits = [packed_logits(rng.normal(size=(3, 5)), mask)[0] for _ in range(2)]
        packing, golds = ad.Packing(mask), ([2, 4, 0], [1, 3, 1])
        graph = ad.Graph()
        heads = [graph.leaf(z) for z in logits]
        out = ad.cross_entropy(heads, golds, packing)
        assert len(graph) == 3
        grads = graph.backward(out)
        alone = []
        for z, gold in zip(logits, golds):
            g = ad.Graph()
            leaf = g.leaf(z)
            one = ad.cross_entropy((leaf,), (gold,), packing)
            alone.append((one.item(), g.backward(one)[leaf.node_id]))
        assert out.item() == alone[0][0] + alone[1][0]
        for leaf, (_, grad) in zip(heads, alone):
            assert np.array_equal(grads[leaf.node_id], grad)

    def test_each_head_needs_its_gold(self):
        z, packing = packed_logits(np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ad.LabelError, match=re.escape("gold shape (1, 1) != (2, 1)")):
            ad.cross_entropy((z, z), ([0],), packing)


class TestHead:
    # FC2(relu(FC1([x_1 | dropped x_2 | x_3]))) written out in float64 numpy
    def test_matches_the_float64_reference(self):
        rng = np.random.default_rng(8)
        x1, x2, x3 = (rng.normal(size=(6, n)) * 2.0 for n in (3, 4, 2))
        w1, w2 = rng.normal(size=(5, 9)), rng.normal(size=(1, 5))
        b1 = -np.abs(rng.normal(size=5)) - 0.1
        for x in (x1, x2, x3):
            x[0] = 0.0          # row 0's pre-activations are b1, all negative
        keep, scale = ad._dropout_mask(x2, 0.3, 7)
        pre = np.hstack([x1, x2 * keep * scale, x3]) @ w1.T + b1
        assert (pre[0] < 0).all() and 0 < np.count_nonzero(pre > 0) < pre.size
        want = np.maximum(pre, 0.0) @ w2.T
        graph = ad.Graph()
        leaf = graph.leaf(x1)
        out = ad.head([leaf, ad.Dropped(x2, 0.3, 7), x3], w1, b1, w2)
        assert out.shape == (6, 1) and out.data.dtype == np.float64
        assert np.allclose(out.data, want, rtol=1e-13, atol=1e-13)
        assert out.data[0, 0] == 0.0
        grad = graph.backward(out, np.ones((6, 1)))[leaf.node_id]
        assert np.allclose(grad, ((pre > 0) * w2) @ w1[:, :3], rtol=1e-13, atol=1e-13)
        assert not grad[0].any()

    @pytest.mark.parametrize("w2_shape", [(1, 4), (2, 5), (5,), (5, 1)])
    def test_fc2_weight_must_be_one_row_per_hidden_unit(self, w2_shape):
        with pytest.raises(ad.DimensionError,
                           match=re.escape(f"W1 (5, 9), b1 (5,) and W2 {w2_shape}")):
            ad.head([np.zeros((2, 9))], np.zeros((5, 9)), np.zeros(5), np.zeros(w2_shape))


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
        grad = graph.backward(out, np.ones_like(out.data))[leaf.node_id]
        assert np.array_equal(grad != 0, out.data != 0)


def _fused_op_call(op):
    """(graph, leaves, out, w): a seeded float64 call of `op` ("lstm", "head"
    or "bidaf") on a fresh graph, every input a leaf and a row block Dropped,
    with random weights w of the output's shape."""
    rng = np.random.default_rng(51)
    c, q = (ad.Packing(np.arange(5) < np.array(n)[:, None]) for n in ([2, 5, 1, 4], [1, 3, 2, 3]))
    shapes = {"lstm": [(c.size, 3), (c.size, 2), (16, 7), (16,)],
              "head": [(c.size, 3), (c.size, 2), (4, 5), (4,), (1, 4)],
              "bidaf": [(c.size + q.size, 4), (12,)]}[op]
    graph = ad.Graph()
    leaves = [graph.leaf(rng.normal(size=shape)) for shape in shapes]
    blocks = [leaves[0], ad.Dropped(leaves[1], 0.3, 5)]
    out = {"lstm": lambda: ad.lstm(blocks, c, *leaves[2:]),
           "head": lambda: ad.head(blocks, *leaves[2:]),
           "bidaf": lambda: ad.bidaf(leaves[0], np.arange(len(leaves[0].data)), leaves[1],
                                     c, q)}[op]()
    return graph, leaves, out, rng.normal(size=out.shape)


# each leaf gradient summed with weights on a ramp from -1 to 2, as the scalar
# root sum(out * w) built from ops gave them; on the machine that pinned them,
# backward(out, w) gave those gradients bit for bit
FUSED_GRADIENT_PROBES = {
    "lstm": [-1.921830779638423, -0.7535319882668234, -2.0273997528689716, 1.28033394110281],
    "head": [-9.941539091904927, 8.832435259781864, 2.380417445985266, 1.5176173528219616,
             -15.454635158094542],
    "bidaf": [15.457013181451822, -10.990296421250402],
}


class TestBackward:
    def test_sum_gives_ones(self):
        # d/dx sum(x) from a cotangent of ones at the root x itself
        g = ad.Graph()
        x = g.leaf(np.arange(6.0).reshape(2, 3))
        grads = g.backward(x, np.ones((2, 3)))
        assert np.array_equal(grads[x.node_id], np.ones((2, 3)))

    def test_square_sum(self):
        # d/dx sum(x*x) = 2x
        g = ad.Graph()
        x = g.leaf([1.0, 2.0, 3.0])
        grads = g.backward(ad.mul(x, x), np.ones(3))
        assert np.array_equal(grads[x.node_id], [2.0, 4.0, 6.0])

    def test_unused_parameter_gets_zeros(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        unused = g.leaf(np.ones((3, 3)))
        grads = g.backward(x, np.ones(2))
        assert np.array_equal(grads[unused.node_id], np.zeros((3, 3)))

    def test_non_scalar_root_rejected(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        with pytest.raises(ad.DimensionError):
            g.backward(ad.mul(x, x))

    def test_cotangent_of_another_shape_names_both_shapes(self):
        g = ad.Graph()
        x = g.leaf(np.ones((2, 3)))
        for bad in (np.ones(3), np.ones((3, 2)), 1.0):
            with pytest.raises(ad.DimensionError, match=re.escape(
                    f"cotangent of shape {np.shape(bad)} for a root of shape (2, 3)")):
                g.backward(ad.mul(x, x), bad)

    @pytest.mark.parametrize("op", sorted(FUSED_GRADIENT_PROBES))
    def test_cotangent_gives_the_weighted_sum_gradients_and_stays_unchanged(self, op):
        graph, leaves, out, w = _fused_op_call(op)
        before = w.copy()
        w.setflags(write=False)     # a write into it raises
        grads = graph.backward(out, w)
        probes = [np.sum(g * np.linspace(-1.0, 2.0, g.size).reshape(g.shape))
                  for g in (grads[t.node_id] for t in leaves)]
        assert np.allclose(probes, FUSED_GRADIENT_PROBES[op], rtol=1e-10, atol=0)
        assert np.array_equal(w, before)

    def test_fanout_accumulates(self):
        # y = sum(x*x + x): node x feeds two consumers; dy/dx = 2x + 1
        g = ad.Graph()
        x = g.leaf([1.0, -2.0, 0.5])
        grads = g.backward(ad.add(ad.mul(x, x), x), np.ones(3))
        assert np.allclose(grads[x.node_id], [3.0, -3.0, 2.0], atol=1e-15)
        err = ad.grad_check(lambda t: ad.add(ad.mul(t, t), t), np.array([1.0, -2.0, 0.5]),
                            cotangent=np.ones(3))
        assert err < 1e-8

    @staticmethod
    def _gives(x, make):
        """A scalar op of x whose backward returns make() as x's gradient."""
        return ad._apply("gives", (x,), np.zeros(()), lambda g: (make(),))

    def test_a_gradient_of_the_wrong_shape_fails_at_its_parent(self):
        # summed with x's (3, 1) gradient, a (3,) one would broadcast to (3, 3)
        g = ad.Graph()
        x = g.leaf(np.zeros((3, 1)))
        root = ad.add(self._gives(x, lambda: np.ones(3)),
                      self._gives(x, lambda: np.ones((3, 1))))
        with pytest.raises(ad.DimensionError, match=re.escape(
                "gives node 1 gave a (3,) gradient for node 0 of shape (3, 1)")):
            g.backward(root)

    def test_later_gradients_are_summed_out_of_place(self):
        # x takes four gradients, each an array its op marked read-only: the
        # graph sums them without writing into an array it did not make
        def frozen(value):
            arr = np.full(4, value)
            arr.setflags(write=False)
            return arr

        g = ad.Graph()
        x = g.leaf(np.zeros(4))
        ops = [self._gives(x, functools.partial(frozen, v)) for v in (1.0, 2.0, 4.0, 8.0)]
        grads = g.backward(functools.reduce(ad.add, ops))
        assert np.array_equal(grads[x.node_id], np.full(4, 15.0))

    def test_a_later_gradient_of_another_dtype_is_summed_out_of_place(self):
        # float32 sums, then a float64 gradient: the sum widens to float64
        # as numpy's out-of-place sum does, rather than rounding into float32
        g = ad.Graph()
        x = g.leaf(np.zeros(2, np.float32))
        grads = [np.array([1.0, 2.0 ** -30]), np.ones(2, np.float32), np.ones(2, np.float32)]
        root = functools.reduce(ad.add, [self._gives(x, lambda v=v: v) for v in grads])
        got = g.backward(root)[x.node_id]
        assert got.dtype == np.float64
        assert np.array_equal(got, [3.0, 2.0 + 2.0 ** -30])

    def test_a_shared_first_gradient_is_never_summed_into(self):
        # add gives a and b the same array; a's later gradients must not
        # change b's
        g = ad.Graph()
        a, b = g.leaf([1.0, 2.0]), g.leaf([3.0, 4.0])
        u, v = ad.mul(a, 2.0), ad.mul(a, 3.0)
        grads = g.backward(ad.add(ad.add(a, b), ad.add(u, v)), np.ones(2))
        assert np.array_equal(grads[a.node_id], [6.0, 6.0])
        assert np.array_equal(grads[b.node_id], [1.0, 1.0])

    def test_returns_exactly_the_requires_grad_leaves(self):
        g = ad.Graph()
        x = g.leaf([1.0, 2.0])
        unused = g.leaf(np.ones(3))
        frozen = ad.Tensor([3.0, 4.0])
        hidden = ad.tanh(ad.mul(x, frozen))
        grads = g.backward(ad.add(hidden, x), np.ones(2))
        assert set(grads) == {x.node_id, unused.node_id}

    def test_detached_tensors_stay_detached(self):
        out = ad.add(ad.Tensor([1.0]), ad.Tensor([2.0]))
        assert out.graph is None and out.node_id is None

    def test_constant_shared_by_two_graphs(self):
        c = ad.Tensor([2.0, -1.0])
        for weight in ([3.0, 4.0], [0.5, 0.25]):
            g = ad.Graph()
            w = g.leaf(weight)
            grads = g.backward(ad.mul(w, c), np.ones(2))
            assert set(grads) == {w.node_id}
            assert np.array_equal(grads[w.node_id], c.data)
            assert len(g) == 2      # leaf and mul: the constant is no node

    def test_constant_stays_detached_after_backward(self):
        c = ad.Tensor([0.5, 1.5])
        g = ad.Graph()
        w = g.leaf([1.0, 2.0])
        g.backward(ad.mul(w, c), np.ones(2))
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
        loss(out, batch.gold_starts, batch.gold_ends)
        nodes = g._nodes
        assert [n.op for n in nodes].count("leaf") == len(params)
        assert all(n.backward is not None for n in nodes if n.op != "leaf")
        assert all(pid is None or pid < i for i, n in enumerate(nodes) for pid in n.parents)


class TestGradCheck:
    def test_tanh_sum(self):
        rng = np.random.default_rng(11)
        err = ad.grad_check(ad.tanh, rng.normal(size=(3, 3)), cotangent=np.ones((3, 3)))
        assert err < 1e-6

    def test_linear(self):
        rng = np.random.default_rng(12)
        x, w = rng.normal(size=(2, 4))
        err = ad.grad_check(lambda t: t, x, cotangent=w)     # sum(w * x)
        assert err < 1e-10

    @staticmethod
    def _tiny_gradient_loss(doubled):
        """w * tanh(x), 4 added to its last element, probed by ones: 4 + 1e-8 *
        sum(w' * tanh(x)), gradients near 1e-8 on an O(1) loss, where central
        differences at a 1e-5 step lose ~1e-3 to round-off. With `doubled`,
        the backward reports twice the true gradient."""
        w = np.random.default_rng(13).normal(size=(3, 4)) * 1e-8
        offset = 4.0 * (np.arange(12) == 11).reshape(3, 4)

        def loss(t):
            small = ad.mul(ad.tanh(t), w)
            if doubled:
                frozen = ad.mul(ad.tanh(ad.Tensor(t.data.copy())), w)
                small = ad.add(ad.add(small, small), ad.mul(frozen, -1.0))
            return ad.add(small, offset)

        return loss

    def test_tiny_gradients_are_resolved(self):
        x = np.random.default_rng(14).normal(size=(3, 4))
        # within the per-op bound; central differences at the 1e-5 step alone give 2.5e-3
        assert ad.grad_check(self._tiny_gradient_loss(False), x, cotangent=np.ones((3, 4))) < 1e-4

    def test_wrong_tiny_gradient_fails(self):
        x = np.random.default_rng(14).normal(size=(3, 4))
        assert ad.grad_check(self._tiny_gradient_loss(True), x, cotangent=np.ones((3, 4))) > 0.4

    @staticmethod
    def _relu_loss(doubled):
        """sum(w * relu(x)) as one `ad.head` with W1 = I, b1 = 0 and W2 = w;
        with `doubled`, the backward reports twice the true gradient."""
        w = np.arange(1.0, 5.0)

        def relu_sum(x):
            return ad.head([x], np.eye(4), np.zeros(4), w[None])

        def loss(t):
            out = relu_sum(t)
            if doubled:
                frozen = relu_sum(ad.Tensor(t.data.copy()))
                out = ad.add(ad.add(out, out), ad.mul(frozen, -1.0))
            return out

        return loss

    # two probes within one 1e-5 step of relu's kink at 0, one on each side:
    # the 1e-5 step crosses it and reads 0.75 and 0.35 of the slope there
    KINK_PROBE = np.array([[0.7, 5e-6, -0.4, -3e-6]])

    def test_probe_near_a_kink_is_resolved(self):
        assert ad.grad_check(self._relu_loss(False), self.KINK_PROBE, cotangent=[[1.0]]) < 1e-8

    def test_wrong_gradient_near_a_kink_fails(self):
        assert ad.grad_check(self._relu_loss(True), self.KINK_PROBE, cotangent=[[1.0]]) > 0.4


# ids of the form name--: one per case, whatever else a case holds
@pytest.mark.parametrize("name,f,x,cotangent", op_gradcheck_cases(),
                         ids=[f"{name}--" for name, *_ in op_gradcheck_cases()])
def test_every_op_passes_gradcheck(name, f, x, cotangent):
    assert ad.grad_check(f, x, cotangent=cotangent) < OP_THRESHOLD


def test_every_op_has_a_gradcheck_case(monkeypatch):
    # each op of ad.__all__ (its classes and grad_check aside) is called by
    # some case, so no op ships unchecked and a case cannot outlive its op
    # masked_softmax returns a plain array and has no gradient to check
    ops = [name for name in ad.__all__ if name not in ("grad_check", "masked_softmax")
           and not isinstance(getattr(ad, name), type)]
    called = set()
    for name in ops:
        def spy(*args, _name=name, _op=getattr(ad, name), **kwargs):
            called.add(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(ad, name, spy)
    for _, f, x, _ in op_gradcheck_cases():
        f(ad.Tensor(x))
    assert sorted(set(ops) - called) == []


def test_first_nonfinite_reports_op():
    g = ad.Graph()
    x = g.leaf([1e308])
    with np.errstate(over="ignore"):
        y = ad.mul(x, x)
        ad.tanh(y)
    nid, op = g.first_nonfinite()
    assert op == "mul"
