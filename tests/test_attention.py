"""model.bidaf_attention, the fused `ad.bidaf` op, against the plain float64
equations of `bidaf_reference` in bidaf_oracle.py, and its hand-written
backward against central differences.

The model attends over packed live rows, the context's over the question's
in one block; `packed_attention` gathers them from the padded inputs'
`stacked_rows` by their masks and `padded` lays G out again, so both sides
are compared on the same padded arrays, and gradients weight the packed
rows."""

import numpy as np
import pytest

from bidaf_oracle import bidaf_reference, packed_attention, stacked_rows
from lstm_oracle import padded, with_block
from memtrace import traced
from spanqa import autodiff as ad
from spanqa.diagnostics import OP_THRESHOLD
from spanqa.model import bidaf_attention


def ragged_inputs(seed, hidden, batch=5, lc=9, lq=6):
    """Random encodings under prefix masks of mixed lengths; the padding holds
    random values too, which the masks alone must keep out of the live rows."""
    rng = np.random.default_rng(seed)
    context = rng.normal(size=(batch, lc, 2 * hidden))
    question = rng.normal(size=(batch, lq, 2 * hidden))
    w_sim = rng.normal(size=(6 * hidden,)) / np.sqrt(hidden)
    c_lengths = np.concatenate([[lc], rng.integers(1, lc + 1, size=batch - 1)])
    q_lengths = np.concatenate([rng.integers(1, lq + 1, size=batch - 1), [lq]])
    context_mask = (np.arange(lc) < c_lengths[:, None]).astype(np.float64)
    question_mask = (np.arange(lq) < q_lengths[:, None]).astype(np.float64)
    return context, question, w_sim, context_mask, question_mask


@pytest.mark.parametrize("hidden", [4, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_reference(seed, hidden):
    inputs = ragged_inputs(seed, hidden)
    got = packed_attention(stacked_rows(*inputs[:2]), *inputs[2:])
    want = bidaf_reference(*inputs)
    live = inputs[3] > 0
    assert got.shape == (live.sum(), 8 * hidden) and want.shape == (5, 9, 8 * hidden)
    assert np.abs(padded(got, live)[live] - want[live]).max() < 1e-12


def test_live_rows_do_not_see_padding():
    """Each row's live positions equal that example attended on its own,
    unpadded, so nothing leaks in from the padding or from the other rows."""
    context, question, w_sim, context_mask, question_mask = ragged_inputs(3, 4)
    batched = padded(packed_attention(stacked_rows(context, question), w_sim,
                                      context_mask, question_mask), context_mask)
    for b in range(len(context)):
        lc, lq = int(context_mask[b].sum()), int(question_mask[b].sum())
        alone = packed_attention(stacked_rows(context[b:b + 1, :lc], question[b:b + 1, :lq]),
                                 w_sim, np.ones((1, lc)), np.ones((1, lq))).data
        assert np.abs(batched[b, :lc] - alone).max() < 1e-12


@pytest.mark.parametrize("probe", ["context", "question", "w_sim"])
def test_gradients(probe):
    context, question, w_sim, context_mask, question_mask = ragged_inputs(
        4, 2, batch=3, lc=5, lq=4)
    rows, split = stacked_rows(context, question), context_mask.size
    blocks = {"context": slice(0, split), "question": slice(split, len(rows))}
    values = {"context": rows[:split], "question": rows[split:], "w_sim": w_sim}
    weights = np.random.default_rng(5).normal(size=(3, 5, 16))[
        ad.Packing(context_mask).index]

    def loss(t):
        stacked = with_block(t, rows, blocks[probe]) if probe in blocks else rows
        return packed_attention(stacked, t if probe == "w_sim" else w_sim,
                                context_mask, question_mask)

    assert ad.grad_check(loss, values[probe], cotangent=weights) < 1e-6


@pytest.mark.parametrize("hidden", [3, 16])
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_op_matches_both_references_taped_and_untaped(seed, hidden):
    # the values against the plain equations, and the gradients of
    # sum(G * weights) over the packed c, the packed q (each alone, the other
    # held fixed in [c ; q]) and w_sim against central differences, on 12
    # seeded coordinates of each
    inputs = ragged_inputs(seed, hidden, batch=6, lc=11, lq=7)
    live = inputs[3] > 0
    want = bidaf_reference(*inputs)
    rows = stacked_rows(*inputs[:2])
    graph = ad.Graph()
    untaped = packed_attention(rows, *inputs[2:]).data
    taped = packed_attention(graph.leaf(rows), graph.leaf(inputs[2]), *inputs[3:])
    assert taped.graph is graph
    assert np.array_equal(untaped, taped.data)
    assert np.abs(padded(untaped, live)[live] - want[live]).max() < 1e-12
    contexts, questions = ad.Packing(inputs[3]), ad.Packing(inputs[4])
    packed = np.concatenate([inputs[0][contexts.index], inputs[1][questions.index]])
    blocks = [slice(0, contexts.size), slice(contexts.size, len(packed)), None]
    weights = np.random.default_rng(seed).normal(size=(contexts.size, 8 * hidden))
    identity = np.arange(len(packed))
    for k, block in enumerate(blocks):
        def loss(t, block=block):
            rows = packed if block is None else with_block(t, packed, block)
            return bidaf_attention(rows, identity, t if block is None else inputs[2],
                                   contexts, questions)

        value = inputs[2] if block is None else packed[block]
        assert ad.grad_check(loss, value, coords=12, seed=seed,
                             cotangent=weights) < OP_THRESHOLD, k


def test_float32_stays_float32():
    inputs = ragged_inputs(13, 4)
    narrow = [x.astype(np.float32) for x in (stacked_rows(*inputs[:2]), inputs[2])]
    got = packed_attention(*narrow, *inputs[3:])
    want = bidaf_reference(*inputs)
    live = inputs[3] > 0
    assert got.data.dtype == np.float32
    assert np.abs(padded(got, live)[live] - want[live]).max() < 1e-4
    graph = ad.Graph()
    leaves = [graph.leaf(x) for x in narrow]
    out = packed_attention(*leaves, *inputs[3:])
    grads = graph.backward(out, np.ones_like(out.data))
    assert all(grads[t.node_id].dtype == np.float32 for t in leaves)


def test_empty_row_and_shape_errors():
    context, question, w_sim, context_mask, question_mask = ragged_inputs(14, 2)
    rows = stacked_rows(context, question)
    empty = question_mask.copy()
    empty[1] = 0.0
    with pytest.raises(ad.DegenerateMaskError):
        packed_attention(rows, w_sim, context_mask, empty)
    with pytest.raises(ad.DimensionError):
        packed_attention(rows, w_sim[1:], context_mask, question_mask)
    with pytest.raises(ad.DimensionError):
        packed_attention(rows[:, 1:], w_sim, context_mask, question_mask)


@pytest.mark.parametrize("extra", [-1, 1])
def test_rows_must_be_the_context_plus_the_question_rows(extra):
    # an index one row short or one row long of N + Nq names both counts
    context, question, w_sim, context_mask, question_mask = ragged_inputs(16, 2)
    contexts, questions = ad.Packing(context_mask), ad.Packing(question_mask)
    rows = np.zeros((contexts.size + questions.size + 1, 4))
    index = np.arange(contexts.size + questions.size + extra)
    with pytest.raises(ad.DimensionError, match=rf"index \({len(index)},\).* {contexts.size} "
                       rf"context plus {questions.size} question"):
        bidaf_attention(rows, index, w_sim, contexts, questions)


class TestGather:
    """`ad.bidaf` reads [c ; q] as the rows x[index] of its input x."""

    @staticmethod
    def inputs():
        """x, 12 packed rows [c ; q] of contexts of lengths 4 and 3 and
        questions of lengths 2 and 3 (2h = 4); an index into x whose second
        example reads the first's rows 0 and 2 at its positions 0 and 2 (packed
        rows 1 and 5), so rows 1 and 5 go unread; and w_sim and the packings."""
        rng = np.random.default_rng(17)
        contexts = ad.Packing(np.arange(4) < np.array([[4], [3]]))
        questions = ad.Packing(np.arange(3) < np.array([[2], [3]]))
        x = rng.normal(size=(contexts.size + questions.size, 4))
        index = np.arange(len(x))
        index[[1, 5]] = [0, 2]
        return x, index, rng.normal(size=12), contexts, questions

    def test_repeated_rows_sum_their_gradients(self):
        # against x[index] as a leaf of its own, its gradient added into x's
        # shape by np.add.at
        x, index, w_sim, contexts, questions = self.inputs()
        weights = np.random.default_rng(18).normal(size=(contexts.size, 16))
        outs, grads = [], []
        for rows, rows_index in [(x, index), (x[index], np.arange(len(index)))]:
            graph = ad.Graph()
            leaf = graph.leaf(rows)
            outs.append(ad.bidaf(leaf, rows_index, w_sim, contexts, questions))
            grads.append(graph.backward(outs[-1], weights)[leaf.node_id])
        assert np.array_equal(outs[0].data, outs[1].data)
        expected = np.zeros_like(x)
        np.add.at(expected, index, grads[1])
        assert np.array_equal(grads[0], expected)
        assert not grads[0][[1, 5]].any()       # unread rows: zeros

    def test_keeps_float32(self):
        x, index, w_sim, contexts, questions = self.inputs()
        graph = ad.Graph()
        leaf = graph.leaf(x.astype(np.float32))
        out = ad.bidaf(leaf, index, w_sim.astype(np.float32), contexts, questions)
        assert out.data.dtype == np.float32
        grads = graph.backward(out, np.ones_like(out.data))
        assert grads[leaf.node_id].dtype == np.float32

    @pytest.mark.parametrize("bad", ["negative", "too_large", "float", "2-D"])
    def test_bad_index(self, bad):
        x, index, w_sim, contexts, questions = self.inputs()
        index = {"negative": np.where(index == 3, -1, index),
                 "too_large": np.where(index == 3, len(x), index),
                 "float": index.astype(np.float64), "2-D": index[None]}[bad]
        with pytest.raises(ad.DimensionError, match="^bidaf: "):
            ad.bidaf(x, index, w_sim, contexts, questions)


def memory_inputs():
    """Long ragged contexts and short questions, packed: [c ; q] (N + Nq, 2h),
    w_sim and both packings, with N large beside the (B, Lc, Lq) terms."""
    rng = np.random.default_rng(15)
    batch, lc, lq, hidden = 8, 200, 6, 16
    context_mask = (np.arange(lc) < rng.integers(lc // 2, lc + 1, size=batch)[:, None])
    question_mask = (np.arange(lq) < rng.integers(1, lq + 1, size=batch)[:, None])
    context_mask[0] = question_mask[0] = True
    contexts, questions = ad.Packing(context_mask), ad.Packing(question_mask)
    return (rng.normal(size=(contexts.size + questions.size, 2 * hidden)),
            rng.normal(size=6 * hidden) / np.sqrt(hidden), contexts, questions)


def test_untaped_peak_holds_g_and_one_padded_block():
    # beside G (N, 8h) and the gathered [c ; q] (N + Nq, 2h), an untaped
    # call holds one padded (B, Lc, 2h) block (c, then u~ in its buffer) and
    # a few (B, Lc, Lq) similarity terms: no (N, 2h) copies of u~ or h~ and
    # no second padded block
    rows, w_sim, contexts, questions = memory_inputs()
    (batch, lc), lq = contexts.shape, questions.shape[1]
    g_bytes = contexts.size * 4 * rows.shape[1] * 8
    padded = batch * lc * rows.shape[1] * 8
    sim_terms = 4 * batch * lc * lq * 8
    index = np.arange(len(rows))
    out, _, peak = traced(bidaf_attention, ad.Tensor(rows), index, w_sim, contexts, questions)
    assert out.data.nbytes == g_bytes
    assert peak < g_bytes + rows.nbytes + padded + sim_terms + 65536


def test_taped_call_retains_g_two_softmaxes_and_the_argmax():
    # what a taped call leaves alive for backward: G, the (B, Lc, Lq)
    # context-to-question softmax, the (B, Lc) question-to-context softmax,
    # the (B, Lc) row-max argmax and the gathered (Nq, 2h) question rows; no
    # copy of c, which backward reads back from G
    rows, w_sim, contexts, questions = memory_inputs()
    (batch, lc), lq = contexts.shape, questions.shape[1]
    g_bytes = contexts.size * 4 * rows.shape[1] * 8
    saved = batch * lc * lq * 8 + 2 * batch * lc * 8 + questions.size * rows.shape[1] * 8
    graph = ad.Graph()
    leaves = [graph.leaf(x) for x in (rows, w_sim)]
    index = np.arange(len(rows))
    out, retained, _ = traced(bidaf_attention, leaves[0], index, leaves[1], contexts, questions)
    assert out.graph is graph
    assert retained < g_bytes + saved + 16384
