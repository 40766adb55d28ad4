"""Gradient-check harness: per-op probes and an end-to-end check of the full
loss on a tiny model. Backs the `qa gradcheck` command and the test suite."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import model as qa_model
from .data import PAD_ID, Batch, EmbeddingTable

__all__ = ["OP_THRESHOLD", "END_TO_END_THRESHOLD", "op_gradcheck_cases",
           "make_tiny_problem", "end_to_end_gradcheck", "run_gradcheck_suite"]

OP_THRESHOLD = 1e-4
END_TO_END_THRESHOLD = 1e-3


def op_gradcheck_cases(seed: int = 0):
    """(name, scalar function, probe input) for every differentiable op."""
    rng = np.random.default_rng(seed)
    right = rng.normal(size=(4, 5))
    batched = rng.normal(size=(2, 3, 4))
    mask = np.ones((3, 6))
    mask[0, 4:] = 0.0
    mask[2, 2:] = 0.0
    gold = np.array([1, 0, 1])
    weights = np.arange(18.0).reshape(3, 6)
    bias_weights = rng.normal(size=(3, 5))
    lstm_rng = np.random.default_rng(seed + 1)   # leaves the probes above as they were
    lstm_x = lstm_rng.normal(size=(3, 5, 3))
    lstm_w = lstm_rng.normal(size=(8, 5)) * 0.5       # h = 2
    lstm_b = lstm_rng.normal(size=(8,)) * 0.5
    lstm_mask = np.ones((3, 5))
    lstm_mask[1, 3:] = 0.0
    lstm_mask[2, 1:] = 0.0
    lstm_weights = lstm_rng.normal(size=(3, 5, 4))
    # rows out of length order, with a tie: packing must sort them and undo it
    unsorted_lengths = np.array([2, 5, 1, 5])
    unsorted_mask = (np.arange(5) < unsorted_lengths[:, None]).astype(np.float64)
    unsorted_x = lstm_rng.normal(size=(4, 5, 3))
    unsorted_weights = lstm_rng.normal(size=(4, 5, 4))
    lstm_w_bwd = lstm_rng.normal(size=(8, 5)) * 0.5  # a backward direction of its own
    lstm_b_bwd = lstm_rng.normal(size=(8,)) * 0.5
    packed, unsorted = ad.Packing(lstm_mask), ad.Packing(unsorted_mask)
    # the unsorted input as two row blocks [x_1 | x_2] of widths 2 and 1
    block_1, block_2 = (unsorted_x[unsorted.index][:, cols]
                        for cols in (slice(2), slice(2, 3)))
    take_rng = np.random.default_rng(seed + 2)
    take_index = np.array([2, 0, 2, 1, 2])            # repeats and reorders rows
    take_weights = take_rng.normal(size=(5, 2, 3))
    # the broadcast patterns of the attention and the heads: (B, Lc, 1),
    # (B, 1, Lq) and (B, Lc, Lq) operands, and a bias over (B, L, n) rows
    bcast_rng = np.random.default_rng(seed + 3)
    column, row, full, full_weights, rows3 = (
        bcast_rng.normal(size=shape)
        for shape in [(2, 4, 1), (2, 1, 3), (2, 4, 3), (2, 4, 3), (3, 2, 5)])
    rows_rng = np.random.default_rng(seed + 4)
    lin_1, lin_w, lin_b, lin_weights, unpack_weights = (
        rows_rng.normal(size=shape)
        for shape in [(4, 2), (3, 5), (3,), (4, 3), (3, 5, 2)])
    # the attention over ragged contexts and questions, rows out of length
    # order: 2h = 4, context lengths 5, 2, 4 and question lengths 1, 3, 2
    att_rng = np.random.default_rng(seed + 5)
    att_c = ad.Packing(np.arange(5) < np.array([[5], [2], [4]]))
    att_q = ad.Packing(np.arange(3) < np.array([[1], [3], [2]]))
    att_context, att_question, att_w, att_weights = (
        att_rng.normal(size=shape)
        for shape in [(att_c.size, 4), (att_q.size, 4), (12,), (att_c.size, 16)])

    def attend(context, question, w_sim):
        return total(ad.mul(ad.bidaf(context, question, w_sim, att_c, att_q), att_weights))

    # dropout applied inside lstm and linear: some blocks dropped at 0.4
    def dropped(x, mask_seed):
        return ad.Dropped(x, 0.4, mask_seed)

    def total(x):
        return ad.reduce_sum(x)

    def lstm_both(blocks, w, b, packing=packed, weights=lstm_weights,
                  bwd=None):
        """Both directions over a ragged batch's packed rows, weighted so
        every output counts; the backward direction reuses (w, b) unless
        given its own."""
        both = ad.lstm(blocks, packing, fwd=(w, b), bwd=bwd or (w, b))
        return total(ad.mul(both, weights[packing.index]))

    return [
        ("matmul", lambda t: total(ad.matmul(t, right)), rng.normal(size=(3, 4))),
        ("bmm", lambda t: total(ad.bmm(t, batched)), rng.normal(size=(2, 4, 3))),
        ("add", lambda t: total(ad.add(t, right)), rng.normal(size=(4, 5))),
        ("mul", lambda t: total(ad.mul(t, right)), rng.normal(size=(4, 5))),
        ("tanh", lambda t: total(ad.tanh(t)), rng.normal(size=(4, 4))),
        ("sigmoid", lambda t: total(ad.sigmoid(t)), rng.normal(size=(4, 4))),
        ("relu", lambda t: total(ad.relu(t)), rng.normal(size=(4, 4))),
        ("concat", lambda t: total(ad.concat([t, ad.Tensor(right)], axis=0)),
         rng.normal(size=(2, 5))),
        ("slice", lambda t: total(ad.slice_axis(t, 1, 1, 3)), rng.normal(size=(3, 5))),
        ("reshape", lambda t: total(ad.mul(ad.reshape(t, (6, 2)), np.arange(12.0).reshape(6, 2))),
         rng.normal(size=(3, 4))),
        ("transpose", lambda t: total(ad.mul(ad.transpose(t), np.arange(12.0).reshape(4, 3))),
         rng.normal(size=(3, 4))),
        ("transpose_3d", lambda t: total(ad.mul(ad.transpose(t), full_weights)),
         bcast_rng.normal(size=(2, 3, 4))),
        ("add_bias_bcast", lambda t: total(ad.mul(ad.add(rows3, t), rows3)),
         bcast_rng.normal(size=(5,))),
        ("add_outer", lambda t: total(ad.mul(ad.add(t, row), full_weights)), column),
        ("mul_bcast_a", lambda t: total(ad.mul(ad.mul(t, full), full_weights)), row),
        ("mul_bcast_b", lambda t: total(ad.mul(ad.mul(row, t), full_weights)), full),
        ("sum", lambda t: ad.reduce_sum(t), rng.normal(size=(3, 3))),
        ("max", lambda t: total(ad.reduce_max(t, axis=1)), rng.normal(size=(4, 6))),
        ("add_bias", lambda t: total(ad.mul(ad.add_bias(t, np.arange(5.0)), bias_weights)),
         rng.normal(size=(3, 5))),
        ("add_bias_b", lambda t: total(ad.mul(ad.add_bias(rows3, t), rows3)),
         rows_rng.normal(size=(5,))),
        ("expand_batch", lambda t: total(ad.mul(ad.expand_batch(t, 3), np.arange(24.0).reshape(3, 2, 4))),
         rng.normal(size=(2, 4))),
        ("repeat_axis", lambda t: total(ad.mul(ad.repeat_axis(t, 1, 4), np.arange(24.0).reshape(2, 4, 3))),
         rng.normal(size=(2, 1, 3))),
        ("masked_softmax", lambda t: total(ad.mul(ad.masked_softmax(t, mask), weights)),
         rng.normal(size=(3, 6))),
        ("cross_entropy", lambda t: ad.cross_entropy(t, gold, mask),   # logits
         rng.random((3, 6)) * 6.0 - 3.0),
        ("dropout", lambda t: total(ad.dropout(t, 0.4, seed=99)),
         rng.normal(size=(5, 5))),
        ("lstm_x", lambda t: lstm_both([t], lstm_w, lstm_b), lstm_x[packed.index]),
        ("lstm_W", lambda t: lstm_both([lstm_x[packed.index]], t, lstm_b), lstm_w),
        ("lstm_b", lambda t: lstm_both([lstm_x[packed.index]], lstm_w, t), lstm_b),
        ("lstm_unsorted_x",
         lambda t: lstm_both([t], lstm_w, lstm_b, unsorted, unsorted_weights),
         unsorted_x[unsorted.index]),
        ("lstm_blocks_x",
         lambda t: lstm_both([block_1, t], lstm_w, lstm_b, unsorted, unsorted_weights,
                             (lstm_w_bwd, lstm_b_bwd)), block_2),
        ("lstm_blocks_W_bwd",
         lambda t: lstm_both([block_1, block_2], lstm_w, lstm_b, unsorted,
                             unsorted_weights, (t, lstm_b_bwd)), lstm_w_bwd),
        ("lstm_dropped_x",
         lambda t: lstm_both([dropped(block_1, 98), dropped(t, 99)], lstm_w, lstm_b,
                             unsorted, unsorted_weights, (lstm_w_bwd, lstm_b_bwd)),
         block_2),
        ("lstm_dropped_W",
         lambda t: lstm_both([block_1, dropped(block_2, 99)], t, lstm_b, unsorted,
                             unsorted_weights), lstm_w),
        ("linear_x", lambda t: total(ad.mul(ad.linear([lin_1, t], lin_w, lin_b),
                                            lin_weights)), rows_rng.normal(size=(4, 3))),
        ("linear_W", lambda t: total(ad.mul(ad.linear([lin_1, lin_1[:, :1] * 2.0, lin_1],
                                                      t, lin_b), lin_weights)),
         rows_rng.normal(size=(3, 5))),
        ("linear_b", lambda t: total(ad.mul(ad.linear([lin_1, lin_1, lin_1[:, :1]],
                                                      lin_w, t), lin_weights)), lin_b),
        ("linear_dropped_x", lambda t: total(ad.mul(
            ad.linear([dropped(t, 98), dropped(lin_1, 99), lin_1[:, :1]], lin_w, lin_b),
            lin_weights)), lin_1),
        ("linear_dropped_W", lambda t: total(ad.mul(
            ad.linear([dropped(lin_1, 98), lin_1[:, :1], dropped(lin_1, 99)], t, lin_b),
            lin_weights)), lin_w),
        ("unpack", lambda t: total(ad.mul(ad.unpack(t, packed), unpack_weights)),
         rows_rng.normal(size=(packed.size, 2))),
        ("take_rows", lambda t: total(ad.mul(ad.take_rows(t, take_index), take_weights)),
         take_rng.normal(size=(3, 2, 3))),
        ("bidaf_context", lambda t: attend(t, att_question, att_w), att_context),
        ("bidaf_question", lambda t: attend(att_context, t, att_w), att_question),
        ("bidaf_w_sim", lambda t: attend(att_context, att_question, t), att_w),
    ]


def make_tiny_problem(seed: int = 0, hidden: int = 4, embed_dim: int = 6,
                      context_len: int = 7, question_len: int = 5,
                      batch_size: int = 2, dropout: float = 0.0,
                      shared_context: bool = False):
    """A deterministic miniature model, embedding table, and batch.

    With `shared_context`, the last row asks its own question about the
    first row's context, as SQuAD's questions share paragraphs.
    """
    config = qa_model.ModelConfig(hidden_size=hidden, dropout_rate=dropout,
                                  embedding_dim=embed_dim, context_cap=context_len,
                                  seed=seed)
    rng = np.random.default_rng(seed + 1)
    vocab = 20
    matrix = rng.normal(size=(vocab, embed_dim)) * 0.5
    matrix[0] = 0.0
    table = EmbeddingTable(
        dim=embed_dim,
        word_to_id={f"w{i}": i + 2 for i in range(vocab - 2)},
        matrix=matrix,
    )
    context_ids = rng.integers(2, vocab, size=(batch_size, context_len))
    question_ids = rng.integers(2, vocab, size=(batch_size, question_len))
    # row r ends r tokens early: PAD_ID fills its last r positions
    rows = np.arange(batch_size)[:, None]
    context_ids[np.arange(context_len) >= context_len - rows] = PAD_ID
    question_ids[np.arange(question_len) >= question_len - rows] = PAD_ID
    if shared_context:
        context_ids[-1] = context_ids[0]
    lengths = np.count_nonzero(context_ids != PAD_ID, axis=1)
    gold_starts = rng.integers(0, lengths // 2 + 1)
    gold_ends = gold_starts + rng.integers(0, 2, size=batch_size)
    gold_ends = np.minimum(gold_ends, lengths - 1)
    batch = Batch(context_ids.astype(np.int64), question_ids.astype(np.int64),
                  gold_starts.astype(np.int64), gold_ends.astype(np.int64),
                  [f"tiny{i}" for i in range(batch_size)])
    params = qa_model.init_params(config)
    return config, params, table, batch


def end_to_end_gradcheck(seed: int = 0, coords_per_tensor: int | None = 4,
                         shared_context: bool = False):
    """Worst relative gradcheck error of the full loss over each parameter.

    The check runs in float64, on the tiny model's float32 params widened.
    `coords_per_tensor` limits the finite-difference probes per tensor
    (None checks every coordinate). Dropout stays off: the probe must be
    deterministic. `shared_context` asks both rows about one context, so
    the pass encodes it once and the gradient flows back through
    `take_rows`.
    """
    config, params, table, batch = make_tiny_problem(
        seed=seed, shared_context=shared_context)
    params = {name: value.astype(np.float64) for name, value in params.items()}
    results = []
    for name in params:
        def run(t, _name=name):
            mixed = dict(params)
            mixed[_name] = t
            out = qa_model.forward(batch, mixed, table, config, training=False)
            return qa_model.loss(out, batch.gold_starts, batch.gold_ends)

        err = ad.grad_check(run, params[name], coords=coords_per_tensor, seed=seed)
        results.append((name, err))
    return results


def run_gradcheck_suite(seed: int):
    """All per-op checks plus the end-to-end check, whose row is the worst
    error over a batch of distinct contexts and one that repeats a context.

    Returns (rows, all_ok) where each row is (name, worst_error, threshold).
    """
    rows = []
    for name, func, probe in op_gradcheck_cases(seed):
        rows.append((name, ad.grad_check(func, probe), OP_THRESHOLD))
    worst = max(err for shared in (False, True)
                for _, err in end_to_end_gradcheck(seed, shared_context=shared))
    rows.append(("end_to_end", worst, END_TO_END_THRESHOLD))
    all_ok = all(err < threshold for _, err, threshold in rows)
    return rows, all_ok
