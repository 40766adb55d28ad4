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
    """(name, function, probe input, cotangent) for every differentiable op:
    `ad.grad_check(function, probe, cotangent=cotangent)` checks it, along
    the cotangent, which is None for a scalar function."""
    rng = np.random.default_rng(seed)
    right = rng.normal(size=(4, 5))
    batched = rng.normal(size=(2, 3, 4))
    # two heads' packed logits over rows of lengths 4, 6 and 2: one is probed, one a ramp
    logit_rows = ad.Packing(np.arange(6) < np.array([[4], [6], [2]]))
    golds, ramp = (np.array([1, 0, 1]), np.array([3, 5, 1])), np.linspace(-2, 2, 12)[:, None]
    bias_weights = rng.normal(size=(3, 5))
    lstm_rng = np.random.default_rng(seed + 1)   # leaves the probes above as they were
    lstm_x = lstm_rng.normal(size=(3, 5, 3))
    lstm_w = lstm_rng.normal(size=(16, 5)) * 0.5      # h = 2, both directions
    lstm_b = lstm_rng.normal(size=(16,)) * 0.5
    lstm_mask = np.ones((3, 5))
    lstm_mask[1, 3:] = 0.0
    lstm_mask[2, 1:] = 0.0
    lstm_weights = lstm_rng.normal(size=(3, 5, 4))
    # rows out of length order, with a tie: packing must sort them and undo it
    unsorted_lengths = np.array([2, 5, 1, 5])
    unsorted_mask = (np.arange(5) < unsorted_lengths[:, None]).astype(np.float64)
    unsorted_x = lstm_rng.normal(size=(4, 5, 3))
    unsorted_weights = lstm_rng.normal(size=(4, 5, 4))
    packed, unsorted = ad.Packing(lstm_mask), ad.Packing(unsorted_mask)
    # packed rows, and cotangents that weigh every output
    lstm_rows, lstm_probe = lstm_x[packed.index], lstm_weights[packed.index]
    unsorted_rows, unsorted_probe = unsorted_x[unsorted.index], unsorted_weights[unsorted.index]
    # the unsorted input as two row blocks [x_1 | x_2] of widths 2 and 1
    block_1, block_2 = (unsorted_rows[:, cols] for cols in (slice(2), slice(2, 3)))
    # a 6 + 4 wide input, wider than the 4h = 8 gates, whose tape keeps them
    wide_1, wide_2 = (lstm_rng.normal(size=(unsorted.size, w)) for w in (6, 4))
    wide_w = lstm_rng.normal(size=(16, 12)) * 0.5
    # add and mul broadcasting itself: (2, 4, 1), (2, 1, 3) and (2, 4, 3)
    # operands against each other, and a (5,) bias over (3, 2, 5) rows
    bcast_rng = np.random.default_rng(seed + 3)
    column, row, full, full_weights, rows3 = (
        bcast_rng.normal(size=shape)
        for shape in [(2, 4, 1), (2, 1, 3), (2, 4, 3), (2, 4, 3), (3, 2, 5)])
    rows_rng = np.random.default_rng(seed + 4)
    head_1, head_w1, head_b1, head_w2, head_weights = (
        rows_rng.normal(size=shape) for shape in [(4, 2), (3, 5), (3,), (1, 3), (4, 1)])
    # the attention over ragged contexts and questions, rows out of length
    # order: 2h = 4, context lengths 5, 2, 4 and question lengths 1, 3, 2
    att_rng = np.random.default_rng(seed + 5)
    att_c = ad.Packing(np.arange(5) < np.array([[5], [2], [4]]))
    att_q = ad.Packing(np.arange(3) < np.array([[1], [3], [2]]))
    att_context, att_question, att_w, att_weights = (
        att_rng.normal(size=shape)
        for shape in [(att_c.size, 4), (att_q.size, 4), (12,), (att_c.size, 16)])
    att_rows = np.concatenate([att_context, att_question])
    att_identity = np.arange(len(att_rows))
    # packed context rows 2 and 7 (example 1's first, example 2's third) read
    # rows 0 and 3 (example 0's first two) instead: backward sums two copies
    # of each of those, and rows 2 and 7 get zeros
    context_index = att_identity.copy()
    context_index[[2, 7]] = [0, 3]
    # packed question rows 2 and 4 (example 0's only, example 2's second) read
    # example 1's first two, rows 0 and 3: no example reads one row twice,
    # which would tie the row max
    question_index = att_identity.copy()
    question_index[att_c.size + np.array([2, 4])] = att_c.size + np.array([0, 3])

    # dropout applied inside lstm and head: some blocks dropped at 0.4
    def dropped(x, mask_seed):
        return ad.Dropped(x, 0.4, mask_seed)

    def fc(blocks, w1=head_w1, b1=head_b1, w2=head_w2):
        return ad.head(blocks, w1, b1, w2)

    cases = [
        ("matmul", lambda t: ad.matmul(t, right), rng.normal(size=(3, 4)), np.ones((3, 5))),
        ("bmm", lambda t: ad.bmm(t, batched), rng.normal(size=(2, 4, 3)), np.ones((2, 4, 4))),
        ("add", lambda t: ad.add(t, right), rng.normal(size=(4, 5)), np.ones((4, 5))),
        ("mul", lambda t: ad.mul(t, right), rng.normal(size=(4, 5)), np.ones((4, 5))),
        ("tanh", ad.tanh, rng.normal(size=(4, 4)), np.ones((4, 4))),
        ("sigmoid", ad.sigmoid, rng.normal(size=(4, 4)), np.ones((4, 4))),
        ("concat", lambda t: ad.concat([t, ad.Tensor(right)], axis=0),
         rng.normal(size=(2, 5)), np.ones((6, 5))),
        ("slice", lambda t: ad.slice_axis(t, 1, 1, 3), rng.normal(size=(3, 5)), np.ones((3, 2))),
        ("reshape", lambda t: ad.reshape(t, (6, 2)), rng.normal(size=(3, 4)),
         np.arange(12.0).reshape(6, 2)),
        ("add_bias_bcast", lambda t: ad.add(rows3, t), bcast_rng.normal(size=(5,)), rows3),
        ("add_outer", lambda t: ad.add(t, row), column, full_weights),
        ("mul_bcast_a", lambda t: ad.mul(t, full), row, full_weights),
        ("mul_bcast_b", lambda t: ad.mul(row, t), full, full_weights),
    ]
    rng.normal(size=(3, 3))     # unused: it keeps every seed's later probes as they were
    return cases + [
        ("add_bias", lambda t: ad.add_bias(t, np.arange(5.0)), rng.normal(size=(3, 5)),
         bias_weights),
        ("add_bias_b", lambda t: ad.add_bias(rows3, t), rows_rng.normal(size=(5,)), rows3),
        ("expand_batch", lambda t: ad.expand_batch(t, 3), rng.normal(size=(2, 4)),
         np.arange(24.0).reshape(3, 2, 4)),
        ("repeat_axis", lambda t: ad.repeat_axis(t, 1, 4), rng.normal(size=(2, 1, 3)),
         np.arange(24.0).reshape(2, 4, 3)),
        ("cross_entropy_start", lambda t: ad.cross_entropy((t, ramp), golds, logit_rows),
         (rng.random((3, 6)) * 6.0 - 3.0)[logit_rows.index][:, None], None),
        ("cross_entropy_end", lambda t: ad.cross_entropy((ramp, t), golds, logit_rows),
         (rng.random((3, 6)) * 6.0 - 3.0)[logit_rows.index][:, None], None),
        ("dropout", lambda t: ad.dropout(t, 0.4, seed=99), rng.normal(size=(5, 5)),
         np.ones((5, 5))),
        ("lstm_x", lambda t: ad.lstm([t], packed, lstm_w, lstm_b), lstm_rows, lstm_probe),
        ("lstm_W", lambda t: ad.lstm([lstm_rows], packed, t, lstm_b), lstm_w, lstm_probe),
        ("lstm_b", lambda t: ad.lstm([lstm_rows], packed, lstm_w, t), lstm_b, lstm_probe),
        ("lstm_unsorted_x", lambda t: ad.lstm([t], unsorted, lstm_w, lstm_b), unsorted_rows,
         unsorted_probe),
        ("lstm_blocks_x", lambda t: ad.lstm([block_1, t], unsorted, lstm_w, lstm_b), block_2,
         unsorted_probe),
        ("lstm_dropped_x",
         lambda t: ad.lstm([dropped(block_1, 98), dropped(t, 99)], unsorted, lstm_w, lstm_b),
         block_2, unsorted_probe),
        ("lstm_dropped_W", lambda t: ad.lstm([block_1, dropped(block_2, 99)], unsorted, t, lstm_b),
         lstm_w, unsorted_probe),
        ("lstm_wide_x", lambda t: ad.lstm([dropped(wide_1, 98), t], unsorted, wide_w, lstm_b),
         wide_2, unsorted_probe),
        ("lstm_wide_W", lambda t: ad.lstm([wide_1, dropped(wide_2, 99)], unsorted, t, lstm_b),
         wide_w, unsorted_probe),
        ("head_x", lambda t: fc([head_1, t]), rows_rng.normal(size=(4, 3)), head_weights),
        ("head_W1", lambda t: fc([head_1, head_1[:, :1] * 2.0, head_1], w1=t),
         rows_rng.normal(size=(3, 5)), head_weights),
        ("head_b1", lambda t: fc([head_1, head_1, head_1[:, :1]], b1=t), head_b1, head_weights),
        ("head_W2", lambda t: fc([dropped(head_1, 98), head_1, head_1[:, :1]], w2=t), head_w2,
         head_weights),
        ("head_dropped_x", lambda t: fc([dropped(t, 98), dropped(head_1, 99), head_1[:, :1]]),
         head_1, head_weights),
        ("head_dropped_W",
         lambda t: fc([dropped(head_1, 98), head_1[:, :1], dropped(head_1, 99)], w1=t), head_w1,
         head_weights),
        ("bidaf_context", lambda t: ad.bidaf(t, context_index, att_w, att_c, att_q), att_rows,
         att_weights),
        ("bidaf_question", lambda t: ad.bidaf(t, question_index, att_w, att_c, att_q), att_rows,
         att_weights),
        ("bidaf_w_sim", lambda t: ad.bidaf(att_rows, att_identity, t, att_c, att_q), att_w,
         att_weights),
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
                  gold_starts.astype(np.int64), gold_ends.astype(np.int64))
    params = qa_model.init_params(config)
    return config, params, table, batch


def end_to_end_gradcheck(seed: int = 0, coords_per_tensor: int | None = 4,
                         shared_context: bool = False):
    """Worst relative gradcheck error of the full loss over each parameter.

    The check runs in float64, on the tiny model's float32 params widened.
    `coords_per_tensor` limits the finite-difference probes per tensor
    (None checks every coordinate). Dropout stays off: the probe must be
    deterministic. `shared_context` asks both rows about one context, so
    the pass encodes it once and `bidaf` sums the gradients of its two
    copies.
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
    for name, func, probe, cotangent in op_gradcheck_cases(seed):
        rows.append((name, ad.grad_check(func, probe, cotangent=cotangent), OP_THRESHOLD))
    worst = max(err for shared in (False, True)
                for _, err in end_to_end_gradcheck(seed, shared_context=shared))
    rows.append(("end_to_end", worst, END_TO_END_THRESHOLD))
    all_ok = all(err < threshold for _, err, threshold in rows)
    return rows, all_ok
