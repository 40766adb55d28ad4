"""Dropout applied inside `ad.lstm` and `ad.linear` (`ad.Dropped` blocks)
against the composed reference `ad.dropout` -> op, and the training tape it
leaves: the boolean masks instead of dropped float copies, and buffers that
`Graph.backward` frees as it runs."""

import tracemalloc
import weakref

import numpy as np
import pytest

from spanqa import autodiff as ad
from spanqa import model
from spanqa.autodiff import Graph
from spanqa.diagnostics import make_tiny_problem
from spanqa.model import forward, loss
from spanqa.training import init_optimizer, train_step

RATE = 0.3


def fused(x, seed):
    return ad.Dropped(x, RATE, seed)


def composed(x, seed):
    return ad.dropout(x, RATE, seed)


def composed_model_dropout(blocks, rate, seeds):
    """`model._dropout` as a separate `ad.dropout` node per block."""
    return [ad.dropout(x, rate, next(seeds)) if rate > 0.0 else x for x in blocks]


def run_graph(drop, dtype):
    """G -> lstm([drop(G), drop(E)]) = M -> linear([drop(G), drop(M), E]),
    the decoder pattern: G feeds both ops under different masks, and E is an
    input no gradient reaches. Returns both outputs, every trainable leaf's
    gradient and the tape's ops."""
    rng = np.random.default_rng(17)
    packing = ad.Packing(np.arange(9) < np.array([9, 4, 7, 1])[:, None])
    n, h = packing.size, 3
    values = [rng.normal(size=shape).astype(dtype) for shape in
              [(n, 5), (n, 2), (4 * h, 7 + h), (4 * h,), (4 * h, 7 + h), (4 * h,),
               (4, 5 + 2 * h + 2), (4,), (n, 4)]]
    graph = Graph()
    g, e, w_f, b_f, w_b, b_b, w, b, probe = (
        graph.leaf(v, requires_grad=i not in (1, 8)) for i, v in enumerate(values))
    m = ad.lstm([drop(g, 11), drop(e, 12)], packing, (w_f, b_f), (w_b, b_b))
    y = ad.linear([drop(g, 13), drop(m, 14), e], w, b)
    grads = graph.backward(ad.reduce_sum(ad.mul(y, probe)))
    return [m.data, y.data], list(grads.values()), [node.op for node in graph._nodes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_graph_matches_composed_bit_for_bit(dtype):
    outs, grads, ops = run_graph(fused, dtype)
    ref_outs, ref_grads, ref_ops = run_graph(composed, dtype)
    # the frozen input E is a constant: its reference dropout joins no tape
    assert "dropout" not in ops and ref_ops.count("dropout") == 3
    assert len(grads) == len(ref_grads) == 7
    for got, want in zip(outs + grads, ref_outs + ref_grads):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def test_train_steps_match_composed_bit_for_bit(monkeypatch):
    def trajectory():
        config, params, table, batch = make_tiny_problem(seed=31, hidden=8,
                                                         batch_size=3, dropout=0.2)
        state = init_optimizer(params)
        losses = [train_step(params, batch, table, state, config) for _ in range(3)]
        return losses, params, state

    losses, params, state = trajectory()
    monkeypatch.setattr(model, "_dropout", composed_model_dropout)
    ref_losses, ref_params, ref_state = trajectory()
    assert losses == ref_losses
    for got, want in [(params, ref_params), (state.m, ref_state.m),
                      (state.v, ref_state.v)]:
        for name in want:
            assert np.array_equal(got[name], want[name]), name


def taped_forward(dropout):
    """Bytes a float32 taped forward leaves allocated, with the graph."""
    config, params, table, batch = make_tiny_problem(
        seed=5, hidden=16, embed_dim=16, context_len=40, question_len=10,
        batch_size=6, dropout=dropout)
    graph = Graph()
    leaves = {name: graph.leaf(value.astype(np.float32), requires_grad=True)
              for name, value in params.items()}
    tracemalloc.start()
    try:
        out = forward(batch, leaves, table, config, training=True, step=1)
        return tracemalloc.get_traced_memory()[0], graph, out
    finally:
        tracemalloc.stop()


def test_dropout_adds_only_its_masks_to_the_tape(monkeypatch):
    masks = []
    original = ad._dropout_mask

    def recording(*args):
        drawn = original(*args)
        if drawn is not None:
            masks.append(drawn[0].nbytes)
        return drawn

    base, _, _ = taped_forward(0.0)
    monkeypatch.setattr(ad, "_dropout_mask", recording)
    dropped, _, _ = taped_forward(0.2)
    # eleven bool masks; a dropped float32 copy of each block would be 4 times their size
    assert len(masks) == 11
    assert dropped - base <= 1.1 * sum(masks)


def closure_arrays(fn):
    """Float arrays a backward closure holds, inside lists and tuples too."""
    stack = [cell.cell_contents for cell in fn.__closure__]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
            yield value


def test_backward_frees_lstm_gate_buffers():
    config, params, table, batch = make_tiny_problem(seed=7, dropout=0.2)
    graph = Graph()
    leaves = {name: graph.leaf(value.astype(np.float32), requires_grad=True)
              for name, value in params.items()}
    out = forward(batch, leaves, table, config, training=True, step=2)
    root = loss(out, batch.gold_starts, batch.gold_ends, batch.context_mask)
    width = 4 * config.hidden_size
    lstm_nodes = [node for node in graph._nodes if node.op == "lstm"]
    gates = [weakref.ref(a) for node in lstm_nodes
             for a in closure_arrays(node.backward) if a.ndim == 2 and a.shape[1] == width]
    # the (N, 4h) gates of both directions of every layer
    assert len(lstm_nodes) == 2 * config.encoder_layers + 2
    assert len(gates) == 2 * len(lstm_nodes)
    assert all(ref() is not None for ref in gates)
    graph.backward(root)
    assert all(ref() is None for ref in gates)
    assert all(node.backward is None for node in graph._nodes)


def test_second_backward_raises():
    graph = Graph()
    x = graph.leaf(np.arange(3.0), requires_grad=True)
    root = ad.reduce_sum(ad.mul(x, x))
    assert np.array_equal(graph.backward(root)[x.node_id], 2.0 * np.arange(3.0))
    with pytest.raises(ad.GraphSpentError):
        graph.backward(root)
