"""Dropout applied inside `ad.lstm` and `ad.head` (`ad.Dropped` blocks)
against the composed reference, x * keep * scale for the mask that
`ad._dropout_mask` draws, as its own tape node before the op; and the
training tape it leaves: each block's (rate, seed) and no mask, since
backward draws the mask again, the encoder's c without its gates, which
backward rebuilds, and buffers that `Graph.backward` frees as it runs."""

import weakref

import numpy as np
import pytest

from memtrace import traced
from spanqa import autodiff as ad
from spanqa import model
from spanqa.autodiff import Graph
from spanqa.diagnostics import make_tiny_problem
from spanqa.model import forward, loss
from spanqa.training import init_optimizer, train_step

RATE = 0.3


def fused(x, seed):
    return ad.Dropped(x, RATE, seed)


def reference_dropout(x, rate, seed):
    """x * keep * scale: one `mul` node, or none for a constant x."""
    keep, scale = ad._dropout_mask(x.data, rate, seed)
    return ad.mul(x, keep * scale)


def composed(x, seed):
    return reference_dropout(x, RATE, seed)


def composed_model_dropout(blocks, rate, seeds):
    """`model._dropout` as a separate reference node per block."""
    return [reference_dropout(x, rate, next(seeds)) if rate > 0.0 else x
            for x in blocks]


def run_graph(drop, dtype):
    """G -> lstm([drop(G), drop(E)]) = M -> head([drop(G), drop(M), E]),
    the decoder pattern: G feeds both ops under different masks, and E is an
    input no gradient reaches. G is 8h wide, so the lstm keeps its gates as
    a decoder's does. Returns both outputs, every trainable leaf's gradient
    and the tape's ops."""
    rng = np.random.default_rng(17)
    packing = ad.Packing(np.arange(9) < np.array([9, 4, 7, 1])[:, None])
    n, h = packing.size, 3
    values = [rng.normal(size=shape).astype(dtype) for shape in
              [(n, 8 * h), (n, 2), (8 * h, 8 * h + 2 + h), (8 * h,),
               (4, 8 * h + 2 * h + 2), (4,), (1, 4), (n, 1)]]
    graph = Graph()
    g, e, w_lstm, b_lstm, w1, b1, w2, probe = (
        ad.Tensor(v) if i in (1, 7) else graph.leaf(v) for i, v in enumerate(values))
    m = ad.lstm([drop(g, 11), drop(e, 12)], packing, w_lstm, b_lstm)
    y = ad.head([drop(g, 13), drop(m, 14), e], w1, b1, w2)
    grads = graph.backward(y, probe.data)
    return [m.data, y.data], list(grads.values()), [node.op for node in graph._nodes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_graph_matches_composed_bit_for_bit(dtype):
    outs, grads, ops = run_graph(fused, dtype)
    ref_outs, ref_grads, ref_ops = run_graph(composed, dtype)
    # the reference adds one mul per dropped block on the tape: the frozen
    # input E is a constant, so its reference dropout joins no tape
    assert ops.count("mul") == 0 and ref_ops.count("mul") == 3
    assert len(grads) == len(ref_grads) == 6
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
    leaves = {name: graph.leaf(value.astype(np.float32))
              for name, value in params.items()}
    out, retained, _ = traced(forward, batch, leaves, table, config, training=True, step=1)
    return retained, graph, out


def closure_arrays(fn, kind="f"):
    """Arrays of dtype kind `kind` (float by default) that a backward closure
    holds, inside lists and tuples too."""
    stack = [cell.cell_contents for cell in fn.__closure__]
    while stack:
        value = stack.pop()
        if isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, np.ndarray) and value.dtype.kind == kind:
            yield value


def test_dropout_adds_nothing_to_the_tape(monkeypatch):
    masks = []
    original = ad._dropout_mask

    def recording(*args):
        drawn = original(*args)
        if drawn is not None:
            masks.append(drawn[0].nbytes)
        return drawn

    base, _, _ = taped_forward(0.0)
    monkeypatch.setattr(ad, "_dropout_mask", recording)
    dropped, graph, _ = taped_forward(0.2)
    # nine blocks are dropped under nine masks, but the tape keeps only each
    # block's (rate, seed): what dropout leaves allocated is allocator noise,
    # not a mask's bytes
    assert len(masks) == 9
    assert dropped - base < 0.02 * sum(masks)
    ops = [node for node in graph._nodes if node.op in ("lstm", "head")]
    assert len(ops) == model.ENCODER_LAYERS + 2 + 2
    for node in ops:
        assert not list(closure_arrays(node.backward, "b")), node.op


def taped_training_forward(seed=7):
    """A float32 taped training forward of the tiny model: (config, params,
    batch, graph, leaves, forward output, the encoder's and the decoders'
    `lstm` nodes)."""
    config, params, table, batch = make_tiny_problem(seed=seed, dropout=0.2)
    graph = Graph()
    leaves = {name: graph.leaf(value.astype(np.float32))
              for name, value in params.items()}
    out = forward(batch, leaves, table, config, training=True, step=2)
    lstm_nodes = [node for node in graph._nodes if node.op == "lstm"]
    # one encoder pass covers the contexts and the questions
    assert len(lstm_nodes) == model.ENCODER_LAYERS + 2
    return (config, params, batch, graph, leaves, out,
            lstm_nodes[:model.ENCODER_LAYERS], lstm_nodes[model.ENCODER_LAYERS:])


def test_backward_frees_lstm_gate_buffers():
    config, params, batch, graph, leaves, out, encoder, decoders = taped_training_forward()
    root = loss(out, batch.gold_starts, batch.gold_ends)
    width = 4 * config.hidden_size

    def gate_buffers(node):
        return [a for a in closure_arrays(node.backward) if a.ndim == 2 and a.shape[1] == width]

    # the decoders keep the (N, 4h) gates of both directions; the encoder
    # (d and 2h wide, no wider than the 4h gates) rebuilds its gates in
    # backward and keeps none
    gates = [weakref.ref(a) for node in decoders for a in gate_buffers(node)]
    assert not any(gate_buffers(node) for node in encoder)
    outputs = [weakref.ref(node.out) for node in graph._nodes if node.op != "leaf"]
    assert len(gates) == 2 * len(decoders)
    assert all(ref() is not None for ref in gates)
    grads = graph.backward(root)
    assert all(ref() is None for ref in gates)
    assert all(node.backward is None for node in graph._nodes)
    # once the caller lets go of the forward results, no op output is left
    del out, root
    assert len(outputs) > len(encoder) + len(decoders)
    assert all(ref() is None for ref in outputs)
    assert sorted(grads) == sorted(leaf.node_id for leaf in leaves.values())
    for name, leaf in leaves.items():
        assert grads[leaf.node_id].shape == params[name].shape, name


def test_encoder_tape_keeps_only_c(monkeypatch):
    # besides its inputs, its result and views of its W and b, each encoder
    # `lstm` closure holds exactly one (N, h) c per direction: 2 * N * h
    # floats, where stored gates and c would be five times that
    embedded = []
    original = model.embed

    def recording(*args, **kwargs):
        embedded.append(original(*args, **kwargs))
        return embedded[-1]

    monkeypatch.setattr(model, "embed", recording)
    config, _, _, graph, _, _, encoder, _ = taped_training_forward()
    h = config.hidden_size
    known = [t.data for t in embedded] + [node.out for node in graph._nodes]
    for node in encoder:
        rows = len(node.out)
        held = [a for a in closure_arrays(node.backward)
                if not any(np.may_share_memory(a, k) for k in known)]
        assert [a.shape for a in held] == [(rows, h)] * 2
        assert sum(a.nbytes for a in held) == 2 * rows * h * np.dtype(np.float32).itemsize


def test_second_backward_raises():
    graph = Graph()
    x = graph.leaf(np.arange(3.0))
    root = ad.mul(x, x)
    assert np.array_equal(graph.backward(root, np.ones(3))[x.node_id], 2.0 * np.arange(3.0))
    with pytest.raises(ad.GraphSpentError):
        graph.backward(root, np.ones(3))
    # backward dropped the outputs that first_nonfinite would read
    with pytest.raises(ad.GraphSpentError):
        graph.first_nonfinite()
