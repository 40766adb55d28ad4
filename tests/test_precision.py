"""The float32 compute path: dtype discipline, accuracy against the float64
oracle, float32 params used without copies, and float64 gradient checks."""

import numpy as np

from lstm_oracle import bilstm_reference, flat_rows, packed_bilstm, padded
from spanqa import autodiff as ad
from spanqa import diagnostics
from spanqa.autodiff import Graph
from spanqa.diagnostics import make_tiny_problem
from spanqa.model import forward, loss
from spanqa.training import init_optimizer, train_step

# float32 carries 24 significand bits (eps ~1.2e-7); a recurrence of a few
# dozen steps and sums over a few hundred rows keep the relative error well
# inside three orders of magnitude above that.
FLOAT32_REL_TOL = 1e-4


def test_float32_taped_step_stays_float32():
    # dropout on, so every lstm and head input block comes Dropped and its
    # mask's scale meets the block in forward and its gradient in backward
    config, params, table, batch = make_tiny_problem(dropout=0.3)
    graph = Graph()
    leaves = {name: graph.leaf(value.astype(np.float32))
              for name, value in params.items()}
    out = forward(batch, leaves, table, config, training=True, step=3)
    root = loss(out, batch.gold_starts, batch.gold_ends)
    upcast = [(i, node.op, node.out.dtype) for i, node in enumerate(graph._nodes)
              if node.out.dtype != np.float32]
    assert upcast == []
    # every gradient a node passes back, a dropped block's dX included
    passed = []

    def recording(op, backward):
        def wrapped(g):
            parent_grads = backward(g)
            passed.extend((op, pg.dtype) for pg in parent_grads if pg is not None)
            return parent_grads
        return wrapped

    for node in graph._nodes:
        if node.backward is not None:
            node.backward = recording(node.op, node.backward)
    grads = graph.backward(root)
    assert {op for op, _ in passed} >= {"lstm", "head"}
    assert {dtype for _, dtype in passed} == {np.dtype(np.float32)}
    assert len(grads) == len(params)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


def _taped(x, mask, weight, bias, probe):
    """packed_bilstm's output, padded, and the gradients of sum(out * probe)
    over x's rows and each direction's rows of the stacked W and b."""
    graph = Graph()
    leaves = [graph.leaf(v) for v in (flat_rows(x), weight, bias)]
    out = packed_bilstm(*leaves[:1], mask, *leaves[1:])
    grads = graph.backward(out, probe[ad.Packing(mask).index])
    dx, dw, db = (grads[leaf.node_id] for leaf in leaves)
    half = len(db) // 2
    return [padded(out, mask), dx, dw[:half], db[:half], dw[half:], db[half:]]


def test_float32_lstm_matches_float64_oracle():
    # the output against the float64 reference, the gradients against the
    # float64 op's, which the LSTM tests check by central differences
    rng = np.random.default_rng(41)
    batch, length, in_dim, hidden = 5, 40, 24, 16
    x = rng.normal(size=(batch, length, in_dim))
    weight = rng.normal(size=(8 * hidden, in_dim + hidden)) * 0.3
    bias = rng.normal(size=(8 * hidden,)) * 0.3
    mask = np.ones((batch, length))
    for row in range(1, batch):
        mask[row, length - 7 * row:] = 0.0
    probe = rng.normal(size=(batch, length, 2 * hidden))
    ref = _taped(x, mask, weight, bias, probe)
    ref[0] = bilstm_reference(x, mask, [(weight, bias)])
    got = _taped(x.astype(np.float32), mask, weight.astype(np.float32),
                 bias.astype(np.float32), probe.astype(np.float32))
    names = ("out", "dX", "dW_fwd", "db_fwd", "dW_bwd", "db_bwd")
    for name, g, r in zip(names, got, ref):
        assert g.dtype == np.float32, name
        rel = np.abs(g - r).max() / np.abs(r).max()
        assert rel < FLOAT32_REL_TOL, (name, rel)


def test_train_step_keeps_float32_params_without_copies(monkeypatch):
    leaves = []
    original = Graph.leaf

    def spy(self, data):
        leaf = original(self, data)
        leaves.append(leaf)
        return leaf

    monkeypatch.setattr(Graph, "leaf", spy)
    config, params, table, batch = make_tiny_problem(seed=42, dropout=0.2)
    state = init_optimizer(params)
    before = {name: value.copy() for name, value in params.items()}
    train_step(params, batch, table, state, config)
    # each trainable leaf is its parameter's own memory, not a cast copy
    assert len(leaves) == len(params)
    for leaf, (name, value) in zip(leaves, params.items()):
        assert np.shares_memory(leaf.data, value), name
    for name, value in params.items():
        assert value.dtype == np.float32, name
        assert state.m[name].dtype == state.v[name].dtype == np.float32, name
    assert any(not np.array_equal(params[k], before[k]) for k in params)


def test_gradchecks_run_in_float64(monkeypatch):
    roots = []
    original = Graph.backward

    def spy(self, root, cotangent=None):
        grads = original(self, root, cotangent)
        roots.append({root.data.dtype} | {g.dtype for g in grads.values()})
        return grads

    monkeypatch.setattr(Graph, "backward", spy)
    rows, all_ok = diagnostics.run_gradcheck_suite(seed=0)
    assert all_ok
    assert diagnostics.OP_THRESHOLD == 1e-4
    assert diagnostics.END_TO_END_THRESHOLD == 1e-3
    # one backward per op case, one per parameter in each of the two
    # end-to-end checks (distinct contexts, then a shared context)
    assert len(roots) == len(rows) - 1 + 2 * len(make_tiny_problem()[1])
    assert all(dtypes == {np.dtype(np.float64)} for dtypes in roots)

