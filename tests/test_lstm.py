"""The packed LSTM op against the unrolled oracle in lstm_oracle.py.

Most checks run one direction through `packed_lstm`, which packs a padded
batch, runs `ad.lstm` and unpacks that direction's half of the result, so
the op and the oracle see and return the same padded arrays, gradients
included."""

import numpy as np
import pytest

from lstm_oracle import pack_rows, packed_lstm, unrolled_bilstm, unrolled_lstm
from memtrace import traced
from spanqa import autodiff as ad
from spanqa.autodiff import Graph
from spanqa.data import PAD_ID
from spanqa.diagnostics import (OP_THRESHOLD, make_tiny_problem,
                                op_gradcheck_cases)
from spanqa.model import bilstm, forward

FORWARD_TOL = 1e-12
GRAD_TOL = 1e-10


def ragged_mask(batch, length):
    """Row 0 full, the others cut at decreasing lengths (the last keeps one step)."""
    mask = np.ones((batch, length))
    for row in range(1, batch):
        mask[row, max(1, length - 2 * row):] = 0.0
    mask[batch - 1, 1:] = 0.0
    return mask


def direction_params(rng, in_dim, hidden):
    return (rng.normal(size=(4 * hidden, in_dim + hidden)) * 0.5,
            rng.normal(size=(4 * hidden,)) * 0.5)


def run_direction(fn, x, weight, bias, mask, reverse, probe):
    """Output and (dX, dW, db) of sum(fn(...) * probe)."""
    graph = Graph()
    leaves = [graph.leaf(v) for v in (x, weight, bias)]
    out = fn(*leaves, mask, reverse)
    grads = graph.backward(ad.reduce_sum(ad.mul(out, probe)))
    return out.data, [grads[leaf.node_id] for leaf in leaves]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("batch,length,in_dim,hidden", [(1, 1, 3, 2), (3, 6, 4, 3),
                                                        (4, 9, 5, 2)])
def test_fused_direction_matches_oracle(reverse, batch, length, in_dim, hidden):
    rng = np.random.default_rng(batch * 100 + length)
    x = rng.normal(size=(batch, length, in_dim))
    weight, bias = direction_params(rng, in_dim, hidden)
    mask = ragged_mask(batch, length)
    probe = rng.normal(size=(batch, length, hidden))
    fused, fused_grads = run_direction(packed_lstm, x, weight, bias, mask, reverse, probe)
    ref, ref_grads = run_direction(unrolled_lstm, x, weight, bias, mask, reverse,
                                   probe)
    assert np.abs(fused - ref).max() < FORWARD_TOL
    for name, got, want in zip(("dX", "dW", "db"), fused_grads, ref_grads):
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() < GRAD_TOL, name


def test_masked_steps_get_no_gradient_and_emit_zeros():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 5, 2))
    weight, bias = direction_params(rng, 2, 3)
    mask = ragged_mask(3, 5)
    for reverse in (False, True):
        out, (dx, _, _) = run_direction(packed_lstm, x, weight, bias, mask, reverse,
                                        np.ones((3, 5, 3)))
        assert np.all(out[mask == 0] == 0.0)
        assert np.all(dx[mask == 0] == 0.0)


def prefix_mask(lengths, length):
    return (np.arange(length) < np.asarray(lengths)[:, None]).astype(np.float64)


# ragged_mask is already sorted longest first, so it cannot catch a packing
# that forgets to sort the rows or to put them back in place
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("lengths", [[3, 7, 1, 5], [4, 6, 4, 6, 2], [0, 5, 3],
                                     [0, 0, 0]],
                         ids=["unsorted", "tied", "zero_length_row", "all_zero"])
def test_packed_direction_matches_oracle_in_any_row_order(reverse, lengths):
    rng = np.random.default_rng(len(lengths) * 10 + sum(lengths))
    batch, length, in_dim, hidden = len(lengths), 7, 4, 3
    x = rng.normal(size=(batch, length, in_dim))
    weight, bias = direction_params(rng, in_dim, hidden)
    mask = prefix_mask(lengths, length)
    probe = rng.normal(size=(batch, length, hidden))
    fused, fused_grads = run_direction(packed_lstm, x, weight, bias, mask, reverse, probe)
    ref, ref_grads = run_direction(unrolled_lstm, x, weight, bias, mask, reverse,
                                   probe)
    assert np.abs(fused - ref).max() < FORWARD_TOL
    assert np.all(fused[mask == 0] == 0.0)
    for name, got, want in zip(("dX", "dW", "db"), fused_grads, ref_grads):
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() < GRAD_TOL, name
    assert np.all(fused_grads[0][mask == 0] == 0.0)


@pytest.mark.parametrize("mask", [[[1.0, 0.0, 1.0]], [[0.0, 1.0, 1.0]],
                                  [[1.0, 0.5, 0.0]], [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]],
                         ids=["gap", "leading_pad", "fractional", "second_row"])
def test_non_prefix_mask_rejected(mask):
    mask = np.array(mask)
    rng = np.random.default_rng(8)
    weight, bias = direction_params(rng, 2, 2)
    x = rng.normal(size=mask.shape + (2,))
    with pytest.raises(ad.DimensionError, match="run of 1s"):
        ad.Packing(mask)
    for reverse in (False, True):
        with pytest.raises(ad.DimensionError, match="run of 1s"):
            packed_lstm(x, weight, bias, mask, reverse=reverse)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, bool])
def test_packing_keeps_its_mask_as_bool(dtype):
    mask = prefix_mask([3, 1, 4], 4)
    packing = ad.Packing(mask.astype(dtype))
    assert packing.mask.dtype == bool
    assert np.array_equal(packing.mask, mask)
    assert np.array_equal(packing.flat, ad.Packing(mask).flat)


def test_stacked_bilstm_matches_oracle():
    rng = np.random.default_rng(5)
    batch, length, in_dim, hidden = 3, 7, 4, 3
    layers = [{d: direction_params(rng, width, hidden) for d in ("fwd", "bwd")}
              for width in (in_dim, 2 * hidden)]
    x = rng.normal(size=(batch, length, in_dim))
    mask = ragged_mask(batch, length)
    probe = rng.normal(size=(batch, length, 2 * hidden))

    def run(fn):
        graph = Graph()
        xt = graph.leaf(x)
        taped = [{d: tuple(graph.leaf(v) for v in pair)
                  for d, pair in layer.items()} for layer in layers]
        out = fn(xt, taped, mask, hidden)
        grads = graph.backward(ad.reduce_sum(ad.mul(out, probe)))
        flat = [xt] + [t for layer in taped for pair in layer.values() for t in pair]
        return out.data, [grads[t.node_id] for t in flat]

    def packed(xt, p, m, h):
        packing = ad.Packing(m)
        return ad.unpack(bilstm([pack_rows(xt, packing)], p, packing), packing)

    fused, fused_grads = run(packed)
    ref, ref_grads = run(unrolled_bilstm)
    assert np.abs(fused - ref).max() < FORWARD_TOL
    for got, want in zip(fused_grads, ref_grads):
        assert np.abs(got - want).max() < GRAD_TOL


def test_untaped_call_matches_taped_and_stays_detached():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 3))
    weight, bias = direction_params(rng, 3, 2)
    mask = ragged_mask(2, 4)
    detached = packed_lstm(x, weight, bias, mask, reverse=True)
    taped, _ = run_direction(packed_lstm, x, weight, bias, mask, True,
                             np.ones((2, 4, 2)))
    assert detached.graph is None
    assert np.array_equal(detached.data, taped)


def retained_by_call(packing, inputs):
    """Bytes one `ad.lstm` call leaves allocated, its result included; the
    same (W, b) serves both directions."""
    return traced(ad.lstm, [inputs[0]], packing, inputs[1:], inputs[1:])[1]


def test_untaped_call_keeps_no_bptt_buffers():
    # backward needs, per direction, the (N, 4h) gates and the (N, h) c, N
    # the live positions (all B*L here), recomputes tanh c and reads h back
    # from the result; a call that no gradient will reach must keep none of
    # them alive
    rng = np.random.default_rng(7)
    batch, length, in_dim, hidden = 8, 60, 16, 32
    packing = ad.Packing(np.ones((batch, length)))
    x = rng.normal(size=(packing.size, in_dim))
    weight, bias = direction_params(rng, in_dim, hidden)
    buffers = 2 * 5 * batch * length * hidden * 8
    untaped = retained_by_call(packing, (x, weight, bias))
    frozen = retained_by_call(packing, tuple(ad.Tensor(v) for v in (x, weight, bias)))
    trainable = Graph()
    taped = retained_by_call(packing, tuple(trainable.leaf(v)
                                            for v in (x, weight, bias)))
    # a sixth block per direction, tanh c or a copy of h, would exceed the bound
    assert 0.9 * buffers < taped - untaped < 1.1 * buffers
    assert frozen - untaped < 0.1 * buffers


def test_taped_buffers_scale_with_live_positions():
    # a ragged batch keeps buffers for its live positions only: the same
    # five (., h) blocks per direction as a full batch, but over
    # sum(lengths) rows, not B*L
    rng = np.random.default_rng(9)
    batch, length, in_dim, hidden = 8, 60, 16, 32
    lengths = [60, 10, 35, 20, 50, 5, 30, 15]      # 225 of 480 positions
    packing = ad.Packing(prefix_mask(lengths, length))
    x = rng.normal(size=(packing.size, in_dim))
    weight, bias = direction_params(rng, in_dim, hidden)
    live_buffers = 2 * 5 * sum(lengths) * hidden * 8
    untaped = retained_by_call(packing, (x, weight, bias))
    trainable = Graph()
    taped = retained_by_call(packing, tuple(trainable.leaf(v)
                                            for v in (x, weight, bias)))
    # buffers over all B*L positions would be 480 / 225 = 2.1 times as large,
    # and a sixth block per direction 6 / 5 times
    assert 0.9 * live_buffers < taped - untaped < 1.1 * live_buffers


def test_untaped_peak_holds_one_direction_at_a_time():
    # an untaped call frees each direction's buffers before the next one
    # allocates its own: at its peak it holds the (N, 2h) result, one
    # direction's (N, 4h) gates twice (the reverse direction gathers them
    # into its step order) and that direction's three (N, h) state buffers
    rng = np.random.default_rng(13)
    length, in_dim, hidden = 60, 16, 32
    packing = ad.Packing(prefix_mask([60, 10, 35, 20, 50, 5, 30, 15], length))
    x = rng.normal(size=(packing.size, in_dim))
    fwd, bwd = (direction_params(rng, in_dim, hidden) for _ in range(2))
    bound = packing.size * 8 * (2 * hidden + 2 * 4 * hidden + 3 * hidden)
    _, _, peak = traced(ad.lstm, [x], packing, fwd, bwd)
    assert peak < bound


def long_packing(rng):
    """A ragged batch with many more live rows than one chunk of `ad._rows_times`."""
    return ad.Packing(prefix_mask(rng.integers(150, 301, size=24), 300))


def test_untaped_peak_over_two_blocks_holds_gates_state_and_one_chunk():
    # the pre-activations are built in one (N, 4h) buffer, a chunk of rows
    # at a time, in the direction's step order: above the (N, 2h) result, a
    # call holds one direction's gates, its h and c (two (N, h) blocks), one
    # chunk's sum and product, and one direction's weight copies; no whole
    # product of the second block, no reordered copy of the gates and no
    # (N, h) tanh c
    rng = np.random.default_rng(17)
    hidden, widths = 16, (24, 8)
    packing = long_packing(rng)
    rows = packing.size
    blocks = [rng.normal(size=(rows, w)) for w in widths]
    fwd, bwd = (direction_params(rng, sum(widths), hidden) for _ in range(2))
    chunk = ad._CHUNK_ROWS * 8 * 2 * 4 * hidden
    bound = rows * 8 * (2 * hidden + 4 * hidden + 2 * hidden) + chunk + fwd[0].nbytes
    out, _, peak = traced(ad.lstm, blocks, packing, fwd, bwd)
    assert out.shape == (rows, 2 * hidden)
    assert peak < bound


def test_taped_backward_dx_adds_both_directions_by_chunk():
    # without dropout no input block is rebuilt, so above the (N, 2h)
    # gradient of the result, backward holds the (N, 8h) dz of both
    # directions, the dX and dW it returns and one chunk's product: the
    # second direction's dz_bwd @ W_bwd[:, block] is never a whole product
    rng = np.random.default_rng(19)
    hidden, widths = 16, (8 * 16, 2 * 16)
    packing = long_packing(rng)
    rows, n = packing.size, sum(widths)
    graph = Graph()
    blocks = [graph.leaf(rng.normal(size=(rows, w))) for w in widths]
    params = [tuple(graph.leaf(v) for v in direction_params(rng, n, hidden))
              for _ in range(2)]
    root = ad.reduce_sum(ad.lstm(blocks, packing, *params))
    grads, _, peak = traced(graph.backward, root)
    dw = sum(grads[t.node_id].nbytes for pair in params for t in pair)
    chunk = ad._CHUNK_ROWS * 8 * max(widths)
    bound = rows * 8 * (2 * hidden + 8 * hidden + n) + dw + chunk
    assert peak < bound
    assert all(grads[x.node_id].shape == x.shape for x in blocks)


def test_taped_backward_peak_holds_one_dz_and_one_rebuilt_block():
    # the end decoder's shape: a wide dropped block and a narrow one. Above
    # the tape and the (N, 2h) gradient of the result, backward holds at
    # most one (N, 8h) dz for both directions, the dX and dW it returns and
    # one dropped input block rebuilt for its dW GEMM (or the second
    # direction's product for dX of that width); a second dz, a dX temporary
    # beside the sum, or every dropped block rebuilt at once each exceed that
    rng = np.random.default_rng(21)
    length, hidden, widths = 60, 16, (8 * 16, 2 * 16)
    packing = ad.Packing(prefix_mask([60, 10, 35, 20, 50, 5, 30, 15], length))
    rows, n = packing.size, sum(widths)
    graph = Graph()
    blocks = [graph.leaf(rng.normal(size=(rows, w))) for w in widths]
    params = [tuple(graph.leaf(v) for v in direction_params(rng, n, hidden))
              for _ in range(2)]
    out = ad.lstm([ad.Dropped(x, 0.2, seed) for seed, x in enumerate(blocks)],
                  packing, *params)
    root = ad.reduce_sum(out)
    grads, _, peak = traced(graph.backward, root)
    dw = sum(grads[t.node_id].nbytes for pair in params for t in pair)
    bound = rows * 8 * (2 * hidden + 8 * hidden + n + max(widths)) + dw
    assert peak < bound
    assert len(grads) == 6


def test_shape_errors():
    packing = ad.Packing(np.ones((2, 3)))
    x = np.zeros((6, 4))
    good = (np.zeros((8, 6)), np.zeros(8))
    for bad in [(np.zeros((8, 5)), np.zeros(8)),      # needs 4+2 columns
                (np.zeros((8, 6)), np.zeros(4))]:
        for fwd, bwd in [(bad, good), (good, bad)]:
            with pytest.raises(ad.DimensionError):
                ad.lstm([x], packing, fwd, bwd)
    with pytest.raises(ad.DimensionError):
        ad.lstm([np.zeros((5, 4))], packing, good, good)
    with pytest.raises(ad.DimensionError):
        ad.lstm([np.zeros((6, 2)), np.zeros((5, 2))], packing, good, good)
    with pytest.raises(ad.DimensionError):
        ad.lstm([np.zeros((2, 3, 4))], packing, good, good)
    with pytest.raises(ad.DimensionError):
        ad.Packing(np.ones(3))


@pytest.mark.parametrize("name,f,x", [c for c in op_gradcheck_cases(0)
                                      if c[0].startswith("lstm")],
                         ids=lambda c: c if isinstance(c, str) else "")
def test_registered_gradcheck_cases(name, f, x):
    assert ad.grad_check(f, x) < OP_THRESHOLD


def test_taped_forward_tape_budget():
    # one node per BiLSTM layer: the tiny model's whole taped forward
    # records about a hundred nodes, not tens per time step
    config, params, table, batch = make_tiny_problem()
    graph = Graph()
    leaves = {name: graph.leaf(value)
              for name, value in params.items()}
    forward(batch, leaves, table, config, training=True)
    assert len(graph) < 150


def test_dropout_is_one_call_per_layer_input(monkeypatch):
    calls = []
    original = ad._dropout_mask

    def counting(x, *args):
        mask = original(x, *args)
        if mask is not None:
            calls.append(x.shape)
        return mask

    monkeypatch.setattr(ad, "_dropout_mask", counting)
    config, params, table, batch = make_tiny_problem(dropout=0.2)
    forward(batch, params, table, config, training=True)
    # each mask covers one input block of a layer or head over all its packed
    # live rows, never one time step: two encoder layers over the contexts and
    # questions together, G into the start decoder, then [G | M] into the
    # start head, the end decoder and the end head
    assert len(calls) == config.encoder_layers + 1 + 3 * 2
    live = np.count_nonzero(batch.context_ids != PAD_ID)
    encoded = live + np.count_nonzero(batch.question_ids != PAD_ID)
    assert [n for n, _ in calls[:config.encoder_layers]] == [encoded] * 2
    assert [n for n, _ in calls[config.encoder_layers:]] == [live] * 7
    assert all(len(shape) == 2 for shape in calls)
