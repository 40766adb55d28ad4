"""The packed LSTM op against the plain numpy LSTM in lstm_oracle.py, and
its gradients by central differences.

Most checks go through `packed_bilstm`, which packs a padded batch, given
as its `flat_rows`, and runs `ad.lstm`; `padded` lays the packed result out
again, so the op and the reference are compared on the same padded arrays,
and gradients weight the packed rows."""

import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from lstm_oracle import (bilstm_reference, flat_rows, gather, pack_rows, packed_bilstm, padded,
                         with_block)
from memtrace import traced
from spanqa import autodiff as ad
from spanqa.autodiff import Graph
from spanqa.data import PAD_ID
from spanqa.diagnostics import OP_THRESHOLD, make_tiny_problem
from spanqa.model import ENCODER_LAYERS, bilstm, forward

FORWARD_TOL = 1e-12
# an LSTM call is about 0.4 ms even at these shapes, so each gradient is
# probed at a seeded sample of coordinates
GRAD_COORDS = 8


def ragged_mask(batch, length):
    """Row 0 full, the others cut at decreasing lengths (the last keeps one step)."""
    mask = np.ones((batch, length))
    for row in range(1, batch):
        mask[row, max(1, length - 2 * row):] = 0.0
    mask[batch - 1, 1:] = 0.0
    return mask


def stacked_params(rng, in_dim, hidden):
    """Random W (8h, n+h) and b (8h,) of a layer, both directions stacked."""
    return (rng.normal(size=(8 * hidden, in_dim + hidden)) * 0.5,
            rng.normal(size=(8 * hidden,)) * 0.5)


def check_against_oracle(rng, x, mask, hidden, reverse):
    """A random stacked (W, b): the values of both directions against the
    reference, zeros at padding, and by `ad.grad_check` the gradients of
    sum(out * probe) over the packed x and the `reverse` direction's rows of
    W and b, on GRAD_COORDS seeded coordinates of each (all of a smaller one)."""
    weight, bias = stacked_params(rng, x.shape[2], hidden)
    probe = rng.normal(size=mask.shape + (2 * hidden,))
    out = padded(packed_bilstm(flat_rows(x), mask, weight, bias), mask)
    want = bilstm_reference(x, mask, [(weight, bias)])
    assert np.abs(out - want).max() < FORWARD_TOL
    packing = ad.Packing(mask)
    rows = slice(4 * hidden * reverse, 4 * hidden * (1 + reverse))
    values, weights = [x[packing.index], weight[rows], bias[rows]], probe[packing.index]
    for k, value in enumerate(values):
        def loss(t, k=k):
            args = [values[0], weight, bias]
            args[k] = t if k == 0 else with_block(t, args[k], rows)
            return ad.lstm(args[:1], packing, *args[1:])

        err = ad.grad_check(loss, value, GRAD_COORDS, seed=k, cotangent=weights)
        assert err < OP_THRESHOLD, k


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("batch,length,in_dim,hidden", [(1, 1, 3, 2), (3, 6, 4, 3),
                                                        (4, 9, 5, 2)])
def test_fused_direction_matches_oracle(reverse, batch, length, in_dim, hidden):
    rng = np.random.default_rng(batch * 100 + length)
    x = rng.normal(size=(batch, length, in_dim))
    check_against_oracle(rng, x, ragged_mask(batch, length), hidden, reverse)


def test_masked_steps_get_no_gradient_and_emit_zeros():
    rng = np.random.default_rng(3)
    mask = ragged_mask(3, 5)
    graph = Graph()
    x = graph.leaf(flat_rows(rng.normal(size=(3, 5, 2))))
    out = packed_bilstm(x, mask, *stacked_params(rng, 2, 3))
    dx = graph.backward(out, np.ones_like(out.data))[x.node_id]
    assert out.shape == (int(mask.sum()), 6)     # one row per live step, none for padding
    assert np.all(dx[mask.reshape(-1) == 0] == 0.0)


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
    x = rng.normal(size=(len(lengths), 7, 4))
    check_against_oracle(rng, x, prefix_mask(lengths, 7), 3, reverse)


@pytest.mark.parametrize("mask", [[[1.0, 0.0, 1.0]], [[0.0, 1.0, 1.0]],
                                  [[1.0, 0.5, 0.0]], [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]],
                         ids=["gap", "leading_pad", "fractional", "second_row"])
def test_non_prefix_mask_rejected(mask):
    mask = np.array(mask)
    rng = np.random.default_rng(8)
    weight, bias = stacked_params(rng, 2, 2)
    x = rng.normal(size=mask.shape + (2,))
    with pytest.raises(ad.DimensionError, match="run of 1s"):
        ad.Packing(mask)
    with pytest.raises(ad.DimensionError, match="run of 1s"):
        packed_bilstm(flat_rows(x), mask, weight, bias)


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
    layers = [stacked_params(rng, width, hidden) for width in (in_dim, 2 * hidden)]
    x = rng.normal(size=(batch, length, in_dim))
    mask = ragged_mask(batch, length)
    packing = ad.Packing(mask)
    probe = rng.normal(size=(batch, length, 2 * hidden))[packing.index]

    def run(xt):
        return bilstm([pack_rows(xt, packing)], layers, packing)

    want = bilstm_reference(x, mask, layers)
    assert np.abs(padded(run(flat_rows(x)), mask) - want).max() < FORWARD_TOL
    assert ad.grad_check(run, flat_rows(x), GRAD_COORDS, cotangent=probe) < OP_THRESHOLD


def test_untaped_call_matches_taped_and_stays_detached():
    rng = np.random.default_rng(6)
    x = flat_rows(rng.normal(size=(2, 4, 3)))
    params = stacked_params(rng, 3, 2)
    mask = ragged_mask(2, 4)
    detached = packed_bilstm(x, mask, *params)
    graph = Graph()
    taped = packed_bilstm(graph.leaf(x), mask, *params)
    assert detached.graph is None and taped.graph is graph
    assert np.array_equal(detached.data, taped.data)


@pytest.mark.parametrize("zeroed", [0, 1], ids=["forward_rows", "backward_rows"])
def test_stacked_rows_are_forward_then_backward(zeroed):
    # W and b stack the forward direction's 4h rows over the backward one's:
    # zeroing one half sets every pre-activation of that direction to 0, so
    # its c and h stay 0 and its columns of the result are 0, while the other
    # direction's columns stay bit for bit as they were
    rng = np.random.default_rng(23)
    hidden = 3
    mask = prefix_mask([5, 2, 4], 5)
    x = rng.normal(size=(3, 5, 4))
    weight, bias = stacked_params(rng, 4, hidden)
    out = packed_bilstm(flat_rows(x), mask, weight, bias).data
    rows = slice(4 * hidden * zeroed, 4 * hidden * (zeroed + 1))
    weight[rows], bias[rows] = 0.0, 0.0
    cut = packed_bilstm(flat_rows(x), mask, weight, bias).data
    cols = [slice(hidden * zeroed, hidden * (zeroed + 1)),
            slice(hidden * (1 - zeroed), hidden * (2 - zeroed))]
    assert np.all(cut[..., cols[0]] == 0.0)
    assert np.array_equal(cut[..., cols[1]], out[..., cols[1]])
    assert np.abs(out[..., cols[0]]).max() > 0.0


def retained_by_call(packing, inputs):
    """Bytes one `ad.lstm` call on inputs (x, W, b) leaves allocated, its
    result included."""
    return traced(ad.lstm, [inputs[0]], packing, *inputs[1:])[1]


def test_untaped_call_keeps_no_bptt_buffers():
    # backward on an input wider than 4h needs, per direction, the (N, 4h)
    # gates and the (N, h) c, N the live positions (all B*L here),
    # recomputes tanh c and reads h back from the result; a call that no
    # gradient will reach must keep none of them alive
    rng = np.random.default_rng(7)
    batch, length, in_dim, hidden = 8, 60, 160, 32
    packing = ad.Packing(np.ones((batch, length)))
    x = rng.normal(size=(packing.size, in_dim))
    weight, bias = stacked_params(rng, in_dim, hidden)
    buffers = 2 * 5 * batch * length * hidden * 8
    untaped = retained_by_call(packing, (x, weight, bias))
    frozen = retained_by_call(packing, tuple(ad.Tensor(v) for v in (x, weight, bias)))
    trainable = Graph()
    taped = retained_by_call(packing, tuple(trainable.leaf(v)
                                            for v in (x, weight, bias)))
    # a sixth block per direction, tanh c or a copy of h, would exceed the bound
    assert 0.9 * buffers < taped - untaped < 1.1 * buffers
    assert frozen - untaped < 0.1 * buffers


@pytest.mark.parametrize("in_dim,blocks", [(16, 1), (128, 1), (129, 5), (320, 5)],
                         ids=["narrow", "4h", "4h+1", "wide"])
def test_taped_buffers_scale_with_live_positions(in_dim, blocks):
    # a ragged batch keeps buffers for its live positions only, over
    # sum(lengths) rows, not B*L: per direction, an input no wider than the
    # 4h = 128 gates keeps one (N, h) c, and a wider one five (N, h) blocks,
    # the gates and c
    rng = np.random.default_rng(9)
    length, hidden = 60, 32
    lengths = [60, 10, 35, 20, 50, 5, 30, 15]      # 225 of 480 positions
    packing = ad.Packing(prefix_mask(lengths, length))
    x = rng.normal(size=(packing.size, in_dim))
    weight, bias = stacked_params(rng, in_dim, hidden)
    live_buffers = 2 * blocks * sum(lengths) * hidden * 8
    untaped = retained_by_call(packing, (x, weight, bias))
    trainable = Graph()
    taped = retained_by_call(packing, tuple(trainable.leaf(v)
                                            for v in (x, weight, bias)))
    # buffers over all B*L positions would be 480 / 225 = 2.1 times as large,
    # a sixth block per direction 6 / 5 times, and the gates beside c 5 times
    assert 0.9 * live_buffers < taped - untaped < 1.1 * live_buffers


@pytest.mark.parametrize("direction", [0, 1], ids=["forward", "backward"])
def test_rebuilt_gates_give_the_stored_gates_gradients(direction, monkeypatch):
    # float64, a ragged packing out of length order and two row blocks, the
    # second one Dropped: rebuilding the gates in backward gives the result
    # and every gradient of the stored-gate call, each path forced on the
    # same input. The probe reads one direction's half of the result, so
    # neither direction hides the other
    rng = np.random.default_rng(29)
    hidden, widths = 3, (4, 2)
    packing = ad.Packing(prefix_mask([5, 9, 1, 7, 9, 3], 9))
    values = ([rng.normal(size=(packing.size, w)) for w in widths]
              + list(stacked_params(rng, sum(widths), hidden)))
    probe = np.zeros((packing.size, 2 * hidden))
    probe[:, direction * hidden:(direction + 1) * hidden] = rng.normal(
        size=(packing.size, hidden))

    # each direction whose gates were rebuilt, so neither run passes unforced
    rebuilt_directions, rebuilt_gates = [], ad._rebuilt_gates

    def recording(*args):
        rebuilt_directions.append(args[6])      # reverse
        return rebuilt_gates(*args)

    monkeypatch.setattr(ad, "_rebuilt_gates", recording)

    def run(rebuild):
        monkeypatch.setattr(ad, "_rebuilds_gates", lambda n, h: rebuild)
        graph = Graph()
        x_1, x_2, weight, bias = leaves = [graph.leaf(v) for v in values]
        out = ad.lstm([x_1, ad.Dropped(x_2, 0.3, 7)], packing, weight, bias)
        grads = graph.backward(out, probe)
        return [out.data] + [grads[t.node_id] for t in leaves]

    stored = run(False)
    assert rebuilt_directions == []
    rebuilt = run(True)
    assert rebuilt_directions == [False, True]
    for got, want in zip(rebuilt, stored):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)


def test_untaped_peak_holds_one_direction_at_a_time():
    # an untaped call frees each direction's buffers before the next one
    # allocates its own: at its peak it holds the (N, 2h) result, one
    # direction's (N, 4h) gates twice (the reverse direction gathers them
    # into its step order) and that direction's three (N, h) state buffers
    rng = np.random.default_rng(13)
    length, in_dim, hidden = 60, 16, 32
    packing = ad.Packing(prefix_mask([60, 10, 35, 20, 50, 5, 30, 15], length))
    x = rng.normal(size=(packing.size, in_dim))
    weight, bias = stacked_params(rng, in_dim, hidden)
    bound = packing.size * 8 * (2 * hidden + 2 * 4 * hidden + 3 * hidden)
    _, _, peak = traced(ad.lstm, [x], packing, weight, bias)
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
    weight, bias = stacked_params(rng, sum(widths), hidden)
    chunk = ad._CHUNK_ROWS * 8 * 2 * 4 * hidden
    bound = rows * 8 * (2 * hidden + 4 * hidden + 2 * hidden) + chunk + weight.nbytes // 2
    out, _, peak = traced(ad.lstm, blocks, packing, weight, bias)
    assert out.shape == (rows, 2 * hidden)
    assert peak < bound


def test_taped_backward_dx_is_one_product_over_both_directions():
    # without dropout no input block is rebuilt, so above the (N, 2h)
    # gradient of the result, backward holds the (N, 8h) dz of both
    # directions and the dX and dW it returns: each block's dX is the one
    # product dz @ W[:, block] with K = 8h, with no temporary beside it.
    # `small` is for Python objects and the (8h,) db
    rng = np.random.default_rng(19)
    hidden, widths = 16, (8 * 16, 2 * 16)
    packing = long_packing(rng)
    rows, n = packing.size, sum(widths)
    graph = Graph()
    blocks = [graph.leaf(rng.normal(size=(rows, w))) for w in widths]
    params = [graph.leaf(v) for v in stacked_params(rng, n, hidden)]
    out = ad.lstm(blocks, packing, *params)
    grads, _, peak = traced(graph.backward, out, np.ones_like(out.data))
    dw = sum(grads[t.node_id].nbytes for t in params)
    small = 32 * 1024
    bound = rows * 8 * (2 * hidden + 8 * hidden + n) + dw + small
    assert peak < bound
    assert all(grads[x.node_id].shape == x.shape for x in blocks)


def test_taped_backward_peak_holds_one_dz_and_one_rebuilt_block(monkeypatch):
    # the end decoder's shape: a wide dropped block and a narrow one. Above
    # the tape and the (N, 2h) gradient g of the result, each BPTT sweep
    # holds one (N, 8h) dz for both directions, its own (N, 4h) dz, db and
    # the (8h, h) recurrent dW_h; the (8h, n+h) dW comes after both sweeps.
    # Then, block by block, backward holds one redrawn mask and one dropped
    # block rebuilt for its dW GEMM, no wider than the dX that follows it,
    # so the peak is within g, the (N, 8h) dz, the dW and dX it returns, one
    # mask and numpy's cast buffer for the float-by-bool product. A dX
    # temporary beside the sum of both directions' products exceeds that,
    # and a dW allocated before the sweeps exceeds their bound
    rng = np.random.default_rng(21)
    length, hidden, widths = 60, 16, (8 * 16, 2 * 16)
    packing = ad.Packing(prefix_mask([60, 10, 35, 20, 50, 5, 30, 15], length))
    rows, n = packing.size, sum(widths)
    graph = Graph()
    blocks = [graph.leaf(rng.normal(size=(rows, w))) for w in widths]
    params = [graph.leaf(v) for v in stacked_params(rng, n, hidden)]
    out = ad.lstm([ad.Dropped(x, 0.2, seed) for seed, x in enumerate(blocks)],
                  packing, *params)
    at_sweeps = []
    sweep = ad._lstm_dz

    def recording(*args):
        at_sweeps.append(tracemalloc.get_traced_memory()[0])
        return sweep(*args)

    monkeypatch.setattr(ad, "_lstm_dz", recording)
    grads, _, peak = traced(graph.backward, out, np.ones_like(out.data))
    dw = sum(grads[t.node_id].nbytes for t in params)
    small = 16 * 1024       # Python objects and the (8h,) db
    sweep_bound = rows * 8 * (2 + 8 + 4) * hidden + 8 * 8 * hidden * hidden + small
    assert len(at_sweeps) == 2 and at_sweeps[1] < sweep_bound
    cast_buffer = 8 * np.getbufsize()
    bound = rows * 8 * (2 * hidden + 8 * hidden + n) + rows * max(widths) + dw + cast_buffer
    assert peak < bound
    assert len(grads) == 4


def test_backward_lets_go_of_the_result_and_its_gradient_after_the_sweeps(monkeypatch):
    # neither the (N, 2h) result nor its gradient is read after the two BPTT
    # sweeps, so both are freed before the input gradients start. Before
    # Python 3.11 the caller's frame keeps a call's arguments alive until it
    # returns, so the gradient is checked from 3.11 on
    rng = np.random.default_rng(5)
    packing = ad.Packing(prefix_mask([7, 3, 5], 7))
    graph = Graph()
    x = graph.leaf(rng.normal(size=(packing.size, 4)))
    params = [graph.leaf(v) for v in stacked_params(rng, 4, 3)]
    y = ad.lstm([ad.Dropped(x, 0.2, 1)], packing, *params)
    result = weakref.ref(y.data)
    root = gather(y, np.arange(packing.size))      # a copy: no reference to y here
    del y
    gradients, alive = [], []
    sweep, input_grads = ad._lstm_dz, ad._input_grads

    def recording_sweep(dz, g_h, *args):
        gradients.append(weakref.ref(g_h.base))
        return sweep(dz, g_h, *args)

    def recording_input_grads(*args):
        alive.append([ref() is not None for ref in [result, *gradients]])
        return input_grads(*args)

    monkeypatch.setattr(ad, "_lstm_dz", recording_sweep)
    monkeypatch.setattr(ad, "_input_grads", recording_input_grads)
    graph.backward(root, np.ones(root.shape))
    assert len(alive) == 1 and len(alive[0]) == 3
    assert not alive[0][0]
    if sys.version_info >= (3, 11):
        assert alive[0] == [False, False, False]


def test_shape_errors():
    packing = ad.Packing(np.ones((2, 3)))
    x = np.zeros((6, 4))
    good = (np.zeros((16, 6)), np.zeros(16))
    for bad in [(np.zeros((16, 5)), np.zeros(16)),    # needs 4+2 columns
                (np.zeros((16, 6)), np.zeros(8)),
                (np.zeros((8, 6)), np.zeros(8)),      # one direction's rows
                (np.zeros((12, 5)), np.zeros(12))]:
        with pytest.raises(ad.DimensionError):
            ad.lstm([x], packing, *bad)
    with pytest.raises(ad.DimensionError):
        ad.lstm([np.zeros((5, 4))], packing, *good)
    with pytest.raises(ad.DimensionError):
        ad.lstm([np.zeros((6, 2)), np.zeros((5, 2))], packing, *good)
    with pytest.raises(ad.DimensionError):
        ad.lstm([np.zeros((2, 3, 4))], packing, *good)
    with pytest.raises(ad.DimensionError):
        ad.Packing(np.ones(3))


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
    assert len(calls) == ENCODER_LAYERS + 1 + 3 * 2
    live = np.count_nonzero(batch.context_ids != PAD_ID)
    encoded = live + np.count_nonzero(batch.question_ids != PAD_ID)
    assert [n for n, _ in calls[:ENCODER_LAYERS]] == [encoded] * 2
    assert [n for n, _ in calls[ENCODER_LAYERS:]] == [live] * 7
    assert all(len(shape) == 2 for shape in calls)
