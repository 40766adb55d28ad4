"""Unrolled reference LSTM, kept as the oracle for the packed ``autodiff.lstm``.

Each direction is built step by step from generic tape ops (slice, concat,
matmul, sigmoid, tanh, mul, add), exactly as the model computed it before the
fused op existed. It is slow and records tens of nodes per step, but every
piece of it is separately gradient-checked, so its values and gradients are
the reference the fused op must reproduce.
"""

import numpy as np

from spanqa import autodiff as ad
from spanqa.autodiff import Tensor


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _time_steps(x: Tensor, length: int) -> list[Tensor]:
    """Split (B, L, n) into L detached-or-graph (B, n) tensors."""
    batch, _, width = x.shape
    if x.graph is None:
        return [Tensor(x.data[:, t, :]) for t in range(length)]
    return [ad.reshape(ad.slice_axis(x, 1, t, t + 1), (batch, width))
            for t in range(length)]


def _lstm_direction(steps, weight, bias, mask, hidden_size, reverse: bool):
    """One LSTM pass; masked steps keep state and emit zeros.

    steps: list of (B, in) tensors. weight (4h, in+h), bias (4h,); gates are
    sliced in i|f|o|g order from [x_t ; h_prev] @ W^T + b.
    """
    h = hidden_size
    batch, length = mask.shape
    w_t = ad.transpose(weight)
    full_rows = mask.all(axis=0)
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    outputs: list[Tensor | None] = [None] * length
    order = range(length - 1, -1, -1) if reverse else range(length)
    for t in order:
        z = ad.add_bias(ad.matmul(ad.concat([steps[t], h_prev], axis=1), w_t), bias)
        i_gate = ad.sigmoid(ad.slice_axis(z, 1, 0, h))
        f_gate = ad.sigmoid(ad.slice_axis(z, 1, h, 2 * h))
        o_gate = ad.sigmoid(ad.slice_axis(z, 1, 2 * h, 3 * h))
        g_gate = ad.tanh(ad.slice_axis(z, 1, 3 * h, 4 * h))
        c_new = ad.add(ad.mul(f_gate, c_prev), ad.mul(i_gate, g_gate))
        h_new = ad.mul(o_gate, ad.tanh(c_new))
        if full_rows[t]:
            outputs[t] = h_new
            h_prev, c_prev = h_new, c_new
        else:
            live = np.repeat(mask[:, t:t + 1], h, axis=1)
            dead = 1.0 - live
            h_live = ad.mul(h_new, live)
            outputs[t] = h_live
            h_prev = ad.add(h_live, ad.mul(h_prev, dead))
            c_prev = ad.add(ad.mul(c_new, live), ad.mul(c_prev, dead))
    return outputs


def _stack(steps, hidden) -> Tensor:
    batch = steps[0].shape[0]
    return ad.concat([ad.reshape(s, (batch, 1, hidden)) for s in steps], axis=1)


def pack_rows(x, packing) -> Tensor:
    """The live rows of a padded (B, L, n) tensor in the packing's order: (N, n)."""
    x = _as_tensor(x)
    batch, length, width = x.shape
    return ad.take_rows(ad.reshape(x, (batch * length, width)), packing.flat)


def packed_lstm(x, weight, bias, mask, reverse: bool = False) -> Tensor:
    """One direction of ``autodiff.lstm`` under the oracle's padded contract.

    x (B, L, n) is packed by its mask and run through both directions with
    the same (W, b); the chosen direction's columns, [:h] forward or [h:]
    backward, are unpacked to (B, L, h) with zeros at padding, so both take
    and return the same arrays. The other direction's output is dropped, so
    its share of every gradient is exactly zero."""
    packing = ad.Packing(mask)
    h = weight.shape[0] // 4
    both = ad.lstm([pack_rows(x, packing)], packing, (weight, bias), (weight, bias))
    lo = h if reverse else 0
    return ad.unpack(ad.slice_axis(both, 1, lo, lo + h), packing)


def unrolled_lstm(x, weight, bias, mask, reverse: bool = False) -> Tensor:
    """One LSTM direction: (B, L, n) -> (B, L, h), zeros at padding."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    mask = np.asarray(mask, dtype=np.float64)
    hidden = weight.shape[0] // 4
    steps = _time_steps(x, x.shape[1])
    return _stack(_lstm_direction(steps, weight, _as_tensor(bias), mask, hidden,
                                  reverse), hidden)


def unrolled_bilstm(inputs, layer_params, mask, hidden_size: int) -> Tensor:
    """``model.bilstm`` without dropout, on padded rows: (B, L, in) -> (B, L, 2h)."""
    mask = np.asarray(mask, dtype=np.float64)
    steps = _time_steps(_as_tensor(inputs), mask.shape[1])
    for layer in layer_params:
        fwd = _lstm_direction(steps, _as_tensor(layer["fwd"][0]),
                              _as_tensor(layer["fwd"][1]), mask, hidden_size, False)
        bwd = _lstm_direction(steps, _as_tensor(layer["bwd"][0]),
                              _as_tensor(layer["bwd"][1]), mask, hidden_size, True)
        steps = [ad.concat([f, b], axis=1) for f, b in zip(fwd, bwd)]
    return _stack(steps, 2 * hidden_size)
