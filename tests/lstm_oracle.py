"""Plain float64 numpy LSTM, kept as the value oracle for the packed
``autodiff.lstm``.

Each sequence runs alone over its own positions, one step at a time, with
the cell equations written out, so no mask, padding, packing or tape takes
part. The fused op's gradients are checked by central differences
(``ad.grad_check``) instead. The packing helpers below move a padded batch
into and out of the packed rows that the ops read and write.
"""

import numpy as np

from spanqa import autodiff as ad


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _direction(x, weight, bias):
    """One pass from the zero state over one sequence: (l, n) -> (l, h). The
    gates are i|f|o|g of [x_t ; h_prev] @ W^T + b, W (4h, n+h) and b (4h,)."""
    hidden = len(bias) // 4
    w_x, w_h = weight[:, :-hidden], weight[:, -hidden:]
    h, c = np.zeros(hidden), np.zeros(hidden)
    out = np.zeros((len(x), hidden))
    for t, z_x in enumerate(x @ w_x.T + bias):
        z = z_x + w_h @ h
        i, f, o = _sigmoid(z[:3 * hidden]).reshape(3, hidden)
        c = f * c + i * np.tanh(z[3 * hidden:])
        h = out[t] = o * np.tanh(c)
    return out


def bilstm_reference(x, mask, layers):
    """Stacked bidirectional layers, each a (W (8h, n+h), b (8h,)) pair as
    ``model.bilstm`` takes them, over a padded batch: (B, L, n) -> (B, L, 2h)
    with zeros at padding. The first 4h rows of W and b are the forward
    direction's and the last 4h the backward one's. Row b runs over its
    first sum(mask[b]) positions; the backward direction reads them last to
    first."""
    x = np.asarray(x, dtype=np.float64)
    lengths = np.count_nonzero(mask, axis=1)
    for weight, bias in layers:
        weight, bias = np.asarray(weight, np.float64), np.asarray(bias, np.float64)
        half = len(bias) // 2
        fwd, bwd = (weight[:half], bias[:half]), (weight[half:], bias[half:])
        out = np.zeros(x.shape[:2] + (half // 2,))
        for row, length in enumerate(lengths):
            seq = x[row, :length]
            out[row, :length] = np.concatenate(
                [_direction(seq, *fwd), _direction(seq[::-1], *bwd)[::-1]], axis=1)
        x = out
    return x


def flat_rows(x) -> np.ndarray:
    """A padded (B, L, n) array as its (B*L, n) rows, the input `pack_rows` reads."""
    return np.reshape(x, (-1, np.shape(x)[-1]))


def gather(x, index) -> ad.Tensor:
    """x[index] along the leading axis (x an array, a Tensor or a leaf), as
    a node on x's graph whose backward adds each copy's gradient into zeros
    of x's shape with `np.add.at`."""
    x = ad._lift(x)
    shape, dtype = x.shape, x.data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype)
        np.add.at(gx, index, g)
        return (gx,)

    return ad._apply("gather", (x,), x.data[index], backward)


def pack_rows(rows, packing) -> ad.Tensor:
    """The live rows of a padded batch, given as its (B*L, n) `flat_rows` (an
    array, a Tensor or a leaf), in the packing's order: (N, n)."""
    return gather(rows, packing.flat)


def with_block(t, full, block) -> ad.Tensor:
    """`full` (a stacked W or b, or stacked rows) with its leading-axis rows
    `block`, a slice, read from the Tensor t on t's graph, so a gradient
    check probes that block alone: one direction's rows of W, say."""
    keep = np.zeros(len(full))
    keep[block] = 1.0
    keep = keep.reshape((-1,) + (1,) * (full.ndim - 1))
    index = np.clip(np.arange(len(full)) - block.start, 0, block.stop - block.start - 1)
    return ad.add(full * (1.0 - keep), ad.mul(gather(t, index), keep))


def packed_logits(logits, mask):
    """Padded (B, L) logits as the packed (N, 1) rows the heads give, and
    the `Packing` of their prefix mask."""
    packing = ad.Packing(mask)
    return np.asarray(logits)[packing.index][:, None], packing


def padded(x, mask) -> np.ndarray:
    """Packed rows (N, ...), of a Tensor or an array, laid out (B, L, ...)
    by their mask, with zeros at padding, as the reference returns them."""
    return ad._padded(x.data if isinstance(x, ad.Tensor) else x, ad.Packing(mask))


def packed_bilstm(x, mask, weight, bias) -> ad.Tensor:
    """``ad.lstm`` on the reference's padded input, given as its (B*L, n)
    `flat_rows` x: x is packed by its mask, and the result stays packed,
    (N, 2h) in the mask's packing order; `padded` lays it out as the
    reference does."""
    packing = ad.Packing(mask)
    return ad.lstm([pack_rows(x, packing)], packing, weight, bias)
