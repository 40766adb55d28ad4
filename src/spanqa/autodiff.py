"""Dense float tensors with reverse-mode automatic differentiation.

A ``Graph`` is an append-only tape: every op pushes one node holding its
parents and a backward closure, so reverse iteration over node ids is already
a topological order. The tape records only gradient paths: trainable leaves
and ops with at least one input on it. A Tensor detached from any graph is a
constant that no op mutates or binds to a graph: ops on constants alone
compute forward results only, which keeps inference and finite-difference
probes cheap, and an op mixing constants with graph tensors records each of
them as parent None. So one constant may feed any number of graphs.

Tensors hold float32 or float64 data; anything else is converted to float64.
Every op computes in its inputs' dtype, and every buffer it allocates (state,
masks, zero gradients) follows that dtype, so a graph built from float32
leaves stays float32 end to end, forward and backward. Training and
prediction use that for speed; gradient checks stay in float64.

``add`` and ``mul`` broadcast as numpy does, and shapes that do not
broadcast raise ``DimensionError`` naming both. Backward sums an operand's
gradient over every axis along which broadcasting repeated it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Graph",
    "Tensor",
    "DimensionError",
    "DegenerateMaskError",
    "LabelError",
    "ConfigError",
    "GraphSpentError",
    "matmul",
    "bmm",
    "add",
    "mul",
    "tanh",
    "sigmoid",
    "relu",
    "concat",
    "slice_axis",
    "reshape",
    "transpose",
    "reduce_sum",
    "reduce_max",
    "add_bias",
    "expand_batch",
    "repeat_axis",
    "take_rows",
    "Packing",
    "unpack",
    "linear",
    "masked_softmax",
    "cross_entropy",
    "dropout",
    "Dropped",
    "lstm",
    "bidaf",
    "grad_check",
]

GRADCHECK_STEP = 1e-5       # grad_check's central-difference step
_DROPOUT_LEVELS = 1 << 16   # dropout draws uint16 bits


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class DegenerateMaskError(ValueError):
    """A mask row leaves no position unmasked."""


class LabelError(ValueError):
    """A gold label index is masked or out of range."""


class ConfigError(ValueError):
    """An op was configured with an invalid hyperparameter."""


class GraphSpentError(RuntimeError):
    """backward ran twice on one Graph; the first run freed what it saved."""


class _Node:
    __slots__ = ("op", "parents", "out", "backward")

    def __init__(self, op, parents, out, backward):
        self.op = op
        self.parents = parents
        self.out = out
        self.backward = backward


class Graph:
    """Append-only computation tape. One instance per forward/backward pass."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._spent = False

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, data) -> "Tensor":
        """A trainable leaf on this graph: backward returns its gradient. A
        constant is a plain array or a detached ``Tensor``, never a leaf."""
        arr = _as_array(data)
        return Tensor(arr, graph=self, node_id=self._push("leaf", (), arr, None))

    def _push(self, op, parents, out, backward) -> int:
        self._nodes.append(_Node(op, parents, out, backward))
        return len(self._nodes) - 1

    def first_nonfinite(self):
        """(node_id, op) of the first node with a NaN/Inf output, or None.
        Raises GraphSpentError after backward, which drops the outputs."""
        if self._spent:
            raise GraphSpentError("backward dropped this graph's node outputs")
        for i, node in enumerate(self._nodes):
            if not np.all(np.isfinite(node.out)):
                return i, node.op
        return None

    def backward(self, root: "Tensor") -> dict[int, np.ndarray]:
        """Reverse-accumulate gradients of a scalar root.

        Returns {node_id: gradient} holding every leaf, with zeros for a leaf
        that no path connects to the root. As soon as an op node's backward
        has run, its gradient, its backward closure (with the buffers it
        saved) and its output are dropped, so at most one frontier of
        gradients is alive at a time and the tape shrinks as backward runs.
        Leaves keep their output, which shapes their zero gradients. A second
        call raises GraphSpentError.
        """
        if self._spent:
            raise GraphSpentError("backward already ran on this graph")
        if root.graph is not self:
            raise ValueError("root tensor does not belong to this graph")
        if root.data.shape != ():
            raise DimensionError(
                f"backward root must be scalar, got shape {root.data.shape}"
            )
        self._spent = True
        grads: dict[int, np.ndarray] = {root.node_id: np.ones((), root.data.dtype)}
        for nid in range(root.node_id, -1, -1):
            node = self._nodes[nid]
            backward, node.backward = node.backward, None
            if backward is None:
                continue
            node.out = None
            g = grads.pop(nid, None)
            if g is None:
                continue
            for pid, pg in zip(node.parents, backward(g)):
                if pid is None:
                    continue
                if pid in grads:
                    grads[pid] = grads[pid] + pg
                else:
                    grads[pid] = pg
        return {nid: grads[nid] if nid in grads else np.zeros_like(node.out)
                for nid, node in enumerate(self._nodes)
                if node.op == "leaf"}


class Tensor:
    """A float32 or float64 ndarray, optionally bound to a node of a Graph."""

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data, graph: Graph | None = None, node_id: int | None = None):
        self.data = _as_array(data)
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = "" if self.graph is None else f", node_id={self.node_id}"
        return f"Tensor(shape={self.shape}{tag})"


def _as_array(data) -> np.ndarray:
    """float32 data stays float32; anything else becomes float64."""
    arr = np.asarray(data)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _common_graph(tensors) -> Graph | None:
    graph = None
    for t in tensors:
        if t.graph is None:
            continue
        if graph is None:
            graph = t.graph
        elif graph is not t.graph:
            raise ValueError("operands belong to different graphs")
    return graph


def _apply(op, inputs, out, backward):
    """Record one op on the inputs' graph; a constant input is parent None."""
    graph = _common_graph(inputs)
    if graph is None:
        return Tensor(out)
    node_id = graph._push(op, tuple(t.node_id for t in inputs), out, backward)
    return Tensor(out, graph=graph, node_id=node_id)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _product(op, a, b, ndim: int) -> Tensor:
    """a @ b over operands of `ndim` axes whose leading axes match."""
    a, b = _lift(a), _lift(b)
    if (a.ndim != ndim or b.ndim != ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        return g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g

    return _apply(op, (a, b), ad @ bd, backward)


def matmul(a, b) -> Tensor:
    """Matrix product of 2-D tensors: (m,k) @ (k,n) -> (m,n)."""
    return _product("matmul", a, b, 2)


def bmm(a, b) -> Tensor:
    """Batched matrix product: (B,m,k) @ (B,k,n) -> (B,m,n)."""
    return _product("bmm", a, b, 3)


def _reduce_to(g, shape):
    """Sum a broadcast result's gradient over the axes that broadcasting added
    in front of an operand of `shape` or repeated from its size-1 axes."""
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape) if axes else g


# Backward closures capture arrays and shapes, never Tensors: a Tensor points
# at its Graph, so capturing one would make every tape a reference cycle that
# only the cyclic garbage collector can free.


def _broadcasting(op, a, b, forward, local_grads) -> Tensor:
    """A binary op under numpy broadcasting. `local_grads(g, x, y)` gives both
    operands' gradients in the result's shape; backward sums each one back to
    its operand's shape."""
    a, b = _lift(a), _lift(b)
    try:
        out = forward(a.data, b.data)
    except ValueError:
        raise DimensionError(
            f"{op}: incompatible shapes {a.shape} and {b.shape}") from None
    ad, bd = a.data, b.data

    def backward(g):
        ga, gb = local_grads(g, ad, bd)
        return _reduce_to(ga, ad.shape), _reduce_to(gb, bd.shape)

    return _apply(op, (a, b), out, backward)


def add(a, b) -> Tensor:
    return _broadcasting("add", a, b, np.add, lambda g, x, y: (g, g))


def mul(a, b) -> Tensor:
    return _broadcasting("mul", a, b, np.multiply, lambda g, x, y: (g * y, g * x))


def _elementwise(op, x, forward, local_grad) -> Tensor:
    """A unary elementwise op. `local_grad(g, x, out)` gives the input's
    gradient from the result's gradient g."""
    x = _lift(x)
    xd = x.data
    out = forward(xd)

    def backward(g):
        return (local_grad(g, xd, out),)

    return _apply(op, (x,), out, backward)


# No model code calls tanh or sigmoid: tests/lstm_oracle.py builds on them,
# and perfbench reports both by name.
def tanh(x) -> Tensor:
    return _elementwise("tanh", x, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def sigmoid(x) -> Tensor:
    """1 / (1 + exp(-x)), from exp(-|x|) so that no exp overflows."""
    def forward(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    return _elementwise("sigmoid", x, forward, lambda g, x, y: g * y * (1.0 - y))


def relu(x) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is 0."""
    return _elementwise("relu", x, lambda x: np.maximum(x, 0.0),
                        lambda g, x, y: g * (x > 0))


def concat(tensors, axis: int) -> Tensor:
    """Concatenate along an axis; backward slices the gradient back apart."""
    tensors = [_lift(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise DimensionError(
            f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}") from None
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _apply("concat", tuple(tensors), out, backward)


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    x = _lift(x)
    if not (0 <= start < stop <= x.shape[axis]):
        raise DimensionError(
            f"slice_axis: range [{start}, {stop}) invalid for shape {x.shape} axis {axis}")
    index = tuple(slice(None) if i != axis else slice(start, stop)
                  for i in range(x.ndim))
    out = x.data[index].copy()
    full_shape, dtype = x.shape, x.data.dtype

    def backward(g):
        gx = np.zeros(full_shape, dtype)
        gx[index] = g
        return (gx,)

    return _apply("slice", (x,), out, backward)


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise DimensionError(f"reshape: cannot view {x.shape} as {shape}")
    out = x.data.reshape(shape)
    old = x.shape

    def backward(g):
        return (g.reshape(old),)

    return _apply("reshape", (x,), out, backward)


def transpose(x) -> Tensor:
    """Swap the last two axes: (..., m, n) -> (..., n, m)."""
    x = _lift(x)
    if x.ndim < 2:
        raise DimensionError(f"transpose: need >= 2 axes, got shape {x.shape}")
    out = np.swapaxes(x.data, -1, -2).copy()

    def backward(g):
        return (np.swapaxes(g, -1, -2),)

    return _apply("transpose", (x,), out, backward)


def reduce_sum(x) -> Tensor:
    """Sum of all elements -> scalar."""
    x = _lift(x)
    out = np.array(x.data.sum())
    shape, dtype = x.shape, x.data.dtype

    def backward(g):
        return (np.full(shape, g, dtype),)

    return _apply("sum", (x,), out, backward)


def reduce_max(x, axis: int) -> Tensor:
    """Max along one axis; the subgradient routes to the first argmax."""
    x = _lift(x)
    out = x.data.max(axis=axis)
    idx = np.expand_dims(x.data.argmax(axis=axis), axis)
    shape, dtype = x.shape, x.data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis)
        return (gx,)

    return _apply("max", (x,), out, backward)


# No model code calls add_bias, expand_batch or repeat_axis; perfbench reports
# all three by name, and tests/lstm_oracle.py builds on add_bias.
def add_bias(x, b) -> Tensor:
    """x (..., n) + b (n,), broadcasting b over all leading axes."""
    x, b = _lift(x), _lift(b)
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"add_bias: incompatible shapes {x.shape} and {b.shape}")
    return _broadcasting("add_bias", x, b, np.add, lambda g, x, y: (g, g))


def _broadcast_to(op, x, shape) -> Tensor:
    """x copied out to a shape it broadcasts to; backward sums it back."""
    out = np.broadcast_to(x.data, shape).copy()
    old = x.shape

    def backward(g):
        return (_reduce_to(g, old),)

    return _apply(op, (x,), out, backward)


def expand_batch(x, batch: int) -> Tensor:
    """Tile x to a leading batch axis: shape S -> (batch,) + S."""
    x = _lift(x)
    return _broadcast_to("expand_batch", x, (batch,) + x.shape)


def repeat_axis(x, axis: int, count: int) -> Tensor:
    """Repeat a size-1 axis `count` times."""
    x = _lift(x)
    if x.shape[axis] != 1:
        raise DimensionError(
            f"repeat_axis: axis {axis} of shape {x.shape} must have size 1")
    shape = list(x.shape)
    shape[axis] = count
    return _broadcast_to("repeat_axis", x, tuple(shape))


def take_rows(x, index) -> Tensor:
    """Gather rows along the leading axis: x[index]; an index may repeat.

    Backward sums the gradients of each row's copies into zeros of x's
    shape: one stable sort by row, then one `np.add.reduceat` (`np.add.at`
    is several times slower), so a row taken several times receives the
    sum of its copies' gradients and an untaken row gets zeros.
    """
    x = _lift(x)
    index = np.asarray(index)
    if x.ndim == 0 or index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
        raise DimensionError(
            f"take_rows: need a 1-D integer index into rows of x, got "
            f"{index.dtype} index of shape {index.shape} for x of shape {x.shape}")
    if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
        raise DimensionError(
            f"take_rows: index out of range [0, {x.shape[0]}) for shape {x.shape}")
    out = x.data[index]
    shape, dtype = x.shape, x.data.dtype

    def backward(g):
        gx = np.zeros(shape, dtype)
        order = np.argsort(index, kind="stable")
        taken, starts = np.unique(index[order], return_index=True)
        gx[taken] = np.add.reduceat(g[order], starts, axis=0)
        return (gx,)

    return _apply("take_rows", (x,), out, backward)


def _mask_array(mask, shape) -> np.ndarray:
    """The mask as float64, broadcast to the data's shape as a read-only view."""
    m = np.asarray(mask, dtype=np.float64)
    try:
        return np.broadcast_to(m, shape)
    except ValueError:
        raise DimensionError(
            f"mask shape {m.shape} does not broadcast to data shape {shape}") from None


def _softmax(logits, keep):
    """Softmax over the last axis restricted to the `keep` positions, which
    come out exactly 0; stable via the row max over the kept entries."""
    neg = np.where(keep, logits, -np.inf)
    exps = np.exp(neg - neg.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def _softmax_grad(p, g):
    """The logits' gradient of a softmax p over the last axis from p's gradient g."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def masked_softmax(logits, mask) -> Tensor:
    """Row softmax over the last axis restricted to mask==1 positions.

    The mask may have any shape that broadcasts to the logits'. Masked
    positions come out exactly 0; each row of unmasked probabilities sums
    to 1. Stable via per-row max subtraction over the unmasked entries.
    """
    logits = _lift(logits)
    keep = _mask_array(mask, logits.shape) > 0
    if not keep.any(axis=-1).all():
        raise DegenerateMaskError("masked_softmax: a row is fully masked")
    out = _softmax(logits.data, keep)

    def backward(g):
        return (_softmax_grad(out, g),)

    return _apply("masked_softmax", (logits,), out, backward)


def cross_entropy(logits, gold, mask) -> Tensor:
    """Mean over rows of -ln softmax(logits)[b, gold_b], the softmax over the
    mask==1 positions: each row's max-shifted log-sum-exp minus its gold logit.
    Backward is (softmax - onehot) * g / B, exactly 0 at masked positions.
    logits (B, L); gold (B,) integer indices must land on mask==1 positions.
    """
    logits = _lift(logits)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy: expected 2-D logits, got {logits.shape}")
    batch, length = logits.shape
    gold = np.asarray(gold, dtype=np.int64)
    if gold.shape != (batch,):
        raise LabelError(f"cross_entropy: gold shape {gold.shape} != ({batch},)")
    if (gold < 0).any() or (gold >= length).any():
        raise LabelError(f"cross_entropy: gold index out of range for L={length}")
    m = _mask_array(mask, logits.shape)
    rows = np.arange(batch)
    if (m[rows, gold] <= 0).any():
        bad = int(rows[m[rows, gold] <= 0][0])
        raise LabelError(f"cross_entropy: gold index {int(gold[bad])} is masked in row {bad}")
    neg = np.where(m > 0, logits.data, -np.inf)
    shifted = neg - neg.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    out = np.array((np.log(sums[:, 0]) - shifted[rows, gold]).mean())

    def backward(g):
        scale = float(g) / batch
        gz = exps * (scale / sums)
        gz[rows, gold] -= scale
        return (gz,)

    return _apply("cross_entropy", (logits,), out, backward)


def _dropout_mask(data, rate: float, seed: int):
    """(keep, scale) of dropout(x, rate, seed) for x's data, or None at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    threshold = min(round(rate * _DROPOUT_LEVELS), _DROPOUT_LEVELS - 1)
    words = np.random.PCG64(seed).random_raw(-(-data.size // 4))
    keep = words.view(np.uint16)[:data.size].reshape(data.shape) >= threshold
    return keep, data.dtype.type(_DROPOUT_LEVELS / (_DROPOUT_LEVELS - threshold))


def _drop(a, mask, in_place=False):
    """a * keep * scale for a (keep, scale) mask; a itself when mask is None."""
    if mask is None:
        return a
    out = np.multiply(a, mask[0], out=a if in_place else None)
    out *= mask[1]
    return out


def dropout(x, rate: float, seed: int) -> Tensor:
    """Inverted dropout: zero each element with probability ~`rate`, scale survivors.

    The mask compares uniform 16-bit integers, the raw 64-bit words of a
    PCG64 stream seeded with `seed` cut in four, with the threshold
    t = round(rate * 65536), so `rate` acts at a resolution of 1/65536: an
    element is dropped with probability t / 65536, and survivors are scaled
    by 65536 / (65536 - t), which keeps the expected output equal to x for
    that probability. Identity at rate == 0, which is how inference turns
    dropout off; a fixed seed fixes the mask.
    """
    x = _lift(x)
    mask = _dropout_mask(x.data, rate, seed)
    if mask is None:
        return x

    def backward(g):
        return (_drop(g, mask),)

    return _apply("dropout", (x,), _drop(x.data, mask), backward)


class Dropped(NamedTuple):
    """A row block that enters `linear` or `lstm` as dropout(x, rate, seed)
    would give it, bit for bit, with only the boolean mask on the tape."""
    x: object
    rate: float
    seed: int


class Packing:
    """The packed-sequence layout of cuDNN RNNs for a (B, L) prefix mask,
    built once per mask and shared by every op over its rows.

    Each mask row must be a run of 1s followed by 0s; `mask` keeps it as
    bool. Sorted by length, longest first (stable), the sequences still
    running at step s are a prefix [:k_s] of the rows, so the
    N = sum(lengths) live positions pack step-major into one (N, .) block.
    `index` is the (row, position) of each packed row and `flat` its
    row * L + position, so `take_rows` of a (B*L, .) view packs a padded
    tensor; `counts` is the k_s of every step with a live row, and `prev`
    the packed index of the same sequence's previous step for each row after
    the first k_0. A reverse pass fills the same (step, rank) slots from
    position l-1-s, the packed rows `reverse`, and shares `counts` and `prev`.
    """

    def __init__(self, mask):
        given = np.asarray(mask)
        if given.ndim != 2:
            raise DimensionError(f"packing: mask must be (B, L), got shape {given.shape}")
        length = given.shape[1]
        lengths = np.count_nonzero(given, axis=1)
        m = np.arange(length) < lengths[:, None]
        if not np.array_equal(given, m):
            raise DimensionError(
                "packing: every mask row must be a run of 1s followed by 0s")
        order = np.argsort(-lengths, kind="stable")
        step, rank = np.nonzero(m[order].T)
        counts = np.bincount(step, minlength=length)
        start = np.cumsum(counts) - counts
        later = step > 0
        self.mask, self.shape, self.size = m, m.shape, len(step)
        self.index = (order[rank], step)
        self.flat = order[rank] * length + step
        self.counts = counts[counts > 0].tolist()
        self.prev = start[step[later] - 1] + rank[later]
        self.reverse = start[lengths[order][rank] - 1 - step] + rank


def unpack(x, packing: Packing) -> Tensor:
    """Packed rows (N, ...) back to (B, L, ...), with zeros at padding."""
    x = _lift(x)
    if x.ndim == 0 or x.shape[0] != packing.size:
        raise DimensionError(f"unpack: shape {x.shape} does not match {packing.size} rows")
    index = packing.index

    def backward(g):
        return (g[index],)

    return _apply("unpack", (x,), _padded(x.data, packing), backward)


def _padded(x, packing: Packing):
    """Packed rows x (N, ...) as a (B, L, ...) array, zeros at padding."""
    out = np.zeros(packing.shape + x.shape[1:], x.dtype)
    out[packing.index] = x
    return out


# Rows per chunk of `_rows_times` and `_gather_rows`: their temporaries are
# at most this many rows, however many rows the result has.
_CHUNK_ROWS = 512


def _rows_times(out, xs, w_ts, masks=None, to=None):
    """out[to] = x_1 @ w_t_1 + x_2 @ w_t_2 + ..., summed in that order, and
    out returned; `to` permutes the rows (None keeps their order). It runs
    _CHUNK_ROWS rows at a time, so neither a concatenation, nor a dropped
    whole block, nor a whole product is built: each chunk of each x_i is
    dropped by its (keep, scale) mask when it has one, multiplied, and added
    into that chunk's rows of `out`."""
    masks = masks or [None] * len(xs)
    for lo in range(0, len(out), _CHUNK_ROWS):
        take = slice(lo, lo + _CHUNK_ROWS)
        parts = (x[take] if m is None else _drop(x[take], (m[0][take], m[1]))
                 for x, m in zip(xs, masks))
        chunk = np.matmul(next(parts), w_ts[0], out=out[take] if to is None else None)
        for part, w_t in zip(parts, w_ts[1:]):
            chunk += part @ w_t
        if to is not None:
            out[to[take]] = chunk
    return out


def _gather_rows(out, x, rows):
    """out[:] = x[rows], _CHUNK_ROWS rows at a time, into a view `out` that
    may be strided: a single fancy-index copy, or `np.take` into a strided
    view, would buffer the whole result first."""
    for lo in range(0, len(out), _CHUNK_ROWS):
        out[lo:lo + _CHUNK_ROWS] = x[rows[lo:lo + _CHUNK_ROWS]]


def _row_blocks(xs, width: int, op: str):
    """Row blocks (N, n_i) as Tensors, each block's dropout mask (None but
    for a `Dropped` block), and its column span in a weight of `width` =
    sum(n_i) columns."""
    blocks = [x if isinstance(x, Dropped) else Dropped(x, 0.0, 0) for x in xs]
    xs = [_lift(x) for x, _, _ in blocks]
    bounds = np.cumsum([0] + [x.shape[-1] for x in xs]).tolist()
    if not xs or bounds[-1] != width or {x.shape[:-1] for x in xs} != {xs[0].shape[:1]}:
        raise DimensionError(f"{op}: row blocks {[x.shape for x in xs]} do not "
                             f"make {width} input columns")
    masks = [_dropout_mask(x.data, rate, seed) for x, (_, rate, seed) in zip(xs, blocks)]
    return xs, masks, list(zip(bounds, bounds[1:]))


def linear(xs, W, b) -> Tensor:
    """[x_1 | x_2 | ...] @ W^T + b over row blocks (N, n_i) whose widths sum
    to W's columns: each block meets its own column slice of W, a chunk of
    rows at a time. A block may come `Dropped`; only a chunk of it is ever
    dropped at once."""
    W, b = _lift(W), _lift(b)
    if W.ndim != 2 or b.shape != W.shape[:1]:
        raise DimensionError(f"linear: incompatible W {W.shape} and b {b.shape}")
    xs, masks, spans = _row_blocks(xs, W.shape[1], "linear")
    wd, datas = W.data, [x.data for x in xs]
    out = np.empty((len(datas[0]), wd.shape[0]), np.result_type(wd, *datas))
    _rows_times(out, datas, [wd[:, lo:hi].T for lo, hi in spans], masks)
    out += b.data

    def backward(g):
        # dW first, so that no rebuilt dropped block is alive beside dX
        dw = _weight_grad(g.T, datas, masks, spans, np.empty(wd.shape, g.dtype))
        dxs = [_drop(g @ wd[:, lo:hi], m, in_place=True)
               for (lo, hi), m in zip(spans, masks)]
        return (*dxs, dw, g.sum(axis=0))

    return _apply("linear", (*xs, W, b), out, backward)


def _lstm_direction(datas, masks, spans, W, b, packing: Packing, reverse: bool,
                    out, taped: bool):
    """One direction of `lstm` over the packed rows: writes its h into the
    (N, h) view `out` (the forward direction step by step, in place) and
    returns what backward needs besides that h, or None when untaped, so the
    direction's gate and state buffers are freed before the next direction's."""
    rows, h = packing.size, out.shape[1]
    n, dtype = W.shape[1] - h, out.dtype
    # sigmoid(z) = (1 + tanh(z / 2)) / 2, stable for any z. Halving the i|f|o
    # rows of the forward weights and bias is exact, so one tanh over a whole
    # block gives tanh(z / 2) for i, f, o and tanh(z) for g.
    half = np.where(np.arange(4 * h) < 3 * h, 0.5, 1.0).astype(dtype)
    # Pre-activations of every live position, built chunk by chunk in the
    # direction's step order (a reverse direction scatters each chunk's rows
    # by `packing.reverse`, its own inverse); the loop turns each step's
    # contiguous block into its gate activations in place. The recurrent
    # weight is copied contiguous: strided operands make the small per-step
    # ops slower.
    w_t = W.data[:, :n].T * half
    gates = _rows_times(np.empty((rows, 4 * h), dtype), datas,
                        [w_t[lo:hi] for lo, hi in spans], masks,
                        packing.reverse if reverse else None)
    gates += b.data * half
    w_h_t = np.ascontiguousarray(W.data[:, n:].T * half)
    hs = np.empty((rows, h), dtype) if reverse else out
    cs = np.empty((rows, h), dtype)
    lo = before = 0
    for k in packing.counts:
        hi = lo + k
        z = gates[lo:hi]
        if lo:
            z += hs[before:before + k] @ w_h_t
        np.tanh(z, out=z)
        sig = z[:, :3 * h]
        sig += 1.0
        sig *= 0.5
        c = np.multiply(z[:, :h], z[:, 3 * h:], out=cs[lo:hi])
        if lo:
            c += z[:, h:2 * h] * cs[before:before + k]
        np.multiply(z[:, 2 * h:3 * h], np.tanh(c), out=hs[lo:hi])
        before, lo = lo, hi
    if reverse:
        out[packing.reverse] = hs
    return [gates, cs] if taped else None


def _lstm_dz(dz, g_h, w_h, gates, cs, packing: Packing, reverse: bool):
    """BPTT over one direction: writes dz, the gradient of the
    pre-activations, into the (N, 4h) buffer `dz` in the direction's step
    order, from g_h, the (N, h) gradient of its h in packing order, the
    recurrent weight W_h and the saved gates and c; tanh c is recomputed."""
    rows, h = cs.shape
    first = rows - len(packing.prev)
    i, f, o, cand = (gates[:, k * h:(k + 1) * h] for k in range(4))
    c_prev = np.zeros_like(cs)
    np.take(cs, packing.prev, axis=0, out=c_prev[first:])
    tanh_c = np.tanh(cs)
    # the gate derivatives; the loop scales step s's block by [dc, dc, dh, dc]
    dz[:, :h] = cand * i * (1.0 - i)
    dz[:, h:2 * h] = c_prev * f * (1.0 - f)
    dz[:, 2 * h:3 * h] = tanh_c * o * (1.0 - o)
    dz[:, 3 * h:] = i * (1.0 - cand * cand)
    dc_dh = o * (1.0 - tanh_c * tanh_c)
    del c_prev, tanh_c
    dhs = g_h[packing.reverse] if reverse else g_h.copy()
    # The k_{s+1} sequences of the later step pass dh and dc back to the
    # first k_{s+1} rows of step s; the others end at step s.
    dh_next = dc_next = np.zeros((0, h), cs.dtype)
    hi = rows
    for k in reversed(packing.counts):
        lo = hi - k
        dh = dhs[lo:hi]
        dh[:len(dh_next)] += dh_next
        dc = dh * dc_dh[lo:hi]
        dc[:len(dc_next)] += dc_next
        dz_t = dz[lo:hi]
        dz_t *= np.concatenate((dc, dc, dh, dc), axis=1)
        dh_next = dz_t @ w_h
        dc_next = dc * f[lo:hi]
        hi = lo


def _weight_grad(g_t, datas, masks, spans, dw):
    """g_t @ [x_1 | x_2 | ...] written into the column blocks of dw, each
    dropped block rebuilt only for its own GEMM."""
    for x, m, (lo, hi) in zip(datas, masks, spans):
        np.matmul(g_t, _drop(x, m), out=dw[:, lo:hi])
    return dw


def lstm(xs, packing: Packing, fwd, bwd) -> Tensor:
    """A bidirectional LSTM layer over packed rows: (N, n) -> (N, 2h).

    `xs` holds the input [x_1 | x_2 | ...] as row blocks in the layout of
    `packing`, any of them `Dropped`; each block meets its own column slice
    of W, so no concatenation is built. `fwd` and `bwd` are (W (4h, n+h),
    b (4h,)) pairs giving the gates in i|f|o|g order from [x_t ; h_prev] @
    W^T + b. Columns [:h] of the result hold the forward direction's h and
    [h:] the backward one's; a sequence runs from the zero state over its
    own positions, or back from its last token. The input projection runs
    up front into one (N, 4h) pre-activation buffer per direction, in that
    direction's step order, a chunk of rows at a time (`_rows_times`): each
    chunk of each block is dropped and multiplied on its own, and the
    backward direction scatters each chunk's sum to its step slots, so no
    whole product, no reordered copy and no dropped copy of a block is
    built. Only
    h_prev[:k_s] @ W_h^T runs in the time loop, tanh c is a per-step
    temporary, and the layer is one tape node.

    When some input is on a graph, the tape keeps each direction's gates and
    c, five (N, h) blocks; otherwise they are freed before the next
    direction starts. Backward is one BPTT sweep per direction, computing
    only dz and dz @ W_h per step. A direction's gates and c are freed as
    soon as its dz is done; db and dW_h follow (h_prev is read from the
    result), and its dz moves into one (N, 8h) buffer [dz_fwd | dz_bwd] in
    packing order.
    Then dW of each input block is one GEMM over both directions, with the
    block's dropout rebuilt for it alone, and dX = dz_fwd @ W_fwd^T +
    dz_bwd @ W_bwd^T for each block on a graph, summed into dX by the same
    chunked helper, so neither product exists whole beside dX.
    """
    runs = [(reverse, _lift(W), _lift(b)) for reverse, (W, b) in ((False, fwd), (True, bwd))]
    h = runs[0][1].shape[0] // 4
    n = runs[0][1].shape[-1] - h
    xs, masks, spans = _row_blocks(xs, n, "lstm")
    for _, W, b in runs:
        if h < 1 or W.shape != (4 * h, n + h) or b.shape != (4 * h,):
            raise DimensionError(
                f"lstm: input width {n} needs W (4h, {n}+h) and b (4h,), "
                f"got W {W.shape} and b {b.shape}")
    if xs[0].shape[0] != packing.size:
        raise DimensionError(f"lstm: {xs[0].shape[0]} rows for a {packing.size}-row packing")
    inputs = (*xs, *(t for _, W, b in runs for t in (W, b)))
    taped = _common_graph(inputs) is not None
    rows, prev = packing.size, packing.prev
    first = rows - len(prev)
    datas, dtype = [x.data for x in xs], xs[0].data.dtype
    out = np.empty((rows, 2 * h), dtype)
    saved = [_lstm_direction(datas, masks, spans, W, b, packing, reverse,
                             out[:, col * h:(col + 1) * h], taped)
             for col, (reverse, W, b) in enumerate(runs)]
    if not taped:
        return Tensor(out)
    needs = [x.graph is not None for x in xs]
    weights = [W.data for _, W, _ in runs]

    def backward(g):
        dz_both = dw = None
        dbs = []
        for col, reverse in enumerate((False, True)):
            dz = np.empty_like(saved[col][0])
            _lstm_dz(dz, g[:, col * h:(col + 1) * h], weights[col][:, n:], *saved[col],
                     packing, reverse)
            saved[col] = None
            if dz_both is None:     # once the first direction's gates and c are gone
                dz_both = np.empty((rows, 8 * h), dz.dtype)
                dw = np.empty((8 * h, n + h), dz.dtype)
            h_prev = out[packing.reverse[prev] if reverse else prev, col * h:(col + 1) * h]
            dbs.append(dz.sum(axis=0))
            block = slice(col * 4 * h, (col + 1) * 4 * h)
            np.matmul(dz[first:].T, h_prev, out=dw[block, n:])
            dz_both[packing.reverse if reverse else slice(None), block] = dz
            del dz, h_prev
        _weight_grad(dz_both.T, datas, masks, spans, dw)
        dxs = []
        for (lo, hi), m, need in zip(spans, masks, needs):
            dx = None
            if need:
                dx = _rows_times(np.empty((rows, hi - lo), dz_both.dtype),
                                 [dz_both[:, :4 * h], dz_both[:, 4 * h:]],
                                 [w[:, lo:hi] for w in weights])
                _drop(dx, m, in_place=True)
            dxs.append(dx)
        return (*dxs, dw[:4 * h], dbs[0], dw[4 * h:], dbs[1])

    return _apply("lstm", inputs, out, backward)


def bidaf(context, question, w_sim, context_packing: Packing,
          question_packing: Packing) -> Tensor:
    """Bidirectional attention (Seo et al., arXiv 1611.01603) over packed
    rows: context c (N, 2h) and question q (Nq, 2h) -> G (N, 8h).

    With w_sim = [w_c ; w_q ; w_m], the similarity of context position i and
    question position j is S[i, j] = w_c.c_i + w_q.q_j + c_i.(w_m*q_j), one
    (B, Lc, Lq) bmm of the zero-padded c and the small (q*w_m)^T, so no
    (Lc*Lq x 6h) feature tensor and no (B, Lc, 2h) product is built.
    Context-to-question: u~_i = softmax_j(S[i, j]) q_j over the live question
    positions. Question-to-context: the row maxima of S over those positions,
    softmaxed over the live context positions, weight one summary h~ of the
    context per example. Each row of G is [c_i ; u~_i ; c_i*u~_i ; c_i*h~]
    for the live context positions, in the context packing's row order,
    written straight into G: beside it, at most one padded (B, Lc, 2h)
    block is alive at a time (c, then u~ in the same buffer).

    The op is one tape node. It saves the two softmaxes and the row-max
    argmax, and its hand-written backward reads c and q from its inputs.
    An empty context or question row raises DegenerateMaskError.
    """
    c, q, w = _lift(context), _lift(question), _lift(w_sim)
    d = c.shape[1] if c.ndim == 2 else -1
    if (c.ndim != 2 or q.ndim != 2 or q.shape[1] != d or w.shape != (3 * d,)
            or c.shape[0] != context_packing.size or q.shape[0] != question_packing.size
            or context_packing.shape[0] != question_packing.shape[0]):
        raise DimensionError(
            f"bidaf: context {c.shape}, question {q.shape} and w_sim {w.shape} do not "
            f"match {context_packing.size} and {question_packing.size} packed rows "
            f"of width 2h, and w_sim (3*2h,)")
    c_live, q_live = context_packing.mask, question_packing.mask[:, None, :]
    if not (c_live.any(axis=1).all() and q_live.any(axis=2).all()):
        raise DegenerateMaskError("bidaf: a context or question row is empty")
    cd, qd, wd = c.data, q.data, w.data
    w_c, w_q, w_m = wd[:d], wd[d:2 * d], wd[2 * d:]
    flat, rows = context_packing.flat, context_packing.index[0]
    q_pad = _padded(qd, question_packing)                       # (B, Lq, 2h)
    c_pad = _padded(cd, context_packing)                        # (B, Lc, 2h)
    sim = c_pad @ np.swapaxes(q_pad * w_m, 1, 2)                # (B, Lc, Lq)
    sim += (q_pad @ w_q)[:, None, :]
    sim += _padded(cd @ w_c, context_packing)[:, :, None]
    sim = np.where(q_live, sim, -np.inf)
    best = sim.argmax(axis=2)                                   # (B, Lc)
    q2c = _softmax(sim.max(axis=2), c_live)
    h_tilde = (q2c[:, None, :] @ c_pad)[:, 0]                   # (B, 2h)
    c2q = _softmax(sim, q_live)
    del sim
    u_pad = np.matmul(c2q, q_pad, out=c_pad)                    # c's buffer
    out = np.empty((len(cd), 4 * d), np.result_type(cd, qd, wd))
    out[:, :d] = cd
    _gather_rows(out[:, d:2 * d], u_pad.reshape(-1, d), flat)
    del u_pad, c_pad
    np.multiply(cd, out[:, d:2 * d], out=out[:, 2 * d:3 * d])
    _gather_rows(out[:, 3 * d:], h_tilde, rows)
    out[:, 3 * d:] *= cd

    def backward(g):
        g_c, g_u, g_cu, g_ch = (g[:, k * d:(k + 1) * d] for k in range(4))
        c_pad, q_pad = _padded(cd, context_packing), _padded(qd, question_packing)
        h_tilde = (q2c[:, None, :] @ c_pad)[:, 0]
        u = (c2q @ q_pad).reshape(-1, d)[flat]
        # the direct gradient of c, and those of u~ (padded) and h~
        dc = g_c + g_cu * u + g_ch * h_tilde[rows]
        du = _padded(g_u + g_cu * cd, context_packing)
        dh = _padded(g_ch * cd, context_packing).sum(axis=1)
        # u~ = c2q @ q and h~ = q2c @ c, each through its softmax; the row
        # maximum S[b, i, best] takes the question-to-context part
        dq = np.swapaxes(c2q, 1, 2) @ du
        dsim = _softmax_grad(c2q, du @ np.swapaxes(q_pad, 1, 2))
        d_best = _softmax_grad(q2c, (c_pad @ dh[:, :, None])[:, :, 0])
        batch, lc = best.shape
        dsim[np.arange(batch)[:, None], np.arange(lc), best] += d_best
        dc += q2c.reshape(-1)[flat, None] * dh[rows]
        # S = w_c.c + w_q.q + c.(w_m*q)
        ds_c = dsim.sum(axis=2).reshape(-1)[flat]
        ds_q = dsim.sum(axis=1)[:, :, None]
        d_qw = np.swapaxes(dsim, 1, 2) @ c_pad
        dc += (dsim @ (q_pad * w_m)).reshape(-1, d)[flat]
        dc += ds_c[:, None] * w_c
        dq += d_qw * w_m + ds_q * w_q
        dw = np.concatenate([ds_c @ cd, (ds_q * q_pad).sum(axis=(0, 1)),
                             (d_qw * q_pad).sum(axis=(0, 1))])
        return dc, dq.reshape(-1, d)[question_packing.flat], dw

    return _apply("bidaf", (c, q, w), out, backward)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(f, x, coords: int | None = None, seed: int = 0) -> float:
    """Max relative error between backprop and central finite differences.

    `f` maps a Tensor to a scalar Tensor using ops from this module. Every
    coordinate of x is probed unless `coords` limits the check to a random
    sample. Relative error per coordinate: |a - n| / max(|a|, |n|, 1e-8),
    the smallest over the estimates n tried; a wrong backward disagrees
    with every one.

    Central differences at step GRADCHECK_STEP lose about |f| * 2**-52 /
    step to round-off: 2e-11 for a unit loss, or 2e-3 of a 1e-8 gradient.
    Where max(|a|, |n|) is under 1e4 times that, a Richardson estimate from
    steps 100 and 200 times wider is tried too. Where the error still
    exceeds 1e-6, a step ten times narrower is tried: a kink (relu, max)
    within one step of the probe skews the first estimate.
    """
    xd = _as_array(x).copy()
    graph = Graph()
    xt = graph.leaf(xd)
    out = f(xt)
    analytic = graph.backward(out)[xt.node_id].ravel()
    tiny = 1e4 * np.finfo(np.float64).eps * max(abs(out.item()), 1.0) / GRADCHECK_STEP

    flat_ids = np.arange(xd.size)
    if coords is not None and coords < xd.size:
        flat_ids = np.random.default_rng(seed).choice(xd.size, size=coords,
                                                      replace=False)
    flat = xd.ravel()

    def central(i, step):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(xd.copy())).item()
        flat[i] = orig - step
        lo = f(Tensor(xd.copy())).item()
        flat[i] = orig
        return (hi - lo) / (2.0 * step)

    def error(a, estimates):
        return min(abs(a - n) / max(abs(a), abs(n), 1e-8) for n in estimates)

    worst = 0.0
    for i in flat_ids:
        a = analytic[i]
        estimates = [central(i, GRADCHECK_STEP)]
        if max(abs(a), abs(estimates[0])) < tiny:
            estimates.append((4.0 * central(i, 100 * GRADCHECK_STEP)
                              - central(i, 200 * GRADCHECK_STEP)) / 3.0)
        if error(a, estimates) > 1e-6:
            estimates.append(central(i, GRADCHECK_STEP / 10))
        worst = max(worst, error(a, estimates))
    return worst
