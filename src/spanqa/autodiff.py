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
    "concat",
    "slice_axis",
    "reshape",
    "add_bias",
    "expand_batch",
    "repeat_axis",
    "Packing",
    "head",
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

    def backward(self, root: "Tensor", cotangent=None) -> dict[int, np.ndarray]:
        """Reverse-accumulate gradients of a scalar root, or of sum(cotangent *
        root) for a `cotangent` of the root's shape (DimensionError names both
        shapes otherwise), taken in the root's dtype; the graph never writes
        into it.

        Returns {node_id: gradient} holding every leaf, with zeros for a leaf
        that no path connects to the root. As soon as an op node's backward
        has run, its gradient, its backward closure (with the buffers it
        saved) and its output are dropped, so at most one frontier of
        gradients is alive at a time and the tape shrinks as backward runs.
        An op's backward receives the only reference to its gradient (the
        caller keeps a cotangent), so it may free it before it returns (from
        Python 3.11, whose calls take over their arguments; before, the
        caller's frame holds them).
        Leaves keep their output, which shapes their zero gradients. A second
        call raises GraphSpentError.

        A gradient of another shape than its parent's output, which a sum
        would broadcast, raises DimensionError naming the op and the node.
        A tensor's first gradient is kept as its op returned it, which may
        be a view or an array shared with another parent (`add` gives both
        the same one), and each later one is summed out of place, so the
        graph never writes into a gradient.
        """
        if self._spent:
            raise GraphSpentError("backward already ran on this graph")
        if root.graph is not self:
            raise ValueError("root tensor does not belong to this graph")
        if cotangent is None and root.data.shape != ():
            raise DimensionError(f"backward root must be scalar, got shape {root.data.shape}")
        seed = np.asarray(1.0 if cotangent is None else cotangent, root.data.dtype)
        if seed.shape != root.data.shape:
            raise DimensionError(f"backward: cotangent of shape {seed.shape} "
                                 f"for a root of shape {root.data.shape}")
        self._spent = True
        grads: dict[int, np.ndarray] = {root.node_id: seed}
        for nid in range(root.node_id, -1, -1):
            node = self._nodes[nid]
            backward, node.backward = node.backward, None
            if backward is None:
                continue
            node.out = None
            if nid not in grads:
                continue
            # no reference to the gradient is kept here (neither the argument
            # nor the loop's last pg), so an op may free it early
            for pid, pg in zip(node.parents, backward(grads.pop(nid))):
                if pid is None:
                    continue
                if pg.shape != self._nodes[pid].out.shape:
                    raise DimensionError(
                        f"backward: {node.op} node {nid} gave a {pg.shape} gradient "
                        f"for node {pid} of shape {self._nodes[pid].out.shape}")
                grads[pid] = grads[pid] + pg if pid in grads else pg
            pg = None
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


# No model code calls tanh or sigmoid; perfbench reports both by name.
def tanh(x) -> Tensor:
    return _elementwise("tanh", x, np.tanh, lambda g, x, y: g * (1.0 - y * y))


def sigmoid(x) -> Tensor:
    """1 / (1 + exp(-x)), from exp(-|x|) so that no exp overflows."""
    def forward(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    return _elementwise("sigmoid", x, forward, lambda g, x, y: g * y * (1.0 - y))


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


# No model code calls reshape; perfbench reports it by name.
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


# No model code calls add_bias, expand_batch or repeat_axis; perfbench reports
# all three by name.
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


def _shifted(logits, keep):
    """The logits less their row max over `keep` on the last axis; -inf off `keep`."""
    neg = np.where(keep, logits, -np.inf)
    return neg - neg.max(axis=-1, keepdims=True)


def _softmax(logits, keep):
    """Softmax over the last axis at the `keep` positions, exactly 0 off them."""
    exps = np.exp(_shifted(logits, keep))
    return exps / exps.sum(axis=-1, keepdims=True)


def _softmax_grad(p, g):
    """The logits' gradient of a softmax p over the last axis from p's gradient g."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def _padded_logits(op, logits, packing: Packing):
    """Packed (N, 1) logits, one per live position of `packing`, as (B, L)."""
    data = _lift(logits).data
    if data.shape != (packing.size, 1):
        raise DimensionError(f"{op}: logits {data.shape} do not match {packing.size} packed rows")
    return _padded(data[:, 0], packing)


def masked_softmax(logits, packing: Packing) -> np.ndarray:
    """Each row's softmax over its live positions, from the heads' packed
    (N, 1) logits, as a plain (B, L) array, exactly 0 at padding. Decoding
    reads it, and the loss takes its gradient through `cross_entropy`, so
    no tape records it. Stable via the row max over the live entries; a row
    with no live position raises DegenerateMaskError.
    """
    padded = _padded_logits("masked_softmax", logits, packing)
    if not packing.mask.any(axis=-1).all():
        raise DegenerateMaskError("masked_softmax: a row is fully masked")
    return _softmax(padded, packing.mask)


def cross_entropy(logits, golds, packing: Packing) -> Tensor:
    """Sum over the heads of the mean over rows b of -ln softmax(z)[b, gold_b],
    for each head's logits z and golds, each softmax over its row's live
    positions: the row's max-shifted log-sum-exp minus its gold logit. Each z
    comes packed (N, 1), as the heads give them, and is laid out (B, L)
    inside; gold_b must lie within row b's length. One node, whose backward
    gives each head (softmax - onehot) * g / B, packed back to (N, 1).
    """
    logits = [_lift(z) for z in logits]
    padded = np.stack([_padded_logits("cross_entropy", z, packing) for z in logits])
    keep, heads, rows = packing.mask, np.arange(len(logits))[:, None], np.arange(packing.shape[0])
    gold = np.asarray(golds, dtype=np.int64)
    if gold.shape != (len(logits), len(rows)):
        raise LabelError(f"cross_entropy: gold shape {gold.shape} != {(len(logits), len(rows))}")
    lengths = np.count_nonzero(keep, axis=1)
    bad = np.argwhere((gold < 0) | (gold >= lengths))
    if bad.size:
        h, b = bad[0]
        raise LabelError(f"cross_entropy: gold index {gold[h, b]} is outside row {b} "
                         f"of length {lengths[b]}")
    shifted = _shifted(padded, keep)
    exps = np.exp(shifted)
    sums = exps.sum(axis=-1, keepdims=True)
    out = np.array((np.log(sums[..., 0]) - shifted[heads, rows, gold]).mean(axis=1).sum())

    def backward(g):
        scale = float(g) / len(rows)
        gz = exps * (scale / sums)
        gz[heads, rows, gold] -= scale
        return [z[packing.index][:, None] for z in gz]

    return _apply("cross_entropy", logits, out, backward)


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
    """A row block that enters `head` or `lstm` as dropout(x, rate, seed)
    would give it, bit for bit. The op's tape node keeps only (rate, seed):
    its backward draws the block's boolean mask again."""
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
    row * L + position, so a (B*L, .) view's rows `flat` are the packed
    rows of a padded tensor; `counts` is the k_s of every step with a live
    row, and `prev` the packed index of the same sequence's previous step
    for each row after the first k_0. A reverse pass fills the same (step, rank) slots from
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


def _padded(x, packing: Packing):
    """Packed rows x (N, ...) as a (B, L, ...) array, zeros at padding."""
    out = np.zeros(packing.shape + x.shape[1:], x.dtype)
    out[packing.index] = x
    return out


# Rows per chunk of `_rows_times` and `_gather_rows`: their temporaries are
# at most this many rows, however many rows the result has.
_CHUNK_ROWS = 512


def _rows_times(out, xs, w_ts, masks, to=None):
    """out[to] = x_1 @ w_t_1 + x_2 @ w_t_2 + ..., summed in that order, and
    out returned; `to` permutes the rows (None keeps their order). It runs
    _CHUNK_ROWS rows at a time, so neither a concatenation, nor a dropped
    whole block, nor a whole product is built: each chunk of each x_i is
    dropped by its (keep, scale) mask when it has one, multiplied, and added
    into that chunk's rows of `out`."""
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
    """Row blocks (N, n_i) as Tensors, each block's dropout (rate, seed)
    (rate 0 but for a `Dropped` block), and its column span in a weight of
    `width` = sum(n_i) columns."""
    blocks = [x if isinstance(x, Dropped) else Dropped(x, 0.0, 0) for x in xs]
    xs = [_lift(x) for x, _, _ in blocks]
    bounds = np.cumsum([0] + [x.shape[-1] for x in xs]).tolist()
    if not xs or bounds[-1] != width or {x.shape[:-1] for x in xs} != {xs[0].shape[:1]}:
        raise DimensionError(f"{op}: row blocks {[x.shape for x in xs]} do not "
                             f"make {width} input columns")
    return xs, [(rate, seed) for _, rate, seed in blocks], list(zip(bounds, bounds[1:]))


def _masks(datas, drops):
    """Each row block's (keep, scale) dropout mask, or None, drawn from its
    (rate, seed) only as the block comes up."""
    return (_dropout_mask(x, *drop) for x, drop in zip(datas, drops))


def _input_grads(g, datas, masks, spans, w, dw, needs):
    """dW and dX of the row blocks x_i of `head` or `lstm`, from the
    gradient g (N, m) of their product with the weight w (m, sum(n_i)).
    Block by block, its mask (from `masks`, in block order) serves both:
    the block's columns of dw get g^T @ dropped x_i, with the dropped
    block built for that GEMM alone, and its dX is g @ w[:, lo:hi], dropped
    in place (None where `needs` says no graph wants it)."""
    dxs = []
    for x, mask, (lo, hi), need in zip(datas, masks, spans, needs):
        np.matmul(g.T, _drop(x, mask), out=dw[:, lo:hi])
        dxs.append(_drop(g @ w[:, lo:hi], mask, in_place=True) if need else None)
    return dxs


def head(xs, W1, b1, W2) -> Tensor:
    """A span head's packed (N, 1) logits relu([x_1 | x_2 | ...] @ W1^T + b1)
    @ W2^T over row blocks (N, n_i) whose widths sum to W1's columns: each
    block meets its own column slice of W1, a chunk of rows at a time. A
    block may come `Dropped`: the tape keeps its (rate, seed), and backward
    redraws its mask for `_input_grads`. The relu runs in place, and the tape
    keeps only the hidden layer after it, whose mask hidden > 0 is the relu's.
    FC2 has no bias: a shift shared by a row's logits changes neither its
    softmax nor its loss, so none could be learned (BiDAF's has none either)."""
    W1, b1, W2 = _lift(W1), _lift(b1), _lift(W2)
    if W1.ndim != 2 or b1.shape != W1.shape[:1] or W2.shape != (1, W1.shape[0]):
        raise DimensionError(f"head: incompatible W1 {W1.shape}, b1 {b1.shape} and W2 {W2.shape}")
    xs, drops, spans = _row_blocks(xs, W1.shape[1], "head")
    w1, w2, datas = W1.data, W2.data, [x.data for x in xs]
    hidden = np.empty((len(datas[0]), w1.shape[0]), np.result_type(w1, *datas))
    _rows_times(hidden, datas, [w1[:, lo:hi].T for lo, hi in spans], list(_masks(datas, drops)))
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    out = _rows_times(np.empty((len(hidden), 1), np.result_type(w2, hidden)), [hidden], [w2.T],
                      [None])
    needs = [x.graph is not None for x in xs]

    def backward(g):
        dh, dw2 = g @ w2, g.T @ hidden
        dh *= hidden > 0
        dw1 = np.empty(w1.shape, dh.dtype)
        dxs = _input_grads(dh, datas, _masks(datas, drops), spans, w1, dw1, needs)
        return (*dxs, dw1, dh.sum(axis=0), dw2)

    return _apply("head", (*xs, W1, b1, W2), out, backward)


def _preactivations(datas, masks, spans, w, b, packing: Packing, reverse: bool,
                    dtype):
    """One direction of `lstm` with its (4h, n+h) weight `w` and (4h,) bias
    `b`: its input pre-activations x_t @ W_x^T + b for every live row, one
    (N, 4h) buffer in the direction's step order, and its recurrent weight
    W_h^T (h, 4h), both with the i|f|o gates' rows halved (`_activate`).

    The buffer is built a chunk of rows at a time (`_rows_times`); a reverse
    direction scatters each chunk's rows by `packing.reverse`, its own
    inverse. W_h^T is copied contiguous: strided operands make the small
    per-step ops slower."""
    h = w.shape[0] // 4
    n = w.shape[1] - h
    half = np.where(np.arange(4 * h) < 3 * h, 0.5, 1.0).astype(dtype)
    w_t = w[:, :n].T * half
    gates = _rows_times(np.empty((packing.size, 4 * h), dtype), datas,
                        [w_t[lo:hi] for lo, hi in spans], masks,
                        packing.reverse if reverse else None)
    gates += b * half
    return gates, np.ascontiguousarray(w[:, n:].T * half)


def _activate(z, h: int):
    """Halved pre-activations z (., 4h) to gate activations, in place.

    sigmoid(z) = (1 + tanh(z / 2)) / 2, stable for any z. Halving the i|f|o
    rows of the weights and bias is exact, so one tanh over the block gives
    tanh(z / 2) for i, f, o and tanh(z) for g."""
    np.tanh(z, out=z)
    sig = z[:, :3 * h]
    sig += 1.0
    sig *= 0.5


def _lstm_direction(datas, masks, spans, w, b, packing: Packing, reverse: bool, out):
    """One direction of `lstm` over the packed rows: writes its h into the
    (N, h) view `out` (the forward direction step by step, in place) and
    returns its gate activations (N, 4h) and c (N, h), in its step order.
    The loop turns each step's contiguous block of pre-activations into its
    gate activations in place."""
    rows, h = packing.size, out.shape[1]
    gates, w_h_t = _preactivations(datas, masks, spans, w, b, packing, reverse,
                                   out.dtype)
    hs = np.empty((rows, h), out.dtype) if reverse else out
    cs = np.empty((rows, h), out.dtype)
    lo = before = 0
    for k in packing.counts:
        hi = lo + k
        z = gates[lo:hi]
        if lo:
            z += hs[before:before + k] @ w_h_t
        _activate(z, h)
        c = np.multiply(z[:, :h], z[:, 3 * h:], out=cs[lo:hi])
        if lo:
            c += z[:, h:2 * h] * cs[before:before + k]
        np.multiply(z[:, 2 * h:3 * h], np.tanh(c), out=hs[lo:hi])
        before, lo = lo, hi
    if reverse:
        out[packing.reverse] = hs
    return gates, cs


def _rebuilt_gates(datas, masks, spans, w, b, packing: Packing, reverse: bool,
                   h_out, h_prev_rows):
    """The gate activations `_lstm_direction` returned, rebuilt with no time
    loop: the same input pre-activations, plus h_prev @ W_h^T for the rows
    after the first step, added a chunk of rows at a time. h_prev is read
    from the direction's h, the (N, h) view `h_out` of the result, at
    `h_prev_rows`."""
    gates, w_h_t = _preactivations(datas, masks, spans, w, b, packing, reverse,
                                   h_out.dtype)
    first = packing.size - len(h_prev_rows)
    for lo in range(0, len(h_prev_rows), _CHUNK_ROWS):
        hi = lo + _CHUNK_ROWS
        gates[first + lo:first + hi] += h_out[h_prev_rows[lo:hi]] @ w_h_t
    _activate(gates, h_out.shape[1])
    return gates


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


def lstm(xs, packing: Packing, W, b, *, rebuild_gates: bool = False) -> Tensor:
    """A bidirectional LSTM layer over packed rows: (N, n) -> (N, 2h).

    `xs` holds the input [x_1 | x_2 | ...] as row blocks in the layout of
    `packing`, any of them `Dropped`; each block meets its own column slice
    of W, so no concatenation is built. W (8h, n+h) and b (8h,) stack the
    forward direction's 4h rows over the backward one's: direction d's rows
    W_d and b_d give its gates in i|f|o|g order from [x_t ; h_prev] @ W_d^T + b_d.
    Columns [:h] of the result hold the forward direction's h and [h:] the
    backward one's; a sequence runs from the zero state over its own
    positions, or back from its last token. The input projection runs up
    front into one (N, 4h) pre-activation buffer per direction, in that
    direction's step order, a chunk of rows at a time (`_rows_times`): each
    chunk of each block is dropped and multiplied on its own, and the
    backward direction scatters each chunk's sum to its step slots, so no
    whole product, no reordered copy and no dropped copy of a block is
    built. Only h_prev[:k_s] @ W_h^T runs in the time loop, tanh c is a
    per-step temporary, and the layer is one tape node.

    When some input is on a graph, the tape keeps each block's dropout
    (rate, seed), no mask, and each direction's gates and c, five (N, h)
    blocks; with `rebuild_gates`, which suits narrow inputs, it keeps only
    c, one (N, h) block per direction. An untaped call frees each
    direction's gates and c before the next direction starts. Backward is
    one BPTT sweep per direction, computing only dz and dz @ W_h per step.
    With `rebuild_gates`, each block's mask is drawn again once for the
    whole backward, and before its sweep a direction's gates are rebuilt
    with no time loop (`_rebuilt_gates`): the input projection again, plus
    one h_prev @ W_h^T over all rows after the first step, h_prev read from
    the result. That product sums in another order than the time loop's,
    so the rebuilt gates may differ from the forward's in the last bits.
    A direction's gates and c are
    freed as soon as its dz is done; its rows of db and of the (8h, h)
    recurrent dW_h follow (h_prev is read from the result), and its dz
    moves into one (N, 8h) buffer dz = [dz_fwd | dz_bwd] in packing order.
    After both sweeps the result and its gradient are let go, and only then
    is the (8h, n+h) dW allocated. Then, block by block, the block's mask
    (drawn again here unless the rebuild drew it) serves `_input_grads`:
    its dW columns are one GEMM over both directions, with the block dropped
    for it alone, and its dX, for a block on a graph, is the one GEMM
    dz @ W[:, lo:hi] with K = 8h, dropped in place.
    """
    W, b = _lift(W), _lift(b)
    h = W.shape[0] // 8
    n = W.shape[-1] - h
    xs, drops, spans = _row_blocks(xs, n, "lstm")
    if h < 1 or W.shape != (8 * h, n + h) or b.shape != (8 * h,):
        raise DimensionError(
            f"lstm: input width {n} needs W (8h, {n}+h) and b (8h,), "
            f"got W {W.shape} and b {b.shape}")
    if xs[0].shape[0] != packing.size:
        raise DimensionError(f"lstm: {xs[0].shape[0]} rows for a {packing.size}-row packing")
    inputs = (*xs, W, b)
    taped = _common_graph(inputs) is not None
    rows, prev = packing.size, packing.prev
    first = rows - len(prev)
    datas, dtype, wd = [x.data for x in xs], xs[0].data.dtype, W.data
    # each direction's rows of W and b, as views
    weights, biases = np.split(wd, 2), np.split(b.data, 2)
    out = np.empty((rows, 2 * h), dtype)
    masks = list(_masks(datas, drops))
    # what the tape keeps of each direction's (gates, c): both, c alone when
    # backward rebuilds the gates, or neither when untaped
    kept = slice(1 if rebuild_gates else 0, None if taped else 0)
    saved = [_lstm_direction(datas, masks, spans, weights[d], biases[d], packing, d == 1,
                             out[:, d * h:(d + 1) * h])[kept]
             for d in range(2)]
    if not taped:
        return Tensor(out)
    needs = [x.graph is not None for x in xs]

    def backward(g):
        nonlocal out
        masks = list(_masks(datas, drops)) if rebuild_gates else None
        dz_both = dw_h = db = None
        for d, reverse in enumerate((False, True)):
            cols = slice(d * h, (d + 1) * h)
            h_prev_rows = packing.reverse[prev] if reverse else prev
            if rebuild_gates:
                saved[d] = (_rebuilt_gates(datas, masks, spans, weights[d], biases[d],
                                           packing, reverse, out[:, cols], h_prev_rows),
                            *saved[d])
            dz = np.empty_like(saved[d][0])
            _lstm_dz(dz, g[:, cols], weights[d][:, n:], *saved[d], packing, reverse)
            saved[d] = None
            if dz_both is None:     # once the first direction's gates and c are gone
                dz_both = np.empty((rows, 8 * h), dz.dtype)
                dw_h, db = np.empty((8 * h, h), dz.dtype), np.empty(8 * h, dz.dtype)
            block = slice(d * 4 * h, (d + 1) * 4 * h)
            db[block] = dz.sum(axis=0)
            np.matmul(dz[first:].T, out[h_prev_rows, cols], out=dw_h[block])
            dz_both[packing.reverse if reverse else slice(None), block] = dz
            del dz
        del g           # neither the result nor its gradient is read again
        out = None
        dw = np.empty((8 * h, n + h), dz_both.dtype)
        dw[:, n:] = dw_h
        del dw_h
        dxs = _input_grads(dz_both, datas, masks or _masks(datas, drops), spans, wd,
                           dw, needs)
        return (*dxs, dw, db)

    return _apply("lstm", inputs, out, backward)


def bidaf(x, index, w_sim, context_packing: Packing, question_packing: Packing) -> Tensor:
    """Bidirectional attention (Seo et al., arXiv 1611.01603) of context c
    over question q, whose packed rows [c ; q] (N + Nq, 2h) are the rows
    x[index] of an encoding x -> G (N, 8h). The index, 1-D and integer,
    may repeat a row of x, and need not read every row.

    With w_sim = [w_c ; w_q ; w_m], the similarity of context position i and
    question position j is S[i, j] = w_c.c_i + w_q.q_j + c_i.(w_m*q_j), one
    (B, Lc, Lq) bmm of the zero-padded c and the small (q*w_m)^T, so no
    (Lc*Lq x 6h) feature tensor and no (B, Lc, 2h) product is built.
    Context-to-question: u~_i = softmax_j(S[i, j]) q_j over the live question
    positions. Question-to-context: the row maxima of S over those positions,
    softmaxed over the live context positions, weight one summary h~ of the
    context per example. Each row of G is [c_i ; u~_i ; c_i*u~_i ; c_i*h~]
    for the live context positions, in the context packing's row order,
    written straight into G: beside it and the gathered c and q, at most one
    padded (B, Lc, 2h) block is alive at a time (c, then u~ in the same
    buffer). The gathered c is dropped once G holds it.

    The op is one tape node. It saves the gathered q, the two softmaxes and
    the row-max argmax; its hand-written backward reads c and u~ back from
    G, which it holds as `lstm` holds its result, so no consumer may write
    into G. It sums the gradients of each row's copies into zeros of x's
    shape: one stable sort by row, then one `np.add.reduceat` (`np.add.at`
    is several times slower), so a row read twice receives the sum of both
    gradients and an unread row gets zeros. An empty row raises
    DegenerateMaskError.
    """
    x, w, index = _lift(x), _lift(w_sim), np.asarray(index)
    if x.ndim == 0 or index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
        raise DimensionError(
            f"bidaf: need a 1-D integer index into rows of x, got "
            f"{index.dtype} index of shape {index.shape} for x of shape {x.shape}")
    if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
        raise DimensionError(
            f"bidaf: index out of range [0, {x.shape[0]}) for shape {x.shape}")
    n, d = context_packing.size, x.shape[1] if x.ndim == 2 else -1
    if (x.ndim != 2 or len(index) != n + question_packing.size or w.shape != (3 * d,)
            or context_packing.shape[0] != question_packing.shape[0]):
        raise DimensionError(
            f"bidaf: index {index.shape} into x {x.shape} and w_sim {w.shape} do not match "
            f"{n} context plus {question_packing.size} question packed rows of width 2h, "
            f"and w_sim (3*2h,)")
    c_live, q_live = context_packing.mask, question_packing.mask[:, None, :]
    if not (c_live.any(axis=1).all() and q_live.any(axis=2).all()):
        raise DegenerateMaskError("bidaf: a context or question row is empty")
    cd, qd, wd = x.data[index[:n]], x.data[index[n:]], w.data
    w_c, w_q, w_m = wd[:d], wd[d:2 * d], wd[2 * d:]
    flat, batch_rows = context_packing.flat, context_packing.index[0]
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
    out = np.empty((len(cd), 4 * d), np.result_type(cd, wd))
    out[:, :d] = cd
    _gather_rows(out[:, d:2 * d], u_pad.reshape(-1, d), flat)
    del u_pad, c_pad
    np.multiply(cd, out[:, d:2 * d], out=out[:, 2 * d:3 * d])
    _gather_rows(out[:, 3 * d:], h_tilde, batch_rows)
    out[:, 3 * d:] *= cd
    shape, dtype = x.shape, x.data.dtype

    def backward(g):
        g_c, g_u, g_cu, g_ch = (g[:, k * d:(k + 1) * d] for k in range(4))
        cd = out[:, :d]
        c_pad, q_pad = _padded(cd, context_packing), _padded(qd, question_packing)
        h_tilde = (q2c[:, None, :] @ c_pad)[:, 0]
        # the direct gradient of c, and those of u~ (padded) and h~
        dc = g_c + g_cu * out[:, d:2 * d] + g_ch * h_tilde[batch_rows]
        du = _padded(g_u + g_cu * cd, context_packing)
        dh = _padded(g_ch * cd, context_packing).sum(axis=1)
        # u~ = c2q @ q and h~ = q2c @ c, each through its softmax; the row
        # maximum S[b, i, best] takes the question-to-context part
        dq = np.swapaxes(c2q, 1, 2) @ du
        dsim = _softmax_grad(c2q, du @ np.swapaxes(q_pad, 1, 2))
        d_best = _softmax_grad(q2c, (c_pad @ dh[:, :, None])[:, :, 0])
        batch, lc = best.shape
        dsim[np.arange(batch)[:, None], np.arange(lc), best] += d_best
        dc += q2c.reshape(-1)[flat, None] * dh[batch_rows]
        # S = w_c.c + w_q.q + c.(w_m*q)
        ds_c = dsim.sum(axis=2).reshape(-1)[flat]
        ds_q = dsim.sum(axis=1)[:, :, None]
        d_qw = np.swapaxes(dsim, 1, 2) @ c_pad
        dc += (dsim @ (q_pad * w_m)).reshape(-1, d)[flat]
        dc += ds_c[:, None] * w_c
        dq += d_qw * w_m + ds_q * w_q
        dw = np.concatenate([ds_c @ cd, (ds_q * q_pad).sum(axis=(0, 1)),
                             (d_qw * q_pad).sum(axis=(0, 1))])
        g_rows = np.concatenate([dc, dq.reshape(-1, d)[question_packing.flat]])
        del dc, dq
        gx = np.zeros(shape, dtype)
        order = np.argsort(index, kind="stable")
        taken, starts = np.unique(index[order], return_index=True)
        gx[taken] = np.add.reduceat(g_rows[order], starts, axis=0)
        return gx, dw

    return _apply("bidaf", (x, w), out, backward)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(f, x, coords: int | None = None, seed: int = 0, cotangent=None) -> float:
    """Max relative error between backprop and central finite differences.

    `f` maps a Tensor to a scalar Tensor using ops from this module, or,
    given a `cotangent` of its output's shape, probes sum(cotangent * f(x)),
    summed in float64. Every coordinate of x is probed unless `coords`
    limits the check to a random sample. Relative error per coordinate:
    |a - n| / max(|a|, |n|, 1e-8), the smallest over the estimates n tried;
    a wrong backward disagrees with every one.

    Central differences at step GRADCHECK_STEP lose about |f| * 2**-52 /
    step to round-off: 2e-11 for a unit loss, or 2e-3 of a 1e-8 gradient.
    Where max(|a|, |n|) is under 1e4 times that, a Richardson estimate from
    steps 100 and 200 times wider is tried too. Where the error still
    exceeds 1e-6, a step ten times narrower is tried: a kink (a head's
    relu) within one step of the probe skews the first estimate.
    """
    weights = np.asarray(1.0 if cotangent is None else cotangent, np.float64)

    def probed(out):
        return float(np.sum(weights * out.data))

    xd = _as_array(x).copy()
    graph = Graph()
    xt = graph.leaf(xd)
    out = f(xt)
    analytic = graph.backward(out, cotangent)[xt.node_id].ravel()
    tiny = 1e4 * np.finfo(np.float64).eps * max(abs(probed(out)), 1.0) / GRADCHECK_STEP

    flat_ids = np.arange(xd.size)
    if coords is not None and coords < xd.size:
        flat_ids = np.random.default_rng(seed).choice(xd.size, size=coords,
                                                      replace=False)
    flat = xd.ravel()

    def central(i, step):
        orig = flat[i]
        flat[i] = orig + step
        hi = probed(f(Tensor(xd.copy())))
        flat[i] = orig - step
        lo = probed(f(Tensor(xd.copy())))
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
