"""The 6-layer span-prediction network: frozen embeddings, a shared 2-layer
BiLSTM encoder over context and question, bidirectional attention, a start
decoder, an end decoder that consumes the start decoder's hidden states (so
the end distribution is conditioned on start evidence), and per-position FC
heads feeding masked softmaxes.

Each LSTM direction is a single fused ``autodiff.lstm`` tape node (input
projection hoisted into one GEMM, hand-written BPTT backward) that packs the
live positions of its rows and computes nothing at padding, so its cost
follows the batch's total token count, not B times the longest row. Masks
are therefore prefixes: each row a run of 1s followed by 0s, as
``data.build_batches`` makes them. Each head is a 2-D matmul over all B*L
positions, so a taped forward records about a hundred nodes whatever the
sequence length.

Parameters live in a plain name -> ndarray dict. ``forward`` accepts either
ndarrays (inference; no tape is recorded) or graph-leaf Tensors (training),
which is how the training loop gets named gradients back. It computes in the
params' float dtype: the embeddings and masks it builds are made in that
dtype, so float32 params give a float32 forward and backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor
from .data import Batch, EmbeddingTable

__all__ = ["ModelConfig", "ForwardOutput", "init_params", "param_count",
           "param_shapes", "embed", "bilstm", "bidaf_attention",
           "start_decoder", "end_decoder", "forward", "loss"]


@dataclass
class ModelConfig:
    hidden_size: int = 150
    dropout_rate: float = 0.2
    embedding_dim: int = 100
    encoder_layers: int = 2
    context_cap: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.encoder_layers < 1:
            raise ConfigError(f"encoder_layers must be >= 1, got {self.encoder_layers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)


@dataclass
class ForwardOutput:
    p_start: Tensor    # (B, Lc) masked distribution per row
    p_end: Tensor
    attention: Tensor  # (B, Lc, 8h), kept for decoding diagnostics


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Insertion-ordered name -> shape map for every trainable tensor."""
    h, d = config.hidden_size, config.embedding_dim
    shapes: dict[str, tuple[int, ...]] = {}

    def lstm(prefix, in_dim):
        for direction in ("fwd", "bwd"):
            shapes[f"{prefix}.{direction}.W"] = (4 * h, in_dim + h)
            shapes[f"{prefix}.{direction}.b"] = (4 * h,)

    in_dim = d
    for layer in range(config.encoder_layers):
        lstm(f"encoder.l{layer}", in_dim)
        in_dim = 2 * h
    shapes["attention.w_sim"] = (6 * h,)
    lstm("start_decoder", 8 * h)
    lstm("end_decoder", 10 * h)
    for head in ("start_head", "end_head"):
        shapes[f"{head}.W1"] = (h, 10 * h)
        shapes[f"{head}.b1"] = (h,)
        shapes[f"{head}.W2"] = (1, h)
        shapes[f"{head}.b2"] = (1,)
    return shapes


def _xavier_limit(shape) -> float:
    if len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        fan_out, fan_in = shape
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Xavier-uniform matrices, zero biases except LSTM forget gates at 1.0."""
    rng = np.random.default_rng(config.seed)
    h = config.hidden_size
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".b") or name.endswith(".b1") or name.endswith(".b2"):
            value = np.zeros(shape)
            if name.endswith(".b"):
                value[h:2 * h] = 1.0  # forget gate, gate order i|f|o|g
        else:
            limit = _xavier_limit(shape)
            value = rng.uniform(-limit, limit, size=shape)
        params[name] = value
    return params


def param_count(params: dict[str, np.ndarray]) -> int:
    """Total trainable elements (the frozen embedding table is not in params)."""
    return sum(int(np.prod(v.shape)) for v in params.values())


def embed(ids: np.ndarray, table: EmbeddingTable, dtype=np.float64) -> Tensor:
    """Frozen lookup: (B, L) int ids -> detached (B, L, d) tensor of `dtype`.

    The result never joins a gradient path, so no gradient can reach the
    table.
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.vocab_size):
        raise IndexError(
            f"embedding id out of range [0, {table.vocab_size}) in lookup")
    return Tensor(table.matrix[ids].astype(dtype, copy=False))


class _SeedStream:
    """Deterministic per-call dropout seeds derived from (seed, step, index)."""

    def __init__(self, seed: int, step: int):
        self._seed = seed
        self._step = step
        self._index = 0

    def __call__(self) -> int:
        ss = np.random.SeedSequence(self._seed, spawn_key=(self._step, self._index))
        self._index += 1
        return int(ss.generate_state(1, dtype=np.uint64)[0])


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def bilstm(inputs: Tensor, layer_params, mask: np.ndarray, *, hidden_size: int,
           dropout_rate: float = 0.0, training: bool = False,
           seeds: _SeedStream | None = None) -> Tensor:
    """Stacked bidirectional LSTM: (B, L, in) -> (B, L, 2h).

    layer_params is a list (one entry per layer) of dicts mapping "fwd"/"bwd"
    to (W, b). Each mask row must be a run of 1s followed by 0s. Each
    direction is one fused `ad.lstm` op that computes only a row's live
    positions and emits zeros at its padding; the backward direction starts
    from the zero state at each row's last token. Layer k+1 consumes the
    concatenation of layer k's two directions; while training, dropout is
    applied once to each layer's whole input.
    """
    mask = np.asarray(mask, dtype=np.float64)
    batch, length, _ = inputs.shape
    if mask.shape != (batch, length):
        raise ad.DimensionError(
            f"bilstm: mask shape {mask.shape} does not match input {inputs.shape}")
    out = inputs
    for layer in layer_params:
        for weight, _ in layer.values():
            if weight.shape[0] != 4 * hidden_size:
                raise ad.DimensionError(
                    f"bilstm: weight shape {weight.shape} does not match "
                    f"hidden_size {hidden_size}")
        if dropout_rate > 0.0 and training:
            out = ad.dropout(out, dropout_rate, training, seeds())
        out = ad.concat([ad.lstm(out, *layer["fwd"], mask, reverse=False),
                         ad.lstm(out, *layer["bwd"], mask, reverse=True)], axis=2)
    return out


def bidaf_attention(context: Tensor, question: Tensor, w_sim,
                    context_mask: np.ndarray, question_mask: np.ndarray) -> Tensor:
    """Bidirectional attention: (B,Lc,2h) x (B,Lq,2h) -> (B,Lc,8h).

    Similarity S[b,i,j] = w_sim . [c_i ; q_j ; c_i*q_j]. With w_sim split
    into [w_c ; w_q ; w_m], S = w_c.c_i + (c_i*w_m + w_q).q_j: a (B,Lc,1)
    column broadcast over a (B,Lc,Lq) bmm, so no (Lc*Lq x 6h) tensor is
    built. Context-to-question: u~_i = sum_j softmax_j(S[i,j]) q_j over the
    unmasked question positions. Question-to-context: the row maxima of S
    over those positions, softmaxed over the unmasked context positions,
    weight one summary h~ of the context per example, broadcast to every
    position. Output rows are [c ; u~ ; c*u~ ; c*h~].
    """
    w_sim = _as_tensor(w_sim)
    batch, lc, two_h = context.shape
    if w_sim.shape != (3 * two_h,):
        raise ad.DimensionError(
            f"bidaf: w_sim shape {w_sim.shape} does not match 3*{two_h}")
    w_c = ad.reshape(ad.slice_axis(w_sim, 0, 0, two_h), (two_h, 1))
    w_q = ad.slice_axis(w_sim, 0, two_h, 2 * two_h)
    w_m = ad.slice_axis(w_sim, 0, 2 * two_h, 3 * two_h)

    s_context = ad.reshape(ad.matmul(ad.reshape(context, (batch * lc, two_h)), w_c),
                           (batch, lc, 1))
    s_cross = ad.bmm(ad.add(ad.mul(context, w_m), w_q), ad.transpose(question))
    sim = ad.add(s_context, s_cross)                                  # (B,Lc,Lq)

    q_mask = np.asarray(question_mask)[:, None, :]                   # (B,1,Lq)
    u_tilde = ad.bmm(ad.masked_softmax(sim, q_mask), question)       # (B,Lc,2h)

    block = ((q_mask - 1.0) * 1e30).astype(sim.data.dtype, copy=False)
    row_best = ad.reduce_max(ad.add(sim, block), axis=2)             # (B,Lc)
    q2c = ad.masked_softmax(row_best, context_mask)
    h_tilde = ad.bmm(ad.reshape(q2c, (batch, 1, lc)), context)       # (B,1,2h)

    return ad.concat([context, u_tilde, ad.mul(context, u_tilde),
                      ad.mul(context, h_tilde)], axis=2)


def _head_logits(attention_out, decoder_out, head, *, dropout_rate, training,
                 seeds):
    """Per-position logit: FC2(relu(FC1([G_i ; M_i]))), dropout on FC1 input."""
    batch, length, _ = attention_out.shape
    features = ad.concat([attention_out, decoder_out], axis=2)   # (B,L,10h)
    if dropout_rate > 0.0 and training:
        features = ad.dropout(features, dropout_rate, training, seeds())
    w1, b1, w2, b2 = (_as_tensor(head[k]) for k in ("W1", "b1", "W2", "b2"))
    rows = ad.reshape(features, (batch * length, features.shape[2]))
    hidden = ad.relu(ad.add(ad.matmul(rows, ad.transpose(w1)), b1))
    logits = ad.add(ad.matmul(hidden, ad.transpose(w2)), b2)
    return ad.reshape(logits, (batch, length))


def start_decoder(attention_out: Tensor, decoder_params, head_params,
                  mask: np.ndarray, *, hidden_size: int, dropout_rate: float = 0.0,
                  training: bool = False, seeds=None):
    """1-layer BiLSTM over G plus the start head -> (M_start, start_logits)."""
    m_start = bilstm(attention_out, [decoder_params], mask,
                     hidden_size=hidden_size, dropout_rate=dropout_rate,
                     training=training, seeds=seeds)
    logits = _head_logits(attention_out, m_start, head_params,
                          dropout_rate=dropout_rate, training=training, seeds=seeds)
    return m_start, logits


def end_decoder(attention_out: Tensor, m_start: Tensor, decoder_params,
                head_params, mask: np.ndarray, *, hidden_size: int,
                dropout_rate: float = 0.0, training: bool = False, seeds=None):
    """Conditioning decoder: BiLSTM over [G ; M_start] plus the end head."""
    conditioned = ad.concat([attention_out, m_start], axis=2)    # (B,Lc,10h)
    m_end = bilstm(conditioned, [decoder_params], mask, hidden_size=hidden_size,
                   dropout_rate=dropout_rate, training=training, seeds=seeds)
    logits = _head_logits(attention_out, m_end, head_params,
                          dropout_rate=dropout_rate, training=training, seeds=seeds)
    return m_end, logits


def _layer_group(params, prefix):
    return {"fwd": (params[f"{prefix}.fwd.W"], params[f"{prefix}.fwd.b"]),
            "bwd": (params[f"{prefix}.bwd.W"], params[f"{prefix}.bwd.b"])}


def _head_group(params, prefix):
    return {k: params[f"{prefix}.{k}"] for k in ("W1", "b1", "W2", "b2")}


def _distinct_contexts(batch: Batch):
    """(first, inverse) over the batch's distinct (context ids, mask) rows:
    row b equals row first[inverse[b]]. None when every row is distinct."""
    ids = np.asarray(batch.context_ids, dtype=np.int64)
    mask_bits = np.asarray(batch.context_mask, dtype=np.float64).view(np.int64)
    _, first, inverse = np.unique(np.concatenate([ids, mask_bits], axis=1),
                                  axis=0, return_index=True, return_inverse=True)
    if len(first) == len(ids):
        return None
    return first, inverse.reshape(-1)


def forward(batch: Batch, params, table: EmbeddingTable, config: ModelConfig,
            training: bool = False, step: int = 0) -> ForwardOutput:
    """Embed -> encode -> attend -> decode start -> decode end -> softmax.

    params values may be ndarrays (detached run) or Tensors on one graph
    (differentiable run), all of one float dtype, which the whole pass runs
    in. `step` varies the dropout masks between training iterations while
    keeping them reproducible.

    The context encoder does not see the question, so a pass without dropout
    embeds and encodes each distinct (context ids, context mask) row once
    and gathers the encodings back to the batch's rows with `ad.take_rows`
    (SQuAD asks several questions per paragraph). With dropout, each row
    draws its own masks and is encoded on its own.
    """
    pt = {name: _as_tensor(value) for name, value in params.items()}
    dtype = pt["attention.w_sim"].data.dtype
    seeds = _SeedStream(config.seed, step)
    h = config.hidden_size
    rate = config.dropout_rate if training else 0.0

    encoder = [_layer_group(pt, f"encoder.l{k}") for k in range(config.encoder_layers)]
    context_ids, context_mask = batch.context_ids, batch.context_mask
    shared = _distinct_contexts(batch) if rate == 0.0 else None
    if shared is not None:
        first, inverse = shared
        context_ids, context_mask = context_ids[first], context_mask[first]
    context = bilstm(embed(context_ids, table, dtype), encoder, context_mask,
                     hidden_size=h, dropout_rate=rate, training=training,
                     seeds=seeds)
    if shared is not None:
        context = ad.take_rows(context, inverse)
    question = bilstm(embed(batch.question_ids, table, dtype), encoder,
                      batch.question_mask, hidden_size=h, dropout_rate=rate,
                      training=training, seeds=seeds)

    attention_out = bidaf_attention(context, question, pt["attention.w_sim"],
                                    batch.context_mask, batch.question_mask)

    m_start, start_logits = start_decoder(
        attention_out, _layer_group(pt, "start_decoder"), _head_group(pt, "start_head"),
        batch.context_mask, hidden_size=h, dropout_rate=rate, training=training,
        seeds=seeds)
    _, end_logits = end_decoder(
        attention_out, m_start, _layer_group(pt, "end_decoder"),
        _head_group(pt, "end_head"), batch.context_mask, hidden_size=h,
        dropout_rate=rate, training=training, seeds=seeds)

    return ForwardOutput(
        p_start=ad.masked_softmax(start_logits, batch.context_mask),
        p_end=ad.masked_softmax(end_logits, batch.context_mask),
        attention=attention_out,
    )


def loss(out: ForwardOutput, gold_starts, gold_ends, mask) -> Tensor:
    """Batch-mean start cross-entropy plus batch-mean end cross-entropy."""
    return ad.add(ad.cross_entropy(out.p_start, gold_starts, mask),
                  ad.cross_entropy(out.p_end, gold_ends, mask))
