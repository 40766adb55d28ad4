"""The 6-layer span-prediction network: frozen embeddings, a shared 2-layer
BiLSTM encoder over context and question, bidirectional attention, a start
decoder, an end decoder that consumes the start decoder's hidden states (so
the end distribution is conditioned on start evidence), and per-position FC
heads feeding masked softmaxes.

Every layer runs on packed rows: ``forward`` packs each mask once into an
``autodiff.Packing`` (masks are prefixes, each row a run of 1s followed by
0s, as ``data.build_batches`` makes them), embeds only the live tokens, and
carries the N live positions of the batch as (N, .) row blocks through the
encoder, the attention output G, both decoders and both heads. Each BiLSTM
layer is one ``autodiff.lstm`` tape node that writes both directions into one
(N, 2h) result. Inputs like [G ; M] are never concatenated: the end decoder
and the heads take them as blocks [G | M], each multiplied by its column
slice of the weight. Only the attention's similarity matrix and the final
softmaxes see (B, L) tensors, so the cost follows the batch's token count,
not B times the longest row, and a taped forward records under a hundred
nodes whatever the sequence length.

Parameters live in a plain name -> ndarray dict. ``forward`` accepts either
ndarrays (inference; no tape is recorded) or graph-leaf Tensors (training),
which is how the training loop gets named gradients back. It computes in the
params' float dtype: the embeddings and masks it builds are made in that
dtype, so float32 params give a float32 forward and backward.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


@dataclass
class ForwardOutput:
    p_start: Tensor    # (B, Lc) masked distribution per row
    p_end: Tensor


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
    """Frozen lookup: int ids of any shape S -> detached S + (d,) tensor of `dtype`.

    The result is a detached constant: it never joins the tape, so no
    gradient can reach the table.
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.vocab_size):
        raise IndexError(
            f"embedding id out of range [0, {table.vocab_size}) in lookup")
    return Tensor(table.matrix[ids].astype(dtype, copy=False))


def _seed_stream(seed: int, step: int):
    """Deterministic per-call dropout seeds derived from (seed, step, index)."""
    for index in itertools.count():
        ss = np.random.SeedSequence(seed, spawn_key=(step, index))
        yield int(ss.generate_state(1, dtype=np.uint64)[0])


def _dropout(blocks, rate: float, seeds):
    """Each block marked for dropout under its own seed, which the consuming
    `ad.lstm` or `ad.linear` applies; the blocks as they are at rate 0."""
    return [ad.Dropped(x, rate, next(seeds)) if rate > 0.0 else x for x in blocks]


def bilstm(blocks, layer_params, packing: ad.Packing, *, dropout_rate: float = 0.0,
           seeds=None) -> Tensor:
    """Stacked bidirectional LSTM over packed rows: blocks (N, n_i) -> (N, 2h).

    `blocks` is the first layer's input [x_1 | x_2 | ...] as row blocks in
    the layout of `packing`; layer_params is a list (one entry per layer) of
    dicts mapping "fwd"/"bwd" to (W, b). Each layer is one `ad.lstm` op that
    computes only live positions and writes both directions into one
    (N, 2h) result, which the next layer reads whole. The backward direction
    starts from the zero state at each sequence's last token. With dropout,
    each block of each layer's input draws its own mask.
    """
    out = list(blocks)
    for layer in layer_params:
        out = [ad.lstm(_dropout(out, dropout_rate, seeds), packing,
                       fwd=layer["fwd"], bwd=layer["bwd"])]
    return out[0]


def bidaf_attention(context: Tensor, question: Tensor, w_sim,
                    context_packing: ad.Packing, question_packing: ad.Packing) -> Tensor:
    """Bidirectional attention over packed rows: (N,2h) x (Nq,2h) -> G (N,8h).

    Similarity S[b,i,j] = w_sim . [c_i ; q_j ; c_i*q_j]. With w_sim split
    into [w_c ; w_q ; w_m], S = w_c.c_i + (c_i*w_m + w_q).q_j: a (B,Lc,1)
    column broadcast over a (B,Lc,Lq) bmm of the zero-padded encodings, so
    no (Lc*Lq x 6h) tensor is built. Context-to-question: u~_i = sum_j
    softmax_j(S[i,j]) q_j over the unmasked question positions.
    Question-to-context: the row maxima of S over those positions, softmaxed
    over the unmasked context positions, weight one summary h~ of the
    context per example. G holds [c ; u~ ; c*u~ ; c*h~] for the live context
    positions only, in the context packing's row order.
    """
    two_h = context.shape[1]
    batch, lc = context_packing.shape
    if w_sim.shape != (3 * two_h,):
        raise ad.DimensionError(
            f"bidaf: w_sim shape {w_sim.shape} does not match 3*{two_h}")
    w_c = ad.reshape(ad.slice_axis(w_sim, 0, 0, two_h), (two_h, 1))
    w_q = ad.slice_axis(w_sim, 0, two_h, 2 * two_h)
    w_m = ad.slice_axis(w_sim, 0, 2 * two_h, 3 * two_h)

    padded = ad.unpack(context, context_packing)                     # (B,Lc,2h)
    q_padded = ad.unpack(question, question_packing)
    s_context = ad.unpack(ad.matmul(context, w_c), context_packing)  # (B,Lc,1)
    s_cross = ad.bmm(ad.add(ad.mul(padded, w_m), w_q), ad.transpose(q_padded))
    sim = ad.add(s_context, s_cross)                                  # (B,Lc,Lq)

    q_mask = question_packing.mask[:, None, :]                       # (B,1,Lq)
    u_tilde = ad.bmm(ad.masked_softmax(sim, q_mask), q_padded)       # (B,Lc,2h)
    u_tilde = ad.take_rows(ad.reshape(u_tilde, (batch * lc, two_h)),
                           context_packing.flat)                     # (N,2h)

    block = ((q_mask - 1.0) * 1e30).astype(sim.data.dtype, copy=False)
    row_best = ad.reduce_max(ad.add(sim, block), axis=2)             # (B,Lc)
    q2c = ad.masked_softmax(row_best, context_packing.mask)
    h_tilde = ad.reshape(ad.bmm(ad.reshape(q2c, (batch, 1, lc)), padded),
                         (batch, two_h))
    h_tilde = ad.take_rows(h_tilde, context_packing.index[0])        # (N,2h)

    return ad.concat([context, u_tilde, ad.mul(context, u_tilde),
                      ad.mul(context, h_tilde)], axis=1)


def _decode(blocks, decoder_params, head, packing, dropout_rate, seeds):
    """A 1-layer BiLSTM over the row blocks, then the per-position head
    FC2(relu(FC1([G_i ; M_i]))) over the packed rows, with dropout on each
    FC1 input block; returns M and the logits scattered to (B, L)."""
    m = bilstm(blocks, [decoder_params], packing, dropout_rate=dropout_rate,
               seeds=seeds)
    hidden = ad.relu(ad.linear(_dropout([blocks[0], m], dropout_rate, seeds),
                               head["W1"], head["b1"]))
    logits = ad.linear([hidden], head["W2"], head["b2"])             # (N,1)
    return m, ad.unpack(ad.reshape(logits, (packing.size,)), packing)


def start_decoder(attention_out: Tensor, decoder_params, head_params,
                  packing: ad.Packing, *, dropout_rate: float = 0.0, seeds=None):
    """1-layer BiLSTM over G plus the start head -> (M_start, start_logits)."""
    return _decode([attention_out], decoder_params, head_params, packing,
                   dropout_rate, seeds)


def end_decoder(attention_out: Tensor, m_start: Tensor, decoder_params,
                head_params, packing: ad.Packing, *, dropout_rate: float = 0.0,
                seeds=None):
    """Conditioning decoder: BiLSTM over [G | M_start] plus the end head."""
    return _decode([attention_out, m_start], decoder_params, head_params,
                   packing, dropout_rate, seeds)


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

    The context encoder does not see the question, so a pass without
    dropout embeds and encodes each distinct (context ids, context mask) row
    once and gathers the encoded rows back to the batch's packed rows with
    `ad.take_rows` (SQuAD asks several questions per paragraph). With
    dropout, each row draws its own masks and is encoded on its own.
    """
    pt = {name: value if isinstance(value, Tensor) else Tensor(value)
          for name, value in params.items()}
    dtype = pt["attention.w_sim"].data.dtype
    seeds = _seed_stream(config.seed, step)
    rate = config.dropout_rate if training else 0.0
    encoder = [_layer_group(pt, f"encoder.l{k}") for k in range(config.encoder_layers)]

    def encode(ids, packing):
        """Embed the live ids of `packing` and run the encoder: (N, 2h) rows."""
        return bilstm([embed(np.asarray(ids)[packing.index], table, dtype)],
                      encoder, packing, dropout_rate=rate, seeds=seeds)

    contexts = ad.Packing(batch.context_mask)
    shared = _distinct_contexts(batch) if rate == 0.0 else None
    if shared is None:
        context = encode(batch.context_ids, contexts)
    else:
        first, inverse = shared
        distinct = ad.Packing(np.asarray(batch.context_mask)[first])
        context = encode(np.asarray(batch.context_ids)[first], distinct)
        # the packed row of each live batch position within its distinct context
        where = np.zeros(distinct.shape, np.int64)
        where[distinct.index] = np.arange(distinct.size)
        rows, positions = contexts.index
        context = ad.take_rows(context, where[inverse[rows], positions])
    questions = ad.Packing(batch.question_mask)
    question = encode(batch.question_ids, questions)

    attention_out = bidaf_attention(context, question, pt["attention.w_sim"],
                                    contexts, questions)
    m_start, start_logits = start_decoder(
        attention_out, _layer_group(pt, "start_decoder"), _head_group(pt, "start_head"),
        contexts, dropout_rate=rate, seeds=seeds)
    _, end_logits = end_decoder(
        attention_out, m_start, _layer_group(pt, "end_decoder"),
        _head_group(pt, "end_head"), contexts, dropout_rate=rate, seeds=seeds)

    return ForwardOutput(p_start=ad.masked_softmax(start_logits, contexts.mask),
                         p_end=ad.masked_softmax(end_logits, contexts.mask))


def loss(out: ForwardOutput, gold_starts, gold_ends, mask) -> Tensor:
    """Batch-mean start cross-entropy plus batch-mean end cross-entropy."""
    return ad.add(ad.cross_entropy(out.p_start, gold_starts, mask),
                  ad.cross_entropy(out.p_end, gold_ends, mask))
