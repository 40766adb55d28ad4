"""The 6-layer span-prediction network: frozen embeddings, a shared 2-layer
BiLSTM encoder run once over a batch's distinct contexts and its questions,
bidirectional attention, a start decoder, an end decoder that consumes the
start decoder's hidden states (so the end distribution is conditioned on
start evidence), and per-position FC heads whose packed logits the loss
reads in log space and decoding through untaped softmaxes built on demand.

Every layer runs on packed rows: ``forward`` packs each id array's mask,
ids != PAD_ID, once into an ``autodiff.Packing`` (masks are prefixes: each
row's tokens come first and PAD_ID fills the rest, as
``data.make_batch`` makes them), embeds only the live tokens, and
carries the N live positions of the batch as (N, .) row blocks through the
encoder, the attention output G, both decoders and both heads, whose (N, 1)
logits the loss and the softmaxes read with the context packing. Each
BiLSTM layer is one ``autodiff.lstm`` tape node (4 per forward) that reads
one W and one b stacking both directions and writes both into one (N, 2h)
result, and the attention is one ``autodiff.bidaf`` node that gathers
[c ; q] from the shared encoding and writes G straight into its (N, 8h)
result, whose first block backward reads c back from. Each decoder calls
``autodiff.lstm`` once, and on a training tape keeps its gates and c; the
encoder stack ``bilstm`` keeps only c and rebuilds its gates in backward,
since its inputs (d and 2h wide, against the decoders' 8h and 10h) are
cheap to project again. Inputs like [G ; M] are never concatenated: the end
decoder and the heads take them as blocks [G | M], each multiplied by its
column slice of the weight, a chunk of rows at a time. Only the attention's
similarity matrix and, inside the loss and the softmaxes, the logits are
laid out (B, L), so the cost follows the batch's token count, not B times
the longest row, and a taped training forward plus loss records 23 nodes
(15 leaves; 8 ops, all fused: 4 `lstm`, one `bidaf`, one per head, one loss)
whatever the sequence length.

Parameters live in a plain name -> ndarray dict. ``forward`` accepts either
ndarrays (inference; no tape is recorded) or graph-leaf Tensors (training),
which is how the training loop gets named gradients back. It computes in the
params' float dtype: the embeddings it builds are made in that dtype, so
float32 params give a float32 forward and backward.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor
from .data import PAD_ID, Batch, EmbeddingTable

__all__ = ["ENCODER_LAYERS", "ModelConfig", "ForwardOutput", "init_params",
           "param_count", "param_shapes", "embed", "bilstm", "bidaf_attention",
           "start_decoder", "end_decoder", "forward", "loss"]

ENCODER_LAYERS = 2


@dataclass
class ModelConfig:
    hidden_size: int = 150
    dropout_rate: float = 0.2
    embedding_dim: int = 100
    context_cap: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ConfigError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.context_cap < 1:
            raise ConfigError(f"context_cap must be >= 1, got {self.context_cap}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class ForwardOutput:
    """The heads' packed (N, 1) logits and their context `Packing`; `p_start`
    and `p_end`, each row's softmax, are built as (B, Lc) arrays on each read."""
    start_logits: Tensor
    end_logits: Tensor
    packing: ad.Packing

    @property
    def p_start(self) -> np.ndarray:
        return ad.masked_softmax(self.start_logits, self.packing)

    @property
    def p_end(self) -> np.ndarray:
        return ad.masked_softmax(self.end_logits, self.packing)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Insertion-ordered name -> shape map for every trainable tensor."""
    h, d = config.hidden_size, config.embedding_dim
    shapes: dict[str, tuple[int, ...]] = {}

    def lstm(prefix, in_dim):
        shapes[f"{prefix}.W"] = (8 * h, in_dim + h)
        shapes[f"{prefix}.b"] = (8 * h,)

    in_dim = d
    for layer in range(ENCODER_LAYERS):
        lstm(f"encoder.l{layer}", in_dim)
        in_dim = 2 * h
    shapes["attention.w_sim"] = (6 * h,)
    lstm("start_decoder", 8 * h)
    lstm("end_decoder", 10 * h)
    for head in ("start_head", "end_head"):
        shapes[f"{head}.W1"] = (h, 10 * h)
        shapes[f"{head}.b1"] = (h,)
        shapes[f"{head}.W2"] = (1, h)
    return shapes


def _xavier_limit(shape) -> float:
    if len(shape) == 1:
        fan_in, fan_out = shape[0], 1
    else:
        fan_out, fan_in = shape
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Xavier-uniform matrices, zero biases except LSTM forget gates at 1.0,
    as float32. The matrices are drawn in float64 and then narrowed, so the
    seed's random stream is the one a float64 draw reads."""
    rng = np.random.default_rng(config.seed)
    h = config.hidden_size
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith((".b", ".b1")):
            value = np.zeros(shape, dtype=np.float32)
            if name.endswith(".b"):
                value.reshape(2, 4, h)[:, 1] = 1.0  # forget gates, i|f|o|g per direction
        else:
            # an LSTM's W stacks two directions, each with fan-out 4h
            limit = _xavier_limit((4 * h, shape[1]) if name.endswith(".W") else shape)
            value = rng.uniform(-limit, limit, size=shape).astype(np.float32)
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


def _dropout(blocks, rate: float, seeds):
    """Each block marked for dropout under its own seed, which the consuming
    `ad.lstm` or `ad.head` applies; the blocks as they are at rate 0."""
    return [ad.Dropped(x, rate, next(seeds)) if rate > 0.0 else x for x in blocks]


def bilstm(blocks, layer_params, packing: ad.Packing, *, drop=list) -> Tensor:
    """The stacked BiLSTM encoder over packed rows: blocks (N, n_i) -> (N, 2h).

    `blocks` is the first layer's input [x_1 | x_2 | ...] as row blocks in
    the layout of `packing`; layer_params is a list (one entry per layer) of
    (W (8h, n+h), b (8h,)) pairs, the forward direction's rows first. Each
    layer is one `ad.lstm` op that computes only live positions and writes
    both directions into one (N, 2h) result, which the next layer reads
    whole. The backward direction starts from the zero state at each
    sequence's last token. `drop` takes each layer's input blocks and returns
    them, marked `ad.Dropped` when training with dropout (see `forward`); the
    default keeps them as they are. The inputs are narrow (d, then 2h), so
    every layer's tape keeps only c, and backward projects them again to
    rebuild the gates.
    """
    out = list(blocks)
    for W, b in layer_params:
        out = [ad.lstm(drop(out), packing, W, b, rebuild_gates=True)]
    return out[0]


def bidaf_attention(x: Tensor, index, w_sim, context_packing: ad.Packing,
                    question_packing: ad.Packing) -> Tensor:
    """Bidirectional attention over packed rows: [c ; q] = x[index]
    (N+Nq,2h) -> G (N,8h).

    Similarity S[b,i,j] = w_sim . [c_i ; q_j ; c_i*q_j]; context-to-question
    attention gives each live context position a summary u~_i of the
    question, and question-to-context attention one summary h~ of the
    context per example. G holds [c ; u~ ; c*u~ ; c*h~] for the live context
    positions only, in the context packing's row order. The layer is the
    single `ad.bidaf` op, one tape node with a hand-written backward that
    gathers [c ; q] from the encoding x itself; see its docstring for how S
    and G are computed.
    """
    return ad.bidaf(x, index, w_sim, context_packing, question_packing)


def _decode(blocks, decoder_params, head, packing, drop):
    """A BiLSTM layer over the row blocks, then the per-position head
    FC2(relu(FC1([G_i ; M_i]))) over the packed rows as one `ad.head`, with
    `drop` on the FC1 input blocks; returns M and the packed (N, 1) logits."""
    m = ad.lstm(drop(blocks), packing, *decoder_params)
    return m, ad.head(drop([blocks[0], m]), head["W1"], head["b1"], head["W2"])


def start_decoder(attention_out: Tensor, decoder_params, head_params,
                  packing: ad.Packing, *, drop=list):
    """1-layer BiLSTM over G plus the start head -> (M_start, start_logits)."""
    return _decode([attention_out], decoder_params, head_params, packing, drop)


def end_decoder(attention_out: Tensor, m_start: Tensor, decoder_params,
                head_params, packing: ad.Packing, *, drop=list):
    """Conditioning decoder: BiLSTM over [G | M_start] plus the end head."""
    return _decode([attention_out, m_start], decoder_params, head_params,
                   packing, drop)


def _layer_group(params, prefix):
    return params[f"{prefix}.W"], params[f"{prefix}.b"]


def _head_group(params, prefix):
    return {k: params[f"{prefix}.{k}"] for k in ("W1", "b1", "W2")}


def _distinct_contexts(context_ids):
    """(first, inverse) over the distinct context id rows: row b equals row
    first[inverse[b]]. The identity when no row repeats."""
    _, first, inverse = np.unique(context_ids, axis=0, return_index=True,
                                  return_inverse=True)
    if len(first) < len(context_ids):
        return first, inverse.reshape(-1)
    return (np.arange(len(context_ids)),) * 2


def forward(batch: Batch, params, table: EmbeddingTable, config: ModelConfig,
            training: bool = False, step: int = 0) -> ForwardOutput:
    """Embed -> encode -> attend -> decode start -> decode end -> logits.

    params values may be ndarrays (detached run) or Tensors on one graph
    (differentiable run), all of one float dtype, which the whole pass runs
    in. `step` varies the dropout masks between training iterations while
    keeping them reproducible: the k-th block marked for dropout in a pass
    draws its mask from seed (config.seed, step, k).

    The shared encoder sees each sequence on its own, so one `bilstm` pass
    covers the distinct context id rows stacked over all the questions
    (SQuAD asks several per paragraph), and the one `ad.bidaf` call gathers
    each row's context, then each question, from it as its [c ; q]: 4
    `ad.lstm` calls and one `ad.bidaf` call per forward.
    """
    pt = {name: value if isinstance(value, Tensor) else Tensor(value)
          for name, value in params.items()}
    dtype = pt["attention.w_sim"].data.dtype
    rate = config.dropout_rate if training else 0.0
    seeds = (int(np.random.SeedSequence(config.seed, spawn_key=(step, index))
                 .generate_state(1, dtype=np.uint64)[0]) for index in itertools.count())
    drop = functools.partial(_dropout, rate=rate, seeds=seeds)
    encoder = [_layer_group(pt, f"encoder.l{k}") for k in range(ENCODER_LAYERS)]

    context_ids, question_ids = batch.context_ids, batch.question_ids
    contexts, questions = ad.Packing(context_ids != PAD_ID), ad.Packing(question_ids != PAD_ID)
    first, inverse = _distinct_contexts(context_ids)
    # the distinct contexts over the questions, padded to the wider
    width = max(context_ids.shape[1], question_ids.shape[1])
    ids = np.concatenate([np.pad(x, ((0, 0), (0, width - x.shape[1])), constant_values=PAD_ID)
                          for x in (context_ids[first], question_ids)])
    joint = ad.Packing(ids != PAD_ID)
    encoded = bilstm([embed(ids[joint.index], table, dtype)], encoder, joint, drop=drop)
    where = np.zeros(joint.shape, np.int64)     # the packed row of each stacked token
    where[joint.index] = np.arange(joint.size)
    index = np.concatenate([where[inverse][contexts.index], where[len(first):][questions.index]])
    attention_out = bidaf_attention(encoded, index, pt["attention.w_sim"], contexts, questions)
    del encoded                     # G's first block holds c
    m_start, start_logits = start_decoder(
        attention_out, _layer_group(pt, "start_decoder"), _head_group(pt, "start_head"),
        contexts, drop=drop)
    _, end_logits = end_decoder(
        attention_out, m_start, _layer_group(pt, "end_decoder"),
        _head_group(pt, "end_head"), contexts, drop=drop)

    return ForwardOutput(start_logits, end_logits, contexts)


def loss(out: ForwardOutput, gold_starts, gold_ends) -> Tensor:
    """Batch-mean start plus batch-mean end cross-entropy over the packed rows."""
    return ad.cross_entropy((out.start_logits, out.end_logits), (gold_starts, gold_ends),
                            out.packing)
