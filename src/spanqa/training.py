"""Training loop pieces: Adam with global-norm gradient clipping, a single
deterministic train step, and the epoch/iteration driver used by the CLI.

All randomness is derived from counters: batch order comes from a per-epoch
seed sequence and dropout masks from (seed, iteration, call index), so a run
can be resumed from a checkpoint and retrace the identical trajectory.

Params, Adam moments and checkpoints are float64 master weights. A train step
or a prediction call casts them to COMPUTE_DTYPE once and runs the model in
that dtype (mixed-precision training after Micikevicius et al., arXiv
1710.03740); the gradients come back in it. Clipping sums their norm in
float64, and the Adam update widens them to float64 block by block.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as qa_model
from .autodiff import ConfigError, Graph
from .data import Batch, EmbeddingTable, build_batches, prepare_for_training
from .metrics import evaluate
from .spans import best_span

__all__ = ["AdamState", "TrainLogRecord", "TrainingDivergedError",
           "init_optimizer", "clip_global_norm", "adam_update", "train_step",
           "train", "predict_answers", "SHUFFLE_STREAM", "BETA1", "BETA2",
           "ADAM_EPS"]

MAX_GRAD_NORM = 5.0
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Adam's decay rates and epsilon
SHUFFLE_STREAM = 1  # spawn-key namespace separating batch order from dropout
COMPUTE_DTYPE = np.float32
UPDATE_BLOCK = 32768   # elements per block of adam_update: 256 KiB of float64

log = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """The loss went non-finite; the message names the first bad tensor."""


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


@dataclass
class TrainLogRecord:
    iteration: int
    train_loss: float
    seconds: float
    dev_f1: float | None = None
    dev_em: float | None = None

    def to_json(self) -> str:
        """One JSONL line; the dev fields appear only after a dev evaluation."""
        return json.dumps({key: value for key, value in asdict(self).items()
                           if value is not None}, sort_keys=True)


def init_optimizer(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(m={k: np.zeros_like(v) for k, v in params.items()},
                     v={k: np.zeros_like(v) for k, v in params.items()})


def clip_global_norm(grads: dict[str, np.ndarray]) -> float:
    """The factor that brings the global L2 norm of `grads` down to
    MAX_GRAD_NORM, or 1.0 when the norm is within it. The gradients are not
    changed: adam_update applies the factor as it widens them.

    The norm is summed in float64 whatever the gradients' dtype, as if they
    were widened first, and bit for bit the same.
    """
    total = float(np.sqrt(sum(float(np.square(g, dtype=np.float64).sum())
                              for g in grads.values())))
    return MAX_GRAD_NORM / total if total > MAX_GRAD_NORM else 1.0


def train_step(params: dict[str, np.ndarray], batch: Batch,
               table: EmbeddingTable, state: AdamState,
               config: qa_model.ModelConfig, lr: float = 1e-3) -> float:
    """Forward, backward, clip, Adam update. Mutates params and state.

    Forward and backward run in COMPUTE_DTYPE on copies of the float64
    params; the update applies to the float64 params themselves.
    """
    graph = Graph()
    leaves = {name: graph.leaf(value.astype(COMPUTE_DTYPE), requires_grad=True)
              for name, value in params.items()}
    out = qa_model.forward(batch, leaves, table, config, training=True,
                           step=state.step)
    loss = qa_model.loss(out, batch.gold_starts, batch.gold_ends,
                         batch.context_mask)
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        culprit = graph.first_nonfinite()
        names = {leaf.node_id: f"parameter {name!r}" for name, leaf in leaves.items()}
        where = (names.get(culprit[0], f"op '{culprit[1]}' (node {culprit[0]})")
                 if culprit else "loss")
        raise TrainingDivergedError(
            f"non-finite loss at optimizer step {state.step}; first bad tensor: {where}")
    grad_map = graph.backward(loss)
    grads = {name: grad_map[leaf.node_id] for name, leaf in leaves.items()}
    adam_update(params, grads, state, lr, scale=clip_global_norm(grads))
    return loss_value


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: AdamState, lr: float, scale: float = 1.0) -> None:
    """One bias-corrected Adam step on the gradients times `scale`: params
    change in place and the moments are replaced; the gradients, of any
    float dtype, are only read.

    Each parameter is updated in blocks of UPDATE_BLOCK elements, so the
    whole step stays in cache: the block's gradients are widened to float64
    into a reused scratch buffer and multiplied by `scale` (when it is not
    1.0), then Adam computes, in this order and so bit for bit,
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g), m_hat = m/(1-b1^t),
    v_hat = v/(1-b2^t) and p -= (lr*m_hat) / (sqrt(v_hat) + eps). Params and
    moments are C-contiguous, as init_params, init_optimizer and
    load_checkpoint make them.

    The moments are new arrays each step, not updated in place: with glibc,
    moments that never move let the allocator return the step's freed heap
    to the system, and the next step's forward and backward fault it back in
    (at h=150, B=20: ~16k page faults and ~6% more time per step).
    """
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    g_block = np.empty(UPDATE_BLOCK)
    s_block = np.empty(UPDATE_BLOCK)
    for name, p in params.items():
        if not p.flags.c_contiguous:    # reshape would update a copy
            raise ValueError(f"param {name!r} is not C-contiguous")
        m, v = np.empty_like(p), np.empty_like(p)
        flat_p, flat_m, flat_v = p.reshape(-1), m.reshape(-1), v.reshape(-1)
        old_m, old_v = state.m[name].reshape(-1), state.v[name].reshape(-1)
        flat_g = grads[name].reshape(-1)
        for lo in range(0, flat_p.size, UPDATE_BLOCK):
            hi = min(lo + UPDATE_BLOCK, flat_p.size)
            g, scratch = g_block[:hi - lo], s_block[:hi - lo]
            mb, vb = flat_m[lo:hi], flat_v[lo:hi]
            g[...] = flat_g[lo:hi]
            if scale != 1.0:
                g *= scale
            np.multiply(old_m[lo:hi], b1, out=mb)
            np.multiply(g, 1 - b1, out=scratch)
            mb += scratch
            np.multiply(old_v[lo:hi], b2, out=vb)
            np.multiply(g, g, out=scratch)
            scratch *= 1 - b2
            vb += scratch
            np.divide(vb, 1 - b2 ** t, out=scratch)     # v_hat
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS
            np.divide(mb, 1 - b1 ** t, out=g)           # m_hat
            g *= lr
            g /= scratch
            flat_p[lo:hi] -= g
        state.m[name], state.v[name] = m, v


def epoch_order(seed: int, epoch: int, count: int) -> np.ndarray:
    """Deterministic example permutation for one epoch."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(SHUFFLE_STREAM, epoch)))
    return rng.permutation(count)


def _epoch_batches(usable, table, config, batch_size, epoch):
    """One epoch's batches of examples that prepare_for_training already kept."""
    order = epoch_order(config.seed, epoch, len(usable))
    shuffled = [usable[i] for i in order]
    return build_batches(shuffled, table, batch_size,
                         context_cap=config.context_cap, training=False)


def _check_max_answer_len(max_answer_len: int) -> None:
    if max_answer_len < 1:
        raise ConfigError(f"max_answer_len must be >= 1, got {max_answer_len}")


def predict_answers(examples, params, table, config: qa_model.ModelConfig,
                    batch_size: int = 40, max_answer_len: int = 20) -> dict[str, str]:
    """Decode best spans for every example; returns {qid: answer text}.

    An example with an empty question or context has nothing to attend over
    and gets the answer ""; the others are batched and decoded as usual.
    """
    _check_max_answer_len(max_answer_len)
    predictions = {ex.qid: "" for ex in examples
                   if not ex.question_tokens or not ex.context_tokens}
    if predictions:
        log.warning("predicting '' for %d examples with an empty question or "
                    "context", len(predictions))
    answerable = [ex for ex in examples if ex.qid not in predictions]
    by_qid = {ex.qid: ex for ex in answerable}
    compute_params = {name: value.astype(COMPUTE_DTYPE)
                      for name, value in params.items()}
    batches = build_batches(answerable, table, batch_size,
                            context_cap=config.context_cap, training=False)
    for batch in batches:
        out = qa_model.forward(batch, compute_params, table, config, training=False)
        p_start, p_end = out.p_start.data, out.p_end.data
        for row, qid in enumerate(batch.qids):
            ex = by_qid[qid]
            pred = best_span(p_start[row], p_end[row], batch.context_mask[row],
                             max_len=max_answer_len, tokens=ex.context_tokens,
                             text=ex.context_text)
            predictions[qid] = pred.answer_text
    return predictions


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    state: AdamState
    records: list[TrainLogRecord] = field(default_factory=list)
    best_dev_f1: float | None = None


def train(train_examples, table: EmbeddingTable, config: qa_model.ModelConfig,
          *, iters: int, batch_size: int = 40, lr: float = 1e-3,
          dev_examples=None, eval_every: int = 500, max_answer_len: int = 20,
          params: dict[str, np.ndarray] | None = None,
          state: AdamState | None = None, best_dev_f1: float | None = None,
          log_handle=None, on_improve=None) -> TrainResult:
    """Run `iters` optimizer steps over shuffled batches.

    Resumable: passing params/state from a checkpoint continues the exact
    trajectory because batch order and dropout depend only on (seed, step).
    `on_improve(result)` fires when dev F1 improves on `best_dev_f1` (the
    best so far, from the checkpoint when resuming); dev decoding happens
    every `eval_every` iterations when dev_examples is given.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if eval_every < 1:
        raise ConfigError(f"eval_every must be >= 1, got {eval_every}")
    _check_max_answer_len(max_answer_len)
    usable, dropped = prepare_for_training(train_examples, config.context_cap)
    if not usable:
        raise ValueError("no trainable examples after truncation filtering")
    if dropped:
        log.info("dropped %d examples with no gold span under cap %d",
                 dropped, config.context_cap)
    if params is None:
        params = qa_model.init_params(config)
    if state is None:
        state = init_optimizer(params)
    result = TrainResult(params=params, state=state, best_dev_f1=best_dev_f1)

    batches: list[Batch] = []
    per_epoch = max(1, (len(usable) + batch_size - 1) // batch_size)
    while state.step < iters:
        epoch, offset = divmod(state.step, per_epoch)
        if not batches or offset == 0:
            batches = _epoch_batches(usable, table, config, batch_size, epoch)
        tick = time.perf_counter()
        loss_value = train_step(params, batches[offset], table, state, config, lr)
        record = TrainLogRecord(iteration=state.step, train_loss=loss_value,
                                seconds=time.perf_counter() - tick)
        if dev_examples is not None and state.step % eval_every == 0:
            predictions = predict_answers(dev_examples, params, table, config,
                                          batch_size, max_answer_len)
            report = evaluate(predictions, dev_examples)
            record.dev_f1, record.dev_em = report.f1, report.em
            if result.best_dev_f1 is None or report.f1 > result.best_dev_f1:
                result.best_dev_f1 = report.f1
                if on_improve is not None:
                    on_improve(result)
        result.records.append(record)
        if log_handle is not None:
            log_handle.write(record.to_json() + "\n")
            log_handle.flush()
    return result
