"""Training loop pieces: Adam with global-norm gradient clipping, a single
deterministic train step, and the epoch/iteration driver used by the CLI.

All randomness is derived from counters: batch order comes from a per-epoch
seed sequence and dropout masks from (seed, iteration, call index), so a run
can be resumed from a checkpoint and retrace the identical trajectory.
Each step builds only its own batch, from its slice of the epoch's order,
and prediction builds each batch just before it decodes it, so each loop
holds one padded batch at a time.

Params, Adam moments and checkpoints are float32, the dtype the model
computes in: a train step uses the params themselves as its graph leaves and
a prediction call runs on them, so neither makes a copy. The gradients come
back in float32. Clipping sums their norm in float64, and Adam runs
whole-array in float32 on the float32 weights, as in the mixed-precision
recipe of Micikevicius et al. (arXiv 1710.03740) minus its float16 copy.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as qa_model
from .autodiff import ConfigError, Graph
from .data import Batch, EmbeddingTable, make_batch, prepare_for_training
from .metrics import evaluate
from .spans import best_span, span_text

__all__ = ["AdamState", "TrainLogRecord", "TrainingDivergedError",
           "init_optimizer", "clip_global_norm", "adam_update", "train_step",
           "train", "predict_answers", "check_settings", "SHUFFLE_STREAM",
           "BETA1", "BETA2", "ADAM_EPS"]

MAX_GRAD_NORM = 5.0
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # Adam's decay rates and epsilon
# The first spawn-key word of epoch e's shuffle key, SeedSequence(seed,
# spawn_key=(SHUFFLE_STREAM, e)). It does not keep that key apart from
# dropout's: `model.forward` keys block k at step s as (s, k), so epoch e's
# key is block e's at step 1. The draws still differ, since the shuffle runs
# default_rng on the sequence and dropout seeds PCG64 with one word generated
# from it. A new key would move every trajectory, so the key stays.
SHUFFLE_STREAM = 1

log = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """The loss or the gradient norm went non-finite. For the loss, the
    message names the first bad tensor."""


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
    # np.zeros, not zeros_like: the pages start lazily zeroed, not written
    return AdamState(m={k: np.zeros(v.shape, v.dtype) for k, v in params.items()},
                     v={k: np.zeros(v.shape, v.dtype) for k, v in params.items()})


def clip_global_norm(grads: dict[str, np.ndarray]) -> float:
    """The factor that brings the global L2 norm of `grads` down to
    MAX_GRAD_NORM, 1.0 when the norm is within it, or NaN when the norm is
    not finite. The gradients are not changed: adam_update applies the
    factor as it reads them.

    The norm is summed in float64 whatever the gradients' dtype, as if they
    were widened first, and bit for bit the same.
    """
    total = float(np.sqrt(sum(float(np.square(g, dtype=np.float64).sum())
                              for g in grads.values())))
    if not np.isfinite(total):
        return float("nan")
    return MAX_GRAD_NORM / total if total > MAX_GRAD_NORM else 1.0


def train_step(params: dict[str, np.ndarray], batch: Batch,
               table: EmbeddingTable, state: AdamState,
               config: qa_model.ModelConfig, lr: float = 1e-3) -> float:
    """Forward, backward, clip, Adam update. Mutates params and state.

    The params are the graph's leaves, so forward and backward run in their
    dtype and share their memory; the update changes them in place once the
    backward pass is done with them. A non-finite loss or gradient norm
    raises TrainingDivergedError before the update, with the params and
    `state` as they were.
    """
    graph = Graph()
    leaves = {name: graph.leaf(value) for name, value in params.items()}
    out = qa_model.forward(batch, leaves, table, config, training=True,
                           step=state.step)
    loss = qa_model.loss(out, batch.gold_starts, batch.gold_ends)
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
    scale = clip_global_norm(grads)
    if np.isnan(scale):
        raise TrainingDivergedError(
            f"non-finite gradient norm at optimizer step {state.step}")
    adam_update(params, grads, state, lr, scale=scale)
    return loss_value


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: AdamState, lr: float, scale: float = 1.0) -> None:
    """One bias-corrected Adam step (Kingma & Ba, arXiv 1412.6980) on the
    gradients times `scale`: params change in place and the moments are
    replaced; the gradients are only read.

    Each parameter is updated as whole arrays in its own dtype, in this
    order: g = grad*scale (when the scale is not 1.0), m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*(g*g), then p -= (lr*m_hat) / (sqrt(v_hat) + eps) with
    m_hat = m/(1-b1^t) and v_hat = v/(1-b2^t).

    The moments are new arrays each step, not updated in place: with glibc,
    moments that never move let the allocator return the step's freed heap
    to the system, and the next step's forward and backward fault it back in
    (at h=150, B=20: ~16k page faults and ~6% more time per step).
    """
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    for name, p in params.items():
        g = grads[name] * scale if scale != 1.0 else grads[name]
        m = state.m[name] * b1
        m += (1 - b1) * g
        v = state.v[name] * b2
        v += (1 - b2) * (g * g)
        state.m[name], state.v[name] = m, v
        p -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + ADAM_EPS)


def epoch_order(seed: int, epoch: int, count: int) -> np.ndarray:
    """Deterministic example permutation for one epoch."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(SHUFFLE_STREAM, epoch)))
    return rng.permutation(count)


def check_settings(batch_size: int, max_answer_len: int,
                   eval_every: int = 500, lr: float = 1e-3, iters: int = 0) -> None:
    """Raise ConfigError for a run setting out of range. `train` and
    `predict_answers` check their own; `qa` checks its flags before it loads
    or opens any file."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if max_answer_len < 1:
        raise ConfigError(f"max_answer_len must be >= 1, got {max_answer_len}")
    if eval_every < 1:
        raise ConfigError(f"eval_every must be >= 1, got {eval_every}")
    if not 0.0 < lr < float("inf"):
        raise ConfigError(f"lr must be finite and > 0, got {lr}")
    if iters < 0:
        raise ConfigError(f"iters must be >= 0, got {iters}")


def predict_answers(examples, params, table, config: qa_model.ModelConfig,
                    batch_size: int = 40, max_answer_len: int = 20) -> dict[str, str]:
    """Decode best spans for every example; returns {qid: answer text}.

    An example with an empty question or context has nothing to attend over
    and gets the answer ""; the others are decoded `batch_size` at a time,
    each batch built just before it is decoded.
    """
    check_settings(batch_size, max_answer_len)
    predictions = {ex.qid: "" for ex in examples
                   if not ex.question_tokens or not ex.context_tokens}
    if predictions:
        log.warning("predicting '' for %d examples with an empty question or "
                    "context", len(predictions))
    answerable = [ex for ex in examples if ex.qid not in predictions]
    for lo in range(0, len(answerable), batch_size):
        chunk = answerable[lo:lo + batch_size]
        out = qa_model.forward(make_batch(chunk, table, config.context_cap), params,
                               table, config, training=False)
        p_start, p_end = out.p_start, out.p_end
        for row, ex in enumerate(chunk):
            pred = best_span(p_start[row], p_end[row], out.packing.mask[row],
                             max_len=max_answer_len)
            predictions[ex.qid] = span_text(ex.context_tokens, ex.context_text,
                                            pred.start, pred.end)
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
    """Run `iters` optimizer steps over shuffled batches. Each step builds
    only its own batch: step t of an epoch takes examples t*batch_size up to
    (t+1)*batch_size of that epoch's `epoch_order`.

    Resumable: passing params/state from a checkpoint continues the exact
    trajectory because batch order and dropout depend only on (seed, step).
    `on_improve(result)` fires when dev F1 improves on `best_dev_f1` (the
    best so far, from the checkpoint when resuming); dev decoding happens
    every `eval_every` iterations when dev_examples is given.
    """
    check_settings(batch_size, max_answer_len, eval_every, lr, iters)
    usable, _ = prepare_for_training(train_examples, config.context_cap)
    if not usable:
        raise ValueError("no trainable examples after truncation filtering")
    if params is None:
        params = qa_model.init_params(config)
    if state is None:
        state = init_optimizer(params)
    result = TrainResult(params=params, state=state, best_dev_f1=best_dev_f1)

    per_epoch = (len(usable) + batch_size - 1) // batch_size
    order_epoch, order = None, None
    while state.step < iters:
        epoch, offset = divmod(state.step, per_epoch)
        if epoch != order_epoch:
            order_epoch, order = epoch, epoch_order(config.seed, epoch, len(usable))
        lo = offset * batch_size
        batch = make_batch([usable[i] for i in order[lo:lo + batch_size]], table,
                           config.context_cap)
        tick = time.perf_counter()
        loss_value = train_step(params, batch, table, state, config, lr)
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
