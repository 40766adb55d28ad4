"""The three benchmark workloads.

Each workload sets up (loads, initialises, builds batches), then runs its
timed job, then checks the program's outputs. `Run` carries the settings and
collects what a workload measures; run.py turns that into the result line.

Why these three (also recorded in BENCHMARK.json):

- overfit_fixture: acceptance criterion 5 on the bundled 32 examples. Its
  tensors are tiny, so per-op Python and tape overhead dominate; it shows
  op-count and interpreter-overhead changes, and it carries the quality gate.
- train_paper: training at the paper's per-example shape with ragged rows.
  GEMMs and the O(L^2) slice backward / gradient accumulation dominate; it
  shows backward, tape-memory and kernel changes.
- predict_dev: the `qa eval` path without a tape, on dev-shaped data padded
  to the 300-token cap. Backward-only changes should not move it; long-context
  forward cost and any context-sharing cache do.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from spanqa import checkpoint, data, metrics, model, training

import gen
from tracing import Tracer

MAX_ANSWER_LEN = 20
# Set-up is timed again between timed units, in bursts at least SETUP_GAP_S
# apart, while set-up samples take under SETUP_SHARE of the run so far.
SETUP_GAP_S = 2.0
SETUP_BURST_S = 0.1
SETUP_SHARE = 0.1

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "tests", "fixtures")
OVERFIT_ITERS = 300
OVERFIT_BATCH = 8
OVERFIT_SEED = 0             # criterion 5's model seed; see overfit_fixture
OVERFIT_CHUNK = 20           # iterations per train call: whole epochs of 4 batches
PAPER_MIN_STEPS = 4          # the fixed job behind time_to_target_s
PAPER_TRACED_STEPS = 2
DEV_MIN_PASSES = 2
DEV_BATCH = 40


@dataclass
class Run:
    seed: int
    seconds: float
    workdir: str
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple] = field(default_factory=dict)   # name -> (value, unit)
    notes: dict[str, tuple] = field(default_factory=dict)     # printed, not gated
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    units: int = 0
    overhead_pct: float = 0.0
    setup_times: list[float] = field(default_factory=list)
    _setup_fn: object = None
    _started: float = 0.0
    _last_setup: float = 0.0

    def metric(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def note(self, name, value, unit):
        self.notes[name] = (value, unit)

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def setup(self, fn):
        """Run `fn` as set-up and return its result: under the tracer when
        tracing, else timed as the first set-up sample."""
        if self.tracer is not None:
            with self.tracer.active("setup"):
                return fn()
        self._setup_fn = fn
        self._started = time.perf_counter()
        return self._sample_setup()

    def _sample_setup(self):
        gc.collect()
        start = time.perf_counter()
        result = self._setup_fn()
        self._last_setup = time.perf_counter()
        self.setup_times.append(self._last_setup - start)
        return result

    def resample_setup(self) -> None:
        """Between timed units: time a burst of set-ups, if the gap and share
        rules allow; a no-op when tracing. The host's speed shifts for
        seconds at a time, so samples spread over the run give a steadier
        median than a block of them."""
        if self._setup_fn is None:
            return
        now = time.perf_counter()
        if (now - self._last_setup < SETUP_GAP_S
                or sum(self.setup_times) > SETUP_SHARE * (now - self._started)):
            return
        while time.perf_counter() - now < SETUP_BURST_S:
            self._sample_setup()

    def finish_setup(self) -> None:
        if self.setup_times:
            self.metric("setup_s", statistics.median(self.setup_times), "s")
            self.note("setup_samples", len(self.setup_times), "count")


def _attempt(run: Run, count: int, fn, *args, **kwargs):
    """Call fn; on an exception count `count` failed operations."""
    run.attempted += count
    try:
        return fn(*args, **kwargs)
    except Exception:  # a raised step or batch is a counted failure
        traceback.print_exc(file=sys.stderr)
        run.failed += count
        return None


def _check_predictions(run: Run, predictions, examples, label: str) -> None:
    """Every qid answered with a non-empty substring of its context of at
    most MAX_ANSWER_LEN tokens; each invalid answer is a failed operation.
    Pass only examples whose decode call returned: a raised call has
    already counted its examples as failed."""
    invalid = 0
    for ex in examples:
        answer = predictions.get(ex.qid) if predictions else None
        if (not answer or answer not in ex.context_text
                or len(answer.split()) > MAX_ANSWER_LEN):
            invalid += 1
    run.failed += invalid
    run.check(f"{label}: valid answers", invalid == 0,
              f"{len(examples) - invalid}/{len(examples)}")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _finite_losses(run: Run, losses):
    bad = sum(1 for loss in losses if not np.isfinite(loss))
    run.failed += bad
    run.check("losses finite", bad == 0, f"{len(losses) - bad}/{len(losses)}")


# ---------------------------------------------------------------------------


def overfit_fixture(run: Run) -> None:
    squad = os.path.join(FIXTURE_DIR, "tiny_squad.json")
    glove = os.path.join(FIXTURE_DIR, "tiny_glove.txt")
    # Criterion 5 fixes the inputs and the model seed, so --seed changes
    # nothing here. Step cost also depends on the training trajectory, so a
    # seed-dependent trajectory would add spread between runs.
    config = model.ModelConfig(hidden_size=32, dropout_rate=0.0, embedding_dim=32,
                               seed=OVERFIT_SEED)

    def setup():
        examples = data.load_squad(squad)
        table = data.load_glove(glove, dim=32)
        params = model.init_params(config)
        return examples, table, params, training.init_optimizer(params)

    examples, table, params, state = run.setup(setup)

    def job(params, state):
        """Criterion 5's run: `train` in whole-epoch chunks, which continue
        the same trajectory, then decode and evaluate. Set-up samples
        between chunks are left out of the clock."""
        records, clock = [], 0.0
        while state.step < OVERFIT_ITERS:
            target = min(state.step + OVERFIT_CHUNK, OVERFIT_ITERS)
            chunk, seconds = _timed(training.train, examples, table, config,
                                    iters=target, batch_size=OVERFIT_BATCH,
                                    params=params, state=state)
            records += chunk.records
            clock += seconds
            run.resample_setup()
        predictions, decode_s = _timed(training.predict_answers, examples, params,
                                       table, config, batch_size=OVERFIT_BATCH,
                                       max_answer_len=MAX_ANSWER_LEN)
        report, evaluate_s = _timed(metrics.evaluate, predictions, examples)
        return records, predictions, decode_s, report, clock + decode_s + evaluate_s

    def timed_job(params, state, traced):
        """The job's outcome, or None if it raised."""
        run.attempted += OVERFIT_ITERS + len(examples)
        try:
            if traced:
                with run.tracer.active("job"):
                    return job(params, state)
            return job(params, state)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            run.failed += OVERFIT_ITERS - state.step + len(examples)
            run.check("overfit run completes", False, f"{state.step} steps")
            return None

    if run.tracer is not None:
        # The same job untraced first, for the tracing overhead.
        fresh = model.init_params(config)
        reference = timed_job(fresh, training.init_optimizer(fresh), False)
        outcome = timed_job(params, state, True)
        if outcome is None or reference is None:
            return
        run.check("traced run repeats untraced predictions", outcome[1] == reference[1])
        run.units = len(outcome[0])
        run.overhead_pct = 100.0 * (outcome[4] / reference[4] - 1.0)
    else:
        outcome = timed_job(params, state, False)
        if outcome is None:
            return
    records, predictions, decode_s, report, elapsed = outcome

    losses = [record.train_loss for record in records]
    ratio = losses[-1] / losses[0]
    _finite_losses(run, losses)
    _check_predictions(run, predictions, examples, "overfit decode")
    run.check("train F1 >= 95", report.f1 >= 95.0, f"{report.f1:.2f}")
    run.check("train EM >= 90", report.em >= 90.0, f"{report.em:.2f}")
    run.check("loss ratio < 0.1", ratio < 0.1, f"{ratio:.5f}")
    run.note("train_f1", report.f1, "%")
    run.note("train_em", report.em, "%")
    run.note("loss_ratio", ratio, "ratio")

    if run.tracer is not None:
        return

    steps = [record.seconds for record in records]
    run.metric("step_s", statistics.median(steps), "s")
    run.metric("time_to_target_s", elapsed, "s")
    run.note("predict_examples_per_s", len(examples) / decode_s, "1/s")
    ordered = sorted(steps)
    run.note("step_s.p90", ordered[int(0.9 * len(ordered))], "s")
    run.note("step_samples", len(steps), "count")


def train_paper(run: Run) -> None:
    examples, table = gen.paper_examples(run.seed)
    config = model.ModelConfig(hidden_size=gen.HIDDEN, dropout_rate=0.2,
                               embedding_dim=gen.EMBED_DIM, context_cap=300,
                               seed=run.seed % 2**32)

    def setup():
        params = model.init_params(config)
        state = training.init_optimizer(params)
        batches = data.build_batches(examples, table, gen.PAPER_BATCH,
                                     context_cap=config.context_cap, training=True)
        return params, state, batches

    params, state, batches = run.setup(setup)
    losses: list[float] = []

    def step(batch):
        start = time.perf_counter()
        loss = _attempt(run, 1, training.train_step, params, batch, table, state,
                        config)
        if loss is not None:
            losses.append(loss)
        return time.perf_counter() - start

    step(batches[0])                                  # untimed warm-up
    run.resample_setup()
    timed = batches[1:]
    if run.tracer is not None:
        ref = [step(b) for b in timed[:PAPER_TRACED_STEPS]]
        with run.tracer.active("job"):
            traced = [step(b) for b in timed[:PAPER_TRACED_STEPS]]
        run.units = len(traced)
        run.overhead_pct = 100.0 * (statistics.median(traced)
                                    / statistics.median(ref) - 1.0)
        _finite_losses(run, losses)
        return

    times: list[float] = []
    window = time.perf_counter()
    while (len(times) < PAPER_MIN_STEPS
           or time.perf_counter() - window < run.seconds):
        times.append(step(timed[len(times) % len(timed)]))
        run.resample_setup()
    _finite_losses(run, losses)
    run.metric("step_s", statistics.median(times), "s")
    run.metric("time_to_target_s", sum(times[:PAPER_MIN_STEPS]), "s")
    run.note("step_samples", len(times), "count")


def predict_dev(run: Run) -> None:
    with tempfile.TemporaryDirectory(dir=run.workdir) as inputs:
        _predict_dev(run, gen.write_dev_inputs(run.seed, inputs))


def _predict_dev(run: Run, paths) -> None:
    def setup():
        loaded = checkpoint.load_checkpoint(paths["ckpt"])
        table = data.load_glove(paths["glove"], dim=loaded.config.embedding_dim)
        return loaded, table, data.load_squad(paths["squad"])

    loaded, table, examples = run.setup(setup)
    chunks = [examples[i:i + DEV_BATCH] for i in range(0, len(examples), DEV_BATCH)]
    batch_times: list[float] = []
    seen: list[dict] = []

    def one_pass():
        predictions: dict[str, str] = {}
        answered = []
        predict_s = 0.0
        for chunk in chunks:
            got, seconds = _timed(_attempt, run, len(chunk), training.predict_answers,
                                  chunk, loaded.params, table, loaded.config,
                                  batch_size=DEV_BATCH, max_answer_len=MAX_ANSWER_LEN)
            batch_times.append(seconds)
            predict_s += seconds
            if got is not None:
                predictions.update(got)
                answered += chunk
            run.resample_setup()
        report, evaluate_s = _timed(metrics.evaluate, predictions, examples)
        _check_predictions(run, predictions, answered, "dev decode")
        run.check("evaluate scores every question",
                  report.total == len(examples) and report.missing == 0
                  and 0.0 <= report.f1 <= 100.0, f"total {report.total}")
        if seen:
            run.check("predictions repeat across passes", predictions == seen[0])
        seen.append(predictions)
        return predict_s, predict_s + evaluate_s

    if run.tracer is not None:
        ref = one_pass()[1]
        batch_times.clear()
        with run.tracer.active("job"):
            traced = one_pass()[1]
        run.units = len(batch_times)
        run.overhead_pct = 100.0 * (traced / ref - 1.0)
        return

    passes = []
    window = time.perf_counter()
    while len(passes) < DEV_MIN_PASSES or time.perf_counter() - window < run.seconds:
        passes.append(one_pass())
    run.metric("step_s", statistics.median(batch_times), "s")
    run.metric("time_to_target_s", statistics.median(t for _, t in passes), "s")
    run.note("predict_examples_per_s",
             len(examples) * len(passes) / sum(p for p, _ in passes), "1/s")
    run.note("passes", len(passes), "count")
    run.note("step_samples", len(batch_times), "count")


WORKLOADS = {"overfit_fixture": overfit_fixture, "train_paper": train_paper,
             "predict_dev": predict_dev}
