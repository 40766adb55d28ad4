"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 1 needs the official SQuAD v1.1 train file; it is skipped (with
instructions) when the file is not present. Everything else runs
self-contained on committed fixtures.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import require_official
from span_oracle import oracle_best_span
from spanqa.checkpoint import load_for_resume, save_checkpoint
from spanqa.data import dataset_stats, load_glove, load_squad
from spanqa.diagnostics import (END_TO_END_THRESHOLD, OP_THRESHOLD,
                                make_tiny_problem, run_gradcheck_suite)
from spanqa.metrics import evaluate, f1_score
from spanqa.model import ModelConfig, forward
from spanqa.spans import best_span, raw_product_span
from spanqa.training import predict_answers, train
from spanqa import autodiff as ad


def verdict(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tiny_files(fixtures_dir):
    return (fixtures_dir / "tiny_squad.json", fixtures_dir / "tiny_glove.txt")


def test_criterion_1_dataset_statistics():
    path = require_official("QA_SQUAD_TRAIN", "train-v1.1.json")
    started = time.perf_counter()
    stats = dataset_stats(load_squad(path))
    elapsed = time.perf_counter() - started
    answers_ok = abs(stats.answer_under_20_fraction - 0.9898) <= 0.005
    contexts_ok = abs(stats.context_under_300_fraction - 0.9834) <= 0.005
    verdict(1, answers_ok and contexts_ok and elapsed < 120,
            f"answers<20: {100 * stats.answer_under_20_fraction:.2f}% "
            f"(target 98.98 +/- 0.5), contexts<300: "
            f"{100 * stats.context_under_300_fraction:.2f}% "
            f"(target 98.34 +/- 0.5), {elapsed:.0f}s")


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    rows, _ = run_gradcheck_suite(seed=0)
    elapsed = time.perf_counter() - started
    op_rows = [r for r in rows if r[0] != "end_to_end"]
    worst_op = max(err for _, err, _ in op_rows)
    end_err = [err for name, err, _ in rows if name == "end_to_end"][0]
    ok = worst_op < OP_THRESHOLD and end_err < END_TO_END_THRESHOLD and elapsed < 60
    verdict(2, ok, f"worst op {worst_op:.2e} (< 1e-4), "
                   f"end-to-end {end_err:.2e} (< 1e-3), {elapsed:.1f}s")


def test_criterion_3_decode_oracle_equivalence():
    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(1000):
        length = int(rng.integers(1, 51))
        p_start, p_end = rng.random(length), rng.random(length)
        mask = np.ones(length)
        fast = best_span(p_start, p_end, mask, max_len=length)
        slow = oracle_best_span(p_start, p_end, mask)
        if (fast.start, fast.end) != (slow.start, slow.end):
            mismatches += 1
    smart = best_span([0.45, 0.35, 0.2], [0.1, 0.55, 0.35], np.ones(3), max_len=3)
    raw = raw_product_span([0.45, 0.35, 0.2], [0.1, 0.55, 0.35], np.ones(3),
                           max_len=3)
    hand_ok = (smart.start, smart.end) == (1, 1) and (raw.start, raw.end) == (0, 1)
    verdict(3, mismatches == 0 and hand_ok,
            f"{mismatches}/1000 oracle mismatches; hand case smart="
            f"({smart.start},{smart.end}) raw=({raw.start},{raw.end})")


def test_criterion_4_metric_oracle_table(metric_cases):
    failures = []
    for case in metric_cases:
        stats = f1_score(case["prediction"], case["truth"])
        overlap, np_, nt = case["overlap"], case["pred_len"], case["truth_len"]
        if np_ == 0 and nt == 0:
            expected = 1.0
        elif np_ == 0 or nt == 0 or overlap == 0:
            expected = 0.0
        else:
            p, r = overlap / np_, overlap / nt
            expected = 2 * p * r / (p + r)
        if stats.f1 != expected or stats.em != case["em"]:
            failures.append(case["prediction"])
    rng = random.Random(404)
    words = ["alpha", "beta", "gamma", "the", "10-7", "an", ""]
    property_ok = True
    for _ in range(10_000):
        a = " ".join(rng.choices(words, k=rng.randrange(0, 5)))
        b = " ".join(rng.choices(words, k=rng.randrange(0, 5)))
        sa, sb = f1_score(a, b), f1_score(b, a)
        if sa.f1 != sb.f1 or (sa.em == 1 and sa.f1 != 1.0):
            property_ok = False
            break
    verdict(4, not failures and property_ok,
            f"10/10 fixture cases exact, symmetry+EM=>F1 on 10^4 pairs"
            if not failures else f"fixture failures: {failures}")


def test_criterion_5_overfit(tiny_files):
    squad_path, glove_path = tiny_files
    examples = load_squad(squad_path)
    assert len(examples) == 32
    table = load_glove(glove_path, dim=32)
    config = ModelConfig(hidden_size=32, dropout_rate=0.0, embedding_dim=32,
                         seed=0)
    started = time.perf_counter()
    result = train(examples, table, config, iters=300, batch_size=8)
    predictions = predict_answers(examples, result.params, table, config,
                                  batch_size=8)
    report = evaluate(predictions, examples)
    elapsed = time.perf_counter() - started
    first = result.records[0].train_loss
    last = result.records[-1].train_loss
    ok = (report.f1 >= 95.0 and report.em >= 90.0 and last < 0.1 * first
          and elapsed < 600)
    verdict(5, ok, f"train F1 {report.f1:.2f} (>=95), EM {report.em:.2f} (>=90), "
                   f"loss {first:.3f}->{last:.4f} (<0.1x), {elapsed:.0f}s")


def test_criterion_6_conditioning_path():
    config, params, table, batch = make_tiny_problem(seed=606)
    from spanqa.autodiff import Graph

    def named_grads(which):
        graph = Graph()
        leaves = {k: graph.leaf(v) for k, v in params.items()}
        out = forward(batch, leaves, table, config)
        if which == "end":
            root = ad.cross_entropy((out.end_logits,), (batch.gold_ends,), out.packing)
        else:
            root = ad.cross_entropy((out.start_logits,), (batch.gold_starts,), out.packing)
        grads = graph.backward(root)
        return {k: grads[leaf.node_id] for k, leaf in leaves.items()}

    end_grads = named_grads("end")
    start_grads = named_grads("start")
    cond_nonzero = all(
        np.abs(end_grads[k]).max() > 0
        for k in params if k.startswith("start_decoder."))
    start_blind = all(
        np.all(start_grads[k] == 0.0)
        for k in params if k.startswith(("end_decoder.", "end_head.")))
    distinct = all(params[f"start_head.{k}"] is not params[f"end_head.{k}"]
                   for k in ("W1", "b1", "W2"))
    verdict(6, cond_nonzero and start_blind and distinct,
            f"end-loss reaches start decoder: {cond_nonzero}; start-loss blind "
            f"to end decoder: {start_blind}; heads distinct: {distinct}")


def test_criterion_7_initial_loss(tiny_files):
    squad_path, glove_path = tiny_files
    examples = load_squad(squad_path)
    table = load_glove(glove_path, dim=32)
    config = ModelConfig(hidden_size=16, dropout_rate=0.0, embedding_dim=32,
                         seed=7)
    result = train(examples, table, config, iters=1, batch_size=8)
    first = result.records[0].train_loss
    mean_len = float(np.mean([len(ex.context_tokens) for ex in examples]))
    expected = 2 * math.log(mean_len)
    ok = abs(first - expected) <= 0.10 * expected
    verdict(7, ok, f"first loss {first:.3f} vs 2*ln(mean len {mean_len:.1f}) = "
                   f"{expected:.3f} (+/-10%)")


def test_criterion_8_determinism_and_persistence(tiny_files, tmp_path):
    squad_path, glove_path = tiny_files
    examples = load_squad(squad_path)
    table = load_glove(glove_path, dim=32)
    config = ModelConfig(hidden_size=8, dropout_rate=0.1, embedding_dim=32,
                         seed=8)

    losses = []
    for _ in range(2):
        run = train(examples, table, config, iters=8, batch_size=8)
        losses.append([r.train_loss for r in run.records])
    logs_identical = losses[0] == losses[1]

    run = train(examples, table, config, iters=4, batch_size=8)
    first_path = tmp_path / "a.ckpt"
    second_path = tmp_path / "b.ckpt"
    save_checkpoint(first_path, run.params, config, run.state)
    loaded, state = load_for_resume(first_path)
    save_checkpoint(second_path, loaded.params, loaded.config, state,
                    best_dev_f1=loaded.best_dev_f1)
    roundtrip_identical = first_path.read_bytes() == second_path.read_bytes()

    resumed = train(examples, table, loaded.config, iters=8, batch_size=8,
                    params=loaded.params, state=state)
    resume_matches = ([r.train_loss for r in run.records]
                      + [r.train_loss for r in resumed.records]) == losses[0]

    verdict(8, logs_identical and roundtrip_identical and resume_matches,
            f"logs identical: {logs_identical}; checkpoint byte round trip: "
            f"{roundtrip_identical}; resume reproduces trajectory: {resume_matches}")
