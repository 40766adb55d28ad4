import dataclasses
import gc
import math
import os
import weakref

import numpy as np
import pytest

from memtrace import traced
from spanqa.checkpoint import (FORMAT_VERSION, CheckpointMagicError,
                               CheckpointTruncatedError, CheckpointVersionError,
                               load_checkpoint, save_checkpoint)
from spanqa import data
from spanqa.data import (build_batches, load_glove, load_squad,
                         prepare_for_training)
from spanqa.diagnostics import make_tiny_problem
from spanqa.model import ModelConfig, init_params
from spanqa import model, training
from spanqa.training import (ADAM_EPS, BETA1, BETA2, TrainingDivergedError,
                             adam_update, clip_global_norm, init_optimizer,
                             predict_answers, train, train_step)


@pytest.fixture(scope="module")
def tiny_dataset(fixtures_dir):
    examples = load_squad(fixtures_dir / "tiny_squad.json")
    table = load_glove(fixtures_dir / "tiny_glove.txt", dim=32)
    return examples, table


def small_config(seed=0, dropout=0.0):
    return ModelConfig(hidden_size=8, dropout_rate=dropout, embedding_dim=32,
                       context_cap=300, seed=seed)


class TestTrainStep:
    def test_repeated_steps_reduce_loss(self):
        config, params, table, batch = make_tiny_problem(seed=21, hidden=6)
        state = init_optimizer(params)
        losses = [train_step(params, batch, table, state, config)
                  for _ in range(50)]
        assert losses[-1] < losses[0]

    def test_zero_learning_rate_keeps_params(self):
        config, params, table, batch = make_tiny_problem(seed=22)
        snapshot = {k: v.copy() for k, v in params.items()}
        state = init_optimizer(params)
        train_step(params, batch, table, state, config, lr=0.0)
        for name in params:
            assert np.array_equal(params[name], snapshot[name]), name

    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            config, params, table, batch = make_tiny_problem(seed=23, dropout=0.2)
            state = init_optimizer(params)
            runs.append([train_step(params, batch, table, state, config)
                         for _ in range(5)])
        assert runs[0] == runs[1]

    def test_tape_freed_without_cyclic_gc(self, monkeypatch):
        # the step's Graph must die by reference counting alone: a tape that
        # only the cyclic collector can free lets dead tapes pile up
        graphs = []

        class RecordedGraph(training.Graph):
            def __init__(self):
                super().__init__()
                graphs.append(weakref.ref(self))

        monkeypatch.setattr(training, "Graph", RecordedGraph)
        config, params, table, batch = make_tiny_problem(seed=25, dropout=0.2)
        state = init_optimizer(params)
        enabled = gc.isenabled()
        gc.disable()
        try:
            train_step(params, batch, table, state, config)
            assert len(graphs) == 1
            assert graphs[0]() is None
        finally:
            if enabled:
                gc.enable()

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        config, params, table, batch = make_tiny_problem(seed=24)
        params["start_head.W2"][:] = np.inf
        state = init_optimizer(params)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDivergedError, match="first bad tensor: parameter 'start_head.W2'$"):
            train_step(params, batch, table, state, config)


def reference_adam_update(params, grads, state, lr, scale=1.0):
    """The bias-corrected Adam step as whole-array float32 expressions, in
    adam_update's documented order, with every constant narrowed first."""
    state.step += 1
    t = state.step
    b1, b2 = np.float32(BETA1), np.float32(BETA2)
    for name, p in params.items():
        g = grads[name]
        if scale != 1.0:
            g = g * np.float32(scale)
        m = b1 * state.m[name] + np.float32(1 - BETA1) * g
        v = b2 * state.v[name] + np.float32(1 - BETA2) * (g * g)
        m_hat = m / np.float32(1 - BETA1 ** t)
        v_hat = v / np.float32(1 - BETA2 ** t)
        eps = np.float32(ADAM_EPS)
        p[...] = p - (np.float32(lr) * m_hat) / (np.sqrt(v_hat) + eps)
        assert p.dtype == m.dtype == v.dtype == np.float32
        state.m[name], state.v[name] = m, v


def widened_adam_update(params, grads, state, lr):
    """The bias-corrected Adam step written as whole-array expressions:
    gradients, moments and params widened to float64, then the results
    narrowed back to each param's dtype."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name].astype(np.float64)
        m = BETA1 * state.m[name].astype(np.float64) + (1 - BETA1) * g
        v = BETA2 * state.v[name].astype(np.float64) + (1 - BETA2) * (g * g)
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        wide = p.astype(np.float64) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p[...] = wide.astype(p.dtype)
        state.m[name], state.v[name] = m.astype(p.dtype), v.astype(p.dtype)


def reference_clip(grads):
    """The factor that scales `grads`, summed in float64, to a global norm of
    at most training.MAX_GRAD_NORM, and the norm before clipping."""
    norm = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                         for g in grads.values()))
    scale = training.MAX_GRAD_NORM / norm if norm > training.MAX_GRAD_NORM else 1.0
    return scale, norm


def reference_train_step(params, batch, table, state, config, lr=1e-3):
    """train_step as whole-array steps: float32 forward and backward on a copy
    of the float32 params, the clip factor, then reference_adam_update.
    Returns the loss and the pre-clip norm."""
    graph = training.Graph()
    leaves = {name: graph.leaf(value.astype(np.float32))
              for name, value in params.items()}
    out = model.forward(batch, leaves, table, config, training=True,
                        step=state.step)
    loss = model.loss(out, batch.gold_starts, batch.gold_ends, batch.context_mask)
    grad_map = graph.backward(loss)
    grads = {name: grad_map[leaf.node_id] for name, leaf in leaves.items()}
    scale, norm = reference_clip(grads)
    reference_adam_update(params, grads, state, lr, scale)
    return loss.item(), norm


def _copy_params(params):
    return {k: v.copy() for k, v in params.items()}


def _copy_state(state):
    return dataclasses.replace(state, m=_copy_params(state.m),
                               v=_copy_params(state.v))


def assert_same_model(params, state, ref_params, ref_state):
    assert state.step == ref_state.step
    for name in params:
        assert np.array_equal(params[name], ref_params[name]), name
        assert np.array_equal(state.m[name], ref_state.m[name]), name
        assert np.array_equal(state.v[name], ref_state.v[name]), name


class TestAdamUpdate:
    def test_in_place_update_is_bit_identical_to_reference(self):
        rng = np.random.default_rng(27)
        shapes = {"W": (6, 5), "b": (5,), "b2": (1,)}
        params = {k: rng.normal(size=shape).astype(np.float32)
                  for k, shape in shapes.items()}
        state = init_optimizer(params)
        ref_params = _copy_params(params)
        ref_state = _copy_state(state)
        for step in range(3):
            scale = 10.0 ** rng.integers(-8, 3, size=1)[0]
            grads = {k: (rng.normal(size=shape) * scale).astype(np.float32)
                     for k, shape in shapes.items()}
            grads["W"][0] = 0.0    # zero gradients: the eps path
            ref_grads = _copy_params(grads)
            adam_update(params, grads, state, lr=1e-3)
            reference_adam_update(ref_params, ref_grads, ref_state, lr=1e-3)
            assert state.step == ref_state.step == step + 1
            assert_same_model(params, state, ref_params, ref_state)
            # the gradients are read, not used as scratch
            assert all(np.array_equal(grads[k], ref_grads[k]) for k in shapes)

    @pytest.mark.parametrize("magnitude,clips", [(1.0, True), (1e-3, False)])
    def test_update_matches_clipped_reference(self, magnitude, clips):
        # "z" stays zero
        rng = np.random.default_rng(29)
        shapes = {"W": (3, 700), "b": (5,), "z": (7,)}
        params = {k: rng.normal(size=shape).astype(np.float32)
                  for k, shape in shapes.items()}
        state = init_optimizer(params)
        ref_params = _copy_params(params)
        ref_state = _copy_state(state)
        for _ in range(3):
            grads = {k: (rng.normal(size=shape) * magnitude).astype(np.float32)
                     for k, shape in shapes.items()}
            grads["W"][1, :100] = 0.0       # zero gradients: the eps path
            grads["z"][:] = 0.0
            scale = clip_global_norm(grads)
            ref_scale, norm = reference_clip(grads)
            assert scale == ref_scale
            assert (norm > training.MAX_GRAD_NORM) == clips == (scale < 1.0)
            adam_update(params, grads, state, 1e-3, scale=scale)
            reference_adam_update(ref_params, grads, ref_state, 1e-3, ref_scale)
            assert_same_model(params, state, ref_params, ref_state)

    def test_float32_update_stays_within_bound_of_widened_update(self):
        # each step starts both sides from the float32 state, so the bound is
        # per step, not accumulated; params at Xavier-init scale (|p| < 0.5),
        # where one float32 ulp, a rounding both sides may take apart, is at
        # most 3e-8 = 3e-5*lr
        rng = np.random.default_rng(30)
        lr = 1e-3
        shapes = {"W": (40, 30), "b": (30,)}
        params = {k: rng.uniform(-0.5, 0.5, size=shape).astype(np.float32)
                  for k, shape in shapes.items()}
        state = init_optimizer(params)
        for step in range(50):
            scale = (1.0, 0.37)[step % 2]
            grads = {k: (rng.normal(size=shape)
                         * 10.0 ** rng.uniform(-6, 2, size=shape)).astype(np.float32)
                     for k, shape in shapes.items()}
            grads["W"][step % 40] = 0.0     # zero gradients: the eps path
            ref_params, ref_state = _copy_params(params), _copy_state(state)
            adam_update(params, grads, state, lr, scale=scale)
            widened_adam_update(ref_params, {k: g.astype(np.float64) * scale
                                             for k, g in grads.items()},
                                ref_state, lr)
            for name in shapes:
                assert np.abs(params[name] - ref_params[name]).max() <= 1e-4 * lr
                for got, ref in ((state.m[name], ref_state.m[name]),
                                 (state.v[name], ref_state.v[name])):
                    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    @staticmethod
    def _match_reference_steps(clips):
        config, params, table, batch = make_tiny_problem(seed=28, dropout=0.2)
        state = init_optimizer(params)
        ref_params = _copy_params(params)
        ref_state = _copy_state(state)
        for _ in range(3):
            loss = train_step(params, batch, table, state, config)
            ref_loss, norm = reference_train_step(ref_params, batch, table,
                                                  ref_state, config)
            assert loss == ref_loss
            assert (norm > training.MAX_GRAD_NORM) == clips
            assert_same_model(params, state, ref_params, ref_state)

    def test_train_steps_match_reference_update(self):
        self._match_reference_steps(clips=False)

    def test_clipped_train_steps_match_reference_update(self, monkeypatch):
        # this problem's gradients stay under the default bound; 1e-3 clips
        monkeypatch.setattr(training, "MAX_GRAD_NORM", 1e-3)
        self._match_reference_steps(clips=True)

    def test_transposed_view_param_is_updated_in_place(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(4, 3)).astype(np.float32)
        before, view = base.copy(), base.T
        params = {"W": view}
        contiguous = {"W": np.ascontiguousarray(view)}
        state, ref_state = init_optimizer(params), init_optimizer(contiguous)
        for _ in range(2):
            grads = {"W": rng.normal(size=(3, 4)).astype(np.float32)}
            adam_update(params, grads, state, lr=1e-3)
            adam_update(contiguous, grads, ref_state, lr=1e-3)
        assert params["W"] is view and np.shares_memory(view, base)
        assert not np.array_equal(base, before)
        assert_same_model(params, state, contiguous, ref_state)


def global_norm(grads):
    return math.sqrt(sum(float(np.square(g, dtype=np.float64).sum())
                         for g in grads.values()))


class TestGradientClipping:
    def test_clip_bounds_global_norm(self):
        rng = np.random.default_rng(25)
        grads = {"a": rng.normal(size=(40, 40)) * 10, "b": rng.normal(size=100) * 10}
        before = {k: g.copy() for k, g in grads.items()}
        scale = clip_global_norm(grads)
        assert global_norm(grads) > 5.0
        assert global_norm(grads) * scale <= 5.0 + 1e-9
        assert all(np.array_equal(grads[k], before[k]) for k in grads)

    def test_small_gradients_untouched(self):
        grads = {"a": np.full(4, 0.01)}
        before = grads["a"].copy()
        assert clip_global_norm(grads) == 1.0
        assert np.array_equal(grads["a"], before)

    def test_post_clip_norm_during_training(self, monkeypatch):
        # observed via a wrapper: clip_global_norm runs once per step, and its
        # factor brings every step's gradients within the bound; at 0.05 the
        # bound clips every step of this problem
        monkeypatch.setattr(training, "MAX_GRAD_NORM", 0.05)
        config, params, table, batch = make_tiny_problem(seed=26)
        state = init_optimizer(params)
        seen = []
        original = training.clip_global_norm

        def spy(grads):
            scale = original(grads)
            seen.append((global_norm(grads), scale))
            return scale

        monkeypatch.setattr(training, "clip_global_norm", spy)
        for _ in range(3):
            train_step(params, batch, table, state, config)
        assert len(seen) == 3
        assert all(norm > 0.05 and norm * scale <= 0.05 * (1 + 1e-12)
                   for norm, scale in seen)


class TestTrainLoop:
    def test_initial_loss_matches_uniform_prediction(self, tiny_dataset):
        examples, table = tiny_dataset
        config = small_config(seed=3)
        result = train(examples, table, config, iters=1, batch_size=8)
        mean_len = np.mean([len(ex.context_tokens) for ex in examples])
        expected = 2 * math.log(mean_len)
        assert result.records[0].train_loss == pytest.approx(expected, rel=0.10)

    def test_two_runs_identical_records(self, tiny_dataset):
        examples, table = tiny_dataset
        trajectories = []
        for _ in range(2):
            result = train(examples, table, small_config(seed=5, dropout=0.1),
                           iters=6, batch_size=8)
            trajectories.append([r.train_loss for r in result.records])
        assert trajectories[0] == trajectories[1]

    def test_epoch_reshuffles_are_deterministic(self, tiny_dataset):
        examples, table = tiny_dataset
        result = train(examples, table, small_config(seed=9), iters=9,
                       batch_size=8)
        # 32 examples / batch 8 = 4 batches per epoch; 9 iters spans 3 epochs
        assert [r.iteration for r in result.records] == list(range(1, 10))

    def test_filters_once_with_unchanged_batches(self, tiny_dataset, monkeypatch):
        # a cap of 20 drops the 10 examples whose answer ends at token 26
        examples, table = tiny_dataset
        config = ModelConfig(hidden_size=4, dropout_rate=0.0, embedding_dim=32,
                             context_cap=20, seed=4)
        usable, dropped = prepare_for_training(examples, config.context_cap)
        assert dropped == 10
        # each epoch's batches as filtering inside build_batches gives them
        expected = [batch for epoch in (0, 1) for batch in build_batches(
            [usable[i] for i in training.epoch_order(config.seed, epoch, len(usable))],
            table, 8, context_cap=config.context_cap, training=True)]

        filters, seen = [], []

        def counting(*args):
            filters.append(args)
            return prepare_for_training(*args)

        def recording(params, batch, table, state, config, lr):
            seen.append(batch)
            state.step += 1
            return 0.0

        monkeypatch.setattr(data, "prepare_for_training", counting)
        monkeypatch.setattr(training, "prepare_for_training", counting)
        monkeypatch.setattr(training, "train_step", recording)
        train(examples, table, config, iters=len(expected), batch_size=8)
        assert len(filters) == 1
        assert len(seen) == len(expected) == 6      # 22 usable / 8: 3 per epoch
        for got, want in zip(seen, expected):
            for field in dataclasses.fields(want):
                assert np.array_equal(getattr(got, field.name),
                                      getattr(want, field.name)), field.name

    def test_empty_question_is_dropped(self, tiny_dataset):
        # its answer still aligns, but its batch's attention would have a
        # row with nothing to attend over
        examples, table = tiny_dataset
        config = small_config(seed=3)
        empty = dataclasses.replace(examples[5], question_text="   ", question_tokens=[])
        examples = examples[:5] + [empty] + examples[6:]
        usable, dropped = prepare_for_training(examples, config.context_cap)
        assert dropped == 1 and empty not in usable
        # 31 usable examples / batch 8: the 4 iterations take every batch
        result = train(examples, table, config, iters=4, batch_size=8)
        assert [r.iteration for r in result.records] == [1, 2, 3, 4]


class TestPredict:
    @pytest.mark.parametrize("field", ["question_tokens", "context_tokens"])
    def test_empty_input_predicts_empty_and_keeps_the_batch(self, tiny_dataset,
                                                            field):
        examples, table = tiny_dataset
        examples = examples[:8]
        config = small_config(seed=12)
        params = init_params(config)
        empty = dataclasses.replace(examples[3], **{field: []})
        others = examples[:3] + examples[4:]
        predictions = predict_answers(examples[:3] + [empty] + examples[4:],
                                      params, table, config, batch_size=8)
        assert predictions[empty.qid] == ""
        without = predict_answers(others, params, table, config, batch_size=8)
        assert {qid: predictions[qid] for qid in without} == without
        assert len(predictions) == len(examples)

    def test_runs_on_the_params_without_a_copy(self, tiny_dataset):
        # one short example's activations at h=64 take a small share of the
        # params' bytes; a copy of the params, even at half their width,
        # would take at least half
        examples, table = tiny_dataset
        short = min(examples, key=lambda ex: len(ex.context_tokens))
        config = ModelConfig(hidden_size=64, embedding_dim=32)
        params = init_params(config)
        _, _, peak = traced(predict_answers, [short], params, table, config)
        assert peak < sum(p.nbytes for p in params.values()) / 2


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        config, params, table, batch = make_tiny_problem(seed=31)
        state = init_optimizer(params)
        train_step(params, batch, table, state, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config, state)
        loaded = load_checkpoint(path)
        assert loaded.state.step == 1
        assert loaded.config == config
        assert set(loaded.params) == set(params)
        for name in params:
            assert np.array_equal(loaded.params[name], params[name])
            assert np.array_equal(loaded.state.m[name], state.m[name])
            assert np.array_equal(loaded.state.v[name], state.v[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        config, params, table, batch = make_tiny_problem(seed=32)
        state = init_optimizer(params)
        train_step(params, batch, table, state, config)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, params, config, state)
        loaded = load_checkpoint(first)
        save_checkpoint(second, loaded.params, loaded.config, loaded.state,
                        best_dev_f1=loaded.best_dev_f1)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        config, params, _, _ = make_tiny_problem(seed=33)
        state = init_optimizer(params)
        path = tmp_path / "v.ckpt"
        save_checkpoint(path, params, config, state)
        saved = path.read_bytes()
        current = b'"version":%d' % FORMAT_VERSION
        assert current in saved
        for version in (b"9", b"1"):
            path.write_bytes(saved.replace(current, b'"version":' + version, 1))
            with pytest.raises(CheckpointVersionError,
                               match=f"format version {version.decode()}, "
                                     f"expected {FORMAT_VERSION}"):
                load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        config, params, _, _ = make_tiny_problem(seed=34)
        state = init_optimizer(params)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, params, config, state)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_interrupted_save_keeps_existing_file(self, tmp_path, monkeypatch):
        config, params, _, _ = make_tiny_problem(seed=35)
        state = init_optimizer(params)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, config, state)
        original = path.read_bytes()

        def refuse(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", refuse)
        params["attention.w_sim"] = params["attention.w_sim"] + 1.0
        with pytest.raises(OSError):
            save_checkpoint(path, params, config, state)
        monkeypatch.undo()
        assert path.read_bytes() == original
        load_checkpoint(path)

    def test_save_syncs_temp_file_before_rename(self, tmp_path, monkeypatch):
        # and the directory after it, so the rename survives a power loss
        config, params, _, _ = make_tiny_problem(seed=36)
        state = init_optimizer(params)
        path = tmp_path / "model.ckpt"
        calls = []
        fsync, replace = os.fsync, os.replace

        def logged_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def logged_replace(src, dst):
            calls.append(("replace", str(src), os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(os, "replace", logged_replace)
        save_checkpoint(path, params, config, state)
        inode = path.stat().st_ino      # the temp file's, renamed into place
        replaced = calls.index(("replace", f"{path}.tmp", inode))
        assert ("fsync", inode) in calls[:replaced]
        assert ("fsync", tmp_path.stat().st_ino) in calls[replaced:]


class TestResume:
    def test_resume_matches_uninterrupted_run(self, tiny_dataset, tmp_path):
        examples, table = tiny_dataset
        config = small_config(seed=11, dropout=0.1)

        straight = train(examples, table, config, iters=10, batch_size=8)
        straight_losses = [r.train_loss for r in straight.records]

        part1 = train(examples, table, config, iters=5, batch_size=8)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, part1.params, config, part1.state)
        loaded = load_checkpoint(path)
        part2 = train(examples, table, loaded.config, iters=10, batch_size=8,
                      params=loaded.params, state=loaded.state)
        resumed_losses = ([r.train_loss for r in part1.records]
                          + [r.train_loss for r in part2.records])
        assert resumed_losses == straight_losses
