import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidaf_oracle import packed_attention, stacked_rows
from lstm_oracle import bilstm_reference, flat_rows, pack_rows, packed_logits, padded

from spanqa import autodiff as ad
from spanqa import model as qa_model
from spanqa.autodiff import ConfigError, Graph, Tensor
from spanqa.data import PAD_ID, Batch, EmbeddingTable
from spanqa.diagnostics import end_to_end_gradcheck, make_tiny_problem
from spanqa.model import (ModelConfig, bilstm, embed,
                          end_decoder, forward, init_params, loss, param_count,
                          param_shapes, start_decoder)
from spanqa.spans import best_span


def padded_bilstm(x, layers, mask):
    """model.bilstm on a padded (B, L, n) batch: pack by the mask, run, pad
    the result."""
    packing = ad.Packing(mask)
    return padded(bilstm([pack_rows(flat_rows(x), packing)], layers, packing), mask)


class TestConfig:
    def test_defaults_match_tuning_table(self):
        config = ModelConfig()
        assert (config.hidden_size, config.dropout_rate, config.embedding_dim) == (
            150, 0.2, 100)
        assert qa_model.ENCODER_LAYERS == 2
        assert config.context_cap == 300

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(hidden_size=0)
        with pytest.raises(ConfigError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError, match="context_cap"):
            ModelConfig(context_cap=-5)


class TestInitParams:
    def test_deterministic(self):
        config = ModelConfig(hidden_size=8, embedding_dim=10, seed=3)
        a, b = init_params(config), init_params(config)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_shapes(self):
        config = ModelConfig(hidden_size=8, embedding_dim=10)
        params = init_params(config)
        h = 8
        assert params["start_head.W2"].shape == (1, h)
        assert params["encoder.l0.W"].shape == (8 * h, 10 + h)
        assert params["encoder.l1.W"].shape == (8 * h, 2 * h + h)
        assert params["start_decoder.W"].shape == (8 * h, 8 * h + h)
        assert params["end_decoder.W"].shape == (8 * h, 10 * h + h)
        assert params["end_decoder.b"].shape == (8 * h,)
        assert params["attention.w_sim"].shape == (6 * h,)

    def test_xavier_bounds_and_biases(self):
        config = ModelConfig(hidden_size=8, embedding_dim=10, seed=1)
        params = init_params(config)
        for name, shape in param_shapes(config).items():
            value = params[name]
            if name.endswith(".b"):
                # each direction's forget gate, gate order i|f|o|g
                gates = value.reshape(2, 4, 8)
                assert np.array_equal(gates[:, 1], np.ones((2, 8)))
                assert np.all(gates[:, [0, 2, 3]] == 0.0)
            if value.ndim == 2:
                # a stacked LSTM W has each direction's fan-out, 4h
                fan_out, fan_in = (4 * 8, shape[1]) if name.endswith(".W") else shape
                limit = math.sqrt(6.0 / (fan_in + fan_out))
                assert np.all(np.abs(value) <= limit)


class TestParamCount:
    def test_small_fc(self):
        assert param_count({"W": np.zeros((3, 4)), "b": np.zeros(3)}) == 15

    def test_lstm_direction_formula(self):
        h, d = 5, 7
        config = ModelConfig(hidden_size=h, embedding_dim=d)
        params = init_params(config)
        both_directions = params["encoder.l0.W"].size + params["encoder.l0.b"].size
        assert both_directions == 2 * 4 * (h * (h + d) + h)

    def test_default_config_regression_constant(self):
        # element count of the shipped architecture at Table-3 defaults;
        # frozen so accidental layer/width changes are caught
        assert param_count(init_params(ModelConfig())) == 4_896_300


class TestEmbed:
    def make_table(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(6, 3))
        matrix[0] = 0.0
        return EmbeddingTable(dim=3, word_to_id={"cat": 2}, matrix=matrix)

    def test_pad_is_zero_vector(self):
        table = self.make_table()
        out = embed(np.array([[0, 2]]), table)
        assert np.array_equal(out.data[0, 0], np.zeros(3))

    def test_known_word_row(self):
        table = self.make_table()
        out = embed(np.array([[2]]), table)
        assert np.array_equal(out.data[0, 0], table.matrix[2])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            embed(np.array([[9]]), self.make_table())

    def test_no_gradient_reaches_table(self):
        # embeddings enter the graph as constants: backward never sees them
        table = self.make_table()
        g = Graph()
        weight = g.leaf(np.ones(3))
        vectors = embed(np.array([1, 2]), table)
        grads = g.backward(ad.mul(vectors, weight), np.ones((2, 3)))
        assert set(grads) <= set(range(len(g)))
        assert vectors.graph is None


class TestBiLSTM:
    def _params(self, rng, hidden, in_dim):
        return (rng.normal(size=(8 * hidden, in_dim + hidden)) * 0.4,
                rng.normal(size=8 * hidden) * 0.1)

    def test_output_shape(self):
        rng = np.random.default_rng(4)
        layers = [self._params(rng, 3, 5), self._params(rng, 3, 6)]
        out = padded_bilstm(rng.normal(size=(2, 7, 5)), layers, np.ones((2, 7)))
        assert out.shape == (2, 7, 6)

    def test_zero_weights_zero_inputs(self):
        hidden, in_dim = 3, 4
        layer = (np.zeros((24, 7)), np.zeros(24))
        out = padded_bilstm(np.zeros((1, 5, in_dim)), [layer], np.ones((1, 5)))
        assert np.array_equal(out, np.zeros((1, 5, 6)))

    def _matches_reference(self, seed, length):
        rng = np.random.default_rng(seed)
        layer = self._params(rng, 2, 3)
        x, mask = rng.normal(size=(1, length, 3)), np.ones((1, length))
        out = padded_bilstm(x, [layer], mask)
        return np.allclose(out, bilstm_reference(x, mask, [layer]), atol=1e-12)

    def test_single_step_matches_cell_equations(self):
        assert self._matches_reference(5, 1)

    def test_multi_step_matches_unrolled_reference(self):
        assert self._matches_reference(6, 4)

    def test_masked_steps_emit_zero_and_keep_state(self):
        rng = np.random.default_rng(7)
        hidden, in_dim = 2, 3
        layer = self._params(rng, hidden, in_dim)
        x = rng.normal(size=(1, 5, in_dim))
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        out = padded_bilstm(x, [layer], mask)
        assert np.array_equal(out[0, 3:], np.zeros((2, 2 * hidden)))
        short = padded_bilstm(x[:, :3], [layer], np.ones((1, 3)))
        assert np.allclose(out[0, :3], short[0], atol=1e-12)


class TestBidafAttention:
    def test_shape(self):
        rng = np.random.default_rng(8)
        h2 = 4
        out = packed_attention(stacked_rows(rng.normal(size=(2, 5, h2)),
                                            rng.normal(size=(2, 3, h2))),
                               rng.normal(size=3 * h2),
                               np.ones((2, 5)), np.ones((2, 3)))
        assert out.shape == (2 * 5, 4 * h2)

    def test_zero_similarity_weight_gives_mean_attention(self):
        rng = np.random.default_rng(9)
        h2, lq = 4, 3
        question = rng.normal(size=(1, lq, h2))
        q_mask = np.array([[1.0, 1.0, 0.0]])
        out = packed_attention(stacked_rows(rng.normal(size=(1, 2, h2)), question),
                               np.zeros(3 * h2), np.ones((1, 2)), q_mask)
        u_tilde = padded(out, np.ones((1, 2)))[:, :, h2:2 * h2]
        mean_q = question[0, :2].mean(axis=0)
        assert np.allclose(u_tilde[0, 0], mean_q, atol=1e-12)
        assert np.allclose(u_tilde[0, 1], mean_q, atol=1e-12)

    def test_matches_hand_trace(self):
        # full trace of the three attention formulas at Lc=Lq=2, h=1 (2h = 2)
        c = np.array([[[1.0, 2.0], [-1.0, 0.5]]])
        q = np.array([[[0.5, -1.0], [2.0, 1.0]]])
        w = np.array([0.1, -0.2, 0.3, 0.05, 0.2, -0.1])
        sim = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                feats = np.concatenate([c[0, i], q[0, j], c[0, i] * q[0, j]])
                sim[i, j] = w @ feats
        att = np.exp(sim - sim.max(axis=1, keepdims=True))
        att /= att.sum(axis=1, keepdims=True)
        u_tilde = att @ q[0]
        best = sim.max(axis=1)
        b_att = np.exp(best - best.max())
        b_att /= b_att.sum()
        h_tilde = b_att @ c[0]
        expected = np.concatenate(
            [c[0], u_tilde, c[0] * u_tilde, c[0] * h_tilde[None, :].repeat(2, 0)],
            axis=1)
        out = packed_attention(stacked_rows(c, q), w, np.ones((1, 2)), np.ones((1, 2)))
        assert np.allclose(padded(out, np.ones((1, 2)))[0], expected, atol=1e-12)

    def test_training_tape_holds_the_attention_as_one_node(self, monkeypatch):
        # a dropout training forward plus loss, the train step's graph: the
        # attention is one `bidaf` node, and neither the model nor any op it
        # runs calls the generic ops the attention used to be built from
        calls = []
        for name in ("matmul", "bmm", "mul", "slice_axis", "concat"):
            def spy(*args, _name=name, _op=getattr(ad, name), **kwargs):
                calls.append(_name)
                return _op(*args, **kwargs)
            monkeypatch.setattr(ad, name, spy)
        config, params, table, batch = make_tiny_problem(seed=3, hidden=5, batch_size=3,
                                                         dropout=0.2)
        graph = Graph()
        leaves = {name: graph.leaf(value)
                  for name, value in params.items()}
        out = forward(batch, leaves, table, config, training=True, step=1)
        loss(out, batch.gold_starts, batch.gold_ends)
        ops = [node.op for node in graph._nodes]
        assert calls == [], calls
        assert ops.count("bidaf") == 1, ops
        # the loss reads the logits: no softmax is built in a train step
        assert ops.count("masked_softmax") == 0, ops
        # the heads' logits stay packed into the loss: nothing lays them out
        assert ops.count("reshape") == ops.count("unpack") == 0, ops
        # 15 parameter leaves and 8 ops
        assert ops.count("leaf") == len(params) == 15, (len(params), ops)
        assert len(graph) == 23, ops


def _decoder_fixture(seed=0):
    """The tiny model and batch, the batch's context packing, and a G of
    random (N, 8h) rows for the decoders to read."""
    config, params, table, batch = make_tiny_problem(seed=seed)
    packing = ad.Packing(batch.context_ids != PAD_ID)
    attn = Tensor(np.random.default_rng(seed).normal(
        size=(packing.size, 8 * config.hidden_size)))
    return config, params, batch, packing, attn


def _group(params, prefix):
    return params[f"{prefix}.W"], params[f"{prefix}.b"]


def _head(params, prefix):
    return {k: params[f"{prefix}.{k}"] for k in ("W1", "b1", "W2")}


class TestDecoders:
    def test_logit_shape_and_masked_probability(self):
        config, params, batch, packing, attn = _decoder_fixture()
        m_start, logits = start_decoder(attn, _group(params, "start_decoder"),
                                        _head(params, "start_head"), packing)
        assert m_start.shape == (packing.size, 2 * config.hidden_size)
        assert logits.shape == (packing.size, 1)
        p = ad.masked_softmax(logits, packing)
        assert np.all(p[~packing.mask] == 0.0)

    def test_zero_params_give_uniform(self):
        config, params, batch, packing, attn = _decoder_fixture()
        zero = {name: np.zeros_like(value) for name, value in params.items()}
        _, logits = start_decoder(attn, _group(zero, "start_decoder"),
                                  _head(zero, "start_head"), packing)
        p = ad.masked_softmax(logits, packing)
        lengths = packing.mask.sum(axis=1)
        for row in range(p.shape[0]):
            live = packing.mask[row]
            assert np.allclose(p[row, live], 1.0 / lengths[row], atol=1e-12)

    def test_end_decoder_input_width(self):
        config, params, batch, packing, attn = _decoder_fixture()
        h = config.hidden_size
        assert attn.shape[1] == 8 * h
        assert params["end_decoder.W"].shape[1] == 10 * h + h
        m_start, _ = start_decoder(attn, _group(params, "start_decoder"),
                                   _head(params, "start_head"), packing)
        assert attn.shape[1] + m_start.shape[1] == 10 * h
        m_end, end_logits = end_decoder(attn, m_start,
                                        _group(params, "end_decoder"),
                                        _head(params, "end_head"), packing)
        assert m_end.shape == m_start.shape
        assert end_logits.shape == (packing.size, 1)

    def test_heads_are_distinct_tensors(self):
        _, params, _, _, _ = _decoder_fixture()
        for key in ("W1", "b1", "W2"):
            assert params[f"start_head.{key}"] is not params[f"end_head.{key}"]
        assert params["start_decoder.W"] is not params["end_decoder.W"]


def _named_grads(config, params, table, batch, which):
    graph = Graph()
    leaves = {name: graph.leaf(value)
              for name, value in params.items()}
    out = forward(batch, leaves, table, config, training=False)
    if which == "start":
        root = ad.cross_entropy((out.start_logits,), (batch.gold_starts,), out.packing)
    else:
        root = ad.cross_entropy((out.end_logits,), (batch.gold_ends,), out.packing)
    grads = graph.backward(root)
    return {name: grads[leaf.node_id] for name, leaf in leaves.items()}


class TestConditioningPath:
    def test_end_loss_reaches_start_decoder(self):
        config, params, table, batch = make_tiny_problem(seed=11)
        grads = _named_grads(config, params, table, batch, "end")
        # both directions' rows of the start decoder's W
        for rows in np.split(grads["start_decoder.W"], 2):
            assert np.abs(rows).max() > 0.0

    def test_start_loss_never_reaches_end_decoder(self):
        config, params, table, batch = make_tiny_problem(seed=11)
        grads = _named_grads(config, params, table, batch, "start")
        for name in params:
            if name.startswith("end_"):
                assert np.all(grads[name] == 0.0), name
            if name.startswith(("encoder.", "attention.", "start_")):
                assert np.abs(grads[name]).max() > 0.0, name


class TestForward:
    def test_rows_are_masked_distributions(self):
        config, params, table, batch = make_tiny_problem(seed=12)
        wide = {name: value.astype(np.float64) for name, value in params.items()}
        out = forward(batch, wide, table, config)
        for p in (out.p_start, out.p_end):
            assert np.all(p[batch.context_ids == PAD_ID] == 0.0)
            assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-9)

    def test_inference_deterministic(self):
        config, params, table, batch = make_tiny_problem(seed=13)
        a = forward(batch, params, table, config)
        b = forward(batch, params, table, config)
        assert np.array_equal(a.p_start, b.p_start)
        assert np.array_equal(a.p_end, b.p_end)

    @pytest.mark.parametrize("field", ["context_ids", "question_ids"])
    def test_padding_before_a_rows_last_token_is_rejected(self, field):
        # the ids are the only record of padding, so a PAD_ID inside a row
        # breaks its prefix instead of embedding a zero vector
        config, params, table, batch = make_tiny_problem(seed=13)
        getattr(batch, field)[0, 1] = PAD_ID
        with pytest.raises(ad.DimensionError, match="run of 1s"):
            forward(batch, params, table, config)

    def test_training_mode_is_seeded(self):
        config, params, table, batch = make_tiny_problem(seed=14, dropout=0.3)
        a = forward(batch, params, table, config, training=True, step=5)
        b = forward(batch, params, table, config, training=True, step=5)
        c = forward(batch, params, table, config, training=True, step=6)
        assert np.array_equal(a.p_start, b.p_start)
        assert not np.array_equal(a.p_start, c.p_start)

    def test_kth_dropped_block_draws_the_kth_seed_of_its_step(self, monkeypatch):
        config, params, table, batch = make_tiny_problem(seed=14, dropout=0.3)
        drawn, original = [], qa_model._dropout

        def recording(blocks, rate, seeds):
            marked = original(blocks, rate, seeds)
            drawn.extend(block.seed for block in marked)
            return marked

        monkeypatch.setattr(qa_model, "_dropout", recording)
        forward(batch, params, table, config, training=True, step=5)
        # one block into each encoder layer, then [G], [G | M_start] twice, [G | M_end]
        assert drawn == [int(np.random.SeedSequence(config.seed, spawn_key=(5, k))
                             .generate_state(1, dtype=np.uint64)[0]) for k in range(9)]

    def test_batch_permutation_permutes_outputs(self):
        config, params, table, batch = make_tiny_problem(seed=15, batch_size=3)
        out = forward(batch, params, table, config)
        perm = [2, 0, 1]
        permuted = Batch(batch.context_ids[perm], batch.question_ids[perm],
                         batch.gold_starts[perm], batch.gold_ends[perm])
        out_p = forward(permuted, params, table, config)
        assert np.allclose(out_p.p_start, out.p_start[perm], atol=1e-12)
        assert np.allclose(out_p.p_end, out.p_end[perm], atol=1e-12)


class TestLoss:
    def test_uniform_loss_is_two_log_length(self):
        config, params, table, batch = make_tiny_problem(
            seed=16, context_len=200, batch_size=1)
        zero = {name: np.zeros(value.shape) for name, value in params.items()}
        out = forward(batch, zero, table, config)
        value = loss(out, batch.gold_starts, batch.gold_ends).item()
        assert value == pytest.approx(2 * math.log(200), rel=1e-9)
        assert value == pytest.approx(10.596634733096073, rel=1e-9)

    def test_one_hot_gold_loss_zero(self):
        # each gold logit so far above the rest that the softmax is one-hot
        logits = np.zeros((2, 4))
        logits[0, 1] = 1e4
        logits[1, 2] = 1e4
        from spanqa.model import ForwardOutput
        z, packing = packed_logits(logits, np.ones((2, 4)))
        out = ForwardOutput(Tensor(z), Tensor(z.copy()), packing)
        assert np.array_equal(out.p_start, np.eye(4)[[1, 2]])
        value = loss(out, np.array([1, 2]), np.array([1, 2]))
        assert value.item() == 0.0


@st.composite
def shifted_logits(draw, shifts):
    """(logits, mask, gold, shifted) over 2B rows: a batch's start logits and
    then its end logits, on a 1/16 grid, under a ragged prefix mask; gold
    indices; and the logits with a constant from `shifts` added to each row's
    live positions, as an FC2 bias would add it."""
    batch, length = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    lengths = np.tile(draw(st.lists(st.integers(1, length), min_size=batch,
                                    max_size=batch)), 2)
    mask = np.arange(length) < lengths[:, None]
    logits = np.array(draw(st.lists(st.integers(-160, 160), min_size=mask.size,
                                    max_size=mask.size))).reshape(mask.shape) / 16
    gold = np.array([draw(st.integers(0, n - 1)) for n in lengths])
    shift = np.array(draw(st.lists(shifts, min_size=2 * batch, max_size=2 * batch)))
    return logits, mask, gold, logits + shift[:, None] * mask


def loss_and_grad(logits, gold, mask):
    z, packing = packed_logits(logits, mask)
    graph = Graph()
    leaf = graph.leaf(z)
    value = ad.cross_entropy((leaf,), (gold,), packing)
    return value.item(), graph.backward(value)[leaf.node_id]


def softmax(logits, mask):
    return ad.masked_softmax(*packed_logits(logits, mask))


def decoded(logits, mask):
    """best_span of each example: row b's softmax as p_start, row B + b's as p_end."""
    p = softmax(logits, mask)
    half = len(p) // 2
    return [best_span(p[b], p[half + b], mask[b], max_len=3) for b in range(half)]


class TestRowShift:
    """Why the heads' FC2 has no bias: adding one constant to every live logit
    of a row changes neither the loss, nor its gradient, nor the decoding."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shifted_logits(st.floats(-1e3, 1e3)))
    def test_loss_gradient_and_softmax_within_rounding(self, case):
        logits, mask, gold, shifted = case
        value, grad = loss_and_grad(logits, gold, mask)
        shifted_value, shifted_grad = loss_and_grad(shifted, gold, mask)
        # a shift of up to 1e3 costs a few ulps of 1e3 (1.1e-13 each)
        assert shifted_value == pytest.approx(value, rel=0, abs=1e-11)
        np.testing.assert_allclose(shifted_grad, grad, rtol=0, atol=1e-11)
        np.testing.assert_allclose(softmax(shifted, mask), softmax(logits, mask),
                                   rtol=0, atol=1e-11)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shifted_logits(st.integers(-2 ** 14, 2 ** 14).map(lambda k: k / 16)))
    def test_exact_shift_changes_no_bit_and_no_span(self, case):
        # on the grid every sum is exact, and each row's max is subtracted
        # before exp, so the shift is gone before any rounding: even ties
        # between spans break the same way
        logits, mask, gold, shifted = case
        value, grad = loss_and_grad(logits, gold, mask)
        shifted_value, shifted_grad = loss_and_grad(shifted, gold, mask)
        assert shifted_value == value
        assert np.array_equal(shifted_grad, grad)
        assert np.array_equal(softmax(shifted, mask), softmax(logits, mask))
        assert decoded(shifted, mask) == decoded(logits, mask)


class TestEndToEndGradients:
    def test_tiny_model_gradcheck(self):
        results = end_to_end_gradcheck(seed=0, coords_per_tensor=3)
        worst = max(err for _, err in results)
        assert worst < 1e-3, results

    def test_shared_context_gradcheck(self, monkeypatch):
        counts = _lstm_row_counts(monkeypatch)
        # the probes of `qa gradcheck`; with 3 probes, one end_head.W1
        # coordinate has a ~1e-8 gradient that central differences at a 1e-5 step
        # resolve only to ~2e-3 relative, with or without the shared encoding
        results = end_to_end_gradcheck(seed=0, coords_per_tensor=4,
                                       shared_context=True)
        # both rows' context encoded once, beside the two questions
        assert counts[:2] == [1 + 2] * 2
        worst = max(err for _, err in results)
        assert worst < 1e-3, results


def _shared_context_batch(context_len=9, question_len=5, q_lengths=(5, 3, 4, 2, 5)):
    """5 rows over 2 distinct contexts (rows 0, 2, 3 and rows 1, 4), each
    row with its own question, plus the tiny model that reads it."""
    config, params, table, _ = make_tiny_problem(
        context_len=context_len, question_len=question_len)
    rng = np.random.default_rng(7)
    which = np.array([0, 1, 0, 0, 1])
    lengths = np.array([context_len, context_len - 3])
    contexts = rng.integers(2, table.vocab_size, size=(2, context_len))
    context_ids = np.where(np.arange(context_len) < lengths[which, None],
                           contexts[which], PAD_ID)
    q_lengths = np.array(q_lengths)
    question_ids = np.where(np.arange(question_len) < q_lengths[:, None],
                            rng.integers(2, table.vocab_size, size=(5, question_len)), 0)
    zeros = np.zeros(5, dtype=np.int64)
    batch = Batch(context_ids, question_ids, zeros, zeros)
    return config, params, table, batch


def _row(batch, r):
    return Batch(batch.context_ids[r:r + 1], batch.question_ids[r:r + 1],
                 batch.gold_starts[r:r + 1], batch.gold_ends[r:r + 1])


def _lstm_row_counts(monkeypatch):
    """Record the batch size of every ad.lstm call (one per BiLSTM layer):
    an encoder layer's rows are the contexts it encodes plus the questions."""
    counts = []
    original = ad.lstm

    def recording(xs, packing, *args, **kwargs):
        counts.append(packing.shape[0])
        return original(xs, packing, *args, **kwargs)

    monkeypatch.setattr(ad, "lstm", recording)
    return counts


class TestSharedContextEncoding:
    def test_shared_rows_equal_rows_run_alone(self):
        config, params, table, batch = _shared_context_batch()
        out = forward(batch, params, table, config)
        for r in range(5):
            alone = forward(_row(batch, r), params, table, config)
            assert np.max(np.abs(out.p_start[r] - alone.p_start[0])) < 1e-12
            assert np.max(np.abs(out.p_end[r] - alone.p_end[0])) < 1e-12

    def test_encoder_sees_distinct_contexts_decoders_see_all_rows(self, monkeypatch):
        config, params, table, batch = _shared_context_batch()
        counts = _lstm_row_counts(monkeypatch)
        forward(batch, params, table, config)
        # 2 encoder layers over the 2 distinct contexts and the 5 questions,
        # then the start and end decoders
        assert counts == [2 + 5] * 2 + [5] * 2

    def test_dropout_pass_encodes_distinct_contexts(self, monkeypatch):
        # a training pass shares a repeated context as inference does
        config, params, table, batch = _shared_context_batch()
        config.dropout_rate = 0.3
        counts = _lstm_row_counts(monkeypatch)
        forward(batch, params, table, config, training=True, step=1)
        assert counts == [2 + 5] * 2 + [5] * 2
        counts.clear()
        forward(batch, params, table, config)   # inference ignores the rate
        assert counts[:2] == [2 + 5] * 2

    def test_context_truncated_by_padding_not_merged(self, monkeypatch):
        config, params, table, batch = _shared_context_batch()
        rows = [0, 0, 1]
        context_ids = batch.context_ids[rows].copy()
        context_ids[1, 6:] = PAD_ID    # row 1: row 0's context cut after 6 tokens
        truncated = Batch(context_ids, batch.question_ids[rows], batch.gold_starts[rows],
                          batch.gold_ends[rows])
        counts = _lstm_row_counts(monkeypatch)
        out = forward(truncated, params, table, config)
        assert counts[:2] == [3 + 3] * 2
        alone = forward(_row(truncated, 1), params, table, config)
        assert np.max(np.abs(out.p_start[1] - alone.p_start[0])) < 1e-12
        assert np.max(np.abs(out.p_end[1] - alone.p_end[0])) < 1e-12

    @staticmethod
    def _wide_question_batch():
        """The shared-context batch with a 12-token question, longer than
        both contexts (9 and 6 tokens), in float64."""
        config, params, table, batch = _shared_context_batch(
            question_len=12, q_lengths=(12, 3, 4, 2, 5))
        live = [np.count_nonzero(ids != PAD_ID, axis=1).max()
                for ids in (batch.question_ids, batch.context_ids)]
        assert live[0] > live[1]
        return config, {name: value.astype(np.float64)
                        for name, value in params.items()}, table, batch

    def test_joint_padding_matches_separate_encodings(self, monkeypatch):
        config, params, table, batch = self._wide_question_batch()
        handed = []
        original = qa_model.bidaf_attention

        def recording(x, index, w_sim, contexts, questions):
            rows = x.data[index]
            handed.append((rows[:contexts.size], rows[contexts.size:]))
            return original(x, index, w_sim, contexts, questions)

        monkeypatch.setattr(qa_model, "bidaf_attention", recording)
        forward(batch, params, table, config)
        encoder = [_group(params, f"encoder.l{k}") for k in range(qa_model.ENCODER_LAYERS)]
        for ids, got in zip([batch.context_ids, batch.question_ids], handed[0]):
            packing = ad.Packing(ids != PAD_ID)
            alone = bilstm([embed(ids[packing.index], table)], encoder, packing)
            assert got.shape == alone.shape
            assert np.max(np.abs(got - alone.data)) < 1e-12

    def test_joint_padding_gradcheck(self):
        config, params, table, batch = self._wide_question_batch()
        results = []
        for name in params:
            def run(t, _name=name):
                out = forward(batch, {**params, _name: t}, table, config)
                return loss(out, batch.gold_starts, batch.gold_ends)

            results.append((name, ad.grad_check(run, params[name], coords=4)))
        assert max(err for _, err in results) < 1e-3, results
