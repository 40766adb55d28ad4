"""model.forward, row by row, against the unpadded float64 oracle in
model_oracle.py, on ragged batches with and without repeated contexts."""

import numpy as np
import pytest

from model_oracle import oracle_forward
from spanqa.data import PAD_ID, Batch, EmbeddingTable
from spanqa.model import ModelConfig, forward, init_params

FLOAT64_TOL = 1e-10
# float32 carries 24 significand bits (eps ~1.2e-7); through five stacked
# LSTMs, the attention and the heads, each row's probabilities stay within
# two orders of magnitude of that, relative to the row's largest one (about
# 2e-7 on these problems).
FLOAT32_REL_TOL = 1e-5

CONTEXT_LENGTHS = [7, 3, 9, 1, 5, 9]      # unsorted, tied, and a one-token row
QUESTION_LENGTHS = [4, 2, 5, 1, 3, 5]


def ragged_problem(hidden, shared, seed=0, embed_dim=6, vocab=30):
    """A model with every parameter perturbed off its initial value, and a
    ragged batch; with `shared`, rows 3 and 5 repeat the contexts of rows 1
    and 2, each with its own question, as SQuAD's questions share paragraphs."""
    config = ModelConfig(hidden_size=hidden, dropout_rate=0.2,
                         embedding_dim=embed_dim, seed=seed)
    rng = np.random.default_rng(seed + 100)
    params = {name: value + rng.normal(scale=0.1, size=value.shape)
              for name, value in init_params(config).items()}
    matrix = rng.normal(size=(vocab, embed_dim)) * 0.5
    matrix[0] = 0.0
    table = EmbeddingTable(dim=embed_dim,
                           word_to_id={f"w{i}": i + 2 for i in range(vocab - 2)},
                           matrix=matrix)
    lc, lq = max(CONTEXT_LENGTHS), max(QUESTION_LENGTHS)
    c_lengths, q_lengths = np.array(CONTEXT_LENGTHS), np.array(QUESTION_LENGTHS)
    context_ids = rng.integers(2, vocab, size=(len(c_lengths), lc))
    question_ids = rng.integers(2, vocab, size=(len(q_lengths), lq))
    if shared:
        c_lengths[[3, 5]] = c_lengths[[1, 2]]
        context_ids[[3, 5]] = context_ids[[1, 2]]
    context_ids[np.arange(lc) >= c_lengths[:, None]] = PAD_ID
    question_ids[np.arange(lq) >= q_lengths[:, None]] = PAD_ID
    zeros = np.zeros(len(c_lengths), dtype=np.int64)
    batch = Batch(context_ids, question_ids, zeros, zeros,
                  [f"q{i}" for i in range(len(c_lengths))])
    return config, params, table, batch


@pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared"])
@pytest.mark.parametrize("hidden", [4, 32])
def test_float64_forward_matches_oracle(hidden, shared):
    config, params, table, batch = ragged_problem(hidden, shared)
    want_start, want_end = oracle_forward(batch, params, table, config)
    out = forward(batch, params, table, config)
    for got, want in ((out.p_start.data, want_start), (out.p_end.data, want_end)):
        assert got.dtype == np.float64
        for row in range(len(want)):
            assert np.abs(got[row] - want[row]).max() < FLOAT64_TOL, row


@pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared"])
@pytest.mark.parametrize("hidden", [4, 32])
def test_float32_forward_matches_oracle(hidden, shared):
    config, params, table, batch = ragged_problem(hidden, shared)
    want_start, want_end = oracle_forward(batch, params, table, config)
    single = {name: value.astype(np.float32) for name, value in params.items()}
    out = forward(batch, single, table, config)
    for got, want in ((out.p_start.data, want_start), (out.p_end.data, want_end)):
        assert got.dtype == np.float32
        for row in range(len(want)):
            rel = np.abs(got[row] - want[row]).max() / np.abs(want[row]).max()
            assert rel < FLOAT32_REL_TOL, (row, rel)
