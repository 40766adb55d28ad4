"""model.bidaf_attention against the plain reference in bidaf_oracle.py.

The model attends over packed live rows; `packed_attention` packs the padded
inputs by their masks and unpacks G, so both sides read and return the same
padded arrays."""

import numpy as np
import pytest

from bidaf_oracle import bidaf_reference, packed_attention
from spanqa import autodiff as ad


def ragged_inputs(seed, hidden, batch=5, lc=9, lq=6):
    """Random encodings under prefix masks of mixed lengths; the padding holds
    random values too, which the masks alone must keep out of the live rows."""
    rng = np.random.default_rng(seed)
    context = rng.normal(size=(batch, lc, 2 * hidden))
    question = rng.normal(size=(batch, lq, 2 * hidden))
    w_sim = rng.normal(size=(6 * hidden,)) / np.sqrt(hidden)
    c_lengths = np.concatenate([[lc], rng.integers(1, lc + 1, size=batch - 1)])
    q_lengths = np.concatenate([rng.integers(1, lq + 1, size=batch - 1), [lq]])
    context_mask = (np.arange(lc) < c_lengths[:, None]).astype(np.float64)
    question_mask = (np.arange(lq) < q_lengths[:, None]).astype(np.float64)
    return context, question, w_sim, context_mask, question_mask


@pytest.mark.parametrize("hidden", [4, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_reference(seed, hidden):
    inputs = ragged_inputs(seed, hidden)
    got = packed_attention(*(ad.Tensor(x) for x in inputs[:2]), *inputs[2:])
    want = bidaf_reference(*inputs)
    assert got.shape == want.shape == (5, 9, 8 * hidden)
    live = inputs[3] > 0
    assert np.abs(got.data[live] - want[live]).max() < 1e-12
    assert np.all(got.data[~live] == 0.0)


def test_live_rows_do_not_see_padding():
    """Each row's live positions equal that example attended on its own,
    unpadded, so nothing leaks in from the padding or from the other rows."""
    context, question, w_sim, context_mask, question_mask = ragged_inputs(3, 4)
    batched = packed_attention(ad.Tensor(context), ad.Tensor(question), w_sim,
                               context_mask, question_mask).data
    for b in range(len(context)):
        lc, lq = int(context_mask[b].sum()), int(question_mask[b].sum())
        alone = packed_attention(ad.Tensor(context[b:b + 1, :lc]),
                                 ad.Tensor(question[b:b + 1, :lq]), w_sim,
                                 np.ones((1, lc)), np.ones((1, lq))).data
        assert np.abs(batched[b, :lc] - alone[0]).max() < 1e-12


@pytest.mark.parametrize("probe", ["context", "question", "w_sim"])
def test_gradients(probe):
    context, question, w_sim, context_mask, question_mask = ragged_inputs(
        4, 2, batch=3, lc=5, lq=4)
    values = {"context": context, "question": question, "w_sim": w_sim}
    weights = np.random.default_rng(5).normal(size=(3, 5, 16))

    def loss(t):
        args = {name: ad.Tensor(value) for name, value in values.items()}
        args[probe] = t
        out = packed_attention(args["context"], args["question"], args["w_sim"],
                               context_mask, question_mask)
        return ad.reduce_sum(ad.mul(out, weights))

    assert ad.grad_check(loss, values[probe]) < 1e-6
