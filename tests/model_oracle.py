"""Whole-model oracle for ``model.forward``: the paper's equations written
literally, one example at a time, unpadded, in float64.

Each example runs alone at its own lengths, so no mask, padding, packing or
shared-context bookkeeping takes part. The encoder and decoders are the
plain numpy LSTM of lstm_oracle.py, the attention is the literal BiDAF of
bidaf_oracle.py, the end decoder reads [G ; M_start], each head is
FC2(relu(FC1([G_i ; M_i]))) at every position, and the softmaxes run over
the example's positions only.
"""

import numpy as np

from bidaf_oracle import bidaf_reference
from lstm_oracle import bilstm_reference
from spanqa.data import PAD_ID
from spanqa.model import ENCODER_LAYERS


def _layer(params, prefix):
    return tuple(np.asarray(params[f"{prefix}.{k}"], dtype=np.float64) for k in ("W", "b"))


def _bilstm(x, layers):
    """(L, n) -> (L, 2h): stacked bidirectional LSTM over one whole sequence."""
    return bilstm_reference(x[None], np.ones((1, len(x))), layers)[0]


def _head(features, params, prefix):
    w1, b1, w2 = (np.asarray(params[f"{prefix}.{k}"], dtype=np.float64)
                  for k in ("W1", "b1", "W2"))
    return (np.maximum(features @ w1.T + b1, 0.0) @ w2.T)[:, 0]


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def oracle_example(context_ids, question_ids, params, table):
    """(p_start, p_end) over the positions of one unpadded example."""
    encoder = [_layer(params, f"encoder.l{k}") for k in range(ENCODER_LAYERS)]
    matrix = np.asarray(table.matrix, dtype=np.float64)
    c = _bilstm(matrix[context_ids], encoder)
    q = _bilstm(matrix[question_ids], encoder)
    g = bidaf_reference(c[None], q[None], params["attention.w_sim"],
                        np.ones((1, len(c))), np.ones((1, len(q))))[0]
    m_start = _bilstm(g, [_layer(params, "start_decoder")])
    m_end = _bilstm(np.concatenate([g, m_start], axis=1), [_layer(params, "end_decoder")])
    p_start = _softmax(_head(np.concatenate([g, m_start], axis=1), params, "start_head"))
    p_end = _softmax(_head(np.concatenate([g, m_end], axis=1), params, "end_head"))
    return p_start, p_end


def oracle_forward(batch, params, table):
    """(B, Lc) p_start and p_end, each row computed alone, zeros at padding."""
    shape = np.shape(batch.context_ids)
    p_start, p_end = np.zeros(shape), np.zeros(shape)
    for b in range(shape[0]):
        lc = np.count_nonzero(batch.context_ids[b] != PAD_ID)
        lq = np.count_nonzero(batch.question_ids[b] != PAD_ID)
        p_start[b, :lc], p_end[b, :lc] = oracle_example(
            batch.context_ids[b, :lc], batch.question_ids[b, :lq], params, table)
    return p_start, p_end
