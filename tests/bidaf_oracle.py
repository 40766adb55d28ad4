"""The plain reference for the fused ``ad.bidaf`` op behind
``model.bidaf_attention``.

``bidaf_reference`` is float64 numpy that writes the equations of Seo et
al. (arXiv 1611.01603) literally: the similarity S[b, i, j] = w . [c_i ;
q_j ; c_i * q_j] is a dot product with the full (B, Lc, Lq, 6h) feature
tensor, and each softmax runs over the unmasked positions of one row only.
It checks the op's values; its gradients are checked by central differences
(``ad.grad_check``).
"""

import numpy as np

from lstm_oracle import flat_rows
from spanqa import autodiff as ad
from spanqa.model import bidaf_attention


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def bidaf_reference(context, question, w_sim, context_mask, question_mask):
    """(B, Lc, 2h) x (B, Lq, 2h) -> (B, Lc, 8h) rows [c ; u~ ; c*u~ ; c*h~]."""
    c = np.asarray(context, dtype=np.float64)
    q = np.asarray(question, dtype=np.float64)
    batch, lc, two_h = c.shape
    lq = q.shape[1]
    cc = np.broadcast_to(c[:, :, None, :], (batch, lc, lq, two_h))
    qq = np.broadcast_to(q[:, None, :, :], (batch, lc, lq, two_h))
    features = np.concatenate([cc, qq, cc * qq], axis=3)     # (B, Lc, Lq, 6h)
    sim = features @ np.asarray(w_sim, dtype=np.float64)      # (B, Lc, Lq)

    out = np.empty((batch, lc, 4 * two_h))
    for b in range(batch):
        q_live = np.asarray(question_mask[b]) > 0
        c_live = np.asarray(context_mask[b]) > 0
        # context-to-question: each context position attends over the question
        u_tilde = np.stack([_softmax(sim[b, i, q_live]) @ q[b, q_live]
                            for i in range(lc)])
        # question-to-context: one summary of the context per example
        row_best = np.array([sim[b, i, q_live].max() for i in range(lc)])
        h_tilde = _softmax(row_best[c_live]) @ c[b, c_live]
        out[b] = np.concatenate([c[b], u_tilde, c[b] * u_tilde, c[b] * h_tilde],
                                axis=1)
    return out


def stacked_rows(context, question) -> np.ndarray:
    """The padded (B, Lc, 2h) context and (B, Lq, 2h) question as one block
    of their rows, (B*Lc + B*Lq, 2h), the input `packed_attention` reads."""
    return np.concatenate([flat_rows(context), flat_rows(question)])


def packed_attention(rows, w_sim, context_mask, question_mask):
    """``model.bidaf_attention`` on the reference's padded inputs, given as
    their `stacked_rows` (an array, a Tensor or a leaf): its index reads the
    live context rows and then the live question rows, by their masks, as
    [c ; q], as ``model.forward`` reads them from the shared encoding. G
    stays packed, (N, 8h) in the context packing's order;
    ``lstm_oracle.padded`` lays it out as the reference does."""
    contexts, questions = ad.Packing(context_mask), ad.Packing(question_mask)
    index = np.concatenate([contexts.flat, contexts.mask.size + questions.flat])
    return bidaf_attention(rows, index, w_sim, contexts, questions)
