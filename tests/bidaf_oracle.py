"""Two references for the fused ``ad.bidaf`` op behind ``model.bidaf_attention``.

``bidaf_reference`` is plain float64 numpy that writes the equations of Seo
et al. (arXiv 1611.01603) literally: the similarity S[b, i, j] = w . [c_i ;
q_j ; c_i * q_j] is a dot product with the full (B, Lc, Lq, 6h) feature
tensor, and each softmax runs over the unmasked positions of one row only.

``composite_attention`` is the attention as the model computed it before the
fused op existed: 27 tape nodes of generic, separately gradient-checked ops
(slice, unpack, matmul, mul, add, transpose, bmm, masked_softmax, reduce_max,
take_rows, concat) over packed rows. Its values and its gradients are a
second reference, the way ``lstm_oracle`` serves the fused ``ad.lstm``.
"""

import numpy as np

from lstm_oracle import pack_rows
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


def composite_attention(context, question, w_sim, context_packing, question_packing):
    """BiDAF attention from generic tape ops: (N,2h) x (Nq,2h) -> G (N,8h).

    With w_sim split into [w_c ; w_q ; w_m], S = w_c.c_i + (c_i*w_m + w_q).q_j:
    a (B,Lc,1) column broadcast over a (B,Lc,Lq) bmm of the zero-padded
    encodings. The question-to-context row maxima skip the padded question
    positions through a -1e30 offset."""
    two_h = context.shape[1]
    batch, lc = context_packing.shape
    w_c = ad.reshape(ad.slice_axis(w_sim, 0, 0, two_h), (two_h, 1))
    w_q = ad.slice_axis(w_sim, 0, two_h, 2 * two_h)
    w_m = ad.slice_axis(w_sim, 0, 2 * two_h, 3 * two_h)

    padded = ad.unpack(context, context_packing)                     # (B,Lc,2h)
    q_padded = ad.unpack(question, question_packing)
    s_context = ad.unpack(ad.matmul(context, w_c), context_packing)  # (B,Lc,1)
    s_cross = ad.bmm(ad.add(ad.mul(padded, w_m), w_q), ad.transpose(q_padded))
    sim = ad.add(s_context, s_cross)                                  # (B,Lc,Lq)

    q_mask = question_packing.mask[:, None, :]                       # (B,1,Lq)
    u_tilde = ad.bmm(ad.masked_softmax(sim, q_mask), q_padded)       # (B,Lc,2h)
    u_tilde = ad.take_rows(ad.reshape(u_tilde, (batch * lc, two_h)),
                           context_packing.flat)                     # (N,2h)

    block = ((q_mask - 1.0) * 1e30).astype(sim.data.dtype, copy=False)
    row_best = ad.reduce_max(ad.add(sim, block), axis=2)             # (B,Lc)
    q2c = ad.masked_softmax(row_best, context_packing.mask)
    h_tilde = ad.reshape(ad.bmm(ad.reshape(q2c, (batch, 1, lc)), padded),
                         (batch, two_h))
    h_tilde = ad.take_rows(h_tilde, context_packing.index[0])        # (N,2h)

    return ad.concat([context, u_tilde, ad.mul(context, u_tilde),
                      ad.mul(context, h_tilde)], axis=1)


def packed_attention(context, question, w_sim, context_mask, question_mask,
                     attend=bidaf_attention):
    """`attend` (``model.bidaf_attention`` unless given) under the
    reference's padded contract: the encodings are packed by their masks,
    and G is unpacked to (B, Lc, 8h) with zeros at the padded context
    positions."""
    contexts, questions = ad.Packing(context_mask), ad.Packing(question_mask)
    out = attend(pack_rows(context, contexts), pack_rows(question, questions),
                 w_sim, contexts, questions)
    return ad.unpack(out, contexts)
