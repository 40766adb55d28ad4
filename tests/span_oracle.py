"""The exhaustive smart-span scan, kept as the oracle for ``spans.best_span``.

A plain O(L^2) loop over every ordered (start, end) pair with no length cap,
scored by ``smart_span_score``. It converts and checks its own inputs rather
than sharing ``best_span``'s preparation, so the band search, the padding
and the input checks it guards are all code it does not run.
"""

import numpy as np

from spanqa.autodiff import DegenerateMaskError
from spanqa.spans import SpanPrediction, smart_span_score


def oracle_best_span(p_start, p_end, mask) -> SpanPrediction:
    """Best smart-span pair over every unmasked start <= end; ties go to the
    smaller start, then end."""
    ps = np.asarray(p_start, dtype=np.float64)
    pe = np.asarray(p_end, dtype=np.float64)
    keep = np.asarray(mask) > 0
    if not (ps.shape == pe.shape == keep.shape) or ps.ndim != 1:
        raise ValueError(
            f"expected matching 1-D inputs, got {ps.shape}, {pe.shape}, {keep.shape}")
    best = None
    for s in range(len(ps)):
        if not keep[s]:
            continue
        for e in range(s, len(ps)):
            if not keep[e]:
                continue
            score = smart_span_score(ps[s], pe[e], s, e)
            if best is None or score > best.score:
                best = SpanPrediction(s, e, score)
    if best is None:
        raise DegenerateMaskError("no unmasked start/end pair available")
    return best
