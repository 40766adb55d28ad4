"""Answer-span selection from start/end probability distributions.

The smart-span score divides the start*end probability product by a
log-length penalty, so among spans with similar products the shorter one
wins. ``best_span`` is the vectorized production path; ``oracle_best_span``
is a deliberately plain O(L^2) scan kept independent for cross-checking.
The decoders return token positions only; ``span_text`` reads the answer
string those positions cover out of the original text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import ConfigError, DegenerateMaskError

__all__ = ["SpanPrediction", "SpanOrderingError", "smart_span_score",
           "best_span", "oracle_best_span", "raw_product_span", "span_text"]


class SpanOrderingError(ValueError):
    """A span was requested with start > end."""


@dataclass
class SpanPrediction:
    start: int
    end: int  # inclusive
    score: float


def _length_penalty(n):
    """The smart-span divisor ln(n) + 1 of a span of n tokens (or an array of n)."""
    return np.log(n) + 1.0


def smart_span_score(p_s: float, p_e: float, start: int, end: int) -> float:
    """p_s * p_e / (ln(end - start + 1) + 1)."""
    if start > end:
        raise SpanOrderingError(f"span start {start} > end {end}")
    return p_s * p_e / float(_length_penalty(end - start + 1))


def span_text(tokens, text: str, start: int, end: int) -> str:
    """Original-case substring covered by tokens[start..end], via char offsets."""
    return text[tokens[start].start:tokens[end].end]


def _prepare(p_start, p_end, mask):
    ps = np.asarray(p_start, dtype=np.float64)
    pe = np.asarray(p_end, dtype=np.float64)
    keep = np.asarray(mask) > 0
    if not (ps.shape == pe.shape == keep.shape) or ps.ndim != 1:
        raise ValueError(
            f"expected matching 1-D inputs, got {ps.shape}, {pe.shape}, {keep.shape}")
    if not keep.any():
        raise DegenerateMaskError("all positions are masked")
    return ps, pe, keep


def _argmax_pair(ps, pe, keep, max_len, penalty=None):
    """(start, end) maximizing p_start * p_end, divided by penalty(span length)
    when given, over unmasked pairs with start <= end < start + max_len; ties
    go to the smaller start, then end.

    Scores only the (L, min(max_len, L)) band of (start, offset) pairs, with
    end = start + offset, so the work is O(L * max_len), not O(L^2).
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    length = len(ps)
    width = min(max_len, length)
    tail = width - 1     # ends past the last position: padded, never valid
    end_p = sliding_window_view(
        np.concatenate([np.where(keep, pe, 0.0), np.zeros(tail)]), width)
    end_keep = sliding_window_view(
        np.concatenate([keep, np.zeros(tail, dtype=bool)]), width)
    valid = keep[:, None] & end_keep
    if not valid.any():
        raise DegenerateMaskError("no unmasked start/end pair available")
    scores = np.where(keep, ps, 0.0)[:, None] * end_p
    if penalty is not None:
        scores /= penalty(np.arange(1, width + 1))
    # row-major over (start, offset) is row-major over (start, end): the tie rule
    start, offset = divmod(int(np.where(valid, scores, -np.inf).argmax()), width)
    return start, start + offset


def best_span(p_start, p_end, mask, max_len: int = 20) -> SpanPrediction:
    """Argmax of the smart-span score over unmasked pairs with
    start <= end < start + max_len; ties go to the smaller start, then end."""
    ps, pe, keep = _prepare(p_start, p_end, mask)
    s, e = _argmax_pair(ps, pe, keep, max_len, _length_penalty)
    return SpanPrediction(s, e, smart_span_score(ps[s], pe[e], s, e))


def oracle_best_span(p_start, p_end, mask) -> SpanPrediction:
    """Exhaustive scan over every ordered pair, no length cap; same tie-break."""
    ps, pe, keep = _prepare(p_start, p_end, mask)
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


def raw_product_span(p_start, p_end, mask, max_len: int = 20) -> SpanPrediction:
    """Argmax of the plain p_start * p_end product (the un-penalized baseline)."""
    ps, pe, keep = _prepare(p_start, p_end, mask)
    s, e = _argmax_pair(ps, pe, keep, max_len)
    return SpanPrediction(s, e, float(ps[s] * pe[e]))
