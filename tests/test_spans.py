import math

import numpy as np
import pytest

from spanqa.autodiff import DegenerateMaskError
from spanqa.spans import (SpanOrderingError, best_span, oracle_best_span,
                          raw_product_span, smart_span_score)

# the worked pair used throughout: brute force over all 6 ordered pairs picks
# (1,1) under smart-span but (0,1) under the raw product
P_START = np.array([0.45, 0.35, 0.2])
P_END = np.array([0.1, 0.55, 0.35])
ONES = np.ones(3)


def brute_force_smart(ps, pe, keep, max_len=None):
    best = None
    for s in range(len(ps)):
        for e in range(s, len(ps)):
            if not (keep[s] and keep[e]):
                continue
            if max_len is not None and e - s + 1 > max_len:
                continue
            score = ps[s] * pe[e] / (math.log(e - s + 1) + 1.0)
            if best is None or score > best[2]:
                best = (s, e, score)
    return best


class TestSmartSpanScore:
    def test_length_one_has_unit_denominator(self):
        assert smart_span_score(0.5, 0.4, 3, 3) == pytest.approx(0.2, abs=1e-15)

    def test_length_two(self):
        # 0.2 / (ln 2 + 1) evaluated independently
        assert smart_span_score(0.5, 0.4, 3, 4) == pytest.approx(
            0.11812322182992825, abs=1e-15)

    def test_short_answer_reward(self):
        short = smart_span_score(0.5, 0.4, 0, 0)
        long = smart_span_score(0.5, 0.4, 0, 4)
        assert short == pytest.approx(0.2, abs=1e-15)
        assert long == pytest.approx(0.2 / (math.log(5) + 1), abs=1e-15)
        assert short > long

    def test_strictly_decreasing_in_length(self):
        scores = [smart_span_score(0.3, 0.6, 0, k) for k in range(12)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_ordering_error(self):
        with pytest.raises(SpanOrderingError):
            smart_span_score(0.5, 0.5, 2, 1)


class TestBestSpan:
    def test_worked_example_prefers_short(self):
        expected = brute_force_smart(P_START, P_END, [True] * 3, max_len=3)
        assert expected[:2] == (1, 1)
        pred = best_span(P_START, P_END, ONES, max_len=3)
        assert (pred.start, pred.end) == (1, 1)
        assert pred.score == pytest.approx(0.35 * 0.55, abs=1e-15)

    def test_one_hot(self):
        ps = np.zeros(8)
        pe = np.zeros(8)
        ps[2] = 1.0
        pe[5] = 1.0
        pred = best_span(ps, pe, np.ones(8), max_len=10)
        assert (pred.start, pred.end) == (2, 5)

    def test_single_position(self):
        pred = best_span([1.0], [1.0], [1.0])
        assert (pred.start, pred.end) == (0, 0)

    def test_score_matches_formula_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            L = int(rng.integers(1, 30))
            ps, pe = rng.random(L), rng.random(L)
            pred = best_span(ps, pe, np.ones(L), max_len=20)
            assert pred.score == smart_span_score(ps[pred.start], pe[pred.end],
                                                  pred.start, pred.end)

    def test_respects_mask(self):
        ps = np.array([0.9, 0.05, 0.05])
        pe = np.array([0.9, 0.05, 0.05])
        mask = np.array([0.0, 1.0, 1.0])
        pred = best_span(ps, pe, mask)
        assert pred.start >= 1 and pred.end >= 1

    def test_all_masked(self):
        with pytest.raises(DegenerateMaskError):
            best_span([0.5, 0.5], [0.5, 0.5], [0.0, 0.0])

    def test_reversal_consistency(self):
        # relabeling positions by reversal (which preserves span lengths and
        # swaps start/end roles) maps the winning span accordingly
        rng = np.random.default_rng(6)
        for _ in range(200):
            L = int(rng.integers(2, 40))
            ps, pe = rng.random(L), rng.random(L)
            fwd = best_span(ps, pe, np.ones(L), max_len=L)
            rev = best_span(pe[::-1], ps[::-1], np.ones(L), max_len=L)
            assert (rev.start, rev.end) == (L - 1 - fwd.end, L - 1 - fwd.start)


class TestOracleEquivalence:
    def test_matches_vectorized_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            L = int(rng.integers(1, 51))
            ps, pe = rng.random(L), rng.random(L)
            mask = (rng.random(L) > 0.2).astype(float)
            if not mask.any():
                mask[0] = 1.0
            fast = best_span(ps, pe, mask, max_len=L)
            slow = oracle_best_span(ps, pe, mask)
            assert (fast.start, fast.end, fast.score) == (slow.start, slow.end,
                                                          slow.score)

    def test_uniform_tie_breaks_to_first(self):
        # every length-1 span ties at p^2 and beats all longer spans, so the
        # (smaller start, smaller end) rule selects (0, 0)
        u = np.full(6, 1 / 6)
        pred = oracle_best_span(u, u, np.ones(6))
        assert (pred.start, pred.end) == (0, 0)

    def test_worked_example(self):
        pred = oracle_best_span(P_START, P_END, ONES)
        assert (pred.start, pred.end) == (1, 1)


class TestRawProductSpan:
    def test_worked_example_disagrees_with_smart(self):
        pred = raw_product_span(P_START, P_END, ONES, max_len=3)
        assert (pred.start, pred.end) == (0, 1)
        assert pred.score == pytest.approx(0.45 * 0.55, abs=1e-15)

    def test_one_hot_agrees_with_best_span(self):
        ps = np.zeros(5)
        pe = np.zeros(5)
        ps[1] = 1.0
        pe[3] = 1.0
        raw = raw_product_span(ps, pe, np.ones(5), max_len=5)
        smart = best_span(ps, pe, np.ones(5), max_len=5)
        assert (raw.start, raw.end) == (smart.start, smart.end) == (1, 3)

    def test_identical_one_hot_distributions(self):
        p = np.zeros(4)
        p[2] = 1.0
        pred = raw_product_span(p, p, np.ones(4), max_len=4)
        assert (pred.start, pred.end) == (2, 2)


def test_answer_text_reconstruction():
    from spanqa.data import tokenize

    text = "The Late Show with Stephen Colbert aired after the game."
    toks = tokenize(text)
    pred = best_span(*_one_hot_pair(len(toks), 4, 5), np.ones(len(toks)),
                     tokens=toks, text=text)
    assert pred.answer_text == "Stephen Colbert"


def _one_hot_pair(length, s, e):
    ps = np.zeros(length)
    pe = np.zeros(length)
    ps[s] = 1.0
    pe[e] = 1.0
    return ps, pe
