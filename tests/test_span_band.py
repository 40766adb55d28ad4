"""The banded span scorer against the square L x L form it replaced."""

import math

import numpy as np
import pytest

from spanqa.autodiff import ConfigError, DegenerateMaskError
from spanqa.spans import _argmax_pair, best_span, raw_product_span


def square_argmax_pair(ps, pe, keep, max_len, penalty=None):
    """Scores every (start, end) of an L x L grid, masking the invalid ones."""
    length = len(ps)
    span_len = np.arange(length)[None, :] - np.arange(length)[:, None] + 1
    valid = (span_len >= 1) & (span_len <= max_len) & np.outer(keep, keep)
    if not valid.any():
        raise DegenerateMaskError("no unmasked start/end pair available")
    scores = np.outer(np.where(keep, ps, 0.0), np.where(keep, pe, 0.0))
    if penalty is not None:
        scores /= penalty(np.clip(span_len, 1, None))
    flat = int(np.where(valid, scores, -1.0).argmax())
    return divmod(flat, length)


def smart_penalty(n):
    return np.log(n) / math.log(math.e) + 1.0


def random_case(rng):
    length = int(rng.integers(1, 80))
    kind = rng.integers(3)
    if kind == 0:     # continuous: ties only by accident
        ps, pe = rng.random(length), rng.random(length)
    elif kind == 1:   # few levels: many exact ties
        ps = rng.integers(0, 3, size=length) / 4.0
        pe = rng.integers(0, 3, size=length) / 4.0
    else:             # constant: every pair of a span length ties
        ps = pe = np.full(length, 0.5)
    keep = rng.random(length) < rng.choice([1.0, 0.7, 0.2])
    if not keep.any():
        keep[rng.integers(length)] = True
    max_len = int(rng.choice([1, 2, 5, 20, length, length + 7]))
    return ps, pe, keep, max_len


@pytest.mark.parametrize("penalty", [None, smart_penalty])
def test_band_matches_square_form(penalty):
    rng = np.random.default_rng(11)
    for _ in range(3000):
        ps, pe, keep, max_len = random_case(rng)
        try:
            expected = square_argmax_pair(ps, pe, keep, max_len, penalty)
        except DegenerateMaskError:
            with pytest.raises(DegenerateMaskError):
                _argmax_pair(ps, pe, keep, max_len, penalty)
            continue
        assert _argmax_pair(ps, pe, keep, max_len, penalty) == expected


def test_band_matches_square_form_at_decode_shape():
    rng = np.random.default_rng(12)
    for _ in range(50):
        length = int(rng.integers(250, 301))
        ps, pe = rng.dirichlet(np.ones(length)), rng.dirichlet(np.ones(length))
        keep = np.arange(length) < rng.integers(1, length + 1)
        for max_len in (20, length):
            assert (_argmax_pair(ps, pe, keep, max_len, smart_penalty)
                    == square_argmax_pair(ps, pe, keep, max_len, smart_penalty))


def test_no_valid_pair_raises():
    # a length cap below 1 leaves no pair, and the error names the cap
    ps = pe = np.full(4, 0.25)
    with pytest.raises(ConfigError, match="max_len must be >= 1, got 0"):
        best_span(ps, pe, np.ones(4), max_len=0)
    with pytest.raises(ConfigError, match="max_len must be >= 1, got -3"):
        raw_product_span(ps, pe, np.ones(4), max_len=-3)
