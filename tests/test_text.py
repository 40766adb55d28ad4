"""The regex tokenizer, bisecting alignment and span extraction.

`text_oracle` keeps the per-character tokenizer and the linear alignment
scan the data layer ran before; hypothesis draws strings and token lists
where the two could disagree: every kind of whitespace, punctuation at the
edges and inside a chunk, non-ASCII letters and digits, a combining mark, a
lone surrogate, empty answers and offsets outside the context. The answer
string `span_text` cuts out of a text re-tokenizes to the tokens it covers.
"""

import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from spanqa.data import _TOKEN, AlignmentError, Token, align_answer, tokenize
from spanqa.spans import span_text
from text_oracle import oracle_align_answer, oracle_tokenize

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

WHITESPACE = "\t \n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000"
# curly quotes; e-acute, sharp s, dotted capital I (lowercases to 2 chars),
# Arabic-Indic one; a combining acute accent; a lone surrogate
ALPHABET = (string.ascii_letters + string.digits + "_" + string.punctuation
            + "\u201c\u201d" + WHITESPACE + "\u00e9\u00df\u0130\u0661\u0301\ud800")


@FUZZ
@given(st.lists(st.sampled_from(ALPHABET), max_size=40).map("".join))
def test_tokenize_matches_the_oracle(text):
    assert tokenize(text) == oracle_tokenize(text)


@st.composite
def text_and_span(draw):
    """A text with at least one token, and token positions s <= e in it."""
    text = draw(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=40)
                .map("".join).filter(tokenize))
    count = len(tokenize(text))
    start = draw(st.integers(0, count - 1))
    return text, start, draw(st.integers(start, count - 1))


@FUZZ
@given(text_and_span())
def test_span_text_retokenizes_to_the_tokens_it_covers(case):
    text, s, e = case
    tokens = tokenize(text)
    base = tokens[s].start
    assert tokenize(span_text(tokens, text, s, e)) == [
        Token(tok.text, tok.start - base, tok.end - base) for tok in tokens[s:e + 1]]


def test_regex_classes_are_isspace_and_isalnum_on_every_code_point():
    # the two character classes _TOKEN is built from, checked on all of
    # Unicode (surrogates included) against the str methods the oracle uses
    assert r"[^\W_]" in _TOKEN.pattern and r"\S" in _TOKEN.pattern
    every = "".join(map(chr, range(0x110000)))
    for cls, method in ((r"\s", str.isspace), (r"[^\W_]", str.isalnum)):
        matched = [m.start() for m in re.finditer(cls, every)]
        assert matched == [i for i, c in enumerate(every) if method(c)], cls


@st.composite
def spans_and_answer(draw):
    """Disjoint non-empty token spans in text order (adjacent ones too), and
    an answer offset and length that may fall outside them."""
    tokens, end = [], 0
    for gap, width in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)),
                                    max_size=8)):
        tokens.append(Token("x", end + gap, end + gap + width))
        end += gap + width
    start = draw(st.integers(-2, end + 2))
    return tokens, "a" * draw(st.integers(0, end + 2)), start


def _outcome(align, tokens, text, start):
    try:
        return align(tokens, text, start)
    except AlignmentError as exc:
        return str(exc)


@FUZZ
@given(spans_and_answer())
def test_align_answer_matches_the_scan(case):
    assert _outcome(align_answer, *case) == _outcome(oracle_align_answer, *case)

