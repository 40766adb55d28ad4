"""The per-character tokenizer and linear answer alignment, kept as the oracle
for ``data.tokenize`` and ``data.align_answer``.

This is the code the data layer ran before its tokenizer became one regular
expression and its alignment two bisections: a Python loop that splits at
whitespace and peels each chunk's leading and trailing non-alphanumerics one
character at a time, and a scan over every context token. It is slow, but
every step of it reads as the rule, so the fast versions must match it.
"""

import sys

from spanqa.data import AlignmentError, Token


def oracle_tokenize(text: str) -> list[Token]:
    """Lowercased tokens with original-string character spans."""
    tokens: list[Token] = []
    n = len(text)
    i = 0
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        _split_chunk(text, i, j, tokens)
        i = j
    return tokens


def _split_chunk(text: str, start: int, stop: int, out: list[Token]) -> None:
    # peel leading/trailing non-alphanumerics one char at a time; interior
    # punctuation (11:28, 10-7, don't) is left alone
    left, right = start, stop
    while left < right and not text[left].isalnum():
        left += 1
    while right > left and not text[right - 1].isalnum():
        right -= 1
    # interned, so equal words share one string across the whole dataset
    for k in range(start, left):
        out.append(Token(sys.intern(text[k].lower()), k, k + 1))
    if left < right:
        out.append(Token(sys.intern(text[left:right].lower()), left, right))
    for k in range(right, stop):
        out.append(Token(sys.intern(text[k].lower()), k, k + 1))


def oracle_align_answer(context_tokens: list[Token], answer_text: str,
                        answer_start: int) -> tuple[int, int]:
    """Smallest inclusive token range whose char span covers the answer."""
    answer_end = answer_start + len(answer_text)
    if not context_tokens or answer_start < 0 or answer_end > context_tokens[-1].end:
        raise AlignmentError(
            f"answer offset [{answer_start}, {answer_end}) outside tokenized context")
    start_tok = None
    end_tok = None
    for i, tok in enumerate(context_tokens):
        if start_tok is None and tok.end > answer_start:
            start_tok = i
        if tok.start < answer_end:
            end_tok = i
    if (start_tok is None or end_tok is None or start_tok > end_tok
            or context_tokens[start_tok].start > answer_start
            or context_tokens[end_tok].end < answer_end):
        raise AlignmentError(
            f"answer {answer_text!r} at offset {answer_start} is not coverable")
    return start_tok, end_tok
