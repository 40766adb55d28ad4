"""SQuAD-format ingestion, tokenization, answer alignment, GloVe loading,
and padded batches: `make_batch` builds one, `build_batches` one per chunk.

Tokenization is lowercased and whitespace-driven, with leading and trailing
punctuation peeled off as single-character tokens (so quotes survive as
tokens) while interior punctuation stays put, keeping numerals like 11:28
and scores like 10-7 intact; one regular expression, _TOKEN, states it.
Every token remembers its character span in the original text, which is what
answer alignment and answer reconstruction use. Token strings are interned,
so a dataset holds each distinct word once.

A GloVe text file of 1 MiB or more is parsed once: `load_glove` keeps the
parsed table in `<file>.cache.npz` beside it and reads that while the text
file's size and mtime and the requested dim are unchanged (see load_glove).
`replace_file` writes the copy as it writes checkpoints: to a new temp
file beside it, synced to disk and renamed into place, with the mode the
umask gives any new file.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import logging
import os
import re
import sys
import zipfile
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import ConfigError

__all__ = [
    "Token", "QAExample", "EmbeddingTable", "Batch", "DatasetStats",
    "ParseError", "SchemaError", "AlignmentError", "GloveFormatError",
    "EmptyDatasetError", "PAD_ID", "UNK_ID",
    "tokenize", "load_squad", "align_answer", "load_glove", "replace_file",
    "make_batch", "build_batches", "prepare_for_training", "dataset_stats",
]

log = logging.getLogger(__name__)

PAD_ID = 0    # fills each batch row after its tokens; no word maps to it,
UNK_ID = 1    # so the ids alone mark padding: every mask is ids != PAD_ID

# A token: an alphanumeric-led run of non-space characters ending on its last
# alphanumeric character, or else one non-space character. [^\W_] is exactly
# str.isalnum and \s exactly str.isspace, over every code point; the run must
# come first, and its \S* backtracks to the chunk's last alphanumeric.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")

# GloVe files smaller than this parse in a few milliseconds and get no copy
CACHE_MIN_BYTES = 1 << 20
_CACHE_FORMAT = 1          # stored in each copy: another format is stale
# What reading a missing or damaged copy raises: zipfile reads a flipped
# flag bit as encryption (RuntimeError), a flipped method as
# NotImplementedError (a RuntimeError) and a short header as EOFError.
_DAMAGED_COPY = (OSError, EOFError, RuntimeError, ValueError, KeyError,
                 zipfile.BadZipFile)


class ParseError(ValueError):
    """Input file is not UTF-8 text or not valid JSON."""


class SchemaError(ValueError):
    """Input JSON lacks or mistypes a required SQuAD field, or repeats a
    question id."""


class AlignmentError(ValueError):
    """A character-offset answer cannot be covered by a token range."""


class GloveFormatError(ValueError):
    """Not UTF-8 text, or a line with the wrong number of fields or a non-number."""


class EmptyDatasetError(ValueError):
    """An operation that needs examples received none."""


class Token(NamedTuple):
    text: str    # lowercased
    start: int   # char offsets [start, end) into the original string
    end: int


@dataclass
class QAExample:
    qid: str
    context_text: str
    context_tokens: list[Token]
    question_text: str
    question_tokens: list[Token]
    answer_texts: list[str]
    gold_span: tuple[int, int] | None = None  # inclusive token range


@dataclass
class EmbeddingTable:
    """Word vectors with reserved rows: PAD=0 (zeros), UNK=1 (mean vector)."""

    dim: int
    word_to_id: dict[str, int]
    matrix: np.ndarray

    def id_of(self, word: str) -> int:
        return self.word_to_id.get(word, UNK_ID)

    def ids(self, tokens) -> np.ndarray:
        return np.array([self.id_of(t.text) for t in tokens], dtype=np.int64)

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[0]


@dataclass
class Batch:
    """Token ids padded with PAD_ID after each row's tokens, which is the
    only record of padding: a row's live tokens are its ids != PAD_ID."""
    context_ids: np.ndarray     # (B, Lc) int64
    question_ids: np.ndarray    # (B, Lq)
    gold_starts: np.ndarray     # (B,) int64
    gold_ends: np.ndarray


@dataclass
class DatasetStats:
    example_count: int
    answer_under_20_fraction: float
    context_under_300_fraction: float
    answer_length_hist: list[int] = field(default_factory=list)
    context_length_hist: list[int] = field(default_factory=list)


def tokenize(text: str) -> list[Token]:
    """Lowercased, interned tokens with original-string character spans, in
    text order: each run of non-space characters from its first alphanumeric
    character to its last, and each other non-space character (see _TOKEN)."""
    return [Token(sys.intern(m.group().lower()), m.start(), m.end())
            for m in _TOKEN.finditer(text)]


def align_answer(context_tokens: list[Token], answer_text: str,
                 answer_start: int) -> tuple[int, int]:
    """Smallest inclusive token range whose char span covers the answer.

    The tokens must be in text order, as `tokenize` returns them, so their
    starts and ends both increase and each end of the range is a bisection.
    """
    answer_end = answer_start + len(answer_text)
    if not context_tokens or answer_start < 0 or answer_end > context_tokens[-1].end:
        raise AlignmentError(
            f"answer offset [{answer_start}, {answer_end}) outside tokenized context")
    start_tok = bisect.bisect_right(context_tokens, answer_start, key=lambda t: t.end)
    end_tok = bisect.bisect_left(context_tokens, answer_end, key=lambda t: t.start) - 1
    # first, so a bisection that ran off either end never indexes the list
    if (start_tok > end_tok
            or context_tokens[start_tok].start > answer_start
            or context_tokens[end_tok].end < answer_end):
        raise AlignmentError(
            f"answer {answer_text!r} at offset {answer_start} is not coverable")
    return start_tok, end_tok


def _require(mapping, key, where, kind):
    # an exact type: JSON makes no subclasses, and a bool is no int here
    try:
        value = mapping[key]
    except (KeyError, TypeError):
        raise SchemaError(f"missing field {key!r} in {where}") from None
    if type(value) is not kind:
        raise SchemaError(f"field {key!r} in {where} must be {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def load_squad(path) -> list[QAExample]:
    """Parse a SQuAD v1.1 JSON file into tokenized, aligned examples.

    All listed answers are retained; the gold token span is aligned from the
    first answer. Examples whose first answer cannot be aligned keep
    gold_span=None and are counted in a warning. A missing field, one of the
    wrong JSON type, or a question id seen before raises SchemaError.

    The cyclic garbage collector is paused while the file is parsed and
    tokenized, for the whole process, and turned back on afterwards only if
    it was on before. The millions of token tuples a SQuAD-train-sized file
    makes hold no reference cycles, yet each collection walks all of them:
    on a generated 30,000-question file the load took about half as long
    with the collector off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_squad(path)
    finally:
        if enabled:
            gc.enable()


def _read_squad(path) -> list[QAExample]:
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    examples: list[QAExample] = []
    seen: set[str] = set()
    unaligned = 0
    for article in _require(raw, "data", str(path), list):
        for paragraph in _require(article, "paragraphs", "article", list):
            context = _require(paragraph, "context", "paragraph", str)
            context_tokens = tokenize(context)
            for qa in _require(paragraph, "qas", "paragraph", list):
                qid = _require(qa, "id", "qa entry", str)
                if qid in seen:
                    # predictions and scores are keyed by id
                    raise SchemaError(f"{path}: question id {qid!r} is repeated")
                seen.add(qid)
                question = _require(qa, "question", f"qa {qid}", str)
                answers = _require(qa, "answers", f"qa {qid}", list)
                texts = [_require(a, "text", f"answer of qa {qid}", str)
                         for a in answers]
                gold = None
                if answers:
                    try:
                        gold = align_answer(context_tokens, texts[0],
                                            _require(answers[0], "answer_start",
                                                     f"answer of qa {qid}", int))
                    except AlignmentError:
                        unaligned += 1
                examples.append(QAExample(
                    qid=qid,
                    context_text=context,
                    context_tokens=context_tokens,
                    question_text=question,
                    question_tokens=tokenize(question),
                    answer_texts=texts,
                    gold_span=gold,
                ))
    if unaligned:
        log.warning("%d examples had unalignable first answers", unaligned)
    return examples


def load_glove(path, dim: int) -> EmbeddingTable:
    """Read `word f1 ... fdim` lines; prepend PAD (zeros) and UNK (mean).
    The table is float32, the dtype the model computes in.

    A file of at least CACHE_MIN_BYTES keeps a binary copy of its table
    beside it, `<path>.cache.npz`, written after the first successful parse
    and read in its place while the text file keeps the size and mtime it
    had when the copy was written (taken with `os.fstat` before parsing, so
    a file rewritten mid-parse misses next time) and `dim` is the same. A
    missing, stale or damaged copy is parsed over and rewritten; a copy
    that cannot be written is logged and skipped. `replace_file` syncs the
    copy and gives it the umask's mode. Both paths give the same table, bit
    for bit.
    """
    cache = os.fspath(path) + ".cache.npz"
    with open(path, encoding="utf-8") as handle:
        stat = os.fstat(handle.fileno())
        source = np.array([stat.st_size, stat.st_mtime_ns, dim, _CACHE_FORMAT],
                          dtype=np.int64)
        cached = stat.st_size >= CACHE_MIN_BYTES
        if cached and (table := _read_glove_copy(cache, source, dim)) is not None:
            return table
        words, matrix = _parse_glove(path, handle, dim)
    table = _glove_table(dim, words, matrix)
    if cached:
        # no word holds a newline: the text reader ends a line at each one
        text = np.frombuffer("\n".join(words).encode("utf-8"), dtype=np.uint8)
        try:
            replace_file(cache, lambda handle: np.savez(
                handle, source=source, matrix=matrix, words=text))
        except OSError as exc:
            log.warning("GloVe copy %s not written: %s", cache, exc)
    return table


def _parse_glove(path, handle, dim: int) -> tuple[list[str], np.ndarray]:
    """The words and float32 table of an open GloVe text file.

    One pass over the file: each line's field count is checked and its word
    kept as the line streams into a single `np.loadtxt` call, which parses
    the floats in C (no Python object per value) straight into the table,
    behind two zero rows for PAD and UNK. loadtxt converts each line as it
    reads it, so a field that is not a number is on the last line read.
    The values are parsed as float64 and the UNK row is their float64 mean;
    the table is narrowed to float32 once it is complete.
    """
    words: list[str] = []
    lineno = 0

    def lines():
        nonlocal lineno
        yield from ["_" + " 0" * dim] * 2     # the PAD and UNK rows
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line.count(" ") != dim:
                raise GloveFormatError(
                    f"{path}:{lineno}: expected {dim} floats, got {line.count(' ')}")
            words.append(line.partition(" ")[0])
            yield line

    try:
        matrix = np.loadtxt(lines(), dtype=np.float64, delimiter=" ",
                            comments=None, usecols=range(1, dim + 1), ndmin=2)
    except GloveFormatError:
        raise
    except UnicodeDecodeError as exc:   # decoded in blocks: no line to name
        raise GloveFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ValueError:
        raise GloveFormatError(
            f"{path}:{lineno}: expected {dim} floats, got a non-number") from None
    if words:
        matrix[UNK_ID] = matrix[2:].mean(axis=0)
    return words, matrix.astype(np.float32)


def _glove_table(dim: int, words: list[str], matrix: np.ndarray) -> EmbeddingTable:
    # a repeated word keeps its last row
    return EmbeddingTable(dim=dim, matrix=matrix,
                          word_to_id=dict(zip(words, range(2, len(words) + 2))))


def _read_glove_copy(cache: str, source: np.ndarray, dim: int) -> EmbeddingTable | None:
    """The table in `cache` if it was written from `source`; None if it is
    missing, stale or damaged. Reading a member to its end checks its
    CRC-32. np.load leaks a file it opened itself when the zip directory is
    damaged, so it gets a handle."""
    try:
        with open(cache, "rb") as handle, np.load(handle, allow_pickle=False) as copy:
            if not np.array_equal(copy["source"], source):
                return None
            matrix = copy["matrix"]
            text = copy["words"].tobytes().decode("utf-8")
    except _DAMAGED_COPY:
        return None
    return _glove_table(dim, text.split("\n") if len(matrix) > 2 else [], matrix)


def replace_file(path, write) -> None:
    """Atomically and durably replace `path` with what `write(handle)` writes
    to a temp file beside it, `<path>.<16 random hex digits>.tmp`. `open`
    creates it exclusively (O_CREAT | O_EXCL, mode 0o666 less the umask),
    so no existing file is ever opened for writing: an input that happens
    to have that name stops the write with FileExistsError and is kept. On
    any other failure the temp file is removed, `path` is untouched and it
    re-raises."""
    tmp_path = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    handle = open(tmp_path, "xb")
    try:
        with handle:
            write(handle)
            # on disk before the rename: a rename that lands first would let a
            # power loss put a torn file in place of the old one
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # a failed write (a full disk, say) leaves no partial file behind
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise
    # the rename is durable only once the directory entry is on disk too
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def prepare_for_training(examples, context_cap: int) -> tuple[list[QAExample], int]:
    """Keep examples with a question whose gold span survives truncation.

    Returns (kept, dropped_count) and logs the count when it is not 0;
    dropped examples lack a gold span, have one clipped away by the cap (a
    clamped label would be wrong), or have an empty question, which leaves
    the attention nothing to attend over.
    """
    kept = []
    dropped = 0
    for ex in examples:
        if (not ex.question_tokens or ex.gold_span is None
                or ex.gold_span[1] >= context_cap):
            dropped += 1
        else:
            kept.append(ex)
    if dropped:
        log.info("dropped %d examples with an empty question or no gold span "
                 "under cap %d", dropped, context_cap)
    return kept, dropped


def build_batches(examples, table: EmbeddingTable, batch_size: int,
                  context_cap: int = 300, training: bool = True) -> list[Batch]:
    """`make_batch` over consecutive chunks of `batch_size` examples, in order.

    In training mode, examples without a usable gold span under the cap are
    dropped first (see prepare_for_training). Training shuffles by `epoch_order`.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    examples = list(examples)
    if training:
        examples, _ = prepare_for_training(examples, context_cap)
    return [make_batch(examples[lo:lo + batch_size], table, context_cap)
            for lo in range(0, len(examples), batch_size)]


def make_batch(examples, table: EmbeddingTable, context_cap: int) -> Batch:
    """`examples` padded to their longest context (cut at `context_cap`) and
    question, in order; a gold span missing or past the cap reads (0, 0)."""
    if not examples:
        raise EmptyDatasetError("make_batch needs at least one example")
    ctoks = [ex.context_tokens[:context_cap] for ex in examples]
    qtoks = [ex.question_tokens for ex in examples]
    max_c = max(len(t) for t in ctoks)
    max_q = max(max(len(t) for t in qtoks), 1)
    n = len(examples)
    context_ids = np.full((n, max_c), PAD_ID, dtype=np.int64)
    question_ids = np.full((n, max_q), PAD_ID, dtype=np.int64)
    gold_starts = np.zeros(n, dtype=np.int64)
    gold_ends = np.zeros(n, dtype=np.int64)
    for b, ex in enumerate(examples):
        context_ids[b, :len(ctoks[b])] = table.ids(ctoks[b])
        question_ids[b, :len(qtoks[b])] = table.ids(qtoks[b])
        if ex.gold_span is not None and ex.gold_span[1] < context_cap:
            gold_starts[b], gold_ends[b] = ex.gold_span
    return Batch(context_ids, question_ids, gold_starts, gold_ends)


def _answer_token_length(ex: QAExample) -> int:
    if ex.gold_span is not None:
        return ex.gold_span[1] - ex.gold_span[0] + 1
    return max(len(tokenize(ex.answer_texts[0])), 1) if ex.answer_texts else 1


def _histogram(lengths: np.ndarray, width: int) -> list[int]:
    # 10 buckets of `width` tokens; the last holds all longer, the first 0
    return np.bincount(np.clip((lengths - 1) // width, 0, 9), minlength=10).tolist()


def dataset_stats(examples) -> DatasetStats:
    """Answer/context length fractions and 10-bucket histograms."""
    examples = list(examples)
    if not examples:
        raise EmptyDatasetError("dataset_stats needs at least one example")
    answer_lens = np.array([_answer_token_length(ex) for ex in examples])
    context_lens = np.array([len(ex.context_tokens) for ex in examples])
    return DatasetStats(
        example_count=len(examples),
        answer_under_20_fraction=float((answer_lens < 20).mean()),
        context_under_300_fraction=float((context_lens < 300).mean()),
        answer_length_hist=_histogram(answer_lens, 2),     # last bucket >= 19
        context_length_hist=_histogram(context_lens, 50),  # last bucket >= 451
    )
