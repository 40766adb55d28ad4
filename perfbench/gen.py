"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed writes the
same bytes and builds the same examples. The program under test only ever
sees the generated files and objects.

Text is lowercase synthetic words joined by single spaces, with no
punctuation, so the program's tokenizer splits it exactly at the spaces and
an answer's token count is ``len(answer.split())``.
"""

from __future__ import annotations

import json

import numpy as np

from spanqa import checkpoint, model, training
from spanqa.data import EmbeddingTable, QAExample, Token

QUESTION_WORDS = ("what", "who", "when", "where", "which", "how", "why")


def _word(i: int) -> str:
    return f"w{i}"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _context_words(rng, length: int, vocab: int, oov_share: float) -> list[str]:
    """Random words; an `oov_share` of them are missing from the GloVe file."""
    ids = rng.integers(0, vocab, size=length)
    oov = rng.random(length) < oov_share
    return [f"oov{i}" if miss else _word(i) for i, miss in zip(ids, oov)]


def _question(rng, length: int, vocab: int) -> str:
    words = [QUESTION_WORDS[int(rng.integers(len(QUESTION_WORDS)))]]
    words += [_word(int(i)) for i in rng.integers(0, vocab, size=length - 1)]
    return " ".join(words)


def _answer(rng, words: list[str], max_tokens: int) -> tuple[int, int]:
    """Inclusive token range of 1..max_tokens tokens inside `words`."""
    span = int(rng.integers(1, max_tokens + 1))
    start = int(rng.integers(0, len(words) - span + 1))
    return start, start + span - 1


def _char_offsets(words: list[str]) -> list[tuple[int, int]]:
    offsets, pos = [], 0
    for w in words:
        offsets.append((pos, pos + len(w)))
        pos += len(w) + 1
    return offsets


# ---------------------------------------------------------------------------
# predict_dev: SQuAD dev-shaped JSON, GloVe text, h=150 checkpoint
# ---------------------------------------------------------------------------

DEV_QUESTIONS = 120          # three decode batches of 40
DEV_PER_PARAGRAPH = 5        # consecutive questions sharing one context
DEV_GROUP = 8                # paragraphs per decode batch (40 / 5)
DEV_CONTEXT = (50, 300)      # token range; one context per group is 300
DEV_QUESTION = (5, 20)
DEV_VOCAB = 20_000           # GloVe rows; parsing them is a visible set-up share
EMBED_DIM = 100
HIDDEN = 150


def dev_squad(seed: int) -> dict:
    """SQuAD v1.1 layout: each batch of 40 questions covers 8 paragraphs,
    one of them exactly 300 tokens long, so every batch pads to the cap."""
    rng = _rng(seed, 1)
    paragraphs = []
    n_paragraphs = DEV_QUESTIONS // DEV_PER_PARAGRAPH
    for p in range(n_paragraphs):
        if p % DEV_GROUP == 0:
            longest = p + int(rng.integers(DEV_GROUP))
        length = (DEV_CONTEXT[1] if p == longest
                  else int(rng.integers(DEV_CONTEXT[0], DEV_CONTEXT[1] + 1)))
        words = _context_words(rng, length, DEV_VOCAB, oov_share=0.03)
        offsets = _char_offsets(words)
        context = " ".join(words)
        qas = []
        for q in range(DEV_PER_PARAGRAPH):
            start, end = _answer(rng, words, 4)
            char_start = offsets[start][0]
            qas.append({
                "id": f"dev-{p:03d}-{q}",
                "question": _question(rng, int(rng.integers(DEV_QUESTION[0],
                                                            DEV_QUESTION[1] + 1)),
                                      DEV_VOCAB),
                "answers": [{"answer_start": char_start,
                             "text": context[char_start:offsets[end][1]]}],
            })
        paragraphs.append({"context": context, "qas": qas})
    return {"version": "1.1",
            "data": [{"title": f"article{p}", "paragraphs": [para]}
                     for p, para in enumerate(paragraphs)]}


def glove_lines(seed: int, vocab: int, dim: int) -> list[str]:
    rng = _rng(seed, 2)
    matrix = rng.normal(0.0, 0.4, size=(vocab, dim))
    return [_word(i) + " " + " ".join(f"{x:.5f}" for x in row) + "\n"
            for i, row in enumerate(matrix)]


def write_dev_inputs(seed: int, directory) -> dict[str, str]:
    """Write dev.json, glove.txt and model.ckpt under `directory`."""
    paths = {"squad": f"{directory}/dev.json", "glove": f"{directory}/glove.txt",
             "ckpt": f"{directory}/model.ckpt"}
    with open(paths["squad"], "w", encoding="utf-8") as handle:
        json.dump(dev_squad(seed), handle)
    with open(paths["glove"], "w", encoding="utf-8") as handle:
        handle.writelines(glove_lines(seed, DEV_VOCAB, EMBED_DIM))
    config = model.ModelConfig(hidden_size=HIDDEN, dropout_rate=0.2,
                               embedding_dim=EMBED_DIM, context_cap=300,
                               seed=seed % 2**32)
    params = model.init_params(config)
    checkpoint.save_checkpoint(paths["ckpt"], params, config,
                               training.init_optimizer(params))
    return paths


# ---------------------------------------------------------------------------
# train_paper: in-memory examples at the paper's per-example shape
# ---------------------------------------------------------------------------

PAPER_BATCH = 20
PAPER_BATCHES = 8            # one warm-up plus up to seven distinct timed batches
PAPER_CONTEXT = 120          # Lc; rows are ragged between Lc/2 and Lc
PAPER_QUESTION = 12          # Lq
PAPER_VOCAB = 5_000


def paper_examples(seed: int):
    """(examples, table): one question per context, ragged context lengths,
    and one full-length row per batch so every batch pads to exactly Lc."""
    rng = _rng(seed, 3)
    matrix = np.zeros((PAPER_VOCAB + 2, EMBED_DIM))
    matrix[2:] = rng.normal(0.0, 0.4, size=(PAPER_VOCAB, EMBED_DIM))
    matrix[1] = matrix[2:].mean(axis=0)
    table = EmbeddingTable(dim=EMBED_DIM, matrix=matrix,
                           word_to_id={_word(i): i + 2 for i in range(PAPER_VOCAB)})

    def tokens(words):
        return [Token(w, a, b) for w, (a, b) in zip(words, _char_offsets(words))]

    examples = []
    for i in range(PAPER_BATCH * PAPER_BATCHES):
        if i % PAPER_BATCH == 0:
            full = i + int(rng.integers(PAPER_BATCH))
        length = (PAPER_CONTEXT if i == full
                  else int(rng.integers(PAPER_CONTEXT // 2, PAPER_CONTEXT + 1)))
        words = _context_words(rng, length, PAPER_VOCAB, oov_share=0.03)
        question = _question(rng, PAPER_QUESTION, PAPER_VOCAB).split()
        start, end = _answer(rng, words, 4)
        ctoks = tokens(words)
        context = " ".join(words)
        examples.append(QAExample(
            qid=f"paper-{i:04d}", context_text=context, context_tokens=ctoks,
            question_text=" ".join(question), question_tokens=tokens(question),
            answer_texts=[context[ctoks[start].start:ctoks[end].end]],
            gold_span=(start, end)))
    return examples, table
