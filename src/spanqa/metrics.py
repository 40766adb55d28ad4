"""Answer normalization, token-level F1 and exact match, and report
aggregation with max-over-ground-truths scoring and a per-question-category
breakdown. Normalization follows the official SQuAD evaluator semantics:
lowercase, strip punctuation characters, drop articles, split on whitespace.
"""

from __future__ import annotations

import logging
import re
import string
from collections import Counter
from dataclasses import dataclass

__all__ = ["MatchStats", "EvalReport", "CATEGORIES", "normalize_answer",
           "f1_score", "em_score", "categorize_question", "evaluate"]

log = logging.getLogger(__name__)

CATEGORIES = ("Who", "When", "Where", "Why", "What", "Which", "How", "Other")

_PUNCT = set(string.punctuation)
_ARTICLES = {"a", "an", "the"}
_KEYWORD_PATTERNS = [
    (cat, re.compile(rf"\b{cat.lower()}\b")) for cat in CATEGORIES[:-1]
]


@dataclass
class MatchStats:
    precision: float
    recall: float
    f1: float
    em: int


@dataclass
class EvalReport:
    f1: float                    # mean F1 x 100
    em: float                    # EM percentage
    per_category: dict[str, tuple[float, float, int]]  # cat -> (f1, em, count)
    total: int
    missing: int = 0


def normalize_answer(text: str) -> list[str]:
    """Lowercase, strip punctuation chars, drop articles, split on whitespace."""
    stripped = "".join(ch for ch in text.lower() if ch not in _PUNCT)
    return [tok for tok in stripped.split() if tok not in _ARTICLES]


def f1_score(prediction: str, truth: str) -> MatchStats:
    """Token-multiset precision/recall/F1 over normalized tokens."""
    pred_tokens = normalize_answer(prediction)
    truth_tokens = normalize_answer(truth)
    em = int(pred_tokens == truth_tokens)
    if not pred_tokens and not truth_tokens:
        return MatchStats(1.0, 1.0, 1.0, em)
    if not pred_tokens or not truth_tokens:
        return MatchStats(0.0, 0.0, 0.0, em)
    overlap = sum((Counter(pred_tokens) & Counter(truth_tokens)).values())
    if overlap == 0:
        return MatchStats(0.0, 0.0, 0.0, em)
    precision = overlap / len(pred_tokens)
    recall = overlap / len(truth_tokens)
    f1 = 2 * precision * recall / (precision + recall)
    return MatchStats(precision, recall, f1, em)


def em_score(prediction: str, truth: str) -> int:
    return int(normalize_answer(prediction) == normalize_answer(truth))


def categorize_question(question: str) -> str:
    """First whole-word keyword match in the fixed Who..How order, else Other."""
    lowered = question.lower()
    for category, pattern in _KEYWORD_PATTERNS:
        if pattern.search(lowered):
            return category
    return "Other"


def evaluate(predictions: dict[str, str], examples) -> EvalReport:
    """Score each question as the max F1/EM over its ground-truth answers.

    `predictions` is a dict mapping qid -> answer string. Questions without
    a prediction score 0 and are counted in the report as missing.
    """
    totals = {cat: [0.0, 0.0, 0] for cat in CATEGORIES}
    f1_sum = em_sum = 0.0
    missing = 0
    for ex in sorted(examples, key=lambda e: e.qid):
        answer = predictions.get(ex.qid)
        if answer is None:
            missing += 1
            best_f1 = best_em = 0.0
        else:
            stats = [f1_score(answer, truth) for truth in ex.answer_texts]
            best_f1 = max(s.f1 for s in stats) if stats else 0.0
            best_em = max(s.em for s in stats) if stats else 0.0
        f1_sum += best_f1
        em_sum += best_em
        cat = totals[categorize_question(ex.question_text)]
        cat[0] += best_f1
        cat[1] += best_em
        cat[2] += 1
    if missing:
        log.warning("%d questions had no prediction and scored 0", missing)
    count = sum(c[2] for c in totals.values())
    if count == 0:
        return EvalReport(0.0, 0.0, {}, 0, missing)
    per_category = {
        cat: (100.0 * f1 / n if n else 0.0, 100.0 * em / n if n else 0.0, n)
        for cat, (f1, em, n) in totals.items()
    }
    return EvalReport(100.0 * f1_sum / count, 100.0 * em_sum / count,
                      per_category, count, missing)
