import random

import pytest

from spanqa.data import QAExample, tokenize
from spanqa.metrics import (CATEGORIES, categorize_question, em_score, evaluate,
                            f1_score, normalize_answer)


def expected_f1(overlap, pred_len, truth_len):
    """The F1 formula applied to hand-counted token-bag sizes."""
    if pred_len == 0 and truth_len == 0:
        return 1.0
    if pred_len == 0 or truth_len == 0 or overlap == 0:
        return 0.0
    precision = overlap / pred_len
    recall = overlap / truth_len
    return 2 * precision * recall / (precision + recall)


class TestNormalize:
    def test_article_and_case(self):
        assert normalize_answer("The Late Show") == ["late", "show"]

    def test_empty(self):
        assert normalize_answer("") == []

    def test_rule_application(self):
        assert normalize_answer("the most giving Super Bowl ever") == [
            "most", "giving", "super", "bowl", "ever"]


class TestF1:
    def test_identical(self):
        assert f1_score("Super Bowl 50", "Super Bowl 50").f1 == 1.0

    def test_disjoint(self):
        assert f1_score("red green", "blue yellow").f1 == 0.0

    def test_boundary_case_from_error_analysis(self):
        stats = f1_score("giving super bowl ever", "the most giving Super Bowl ever")
        assert stats.precision == 1.0
        assert stats.recall == pytest.approx(4 / 5, abs=1e-15)
        assert stats.f1 == expected_f1(4, 4, 5)
        assert stats.f1 == pytest.approx(8 / 9, abs=1e-15)

    def test_fixture_table(self, metric_cases):
        for case in metric_cases:
            stats = f1_score(case["prediction"], case["truth"])
            assert stats.f1 == expected_f1(case["overlap"], case["pred_len"],
                                           case["truth_len"]), case
            assert stats.em == case["em"], case
            assert em_score(case["prediction"], case["truth"]) == case["em"]

    def test_fixture_counts_are_honest(self, metric_cases):
        # the committed overlap/length counts match fresh normalization
        from collections import Counter
        for case in metric_cases:
            pred = normalize_answer(case["prediction"])
            truth = normalize_answer(case["truth"])
            assert len(pred) == case["pred_len"], case
            assert len(truth) == case["truth_len"], case
            assert sum((Counter(pred) & Counter(truth)).values()) == case["overlap"]

    def test_symmetry_and_em_implies_f1(self):
        rng = random.Random(13)
        words = ["alpha", "beta", "the", "11:28", "gamma", "", "a"]
        for _ in range(10_000):
            a = " ".join(rng.choices(words, k=rng.randrange(0, 5)))
            b = " ".join(rng.choices(words, k=rng.randrange(0, 5)))
            ab, ba = f1_score(a, b), f1_score(b, a)
            assert ab.f1 == ba.f1
            assert em_score(a, b) == em_score(b, a)
            assert 0.0 <= ab.f1 <= 1.0
            if ab.em == 1:
                assert ab.f1 == 1.0
            assert em_score(a, a) == 1


class TestEM:
    def test_identical(self):
        assert em_score("Denver Broncos", "Denver Broncos") == 1

    def test_entity_detection_failure_scores_zero(self):
        assert em_score("stephen colbert", "The Late Show with Stephen Colbert") == 0

    def test_normalization_bridges_case_and_articles(self):
        assert em_score("the late show", "The Late Show") == 1


class TestCategorize:
    def test_who(self):
        assert categorize_question("Who had a 12-yard rush on this drive?") == "Who"

    def test_how(self):
        assert categorize_question("How much time was left in the quarter...") == "How"

    def test_subordinate_when_outranks_leading_how(self):
        # fixed keyword order, not position in the string, decides
        assert categorize_question(
            "How much time was left in the quarter when Stewart got the touchdown?"
        ) == "When"

    def test_other(self):
        assert categorize_question("Name the stadium.") == "Other"

    def test_fixed_order_beats_position(self):
        # "what" appears first in the string but "who" is earlier in the order
        assert categorize_question("In what year did who win?") == "Who"

    def test_whole_word_only(self):
        assert categorize_question("Is Howard whoever?") == "Other"

    def test_partition(self):
        questions = ["Who?", "when was it", "Where is it", "why", "What now",
                     "which one", "how many", "name it", "Tell me how and why"]
        for q in questions:
            assert categorize_question(q) in CATEGORIES


def _example(qid, question, answers):
    return QAExample(qid=qid, context_text="", context_tokens=[],
                     question_text=question, question_tokens=tokenize(question),
                     answer_texts=answers)


class TestEvaluate:
    def test_max_over_answers(self):
        report = evaluate({"q1": "b"}, [_example("q1", "Who?", ["a", "b", "c"])])
        assert report.em == 100.0
        assert report.f1 == 100.0

    def test_scaling(self):
        # one question at F1 0.5 -> overall 50.0
        report = evaluate({"q1": "alpha beta"},
                          [_example("q1", "What?", ["alpha gamma"])])
        assert report.f1 == pytest.approx(50.0, abs=1e-9)

    def test_em_percentage(self):
        examples = [_example("q1", "Who?", ["yes"]), _example("q2", "Who?", ["no"])]
        report = evaluate({"q1": "yes", "q2": "wrong"}, examples)
        assert report.em == 50.0

    def test_missing_prediction_scores_zero(self):
        examples = [_example("q1", "Who?", ["yes"]), _example("q2", "Who?", ["no"])]
        report = evaluate({"q1": "yes"}, examples)
        assert report.missing == 1
        assert report.em == 50.0

    def test_category_counts_partition_total(self):
        examples = [
            _example("q1", "Who was it?", ["a"]),
            _example("q2", "Where was it?", ["a"]),
            _example("q3", "Name it.", ["a"]),
            _example("q4", "How and why?", ["a"]),
        ]
        report = evaluate({e.qid: "a" for e in examples}, examples)
        assert sum(n for _, _, n in report.per_category.values()) == report.total == 4

    def test_order_invariance(self):
        rng = random.Random(7)
        examples = [_example(f"q{i}", "Who did it?", ["x", "y"]) for i in range(20)]
        preds = {e.qid: rng.choice(["x", "z"]) for e in examples}
        base = evaluate(preds, examples)
        shuffled = examples[:]
        rng.shuffle(shuffled)
        again = evaluate(preds, shuffled)
        assert (base.f1, base.em) == (again.f1, again.em)
        flipped = [_example(e.qid, e.question_text, list(reversed(e.answer_texts)))
                   for e in examples]
        assert evaluate(preds, flipped).f1 == base.f1
