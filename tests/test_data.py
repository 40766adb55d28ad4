import gc
import json

import numpy as np
import pytest

from conftest import write_squad
from spanqa import data
from spanqa.autodiff import ConfigError
from spanqa.data import (AlignmentError, EmptyDatasetError, GloveFormatError,
                         PAD_ID, ParseError, SchemaError, UNK_ID, align_answer,
                         build_batches, dataset_stats, load_glove, load_squad,
                         make_batch, prepare_for_training, tokenize)
from spanqa.metrics import normalize_answer


def make_table(words, dim=4, seed=0):
    from spanqa.data import EmbeddingTable
    rng = np.random.default_rng(seed)
    matrix = np.zeros((len(words) + 2, dim))
    matrix[1:] = rng.normal(size=(len(words) + 1, dim))
    return EmbeddingTable(dim=dim, word_to_id={w: i + 2 for i, w in enumerate(words)},
                          matrix=matrix)


class TestTokenize:
    def test_plain_words(self):
        assert [t.text for t in tokenize("the most giving")] == ["the", "most", "giving"]

    def test_quotes_become_tokens(self):
        assert [t.text for t in tokenize('"the most"')] == ['"', "the", "most", '"']

    def test_digit_internal_punctuation_kept(self):
        text = "score to 10-7 with 11:28 left"
        assert [t.text for t in tokenize(text)] == [
            "score", "to", "10-7", "with", "11:28", "left"]

    def test_trailing_punctuation_split(self):
        assert [t.text for t in tokenize("ever”, and")] == [
            "ever", "”", ",", "and"]

    def test_empty(self):
        assert tokenize("") == []

    def test_offsets_cover_source(self):
        text = 'CBS broadcast "special" episodes, beginning at 11:28 (roughly).'
        tokens = tokenize(text)
        last_end = 0
        for tok in tokens:
            assert 0 <= tok.start < tok.end <= len(text)
            assert tok.start >= last_end
            assert text[tok.start:tok.end].lower() == tok.text
            last_end = tok.end

    def test_deterministic(self):
        text = "A 16-yard reception by Devin Funchess."
        assert tokenize(text) == tokenize(text)

    def test_equal_words_share_one_string(self):
        # words of two or more characters, and a peeled quote outside
        # Latin-1: CPython already shares one-character Latin-1 strings
        first, second = tokenize("Cat cat “"), tokenize("“CAT")
        assert first[0].text is first[1].text is second[1].text == "cat"
        assert first[2].text is second[0].text == "“"


class TestAlignAnswer:
    CONTEXT = ("while Jonathan Stewart finished the drive with a 1-yard touchdown "
               "run, cutting the score to 10-7 with 11:28 left in the second quarter.")

    def test_numeric_answer_single_token(self):
        tokens = tokenize(self.CONTEXT)
        start = self.CONTEXT.index("11:28")
        span = align_answer(tokens, "11:28", start)
        assert span[0] == span[1]
        assert tokens[span[0]].text == "11:28"

    def test_whole_context(self):
        text = "Denver Broncos won"
        tokens = tokenize(text)
        assert align_answer(tokens, text, 0) == (0, len(tokens) - 1)

    def test_name_answer(self):
        context = ("A 16-yard reception by Devin Funchess and a 12-yard run by "
                   "Stewart then set up Gano's 39-yard field goal")
        tokens = tokenize(context)
        start = context.index("Stewart")
        span = align_answer(tokens, "Stewart", start)
        assert span[0] == span[1]
        assert tokens[span[0]].text == "stewart"

    def test_mid_token_answer_covered(self):
        tokens = tokenize("cutting the score to 10-7 tonight")
        text = "cutting the score to 10-7 tonight"
        start = text.index("7")
        span = align_answer(tokens, "7", start)
        assert tokens[span[0]].text == "10-7"

    def test_offset_out_of_range(self):
        tokens = tokenize("short text")
        with pytest.raises(AlignmentError):
            align_answer(tokens, "text", 99)

    def test_whitespace_start_not_coverable(self):
        text = "ab cd"
        with pytest.raises(AlignmentError):
            align_answer(tokenize(text), " cd", 2)


class TestLoadSquad:
    def test_two_qas(self, tmp_path):
        context = "The garden wall is red. The old gate is green."
        path = write_squad(tmp_path, [
            (context, [
                ("q1", "What color is the wall?", [("red", context.index("red"))]),
                ("q2", "What color is the gate?", [("green", context.index("green"))]),
            ]),
        ])
        examples = load_squad(path)
        assert len(examples) == 2
        ex = examples[0]
        assert ex.qid == "q1"
        assert ex.answer_texts == ["red"]
        s, e = ex.gold_span
        assert [t.text for t in ex.context_tokens[s:e + 1]] == ["red"]

    def test_empty_data(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"data": []}))
        assert load_squad(path) == []

    def test_all_answers_retained(self, tmp_path):
        context = "Stewart ran for a touchdown."
        path = write_squad(tmp_path, [
            (context, [("q1", "Who ran?", [("Stewart", 0), ("Stewart ran", 0),
                                           ("Stewart", 0)])]),
        ])
        (ex,) = load_squad(path)
        assert ex.answer_texts == ["Stewart", "Stewart ran", "Stewart"]
        assert ex.gold_span is not None

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="bad.json"):
            load_squad(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(
            {"data": [{"paragraphs": [{"context": "caf@", "qas": []}]}]}
        ).encode().replace(b"@", b"\xff"))
        with pytest.raises(ParseError, match=r"latin1\.json: not UTF-8 text"):
            load_squad(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(
            {"data": [{"paragraphs": [{"context": "x", "qas": [{"id": "q"}]}]}]}))
        with pytest.raises(SchemaError, match="question"):
            load_squad(path)

    @pytest.mark.parametrize("field, value, where", [
        ("context", None, "paragraph"),
        ("question", 5, "qa q1"),
        ("text", 3, "answer of qa q1"),
        ("answer_start", "2", "answer of qa q1"),
        ("answer_start", 2.0, "answer of qa q1"),
        ("answer_start", True, "answer of qa q1"),
        ("answers", 5, "qa q1"),
        ("qas", {}, "paragraph"),
        ("id", 7, "qa entry"),
        ("id", ["x"], "qa entry"),
    ])
    def test_wrong_field_type_named(self, tmp_path, field, value, where):
        path = write_squad(tmp_path, [("ab cd", [("q1", "Q?", [("cd", 3)])])])
        raw = json.loads(path.read_text())
        paragraph = raw["data"][0]["paragraphs"][0]
        for mapping in (paragraph, paragraph["qas"][0],
                        paragraph["qas"][0]["answers"][0]):
            if field in mapping:
                mapping[field] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=f"field '{field}' in {where} must be"):
            load_squad(path)

    def test_repeated_id_named(self, tmp_path):
        # predictions and scores are keyed by id, so a repeated id would score
        # one question with the other's answer
        context = "Paris is in France. Berlin is in Germany."
        path = write_squad(tmp_path, [
            (context, [("q1", "Where is Paris?", [("France", 12)]),
                       ("q1", "Where is Berlin?", [("Germany", 33)])]),
        ])
        with pytest.raises(SchemaError, match="question id 'q1' is repeated"):
            load_squad(path)

    def test_unalignable_answer_kept_without_gold(self, tmp_path):
        # answer offset points at whitespace, so no token range covers it
        context = "only four words here"
        path = write_squad(tmp_path, [
            (context, [("q1", "What?", [(" four", 4)])]),
        ])
        (ex,) = load_squad(path)
        assert ex.gold_span is None

    @pytest.fixture
    def collector_on(self):
        """The cyclic collector switched on for the test, and its state
        before the test put back after it."""
        was = gc.isenabled()
        gc.enable()
        yield
        (gc.enable if was else gc.disable)()

    def test_collector_paused_while_tokenizing(self, tmp_path, monkeypatch, collector_on):
        seen = []

        def spy(text):
            seen.append(gc.isenabled())
            return tokenize(text)

        monkeypatch.setattr(data, "tokenize", spy)
        path = write_squad(tmp_path, [("ab cd", [("q1", "Q?", [("cd", 3)])])])
        assert len(load_squad(path)) == 1
        assert seen == [False, False]   # the context, then the question
        assert gc.isenabled()

    def test_collector_back_on_after_a_parse_error(self, tmp_path, collector_on):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_squad(path)
        assert gc.isenabled()

    def test_collector_the_caller_disabled_stays_disabled(self, tmp_path, collector_on):
        path = write_squad(tmp_path, [("ab cd", [("q1", "Q?", [("cd", 3)])])])
        gc.disable()
        load_squad(path)
        assert not gc.isenabled()


class TestLoadGlove:
    def test_reserved_rows(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 3.0 4.0 5.0\n")
        table = load_glove(path, dim=3)
        assert table.vocab_size == 4
        assert np.array_equal(table.matrix[PAD_ID], np.zeros(3))
        assert np.array_equal(table.matrix[UNK_ID], [2.0, 3.0, 4.0])

    def test_lookup_returns_file_floats_exactly(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 0.125 -7.25 3.0\ndog 1.5 2.5 -0.5\n")
        table = load_glove(path, dim=3)
        assert np.array_equal(table.matrix[table.id_of("dog")], [1.5, 2.5, -0.5])
        assert table.id_of("aardvark") == UNK_ID

    def test_wrong_float_count_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0 3.0\ndog 3.0 4.0\n")
        with pytest.raises(GloveFormatError, match=":2"):
            load_glove(path, dim=3)

    def test_non_utf8_file_named_without_a_line(self, tmp_path):
        # the bad byte is on line 2, but the reader decodes ahead in blocks
        path = tmp_path / "vec.txt"
        path.write_bytes(b"cat 1.0 2.0 3.0\ndog\xff 3.0 4.0 5.0\n")
        with pytest.raises(GloveFormatError, match=r"vec\.txt: not UTF-8 text") as info:
            load_glove(path, dim=3)
        assert "non-number" not in str(info.value)


def _toy_examples(n, table_words, context_len=12, answer_at=3, seed=0):
    from spanqa.data import QAExample
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        words = [table_words[int(k)] for k in
                 rng.integers(0, len(table_words), size=context_len)]
        text = " ".join(words)
        tokens = tokenize(text)
        examples.append(QAExample(
            qid=f"q{i}", context_text=text, context_tokens=tokens,
            question_text="what is it", question_tokens=tokenize("what is it"),
            answer_texts=[words[answer_at]], gold_span=(answer_at, answer_at)))
    return examples


WORDS = ["red", "green", "blue", "wall", "gate", "garden", "is", "the"]


class TestBuildBatches:
    def test_batch_sizing(self):
        table = make_table(WORDS)
        examples = _toy_examples(100, WORDS)
        batches = build_batches(examples, table, batch_size=40)
        assert [len(b.context_ids) for b in batches] == [40, 40, 20]

    def test_gold_beyond_cap_dropped(self):
        table = make_table(WORDS)
        examples = _toy_examples(2, WORDS, context_len=320, answer_at=310)
        kept, dropped = prepare_for_training(examples, context_cap=300)
        assert (len(kept), dropped) == (0, 2)
        examples[0].gold_span = (5, 5)
        kept, dropped = prepare_for_training(examples, context_cap=300)
        assert (len(kept), dropped) == (1, 1)
        batches = build_batches(examples, table, batch_size=8, context_cap=300)
        assert sum(len(b.context_ids) for b in batches) == 1
        assert batches[0].context_ids.shape[1] == 300

    @pytest.mark.parametrize("build", [
        lambda examples, table: build_batches(examples, table, batch_size=3)[0],
        lambda examples, table: make_batch(examples, table, context_cap=300),
    ], ids=["build_batches", "make_batch"])
    def test_rows_padded_after_their_tokens(self, build):
        table = make_table(WORDS)
        examples = []
        for n, length in enumerate([5, 9, 3]):
            examples.extend(_toy_examples(1, WORDS, context_len=length, answer_at=1,
                                          seed=n))
            examples[-1].qid = f"e{n}"
        batch = build(examples, table)
        assert batch.context_ids.shape == (3, 9)
        assert np.array_equal(batch.context_ids != PAD_ID,
                              np.arange(9) < np.array([[5], [9], [3]]))

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            build_batches([], make_table(WORDS), batch_size=0)

    def test_make_batch_needs_an_example(self):
        with pytest.raises(EmptyDatasetError, match="make_batch"):
            make_batch([], make_table(WORDS), context_cap=300)

    def test_invariants_on_random_subsets(self):
        table = make_table(WORDS)
        rng = np.random.default_rng(9)
        pool = _toy_examples(40, WORDS, context_len=15, answer_at=2)
        for trial in range(25):
            size = int(rng.integers(1, len(pool)))
            subset = [pool[i] for i in rng.choice(len(pool), size, replace=False)]
            for batch in build_batches(subset, table, batch_size=8):
                live = batch.context_ids != PAD_ID
                lengths = live.sum(axis=1)
                assert np.array_equal(live, np.arange(live.shape[1]) < lengths[:, None])
                rows = np.arange(len(batch.context_ids))
                assert np.all(live[rows, batch.gold_starts])
                assert np.all(live[rows, batch.gold_ends])
                assert np.all(batch.gold_starts <= batch.gold_ends)
                assert batch.context_ids.shape[1] <= 300


class TestDatasetStats:
    def test_single_example(self):
        examples = _toy_examples(1, WORDS, context_len=50, answer_at=5)
        stats = dataset_stats(examples)
        assert stats.answer_under_20_fraction == 1.0
        assert stats.context_under_300_fraction == 1.0
        assert stats.example_count == 1

    def test_half_fraction(self):
        examples = _toy_examples(2, WORDS, context_len=40, answer_at=0)
        examples[0].gold_span = (0, 4)    # length 5
        examples[1].gold_span = (0, 24)   # length 25
        stats = dataset_stats(examples)
        assert stats.answer_under_20_fraction == 0.5

    def test_histograms_count_everything(self):
        examples = _toy_examples(12, WORDS, context_len=30, answer_at=3)
        stats = dataset_stats(examples)
        assert sum(stats.answer_length_hist) == 12
        assert sum(stats.context_length_hist) == 12

    def test_empty_context_counts_in_the_first_bucket(self, tmp_path):
        path = write_squad(tmp_path, [(" \t ", [("q1", "What?", [])])])
        (example,) = load_squad(path)
        assert example.context_tokens == []
        assert dataset_stats([example]).context_length_hist == [1] + [0] * 9

    def test_bucket_edges(self):
        examples = _toy_examples(4, WORDS, context_len=1, answer_at=0)
        for ex, (length, span) in zip(examples, [(50, 2), (51, 3), (451, 19),
                                                 (900, 40)]):
            ex.context_tokens = tokenize(" ".join(["w"] * length))
            ex.gold_span = (0, span - 1)
        stats = dataset_stats(examples)
        assert stats.context_length_hist == [1, 1, 0, 0, 0, 0, 0, 0, 0, 2]
        assert stats.answer_length_hist == [1, 1, 0, 0, 0, 0, 0, 0, 0, 2]

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            dataset_stats([])


class TestOfficialData:
    def test_train_set_statistics(self):
        from conftest import require_official
        path = require_official("QA_SQUAD_TRAIN", "train-v1.1.json")
        examples = load_squad(path)
        assert len(examples) == pytest.approx(86318, rel=0.01)
        stats = dataset_stats(examples)
        assert stats.answer_under_20_fraction == pytest.approx(0.9898, abs=0.005)
        assert stats.context_under_300_fraction == pytest.approx(0.9834, abs=0.005)

    def test_alignment_round_trip(self):
        from conftest import require_official
        path = require_official("QA_SQUAD_TRAIN", "train-v1.1.json")
        examples = load_squad(path)
        good = total = 0
        for ex in examples:
            if ex.gold_span is None:
                total += 1
                continue
            s, e = ex.gold_span
            recovered = ex.context_text[ex.context_tokens[s].start:
                                        ex.context_tokens[e].end]
            total += 1
            good += normalize_answer(recovered) == normalize_answer(ex.answer_texts[0])
        assert good / total >= 0.99

    def test_glove_vocabulary(self):
        from conftest import require_official
        path = require_official("QA_GLOVE", "glove.6B.100d.txt")
        table = load_glove(path, dim=100)
        assert table.vocab_size == 400_000 + 2
