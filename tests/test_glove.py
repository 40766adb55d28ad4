"""load_glove against the line-by-line parser it replaced, whose float64
table, UNK mean included, load_glove narrows to float32."""

import numpy as np
import pytest

from spanqa.data import GloveFormatError, PAD_ID, UNK_ID, load_glove


def line_by_line_glove(path, dim):
    """The reference parser: split each line, one np.array per row."""
    words, rows = [], []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise GloveFormatError(
                    f"{path}:{lineno}: expected {dim} floats, got {len(parts) - 1}")
            words.append(parts[0])
            try:
                rows.append(np.array(parts[1:], dtype=np.float64))
            except ValueError:
                raise GloveFormatError(f"{path}:{lineno}: not a number") from None
    matrix = np.zeros((len(rows) + 2, dim))
    if rows:
        stacked = np.stack(rows)
        matrix[2:] = stacked
        matrix[UNK_ID] = stacked.mean(axis=0)
    return {w: i + 2 for i, w in enumerate(words)}, matrix


WORDS = ["the", ",", "#", "#hashtag", '"', "'s", "naïve", "東京", "1.5", "-", "e"]


def _number(rng, value):
    style = rng.integers(6)
    if style == 0:
        return f"{value:.6f}"           # GloVe's own format
    if style == 1:
        return repr(float(value))       # shortest round-trip, up to 17 digits
    if style == 2:
        return f"{value:.3e}"
    if style == 3:
        return f"{value:.25f}"          # more digits than a double holds
    if style == 4:
        return str(int(value * 10))
    return str(rng.choice(["-0", "0", "-0.0", "1e-310", "2.5E+3", "+1.25"]))


def write_random_glove(path, rng, rows, dim, newline="\n", final_newline=True):
    lines = []
    for i in range(rows):
        word = f"{rng.choice(WORDS)}{i}" if rng.random() < 0.5 else f"w{i}"
        values = rng.normal(scale=rng.choice([1e-3, 1.0, 1e4]), size=dim)
        lines.append(" ".join([word] + [_number(rng, v) for v in values]))
    text = newline.join(lines) + (newline if final_newline else "")
    path.write_bytes(text.encode("utf-8"))


@pytest.mark.parametrize("newline,final_newline", [("\n", True), ("\n", False),
                                                   ("\r\n", True)])
def test_matches_line_by_line_parser_bit_for_bit(tmp_path, newline, final_newline):
    rng = np.random.default_rng(len(newline) + final_newline)
    for trial, (rows, dim) in enumerate([(1, 1), (7, 3), (300, 50)]):
        path = tmp_path / f"vec{trial}.txt"
        write_random_glove(path, rng, rows, dim, newline, final_newline)
        word_to_id, matrix = line_by_line_glove(path, dim)
        table = load_glove(path, dim)
        assert table.word_to_id == word_to_id
        assert table.matrix.dtype == np.float32
        assert table.matrix.tobytes() == matrix.astype(np.float32).tobytes()


def test_empty_file_gives_pad_and_unk_only(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    table = load_glove(path, dim=4)
    assert table.word_to_id == {}
    assert table.matrix.shape == (2, 4)
    assert np.array_equal(table.matrix, np.zeros((2, 4)))
    assert PAD_ID == 0 and UNK_ID == 1


@pytest.mark.parametrize("text,lineno", [
    ("a 1 2 3\nb 1 2\n", 2),          # too few floats
    ("a 1 2 3 4\n", 1),               # too many
    ("a 1 2 3\n\nb 1 2 3\n", 2),      # blank line
    ("a 1 2 3 \n", 1),                # trailing space adds a field
    ("a 1 2 3\nb 1 2 3\nc", 3),       # unterminated word-only last line
    ("a 1 x 2\n", 1),                 # a field that is not a number
    ("a 1 2 3\nb 1 2 y\nc 1 2 3\n", 2),   # ... before more good lines
    ("a 1 2 3\nb  2 3\n", 2),         # an empty field between two spaces
])
def test_wrong_field_count_names_path_and_line(tmp_path, text, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GloveFormatError, match=f"bad.txt:{lineno}:"):
        load_glove(path, dim=3)
    with pytest.raises(GloveFormatError, match=f"bad.txt:{lineno}:"):
        line_by_line_glove(path, 3)
