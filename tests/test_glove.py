"""load_glove against the line-by-line parser it replaced, whose float64
table, UNK mean included, load_glove narrows to float32, and its binary
copy of the table against both."""

import logging
import os

import numpy as np
import pytest

from spanqa import data
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


def assert_same_table(table, word_to_id, matrix, dim):
    assert table.dim == dim
    assert table.word_to_id == word_to_id
    assert table.matrix.dtype == np.float32
    assert table.matrix.tobytes() == matrix.astype(np.float32).tobytes()


def copy_of(path):
    return path.with_name(path.name + ".cache.npz")


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
        assert_same_table(load_glove(path, dim), *line_by_line_glove(path, dim), dim)
        assert not copy_of(path).exists()      # under CACHE_MIN_BYTES


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
def test_wrong_field_count_names_path_and_line(tmp_path, text, lineno, monkeypatch):
    monkeypatch.setattr(data, "CACHE_MIN_BYTES", 0)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GloveFormatError, match=f"bad.txt:{lineno}:"):
        load_glove(path, dim=3)
    with pytest.raises(GloveFormatError, match=f"bad.txt:{lineno}:"):
        line_by_line_glove(path, 3)
    assert list(tmp_path.iterdir()) == [path]   # no copy of a failed parse


@pytest.fixture
def forbid_parse(monkeypatch):
    """Copies for files of every size; calling the fixture's value makes
    any later parse fail the test."""
    monkeypatch.setattr(data, "CACHE_MIN_BYTES", 0)

    def forbid():
        def unexpected(*args):
            raise AssertionError("parsed instead of reading the copy")
        monkeypatch.setattr(data, "_parse_glove", unexpected)
    return forbid


@pytest.mark.parametrize("newline,final_newline", [("\n", True), ("\n", False),
                                                   ("\r\n", True)])
def test_warm_load_matches_cold_load_and_parser(tmp_path, forbid_parse, newline,
                                                final_newline):
    rng = np.random.default_rng(len(newline) + final_newline)
    paths = []
    for trial, (rows, dim) in enumerate([(1, 1), (7, 3), (300, 50)]):
        paths.append((tmp_path / f"vec{trial}.txt", dim))
        write_random_glove(paths[-1][0], rng, rows, dim, newline, final_newline)
    paths.append((tmp_path / "empty.txt", 2))
    paths[-1][0].write_text("")
    paths.append((tmp_path / "repeated.txt", 2))    # the last row wins
    paths[-1][0].write_text(f"a 1 2{newline} 3 4{newline}a 5 6{newline}")
    references = [line_by_line_glove(path, dim) for path, dim in paths]
    for (path, dim), reference in zip(paths, references):
        assert_same_table(load_glove(path, dim), *reference, dim)
        assert copy_of(path).exists()
    forbid_parse()
    for (path, dim), reference in zip(paths, references):
        assert_same_table(load_glove(path, dim), *reference, dim)


def test_copy_only_from_cache_min_bytes(tmp_path):
    for size in (data.CACHE_MIN_BYTES - 1, data.CACHE_MIN_BYTES):
        path = tmp_path / f"{size}.txt"
        path.write_text("w" * (size - 3) + " 1\n")
        assert load_glove(path, 1).word_to_id == {"w" * (size - 3): 2}
        assert copy_of(path).exists() == (size == data.CACHE_MIN_BYTES)


def test_rewritten_file_is_parsed_again(tmp_path, forbid_parse):
    rng = np.random.default_rng(5)
    path = tmp_path / "vec.txt"
    write_random_glove(path, rng, 20, 4)
    load_glove(path, 4)
    written = copy_of(path).read_bytes()
    write_random_glove(path, rng, 30, 4)
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    reference = line_by_line_glove(path, 4)
    assert_same_table(load_glove(path, 4), *reference, 4)
    assert copy_of(path).read_bytes() != written
    forbid_parse()
    assert_same_table(load_glove(path, 4), *reference, 4)


def test_file_rewritten_during_its_parse_is_parsed_again(tmp_path, monkeypatch):
    # the copy records the file as it was when opened, not as it is after
    monkeypatch.setattr(data, "CACHE_MIN_BYTES", 0)
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\n")
    parse = data._parse_glove
    parses = []

    def rewriting(*args):
        parses.append(args)
        got = parse(*args)
        if len(parses) == 1:
            path.write_text("b 3 4\n")
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        return got

    monkeypatch.setattr(data, "_parse_glove", rewriting)
    assert load_glove(path, 2).word_to_id == {"a": 2}
    assert load_glove(path, 2).word_to_id == {"b": 2}
    assert len(parses) == 2


@pytest.mark.parametrize("damage", ["flip", "truncate"])
def test_damaged_copy_gives_the_table(tmp_path, forbid_parse, damage):
    rng = np.random.default_rng(3)
    path = tmp_path / "vec.txt"
    write_random_glove(path, rng, 7, 3)
    reference = line_by_line_glove(path, 3)
    load_glove(path, 3)
    intact = copy_of(path).read_bytes()
    for at in range(len(intact)):
        if damage == "flip":
            damaged = intact[:at] + bytes([intact[at] ^ 0x10]) + intact[at + 1:]
        else:
            damaged = intact[:at]
        copy_of(path).write_bytes(damaged)
        assert_same_table(load_glove(path, 3), *reference, 3)
    forbid_parse()
    assert_same_table(load_glove(path, 3), *reference, 3)


def test_unwritable_copy_still_gives_the_table(tmp_path, forbid_parse, monkeypatch, caplog):
    def refused(src, dst):
        raise OSError(30, "Read-only file system")

    monkeypatch.setattr(data.os, "replace", refused)
    rng = np.random.default_rng(4)
    path = tmp_path / "vec.txt"
    write_random_glove(path, rng, 7, 3)
    with caplog.at_level(logging.WARNING, logger="spanqa.data"):
        assert_same_table(load_glove(path, 3), *line_by_line_glove(path, 3), 3)
    assert list(tmp_path.iterdir()) == [path]     # no copy and no temp file
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "Read-only file system" in caplog.text


def test_copy_gets_the_mode_of_a_new_file(tmp_path, forbid_parse):
    # a copy only its writer can read is parsed over by every other user;
    # under umask 022 a new file is readable by all
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2 3\n")
    plain = tmp_path / "plain"
    umask = os.umask(0o022)
    try:
        load_glove(path, 3)
        with open(plain, "wb"):
            pass
    finally:
        os.umask(umask)
    assert copy_of(path).stat().st_mode == plain.stat().st_mode


def test_wrong_dim_after_a_copy_raises_the_parse_error(tmp_path, forbid_parse):
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2 3\n")
    load_glove(path, 3)
    with pytest.raises(GloveFormatError, match="vec.txt:1: expected 4 floats, got 3"):
        load_glove(path, 4)
    assert_same_table(load_glove(path, 3), *line_by_line_glove(path, 3), 3)
