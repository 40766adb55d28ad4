import json
import os
import zlib
from pathlib import Path

import pytest

from spanqa.checkpoint import MAGIC

FIXTURES = Path(__file__).parent / "fixtures"


def official_path(env_var: str, default_name: str) -> Path | None:
    """Optional official data file: env var wins, then ./data/<name>."""
    candidate = os.environ.get(env_var)
    if candidate:
        return Path(candidate)
    fallback = Path(__file__).resolve().parents[1] / "data" / default_name
    return fallback if fallback.exists() else None


def require_official(env_var: str, default_name: str) -> Path:
    path = official_path(env_var, default_name)
    if path is None or not path.exists():
        pytest.skip(f"official file not available; set {env_var} or place "
                    f"data/{default_name}")
    return path


@pytest.fixture(scope="session")
def metric_cases():
    with open(FIXTURES / "metric_cases.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def make_squad_dict(paragraphs):
    """paragraphs: list of (context, [(qid, question, [(text, start), ...])])."""
    articles = []
    for context, qas in paragraphs:
        articles.append({
            "title": "t",
            "paragraphs": [{
                "context": context,
                "qas": [
                    {"id": qid, "question": question,
                     "answers": [{"text": t, "answer_start": s} for t, s in answers]}
                    for qid, question, answers in qas
                ],
            }],
        })
    return {"version": "1.1", "data": articles}


def write_squad(tmp_path, paragraphs, name="squad.json"):
    path = tmp_path / name
    path.write_text(json.dumps(make_squad_dict(paragraphs)), encoding="utf-8")
    return path


_HEADER = len(MAGIC) + 8


def split(raw):
    """(metadata, payload) of a checkpoint file's bytes."""
    meta_len = int.from_bytes(raw[len(MAGIC):_HEADER], "little")
    return json.loads(raw[_HEADER:_HEADER + meta_len]), raw[_HEADER + meta_len:]


def join(metadata, payload):
    """A file whose metadata checksum is recomputed for the (edited) metadata."""
    def encode(meta):
        return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    metadata = {key: value for key, value in metadata.items()
                if key != "metadata_crc32"}
    metadata["metadata_crc32"] = zlib.crc32(encode(metadata))
    block = encode(metadata)
    return MAGIC + len(block).to_bytes(8, "little") + block + payload
