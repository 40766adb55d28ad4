"""The benchmark names program functions and calls them; each name must
resolve and each call must bind.

perfbench/tracing.py wraps every op in `spanqa.autodiff.__all__`, reports
the ops in REPORTED_OPS by name, and wraps the layer functions in LAYERS.
perfbench/workloads.py and perfbench/gen.py call the program with the
argument shapes in CALLS and read the fields in FIELDS. A name deleted from
the program, or a parameter renamed, would otherwise only show up as a
KeyError, AttributeError or TypeError in `perfbench/run.py`.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from spanqa import autodiff as ad
from spanqa import checkpoint, data, metrics, model, training

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reported_ops_are_public_autodiff_ops(tracing):
    for name in tracing.REPORTED_OPS:
        assert name in ad.__all__, name
        assert callable(getattr(ad, name)), name


def test_traced_layers_resolve(tracing):
    for module, attr in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(f"spanqa.{module}"), attr)), \
            f"spanqa.{module}.{attr}"


# (callable, number of positional arguments, keyword arguments) of each
# call perfbench makes into the program
CALLS = [
    (data.load_squad, 1, ()),
    (data.load_glove, 1, ("dim",)),
    (data.build_batches, 3, ("context_cap", "training")),
    (data.Token, 3, ()),
    (data.EmbeddingTable, 0, ("dim", "matrix", "word_to_id")),
    (data.QAExample, 0, ("qid", "context_text", "context_tokens", "question_text",
                         "question_tokens", "answer_texts", "gold_span")),
    (model.ModelConfig, 0, ("hidden_size", "dropout_rate", "embedding_dim",
                            "context_cap", "seed")),
    (model.init_params, 1, ()),
    (training.init_optimizer, 1, ()),
    (training.train, 3, ("iters", "batch_size", "params", "state")),
    (training.train_step, 5, ()),
    (training.predict_answers, 4, ("batch_size", "max_answer_len")),
    (metrics.evaluate, 2, ()),
    (checkpoint.save_checkpoint, 4, ()),
    (checkpoint.load_checkpoint, 1, ()),
]

# fields perfbench reads from the program's results
FIELDS = [
    (metrics.EvalReport, ("total", "missing", "f1", "em")),
    (training.TrainLogRecord, ("train_loss", "seconds")),
    (training.TrainResult, ("records",)),
    (training.AdamState, ("step",)),
    (checkpoint.CheckpointData, ("params", "config")),
    (model.ModelConfig, ("embedding_dim", "context_cap")),
]


@pytest.mark.parametrize("func,positional,keywords", CALLS,
                         ids=[call[0].__qualname__ for call in CALLS])
def test_benchmark_call_shapes_bind(func, positional, keywords):
    inspect.signature(func).bind(*range(positional), **dict.fromkeys(keywords))


@pytest.mark.parametrize("cls,names", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])
def test_benchmark_read_fields_exist(cls, names):
    present = {field.name for field in dataclasses.fields(cls)}
    assert set(names) <= present, sorted(set(names) - present)
