"""The benchmark's tracer names program functions; each name must resolve.

perfbench/tracing.py wraps every op in `spanqa.autodiff.__all__`, reports
the ops in REPORTED_OPS by name, and wraps the layer functions in LAYERS.
A name deleted from the program would otherwise only show up as a KeyError
or AttributeError in `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from spanqa import autodiff as ad

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
