"""Every function a `spanqa` module exports is one the program or its
benchmark runs.

A name in a module's `__all__` that only tests or demos call belongs in the
tests, the way `span_oracle.oracle_best_span` guards `spans.best_span`. The
scan reads `src/spanqa/*.py` and `perfbench/*.py` with `ast`: a use is a
name, an attribute, an imported name or a string constant that holds only an
identifier (perfbench names what it wraps by string). Docstrings and the
`__all__` lists themselves are not uses, and a `def` is not a use of its own
name.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spanqa

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "spanqa").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))

# (module, name) -> why it is exported though no command runs it
EXEMPT = {
    ("spans", "raw_product_span"):
        "the paper's unpenalized baseline, which demo 02 and the span tests "
        "compare smart-span decoding against",
}


def _skipped(tree):
    """The docstrings of the module, its classes and functions, and every node
    of an `__all__` assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.walk(node)


def used_names(source: str) -> set[str]:
    tree = ast.parse(source)
    skipped = {id(node) for node in _skipped(tree)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


@pytest.fixture(scope="module")
def uses():
    return set().union(*(used_names(path.read_text()) for path in SOURCES))


def exported_functions():
    for info in pkgutil.iter_modules(spanqa.__path__):
        module = importlib.import_module(f"spanqa.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if callable(value) and not isinstance(value, type):
                yield info.name, name


def test_every_exported_function_is_run_by_the_program(uses):
    unused = [f"{module}.{name}" for module, name in exported_functions()
              if name not in uses and (module, name) not in EXEMPT]
    assert not unused, f"exported but run only by tests or demos: {unused}"


def test_every_exemption_is_still_needed(uses):
    exported = set(exported_functions())
    for module, name in EXEMPT:
        assert (module, name) in exported, f"{module}.{name} is no longer exported"
        assert name not in uses, f"{module}.{name} is now run; drop its exemption"


def test_the_scan_skips_docstrings_and_all_lists():
    source = ('"""mentions ghost"""\n'
              '__all__ = ["ghost"]\n'
              'def ghost():\n'
              '    """ghost"""\n'
              'x = obj.attr\n'
              'from pkg.sub import imported\n'
              'NAMES = ["by_string", "not an identifier"]\n')
    assert used_names(source) == {"x", "obj", "attr", "imported", "NAMES",
                                  "by_string"}
