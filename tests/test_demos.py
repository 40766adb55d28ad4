"""Every demo script runs to completion, so an API change cannot silently
break the documented tour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spanqa

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the child imports the same spanqa as this process, installed or not
    source_root = str(Path(spanqa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                            capture_output=True, text=True, timeout=600,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
