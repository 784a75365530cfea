"""Every demo script runs to completion and prints, byte for byte, the stdout
recorded in tests/golden/demos.json; every name the package exports resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wildmckay

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = json.loads((ROOT / "tests" / "golden" / "demos.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == GOLDEN[demo.stem]


def test_exported_names_resolve():
    assert [name for name in wildmckay.__all__ if not hasattr(wildmckay, name)] == []
