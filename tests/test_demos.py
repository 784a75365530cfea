"""Smoke tests: every demo script runs to completion, and every name the
package exports resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wildmckay

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr


def test_exported_names_resolve():
    assert [name for name in wildmckay.__all__ if not hasattr(wildmckay, name)] == []
