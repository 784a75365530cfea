"""Byte-level goldens of the README command lines.

tests/golden/cli.json records, for every command of the README's command
line section under --format json and --format csv (and selftest as JSON),
the exit code and the exact stdout.  Commands run from the repository root
so that the `input` fields match the README paths.  The --table file is
written to a temporary directory; its path is normalised back to the README
name in the report and its bytes are compared as well.
"""

import io
import json
from pathlib import Path

import pytest

from wildmckay.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8"))
TABLE_NAME = "breakdown.json"


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_output_matches_golden(case, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    argv = list(case["argv"])
    table = tmp_path / TABLE_NAME
    if "--table" in argv:
        argv[argv.index("--table") + 1] = str(table)
    buffer = io.StringIO()
    assert main(argv, stdout=buffer) == case["exit"]
    assert buffer.getvalue().replace(str(table), TABLE_NAME) == case["stdout"]
    if "table" in case:
        assert table.read_bytes() == case["table"].encode("utf-8")
