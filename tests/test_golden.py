"""Byte-level goldens of the README command lines.

tests/golden/cli.json records, for every command of the README's command
line section under --format json and --format csv (selftest as JSON only)
and as written there, in the default text format, the exit code and the
exact stdout, and the same for a few larger inputs of the benchmark's
commands.  `stringy point --a 2 --c=-1 --at-q 5` is the one line whose
value is evaluated exactly.  Commands run from the repository root so
that the `input` fields match the README paths.
"""

import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from wildmckay.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    buffer = io.StringIO()
    assert main(list(case["argv"]), stdout=buffer) == case["exit"]
    assert buffer.getvalue() == case["stdout"]


def test_approx_goldens_print_the_digits_of_the_value():
    # An `approx` is printed with 15 significant digits of a value known within `precision`, and a
    # `partial` with 15 of the integral's truncated sum; the goldens' digits must be those of the
    # exact value and of the sum, computed here at 50 digits.
    mpmath = pytest.importorskip("mpmath")
    checked = set()
    with mpmath.workdps(50):
        for case in CASES:
            if case["argv"][-1] != "json" or '"approx"' not in case["stdout"]:
                continue
            report = json.loads(case["stdout"])
            value, evaluated = report.get("value") or report["exact"], report.get("evaluated") or report["exact_at_p"]
            q = mpmath.mpf(evaluated["q"])
            part = lambda terms: mpmath.fsum(mpmath.mpf(cn) / cd * q ** (mpmath.mpf(en) / ed)
                                             for en, ed, cn, cd in terms)
            assert mpmath.nstr(part(value["num"]) / part(value["den"]), 15) == evaluated["approx"], case["id"]
            checked.add(evaluated["approx"])
            if "partial" in report:  # sum_{i <= terms} q^(i (c - 1)) (1 - 1/q) at q = p
                c = Fraction(report["c"])
                step = q ** (mpmath.mpf(c.numerator) / c.denominator - 1)
                shells = mpmath.fsum(step**i for i in range(1, report["terms"] + 1)) * (1 - 1 / q)
                assert mpmath.nstr(shells, 15) == report["partial"], case["id"]
                checked.add(report["partial"])
    assert checked == {"16.2", "10.4721359549996", "3.59987732505643", "1.12679873697791", "1.1267987369779"}
