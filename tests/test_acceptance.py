"""Acceptance suite: every headline criterion at its stated tolerance.

Each criterion prints a PASS/FAIL line (run pytest with -s to see them all)
and is asserted individually.  The checks themselves live in
wildmckay.selftest so that `wildmckay selftest` runs the identical list.
"""

import io
import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from wildmckay import cli, selftest
from wildmckay.numutil import HenselMismatchError
from wildmckay.qexpr import QExpr, QFrac
from wildmckay.selftest import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: f"criterion_{c.number:02d}")
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_suite_is_complete():
    assert [c.number for c in CRITERIA] == list(range(1, 11))


# One case per failure line: (criterion, the name it reads in wildmckay.selftest, a stand-in built from
# the real object that makes it go wrong, the failure detail).
WRONG = [
    (1, "bhargava_mass", lambda _: QExpr.q, f"coefficient mismatch at n={list(range(1, 13))}"),
    (2, "serre_mass", lambda _: QExpr.q, f"recovered mass differs from q^(1-n) at n={list(range(1, 13))}"),
    (3, "algebra_mass_sum", lambda _: lambda p, n: Fraction(0), f"mismatch at (p,n) in {selftest.MASS_PAIRS}"),
    (4, "verify_wild_mckay", lambda _: lambda p, n: SimpleNamespace(passed=False),
     f"identity fails at (p,n) in {selftest.MASS_PAIRS}"),
    (5, "_stratum_weight", lambda _: lambda p, f, e, j: Fraction(0), "stratum (f=1,e=1) over Q_5 has mass 1"),
    (6, "smooth_measure_check", lambda _: lambda system, m_max: SimpleNamespace(measure=Fraction(0)),
     "measure 0 != 4/5 for p=5"),
    (7, "monomial_integral", lambda _: lambda c, p, terms: (Fraction(1), QFrac(0)),
     "c=0: |partial - exact| = 1.00e+00"),
    (7, "is_infinite", lambda _: lambda value: False, "c=1 did not report the Infinite value"),
    (8, "null_set_fraction", lambda _: lambda system, m: Fraction(1, 2), "x^2-y^3: fraction 1/2 at m=4 vs 1/2 at m=1"),
    (9, "stringy_count_snc", lambda _: lambda data: QFrac(0), "smooth pair does not reproduce its residue point count"),
    (9, "SncLogPairData", lambda cls: lambda cs, vertical: cls([c / 3 for c in cs], vertical),
     "single divisor with c=1/2 is not (q-1)/(q^(1/2)-1)"),
    (9, "stringy_point_contribution", lambda _: lambda a, cs: QFrac(0),
     "point weight q(q-1)/(q^2-1) did not reduce to q/(q+1)"),
    (9, "is_infinite", lambda _: lambda value: False, "populated c=1 stratum must be Infinite"),
    (10, "_random_qexpr", lambda _: lambda rng: float("nan"), "ring axiom failed on a random triple"),
    (10, "TruncatedSeries", lambda _: lambda coeffs: SimpleNamespace(exp=lambda: SimpleNamespace(log=lambda: None)),
     "exp/log inverse pair failed"),
    (10, "partition_count", lambda _: lambda n, k: n, "partition recurrence failed at (1,1)"),
    (10, "partitions_into_parts", lambda _: lambda n, k: iter(()), "partition enumeration mismatch at (2,2)"),
    (10, "verify_wild_mckay", lambda _: lambda p, n: SimpleNamespace(rows=[(("x",), 1, 2, 3)]),
     "w != v for the algebra with factors ('x',) over Q_7"),
    (10, "cli", lambda _: SimpleNamespace(run_to_string=lambda argv, runs=itertools.count(): str(next(runs))),
     "CLI output not deterministic for mass expcheck --nmax 4 --format json"),
]


@pytest.mark.parametrize("number, name, stand_in, detail", WRONG,
                         ids=[f"criterion_{number:02d}-{name}" for number, name, _, _ in WRONG])
def test_each_criterion_can_fail(monkeypatch, number, name, stand_in, detail):
    monkeypatch.setattr(selftest, name, stand_in(getattr(selftest, name)))
    result = CRITERIA[number - 1]()
    assert (result.number, result.passed, result.detail) == (number, False, detail)
    assert result.line().startswith(f"FAIL  criterion {number:2d}  ")


@pytest.mark.parametrize("error", [HenselMismatchError("count(2) = 1 != p^d * count(1) = 5"),
                                   ZeroDivisionError("division by zero")], ids=lambda error: type(error).__name__)
def test_a_criterion_that_raises_fails_only_its_own_line(monkeypatch, error):
    # the error escaped run_all: selftest printed no report (or a traceback) and the later criteria never ran
    def raising(system, m_max):
        raise error

    monkeypatch.setattr(selftest, "smooth_measure_check", raising)
    out = io.StringIO()
    assert cli.main(["selftest", "--format", "json"], stdout=out) == 1
    report = json.loads(out.getvalue())
    assert (report["criteria"], report["all_passed"]) == (10, False)
    assert [row["criterion"] for row in report["rows"]] == list(range(1, 11))
    assert [row["criterion"] for row in report["rows"] if not row["passed"]] == [6]
    assert report["rows"][5]["detail"] == f"{type(error).__name__}: {error}"
