"""Verification suite: every headline identity this package claims, run at
its stated tolerance (exact unless noted).

Each criterion function returns a CriterionResult; run_all executes them in
order.  The pytest acceptance module and the `selftest` CLI subcommand both
drive this list, so there is exactly one place where the checks live.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from typing import Callable

from . import _lazy_module
from .localfields import algebra_mass_sum, enumerate_tame_field_classes
from .massformulas import bhargava_mass, mass_series_via_exp, recover_N_from_M, serre_mass
from .mckay import verify_wild_mckay
from .padic import PolySystem, monomial_integral, null_set_fraction, smooth_measure_check
from .partitions import partition_count, partitions_into_parts
from .qexpr import QExpr, QFrac, is_infinite
from .series import TruncatedSeries
from .stringy import SncLogPairData, VerticalComponent, stringy_count_snc, stringy_point_contribution

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

cli = _lazy_module("cli")  # criterion_properties alone runs it

MASS_PAIRS = [(p, n) for p in (5, 7, 11) for n in (2, 3, 4)]


class CriterionResult(namedtuple("CriterionResult", "number name passed detail")):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.name}: {self.detail}"


CRITERIA: list[Callable[[], CriterionResult]] = []  # in the order they are defined


def _criterion(number: int, name: str):
    def wrap(fn: Callable[[], tuple[bool, str]]):
        def runner() -> CriterionResult:
            passed, detail = fn()
            return CriterionResult(number=number, name=name, passed=passed, detail=detail)

        runner.number = number
        CRITERIA.append(runner)
        return runner

    return wrap


@_criterion(1, "etale-algebra masses via the exponential identity, n <= 12")
def criterion_bhargava_via_exp() -> tuple[bool, str]:
    series = mass_series_via_exp(12)
    bad = [n for n in range(1, 13) if series.coefficient(n) != bhargava_mass(n)]
    if bad:
        return False, f"coefficient mismatch at n={bad}"
    return True, "all 12 coefficients match the partition formula exactly"


@_criterion(2, "totally ramified masses recovered from the algebra series, n <= 12")
def criterion_serre_recovery() -> tuple[bool, str]:
    N = recover_N_from_M(mass_series_via_exp(12))
    bad = [n for n in range(1, 13) if N[(1, n)] != serre_mass(n)]
    if bad:
        return False, f"recovered mass differs from q^(1-n) at n={bad}"
    return True, "N(K,n) = q^(1-n) recovered exactly for n = 1..12"


@_criterion(3, "tame enumeration mass equals the partition formula at q=p")
def criterion_enumeration_vs_bhargava() -> tuple[bool, str]:
    bad = []
    for p, n in MASS_PAIRS:
        if algebra_mass_sum(p, n) != bhargava_mass(n).evaluate(p):
            bad.append((p, n))
    if bad:
        return False, f"mismatch at (p,n) in {bad}"
    return True, f"exact rational equality at {len(MASS_PAIRS)} (p,n) pairs"


@_criterion(4, "wild McKay identity: mass side equals Hilbert-scheme count")
def criterion_wild_mckay() -> tuple[bool, str]:
    bad = []
    for p, n in MASS_PAIRS:
        report = verify_wild_mckay(p, n)
        if not report.passed:
            bad.append((p, n))
    if bad:
        return False, f"identity fails at (p,n) in {bad}"
    return True, f"both sides agree exactly at {len(MASS_PAIRS)} (p,n) pairs"


@_criterion(5, "stratum mass identity for every tame (f,e) with ef <= 6")
def criterion_stratum_mass() -> tuple[bool, str]:
    checked = 0
    for p in (5, 7, 11):
        for n in range(1, 7):
            strata = {}
            for cls in enumerate_tame_field_classes(p, n):
                strata.setdefault((cls.f, cls.e), []).append(cls)
            for (f, e), classes in strata.items():
                total = sum(Fraction(1, p**c.disc_exponent * c.aut_order) for c in classes)
                if total != Fraction(1, f * p ** (f * (e - 1))):
                    return False, f"stratum (f={f},e={e}) over Q_{p} has mass {total}"
                checked += 1
    return True, f"{checked} strata verified exactly (f=1 rows are the totally ramified mass)"


@_criterion(6, "smooth measure: lifted counts multiply by p^d and stabilize")
def criterion_smooth_measure() -> tuple[bool, str]:
    circle = lambda p: PolySystem(p, 2, [[((2, 0), 1), ((0, 2), 1), ((0, 0), -1)]], dim=1)
    cubic = PolySystem(5, 2, [[((0, 2), 1), ((3, 0), -1), ((1, 0), -1), ((0, 0), -1)]], dim=1)
    cases = [(circle(5), 4, Fraction(4, 5)), (circle(13), 4, Fraction(12, 13)), (cubic, 4, Fraction(8, 5))]
    for system, m_max, expected in cases:
        report = smooth_measure_check(system, m_max)
        if report.measure != expected:
            return False, f"measure {report.measure} != {expected} for p={system.p}"
        for m in range(1, m_max):
            if report.counts[m] != system.p**system.dim * report.counts[m - 1]:
                return False, f"lifting relation fails at level {m} for p={system.p}"
    return True, "circle over Q_5 and Q_13 and a smooth cubic over Q_5, m <= 3, all exact"


@_criterion(7, "monomial integral: 60-term truncation vs closed form, 1e-9")
def criterion_monomial_integral() -> tuple[bool, str]:
    tol = Fraction(1, 10**9)
    for c in (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2, 3)):
        partial, exact = monomial_integral(c, 5, terms=60)
        target = exact.evaluate(5)
        if abs(partial - target) > tol:
            return False, f"c={c}: |partial - exact| = {float(abs(partial - target)):.2e}"
    _, divergent = monomial_integral(1, 5, terms=10)
    if not is_infinite(divergent):
        return False, "c=1 did not report the Infinite value"
    return True, "c in {0, 1/2, -1, 2/3} within 1e-9 at p=5; c=1 is Infinite"


@_criterion(8, "null-set decay for singular curves over Q_5")
def criterion_null_set() -> tuple[bool, str]:
    cusp = PolySystem(5, 2, [[((2, 0), 1), ((0, 3), -1)]], dim=1)
    node = PolySystem(5, 2, [[((1, 1), 1)]], dim=1)
    details = []
    for name, system in (("x^2-y^3", cusp), ("xy", node)):
        first = null_set_fraction(system, 1)
        last = null_set_fraction(system, 4)
        if not (last < first and last < Fraction(1, 10)):
            return False, f"{name}: fraction {last} at m=4 vs {first} at m=1"
        details.append(f"{name}: {first} -> {last} at m=4")
    return True, "; ".join(details)


@_criterion(9, "stringy evaluator on smooth, single-divisor and divergent data")
def criterion_stringy() -> tuple[bool, str]:
    smooth = SncLogPairData([], [VerticalComponent(0, {frozenset(): 7})])
    if stringy_count_snc(smooth) != QFrac(7):
        return False, "smooth pair does not reproduce its residue point count"
    half = SncLogPairData([Fraction(1, 2)], [VerticalComponent(0, {frozenset({1}): 1})])
    if stringy_count_snc(half) != QFrac(QExpr.q(Fraction(1, 2)) + 1):
        return False, "single divisor with c=1/2 is not (q-1)/(q^(1/2)-1)"
    third = stringy_point_contribution(1, [Fraction(-1)])
    if is_infinite(third) or (third.num, third.den) != (QExpr.q(), QExpr.q() + 1):
        return False, "point weight q(q-1)/(q^2-1) did not reduce to q/(q+1)"
    divergent = SncLogPairData([Fraction(1)], [VerticalComponent(0, {frozenset({1}): 1})])
    if not is_infinite(stringy_count_snc(divergent)):
        return False, "populated c=1 stratum must be Infinite"
    return True, "smooth count, c=1/2 and c=-1 closed forms, and divergence all exact"


def _random_qexpr(rng: random.Random) -> QExpr:
    return QExpr(
        {
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, 4))
        }
    )


@_criterion(10, "property suites: ring axioms, exp/log, partitions, w=v, CLI determinism")
def criterion_properties() -> tuple[bool, str]:
    rng = random.Random(987654321)
    for _ in range(1000):
        a, b, c = (_random_qexpr(rng) for _ in range(3))
        if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c or a + b != b + a:
            return False, "ring axiom failed on a random triple"
    for _ in range(5):
        s = TruncatedSeries([0] + [QExpr({rng.randint(-2, 2): rng.randint(-4, 4)}) for _ in range(8)])
        if s.exp().log() != s:
            return False, "exp/log inverse pair failed"
    for n in range(41):
        for k in range(1, n + 1):
            if partition_count(n, k) != partition_count(n - 1, k - 1) + partition_count(n - k, k):
                return False, f"partition recurrence failed at ({n},{k})"
    for n in range(2, 13):
        enumerated = sum(1 for _ in partitions_into_parts(n, 2))
        if enumerated != partition_count(n, 2):
            return False, f"partition enumeration mismatch at ({n},2)"
    for p in (7, 11):
        for n in range(1, 7):
            for factors, _, v, w, *_ in verify_wild_mckay(p, n).rows:
                if w != v:
                    return False, f"w != v for the algebra with factors {factors} over Q_{p}"
    for argv in (
        ["mass", "expcheck", "--nmax", "4", "--format", "json"],
        ["etale", "enumerate", "--p", "5", "--n", "3", "--format", "json"],
        ["mckay", "verify", "--p", "5", "--n", "2", "--format", "csv"],
    ):
        first = cli.run_to_string(argv)
        second = cli.run_to_string(argv)
        if first != second:
            return False, f"CLI output not deterministic for {' '.join(argv)}"
    return True, "1000 ring-axiom triples, exp/log pairs, partition recurrence to n=40, w=v to degree 6, CLI determinism"


def run_all() -> list[CriterionResult]:
    return [criterion() for criterion in CRITERIA]
