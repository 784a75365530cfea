"""Tests for the stringy point-count evaluator."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from wildmckay import qexpr
from wildmckay.qexpr import INFINITE, QExpr, QFrac, is_infinite
from wildmckay.stringy import (
    MalformedSubsetError,
    SncLogPairData,
    VerticalComponent,
    stringy_count_snc,
    stringy_point_contribution,
)

HALF = Fraction(1, 2)


class TestPointContribution:
    def test_empty_product(self):
        assert stringy_point_contribution(0, []) == QFrac(1)

    def test_negative_coefficient(self):
        # q * (q-1)/(q^2-1) = q/(q+1)
        value = stringy_point_contribution(1, [-1])
        assert value == QFrac(QExpr.q(), QExpr.q() + 1)

    def test_two_half_coefficients(self):
        # ((q-1)/(q^(1/2)-1))^2 = (q^(1/2)+1)^2
        value = stringy_point_contribution(0, [HALF, HALF])
        expected = QFrac((QExpr.q(HALF) + 1) * (QExpr.q(HALF) + 1))
        assert value == expected

    def test_divergent(self):
        assert is_infinite(stringy_point_contribution(0, [HALF, 1]))
        assert is_infinite(stringy_point_contribution(2, [Fraction(3, 2)]))

    def test_fractional_vertical_weight(self):
        assert stringy_point_contribution(HALF, []) == QFrac(QExpr.q(HALF))


def smooth_pair(count):
    return SncLogPairData([], [VerticalComponent(0, {frozenset(): count})])


class TestCountSnc:
    def test_smooth_variety_reproduces_point_count(self):
        assert stringy_count_snc(smooth_pair(7)) == QFrac(7)

    def test_single_point_on_half_divisor(self):
        data = SncLogPairData([HALF], [VerticalComponent(0, {frozenset({1}): 1})])
        assert stringy_count_snc(data) == QFrac(QExpr.q(HALF) + 1)

    def test_coefficient_one_on_populated_stratum_diverges(self):
        data = SncLogPairData([Fraction(1)], [VerticalComponent(0, {frozenset({1}): 1})])
        assert is_infinite(stringy_count_snc(data))

    def test_coefficient_one_on_empty_stratum_is_harmless(self):
        data = SncLogPairData(
            [Fraction(1)],
            [VerticalComponent(0, {frozenset({1}): 0, frozenset(): 3})],
        )
        assert stringy_count_snc(data) == QFrac(3)

    def test_decomposes_into_point_contributions(self):
        cs = [HALF, Fraction(-1), Fraction(1, 3)]
        data = SncLogPairData(
            cs,
            [
                VerticalComponent(0, {frozenset(): 2, frozenset({1}): 1, frozenset({1, 3}): 4}),
                VerticalComponent(2, {frozenset({2}): 3}),
            ],
        )
        points = [
            (2, stringy_point_contribution(0, [])),
            (1, stringy_point_contribution(0, [HALF])),
            (4, stringy_point_contribution(0, [HALF, Fraction(1, 3)])),
            (3, stringy_point_contribution(2, [Fraction(-1)])),
        ]
        num, den = QExpr(), QExpr.one()
        for count, value in points:
            num, den = num * value.den + value.num * count * den, den * value.den
        assert stringy_count_snc(data) == QFrac(num, den)

    def test_zero_coefficients_give_plain_count(self):
        data = SncLogPairData(
            [0, 0],
            [VerticalComponent(0, {frozenset(): 5, frozenset({1}): 2, frozenset({1, 2}): 1})],
        )
        assert stringy_count_snc(data) == QFrac(8)

    def test_monotone_in_stratum_counts(self):
        base = SncLogPairData([HALF], [VerticalComponent(0, {frozenset({1}): 1})])
        bigger = SncLogPairData(
            [HALF], [VerticalComponent(0, {frozenset({1}): 1, frozenset(): 2})]
        )
        tol = Fraction(1, 10**12)
        for q0 in (Fraction(3, 2), 4, 9):
            small = stringy_count_snc(base).evaluate(q0, precision=tol)
            large = stringy_count_snc(bigger).evaluate(q0, precision=tol)
            assert large > small


class TestValidationAndJson:
    def test_round_trip(self):
        data = SncLogPairData(
            [HALF, Fraction(-2, 3)],
            [
                VerticalComponent(0, {frozenset(): 4, frozenset({1, 2}): 1}),
                VerticalComponent(Fraction(5, 2), {frozenset({2}): 2}),
            ],
            declared_total=7,
        )
        assert SncLogPairData.from_json(data.to_json()) == data

    def test_parse_rational_forms(self):
        data = SncLogPairData.from_json(
            {
                "horizontal": ["1/2", [2, 3], -1],
                "vertical": [{"a": "3/4", "strata": [{"subset": [1, 3], "count": 2}]}],
            }
        )
        assert data.horizontal == (HALF, Fraction(2, 3), Fraction(-1))
        assert data.vertical[0].a == Fraction(3, 4)

    def test_subset_out_of_range(self):
        with pytest.raises(MalformedSubsetError):
            SncLogPairData([HALF], [VerticalComponent(0, {frozenset({2}): 1})])

    def test_subset_duplicates_rejected(self):
        with pytest.raises(MalformedSubsetError):
            SncLogPairData.from_json(
                {"horizontal": [0], "vertical": [{"a": 0, "strata": [{"subset": [1, 1], "count": 1}]}]}
            )

    def test_total_consistency(self):
        with pytest.raises(ValueError):
            SncLogPairData([], [VerticalComponent(0, {frozenset(): 3})], declared_total=4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SncLogPairData([], [VerticalComponent(0, {frozenset(): -1})])


# ---------------------------------------------------------------------------
# The evaluator sums over one common denominator; the per-stratum sum below,
# each partial sum one fraction cross-multiplied in QExpr, is the reference.
# ---------------------------------------------------------------------------


def oracle_point(a, cs):
    num, den = QExpr.q(Fraction(a)), QExpr.one()
    for c in cs:
        if c >= 1:
            return INFINITE
        num, den = num * (QExpr.q() - 1), den * (QExpr.q(1 - c) - 1)
    return QFrac(num, den)


def oracle_count(data):
    total = QFrac(0)
    for component in data.vertical:
        for subset, count in component.strata:
            if count == 0:
                continue
            contribution = oracle_point(component.a, [data.horizontal[j - 1] for j in sorted(subset)])
            if is_infinite(contribution):
                return INFINITE
            total = QFrac(total.num * contribution.den + contribution.num * count * total.den,
                          total.den * contribution.den)
    return total


def all_subsets(k):
    return [frozenset(s) for size in range(k + 1) for s in combinations(range(1, k + 1), size)]


def random_pair(rng):
    """1-4 divisors, c with denominators up to 3 (some c = 1, some c > 1),
    fractional a, zero counts; bad divisors sit on empty strata half the time."""
    k = rng.randint(1, 4)
    cs = [Fraction(rng.randint(-5, 4), rng.choice((1, 2, 3))) for _ in range(k)]
    if rng.random() < 0.5:
        cs[rng.randrange(k)] = rng.choice((Fraction(1), Fraction(4, 3), Fraction(2)))
    bad = {j for j, c in enumerate(cs, 1) if c >= 1}
    keep_bad_empty = rng.random() < 0.5
    vertical = []
    for _ in range(rng.randint(1, 2)):
        strata = {}
        for subset in all_subsets(k):
            if rng.random() < 0.7:
                empty = keep_bad_empty and subset & bad
                strata[subset] = 0 if empty or rng.random() < 0.3 else rng.randint(1, 5)
        vertical.append(VerticalComponent(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))), strata))
    return SncLogPairData(cs, vertical)


class TestCommonDenominator:
    def test_random_pairs_match_per_stratum_sum(self):
        rng = random.Random(20261018)
        bad_on_empty = bad_on_populated = 0
        for _ in range(200):
            data = random_pair(rng)
            value = stringy_count_snc(data)
            assert value == oracle_count(data), data
            bad = {j for j, c in enumerate(data.horizontal, 1) if c >= 1}
            touching = [count for component in data.vertical for subset, count in component.strata if subset & bad]
            if touching:
                if any(touching):
                    bad_on_populated += 1
                    assert is_infinite(value)
                else:
                    bad_on_empty += 1
                    assert not is_infinite(value)
        assert bad_on_empty >= 20 and bad_on_populated >= 20

    def test_random_points_match_factor_product(self):
        rng = random.Random(7)
        for _ in range(100):
            cs = [Fraction(rng.randint(-5, 4), rng.choice((1, 2, 3))) for _ in range(rng.randint(0, 4))]
            a = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            assert stringy_point_contribution(a, cs) == oracle_point(a, cs)

    def test_six_divisors_against_direct_fraction_sum(self):
        # Exponents lie in (1/6)Z, so q = t^6 makes every power rational.
        cs = [HALF, Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3)]
        rng = random.Random(6)
        vertical = [
            VerticalComponent(a, {subset: rng.randint(0, 4) for subset in all_subsets(len(cs))})
            for a in (0, HALF)
        ]
        value = stringy_count_snc(SncLogPairData(cs, vertical))
        r = lcm(*(c.denominator for c in cs), 2)

        def power(t, e):
            return Fraction(t) ** int(e * r)

        def at(expr, t):
            return sum(c * power(t, e) for e, c in expr.terms)

        for t in (2, 3):
            direct = Fraction(0)
            for component in vertical:
                for subset, count in component.strata:
                    weight = count * power(t, component.a)
                    for j in subset:
                        weight *= (power(t, 1) - 1) / (power(t, 1 - cs[j - 1]) - 1)
                    direct += weight
            assert at(value.num, t) / at(value.den, t) == direct

    def test_one_canonicalization_per_call(self, monkeypatch):
        calls = []
        canonical = qexpr._canonical_pair

        def counted(num, den):
            calls.append((num, den))
            return canonical(num, den)

        monkeypatch.setattr(qexpr, "_canonical_pair", counted)
        rng = random.Random(3)
        for _ in range(30):
            data = random_pair(rng)
            before = len(calls)
            stringy_count_snc(data)
            assert len(calls) - before <= 1
        for cs in ([], [HALF], [HALF, Fraction(-1, 3), Fraction(2, 3)], [HALF, 1]):
            before = len(calls)
            stringy_point_contribution(HALF, cs)
            assert len(calls) - before <= 1
        assert calls
