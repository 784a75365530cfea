"""Tests for the stringy point-count evaluator."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from reference import reference_canonical_pair, reference_qfrac

from wildmckay import stringy
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
        assert (value.num, value.den) == (QExpr.q(), QExpr.q() + 1)

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

    @pytest.mark.parametrize("a", [60000, -60000, 10**9])
    def test_vertical_shift_far_from_zero(self, a):
        # q^a is an exponent of the built value, so |a| far past DENSE_DEGREE_BUDGET costs nothing.
        assert stringy_point_contribution(a, [HALF]) == QFrac(QExpr.q(a) * (QExpr.q(HALF) + 1))
        at_zero = stringy_point_contribution(0, [HALF, Fraction(-1, 3), Fraction(2, 3), -1])
        value = stringy_point_contribution(a, [HALF, Fraction(-1, 3), Fraction(2, 3), -1])
        if a > 0:
            assert (value.num, value.den) == (at_zero.num * QExpr.q(a), at_zero.den)
        else:
            assert (value.num, value.den) == (at_zero.num, at_zero.den * QExpr.q(-a))


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
        value = stringy_count_snc(data)
        assert (value.num, value.den) == reference_canonical_pair(num, den)

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
        for q0 in (Fraction(3, 2), 4, 9):
            small = stringy_count_snc(base).evaluate(q0)
            large = stringy_count_snc(bigger).evaluate(q0)
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
        written = {
            "horizontal": [[1, 2], [-2, 3]],
            "vertical": [
                {"a": [0, 1], "strata": [{"subset": [], "count": 4}, {"subset": [1, 2], "count": 1}]},
                {"a": [5, 2], "strata": [{"subset": [2], "count": 2}]},
            ],
            "total": 7,
        }
        assert SncLogPairData.from_json(written) == data

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

    def test_subset_boolean_index_rejected(self):
        # true was read as divisor 1, as an int, where every other integer input refuses a boolean
        with pytest.raises(MalformedSubsetError, match=r"subset \[True\] must be an array of integers"):
            SncLogPairData.from_json(
                {"horizontal": [0], "vertical": [{"a": 0, "strata": [{"subset": [True], "count": 1}]}]}
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
    return reference_qfrac(num, den)


def oracle_count(data):
    total = QFrac(0)
    for component in data.vertical:
        for subset, count in component.strata:
            if count == 0:
                continue
            contribution = oracle_point(component.a, [data.horizontal[j - 1] for j in sorted(subset)])
            if is_infinite(contribution):
                return INFINITE
            total = reference_qfrac(total.num * contribution.den + contribution.num * count * total.den,
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
        # The cyclotomic row path makes each reduced value by one call of the cyclotomic builder.
        calls = []
        canonical = stringy._cyclotomic_qfrac

        def counted(*args):
            calls.append(args)
            return canonical(*args)

        monkeypatch.setattr(stringy, "_cyclotomic_qfrac", counted)
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


# ---------------------------------------------------------------------------
# The evaluator folds on integer rows and reduces by cyclotomic trial division.
# The oracle is the reference pair: the unreduced numerator and D summed term
# by term in QExpr, reduced by Euclid's gcd over Fraction coefficients.
# ---------------------------------------------------------------------------


def unreduced_pair(data):
    """(numerator, D) of the stratum sum in QExpr, D over the c_j < 1; INFINITE for a populated
    stratum on a c_j >= 1."""
    factors = {j: QExpr.q(1 - c) - 1 for j, c in enumerate(data.horizontal, 1) if c < 1}
    num = QExpr()
    for component in data.vertical:
        for subset, count in component.strata:
            if count == 0:
                continue
            if not subset <= factors.keys():
                return INFINITE
            term = QExpr.q(component.a) * count
            for j, factor in factors.items():
                term = term * (QExpr.q() - 1 if j in subset else factor)
            num = num + term
    return num, math.prod(factors.values(), start=QExpr.one())


def reference_oracle(data):
    pair = unreduced_pair(data)
    return pair if is_infinite(pair) else reference_qfrac(*pair)


def assert_same(value, want):
    if is_infinite(want):
        assert is_infinite(value)
    else:
        assert (value.num, value.den, str(value)) == (want.num, want.den, str(want))


def cyclotomic_case(rng, index):
    """0-5 divisors with c denominators dividing one m <= 6 (so r <= 6 and the oracle's gcd
    stays cheap), or up to 2 with any two denominators up to 6; c >= 1 on empty strata half
    the time it occurs, negative and fractional a, zero counts, and every 25th input with
    all counts zero."""
    m = rng.randint(1, 6)
    if rng.random() < 0.2:
        dens = [rng.randint(1, 6) for _ in range(rng.randint(1, 2))]
    else:
        dens = [rng.choice([d for d in range(1, m + 1) if m % d == 0]) for _ in range(rng.randint(0, 5))]
    cs = [Fraction(rng.randint(-2 * d, d - 1), d) for d in dens]
    if cs and rng.random() < 0.3:
        cs[rng.randrange(len(cs))] = rng.choice((Fraction(1), Fraction(7, 6), Fraction(2)))
    bad = {j for j, c in enumerate(cs, 1) if c >= 1}
    keep_bad_empty = rng.random() < 0.5
    vertical = []
    for _ in range(rng.randint(1, 3)):
        strata = {}
        for subset in all_subsets(len(cs)):
            if rng.random() < 0.6:
                empty = index % 25 == 0 or (keep_bad_empty and subset & bad) or rng.random() < 0.2
                strata[subset] = 0 if empty else rng.randint(1, 9)
        a = Fraction(rng.randint(-4, 4), rng.choice([d for d in range(1, m + 1) if m % d == 0]))
        vertical.append(VerticalComponent(a, strata))
    return SncLogPairData(cs, vertical)


def to_rows(value):
    """Integer rows of the numerator and the denominator over t = q^(1/r), scaled to integers."""
    r = lcm(value.num.exponent_denominator(), value.den.exponent_denominator())
    rows = []
    for part in (value.num, value.den):
        scale = lcm(*(c.denominator for _, c in part.terms))
        row = [0] * (int(part.terms[-1][0] * r) + 1)
        for e, c in part.terms:
            row[int(e * r)] = int(c * scale)
        rows.append(row)
    return rows


def gcd_degree_mod(a, b, p=2**61 - 1):
    """Degree of gcd(a, b) over F_p (Euclid)."""
    def trim(row):
        row = [x % p for x in row]
        while row and not row[-1]:
            row.pop()
        return row

    a, b = trim(a), trim(b)
    while b:
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):
            factor, shift = a[-1] * inverse % p, len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * y) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def assert_canonical(value, num, den, common_degree=None):
    """value is the canonical form of num / den, checked without a gcd over Q: the same rational
    function, a monic denominator and exponents from 0 in one part.  The two parts are coprime
    when the denominator has the t-degree of den less common_degree, the known degree of
    gcd(num, den); without it, when they are coprime modulo a prime (a common factor divides the
    monic denominator, so it keeps its degree mod p)."""
    r = lcm(num.exponent_denominator(), den.exponent_denominator(), value.num.exponent_denominator(),
            value.den.exponent_denominator())
    over_t = [x.scale_exponents(r) for x in (value.num, value.den, num, den)]
    assert over_t[0] * over_t[3] == over_t[1] * over_t[2]
    assert value.den.terms[-1][1] == 1
    assert min(value.num.terms[0][0], value.den.terms[0][0]) == 0
    if common_degree is None:
        assert gcd_degree_mod(*to_rows(value)) == 0
    else:
        assert (value.den.terms[-1][0] - den.terms[-1][0]) * r == -common_degree


def totient(n):
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


class TestCyclotomicReduction:
    def test_seeded_inputs_against_the_reference_oracle(self):
        rng = random.Random(20261018)
        seen = dict.fromkeys(("zero", "no divisor", "bad on empty", "infinite", "five divisors",
                              "negative fractional a", "c denominator 5 or 6"), 0)
        for index in range(240):
            data = cyclotomic_case(rng, index)
            value, want = stringy_count_snc(data), reference_oracle(data)
            assert_same(value, want)
            counts = [count for v in data.vertical for _, count in v.strata]
            bad = {j for j, c in enumerate(data.horizontal, 1) if c >= 1}
            seen["zero"] += not is_infinite(want) and want.num.is_zero and bool(data.horizontal)
            seen["no divisor"] += not data.horizontal and any(counts)
            seen["bad on empty"] += bool(bad) and not is_infinite(want) and any(counts)
            seen["infinite"] += is_infinite(want)
            seen["five divisors"] += len(data.horizontal) == 5 and not is_infinite(want)
            seen["negative fractional a"] += any(v.a.denominator > 1 and v.a < 0 for v in data.vertical)
            seen["c denominator 5 or 6"] += any(c.denominator >= 5 for c in data.horizontal)
        assert all(n >= 5 for n in seen.values()), seen

    def test_seeded_points_against_the_reference_oracle(self):
        rng = random.Random(61)
        for _ in range(100):
            cs = [Fraction(rng.randint(-12, 5), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            assert_same(stringy_point_contribution(a, cs), oracle_point(a, cs))

    def test_six_divisors_of_the_benchmark_shape(self):
        # The shape of the benchmark's eval inputs (every subset, counts 1-9) at 6 divisors:
        # summing per-stratum fractions took about 113 s on such an input.
        counts = random.Random("six-divisors")
        for cs, a_values in (("1/2", "-1/3", "2/3", "-1/2", "1/3", "-2/3"), ("0",)), \
                            (("1/2", "-1/3", "2/3", "-1/2", "1/3", "-4/3"), ("0", "1/2")):
            vertical = [VerticalComponent(Fraction(a), {s: counts.randint(1, 9) for s in all_subsets(6)})
                        for a in a_values]
            data = SncLogPairData([Fraction(c) for c in cs], vertical)
            assert_same(stringy_count_snc(data), reference_oracle(data))

    def test_coprime_denominators(self):
        # Too slow for a gcd oracle (a primitive remainder sequence took about 9 s and past 60 s),
        # so the canonical form is checked directly, and each build is timed.
        cs = [Fraction(1, 5), Fraction(1, 7), Fraction(1, 11)]
        data = SncLogPairData(cs, [VerticalComponent(0, {s: 1 for s in all_subsets(3)})])
        start = time.perf_counter()
        value = stringy_count_snc(data)
        assert time.perf_counter() - start < 0.5
        assert_canonical(value, *unreduced_pair(data))
        cs = [Fraction(1, p) for p in (2, 3, 5, 7, 11)]
        start = time.perf_counter()
        value = stringy_point_contribution(0, cs)
        assert time.perf_counter() - start < 2
        # Over t = q^(1/2310) the point is (t^2310 - 1)^5 / prod_j (t^k_j - 1), so Phi_d divides
        # the gcd min(5 [d | 2310], #{j : d | k_j}) times.
        ks = [2310 - 2310 // p for p in (2, 3, 5, 7, 11)]
        common = sum(totient(d) * min(5 * (2310 % d == 0), sum(k % d == 0 for k in ks))
                     for d in range(1, max(ks) + 1) if any(k % d == 0 for k in ks))
        pair = unreduced_pair(SncLogPairData(cs, [VerticalComponent(0, {frozenset(range(1, 6)): 1})]))
        assert_canonical(value, *pair, common_degree=common)

    def test_canonical_check_rejects_a_reducible_pair(self):
        q = QExpr.q()
        num, den = q * (q - 1), (q + 1) * (q - 1)
        value, unreduced = reference_qfrac(num, den), object.__new__(QFrac)
        object.__setattr__(unreduced, "_num", num)
        object.__setattr__(unreduced, "_den", den)
        for common in (None, 1):
            assert_canonical(value, num, den, common)
            with pytest.raises(AssertionError):
                assert_canonical(unreduced, num, den, common)
