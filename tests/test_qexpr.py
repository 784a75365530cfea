"""Tests for the exact q-arithmetic kernel."""

import copy
import math
import operator
import pickle
import random
import time
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest

from reference import reference_canonical_pair
from wildmckay.numutil import DEFAULT_PRECISION
from wildmckay.qexpr import (
    INFINITE,
    InfiniteType,
    PoleError,
    QExpr,
    QFrac,
    _cyclotomic_qfrac,
    _int_nth_root,
    is_infinite,
)
from wildmckay.series import TruncatedSeries
from wildmckay.stringy import stringy_point_contribution


def sqrt_oracle(n: int, digits: int) -> Fraction:
    """Independent square-root approximation: integer isqrt at fixed scale."""
    scale = 10**digits
    return Fraction(isqrt(n * scale * scale), scale)


def inverse(m: QExpr) -> QExpr:
    """1 / m for a monomial m = c q^e: c^-1 q^-e."""
    (e, c), = m.terms
    return QExpr({-e: 1 / c})


def q_over_q_plus_one() -> QFrac:
    """q / (q + 1), built as q (q - 1) / (q^2 - 1) by the cyclotomic builder."""
    return _cyclotomic_qfrac([-1, 1], [2], 1, 1)


class TestMonomial:
    def test_identity_element(self):
        assert QExpr({0: 1}) == QExpr.one()

    def test_single_monomial(self):
        m = QExpr({-1: 1})
        assert m.terms == ((Fraction(-1), Fraction(1)),)

    def test_zero_annihilation(self):
        assert QExpr({5: 0}) == QExpr()
        assert QExpr({5: 0}).terms == ()


class TestArithmetic:
    def test_division_exact_quotient_half_exponent(self):
        # In t = q^(1/2): (t^2 - 1)/(t - 1) = t + 1, so the result is q^(1/2) + 1.
        result = _cyclotomic_qfrac([-1, 0, 1], [1], 0, 2)
        assert result.num == QExpr.q(Fraction(1, 2)) + 1
        assert result.den == QExpr.one()
        assert (result.num, result.den) == reference_canonical_pair(QExpr.q() - 1, QExpr.q(Fraction(1, 2)) - 1)

    def test_division_with_nontrivial_denominator(self):
        # In t = q^(1/3): (t^3 - 1)/(t^2 - 1); gcd is t - 1, leaving
        # (t^2 + t + 1)/(t + 1), which is not a polynomial.
        result = _cyclotomic_qfrac([-1, 0, 0, 1], [2], 0, 3)
        third = Fraction(1, 3)
        assert result.num == QExpr({2 * third: 1, third: 1, 0: 1})
        assert result.den == QExpr({third: 1, 0: 1})
        assert (result.num, result.den) == reference_canonical_pair(QExpr.q() - 1, QExpr.q(2 * third) - 1)

    def test_additive_identity(self):
        x = QExpr({Fraction(3, 2): 2, -1: 5})
        assert x + QExpr() == x
        assert QFrac((x + 0) * QExpr.q(-2)) == QFrac(x * QExpr.q(-2))

    def test_fraction_cancellation_is_canonical(self):
        q = QExpr.q()
        assert QFrac((q + 1) * q * QExpr.q(-2)) == QFrac((q + 1) * QExpr.q(-1))
        # (t^2 - 1) / (t - 1)^2 and (t + 1) / (t - 1), over t = q, from the cyclotomic builder
        a, b = _cyclotomic_qfrac([-1, 0, 1], [1, 1], 0, 1), _cyclotomic_qfrac([1, 1], [1], 0, 1)
        assert a == b and (a.num, a.den) == reference_canonical_pair(q + 1, q - 1)
        assert hash(a) == hash(b)

    def test_negative_exponent_normalization(self):
        # q^(-2) is canonically 1 / q^2.
        frac = QFrac(QExpr.q(-2))
        assert (frac.num, frac.den) == (QExpr.one(), QExpr.q(2))


class TestEvaluate:
    def test_serre_shape_at_5(self):
        # q^(1-n) with n = 2
        assert QExpr.q(-1).evaluate(5) == Fraction(1, 5)

    def test_polynomial_value(self):
        expr = QExpr.q(4) + QExpr.q(3)
        assert expr.evaluate(5) == 750

    def test_sqrt_approximation(self):
        expr = QExpr.q(Fraction(1, 2)) + 1
        target = sqrt_oracle(5, 40) + 1
        assert within_the_precision(expr.evaluate(5), target, Fraction(1, 10**40))

    def test_only_an_exact_point_is_read(self):
        # Fraction(q0) read 0.1 as 3602879701896397/36028797018963968, and "5" and Decimal("0.1") silently
        frac = _cyclotomic_qfrac([1], [1], 0, 1)
        for q0 in (0.1, "5", Decimal("0.1")):
            for evaluate in (QExpr.q().evaluate, frac.evaluate, frac.check_powers):
                with pytest.raises(TypeError, match=f"^expected an exact rational, got {type(q0).__name__}$"):
                    evaluate(q0)
        assert QExpr.q().evaluate(Fraction(1, 10)) == Fraction(1, 10) and frac.evaluate(5) == Fraction(1, 4)

    def test_a_bool_is_not_read_as_a_rational(self):
        # {True: 1} printed as q, and True was evaluated as q = 1
        for build in (lambda: QExpr({True: 1}), lambda: QExpr({1: True}), lambda: QExpr.q(True),
                      lambda: QExpr.q().evaluate(True), lambda: QExpr.q().coefficient(False)):
            with pytest.raises(TypeError, match="^expected an exact rational, got bool$"):
                build()

    def test_pole_error(self):
        frac = _cyclotomic_qfrac([1], [1], 0, 1)  # 1 / (q - 1)
        with pytest.raises(PoleError):
            frac.evaluate(1)

    @pytest.mark.parametrize("k", [2001, 251, 201, 3])
    def test_a_small_monomial_denominator_is_not_a_pole(self, k):
        # q^(-k/2) at q = 1/5 is 5^(k/2); its denominator q^(k/2) fell below what 64 shrinking steps
        # could certify from k = 251 on, and was refused as a pole
        slack = Fraction(1, 10**20)
        assert within_the_precision(QExpr.q(Fraction(-k, 2)).evaluate(Fraction(1, 5)), sqrt_oracle(5**k, 20), slack)
        # with a binomial factor: t^-k / (t - 1) at t = 5^(-1/2) is -5^((k+1)/2) (5^(1/2) + 1) / 4
        frac = _cyclotomic_qfrac([1], [1], -k, 2)
        assert frac.den == QExpr.q(Fraction(k + 1, 2)) - QExpr.q(Fraction(k, 2))
        target = -(5 ** ((k + 1) // 2)) * (sqrt_oracle(5, 800) + 1) / 4
        assert within_the_precision(frac.evaluate(Fraction(1, 5)), target, slack)

    def test_exact_value_against_term_by_term_powers(self):
        # The exact branch merges a homogeneous sum on ints pairwise, with an odd run left over at
        # most levels; the oracle sums Fraction powers.
        rng = random.Random(5)
        for _ in range(300):
            terms = [(rng.randint(-30, 30), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                     for _ in range(rng.randint(0, 40))]
            q0 = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            want = sum((c * q0**e for e, c in terms), Fraction(0))
            assert QExpr(terms).evaluate(q0) == want
        assert QExpr().evaluate(Fraction(2, 3)) == 0 and QExpr({0: Fraction(5, 7)}).evaluate(9) == Fraction(5, 7)
        # 1 + q + ... + q^2999 = (q^3000 - 1) / (q - 1), at q = 5 and at q = 2/3
        geometric = QExpr({e: 1 for e in range(3000)})
        assert geometric.evaluate(5) == (5**3000 - 1) // 4
        assert geometric.evaluate(Fraction(2, 3)) == (1 - Fraction(2, 3) ** 3000) * 3

    def test_one_root_against_the_per_term_oracle(self):
        # Exponents over r <= 12 at integral and fractional q0; the oracle is computed far inside
        # the precision, so the two must agree within it.
        rng = random.Random(1612)
        for _ in range(300):
            r = rng.randint(1, 12)
            expr = QExpr({Fraction(rng.randint(-3 * r, 3 * r), r): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(rng.randint(0, 8))})
            q0 = rng.choice((2, 5, 9, Fraction(2, 3), Fraction(1, 7)))
            assert expr.exponent_denominator() <= 12
            size = abs(per_term_value(expr, q0, DEFAULT_PRECISION))
            slack = min(DEFAULT_PRECISION, size / 10**20) / 10**6 or DEFAULT_PRECISION / 10**6
            assert within_the_precision(expr.evaluate(q0), per_term_value(expr, q0, slack), slack)

    def test_fraction_evaluate_past_a_coarse_precision(self):
        # QFrac.evaluate also takes the value within 10^-20 of its size, for the 15 printed digits;
        # at a size of 3.2 that is far inside DEFAULT_PRECISION.
        frac = _cyclotomic_qfrac([-1, 0, 1], [1], 0, 2)  # (q - 1) / (q^(1/2) - 1) = q^(1/2) + 1
        value = frac.evaluate(5)
        assert abs(value - sqrt_oracle(5, 40) - 1) <= value / 10**20 + Fraction(1, 10**40)

    def test_fraction_evaluate_fractional_exponents(self):
        # (q - 1)/(q^(1/2) - 1) = q^(1/2) + 1 at q = 5
        frac = _cyclotomic_qfrac([-1, 0, 1], [1], 0, 2)
        assert within_the_precision(frac.evaluate(5), sqrt_oracle(5, 40) + 1, Fraction(1, 10**40))


def within_the_precision(value: Fraction, target: Fraction, slack: Fraction) -> bool:
    """value is within DEFAULT_PRECISION and within 10^-20 of the size of target, a value known
    within slack, both widened by slack and by a share of 10^-6."""
    aim = min(DEFAULT_PRECISION, abs(target) / 10**20) * (1 + Fraction(1, 10**6))
    return abs(value - target) <= aim + 2 * slack


def per_term_value(expr: QExpr, q0, tol) -> Fraction:
    """Test-only oracle: the value at q0 within tol, one root of q0^numerator per fractional
    exponent by newton_root_from_a_power_of_two, each within its share of tol."""
    q0, total = Fraction(q0), Fraction(0)
    for e, c in expr.terms:
        if type(e) is int:
            total += c * q0**e
        else:
            # floor(2^bits x^(1/k)) / 2^bits is within 2^-bits of x^(1/k), for x = q0^numerator
            x, k = q0**e.numerator, e.denominator
            bits = math.ceil(len(expr.terms) * max(1, abs(c)) / tol).bit_length()
            root = newton_root_from_a_power_of_two((x.numerator << (bits * k)) // x.denominator, k)
            total += c * Fraction(root, 1 << bits)
    return total


def random_qexpr(rng: random.Random, max_terms: int = 4) -> QExpr:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[exp] = coeff
    return QExpr(terms)


class TestRingAxioms:
    N_CASES = 1000

    def test_axioms_on_random_triples(self):
        rng = random.Random(20260808)
        for _ in range(self.N_CASES):
            a = random_qexpr(rng)
            b = random_qexpr(rng)
            c = random_qexpr(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c

    def test_mul_div_roundtrip(self):
        # (a b) / b reduces to a: as a m m^-1 for a monomial m, by the reference for any other b.
        rng = random.Random(55)
        checked = 0
        while checked < 200:
            a = random_qexpr(rng)
            b = random_qexpr(rng)
            if b.is_zero:
                continue
            checked += 1
            m = QExpr({Fraction(rng.randint(-6, 6), rng.randint(1, 3)): Fraction(rng.randint(1, 9), rng.randint(1, 9))})
            assert QFrac(a * m * inverse(m)) == QFrac(a)
            assert reference_canonical_pair(a * b, b) == (QFrac(a).num, QFrac(a).den)

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(99)
        for _ in range(300):
            a = QExpr({rng.randint(-4, 4): Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 3))})
            b = QExpr({rng.randint(-4, 4): Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 3))})
            q0 = Fraction(rng.randint(1, 7), rng.randint(1, 3))
            assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
            assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)


class TestSerialization:
    def test_qexpr_roundtrip(self):
        # The CLI prints a value's terms as these quadruples; they rebuild it through the constructor.
        expr = QExpr({Fraction(-1, 2): Fraction(3, 4), 2: -5})
        data = expr.to_json()
        assert data == [[-1, 2, 3, 4], [2, 1, -5, 1]]
        assert QExpr((Fraction(en, ed), Fraction(cn, cd)) for en, ed, cn, cd in data) == expr


class TestInfinite:
    def test_singleton_and_repr(self):
        assert is_infinite(INFINITE)
        assert not is_infinite(QFrac(1))
        assert repr(INFINITE) == "Infinite"


def newton_root_from_a_power_of_two(n, k):
    """Test-only oracle: floor(n^(1/k)) by integer Newton from a power of two above the root."""
    if k == 1 or n in (0, 1):
        return n
    x = 1 << (-(-n.bit_length() // k) + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


class TestIntegerRoot:
    def test_matches_newton_from_a_power_of_two(self):
        rng = random.Random(5260)
        for _ in range(3000):
            k = rng.randint(1, 7)
            n = rng.getrandbits(rng.randint(1, 3000))
            base = rng.getrandbits(rng.randint(1, 3000 // k))
            for radicand in (n, base**k - 1, base**k, base**k + 1):
                if radicand >= 0:
                    assert _int_nth_root(radicand, k) == newton_root_from_a_power_of_two(radicand, k), (radicand, k)

    def test_scaled_quotients_and_large_degrees(self):
        # floor(2^shift (n / den)^(1/k)), as evaluate takes it, against the
        # oracle on the radicand (n 2^(shift k)) // den, for degrees up to the residue counts of
        # stringy values; the Newton start sits just above the float estimate, so roots below 1
        # and perfect powers (where the rounded powers leave the comparison open) are included.
        rng = random.Random(1613)
        for _ in range(1500):
            k = rng.choice((3, 4, 7, 12, 31, 97, 200, 997))
            shift = rng.choice((0, rng.randint(0, 6000 // k)))
            den = rng.choice((1, 3, rng.getrandbits(rng.randint(1, 200)) | 1, (rng.getrandbits(4) + 1) ** k))
            base = rng.getrandbits(rng.randint(1, 60 if k < 100 else 8)) | 1
            for n in (rng.getrandbits(rng.randint(1, 400)), base**k - 1, base**k, base**k + 1):
                want = newton_root_from_a_power_of_two((n << (shift * k)) // den, k)
                assert _int_nth_root(n, k, den, shift) == want, (n, k, den, shift)

    def test_work_follows_the_root_not_the_radicand(self):
        # 2^14060 2^(1/9973) has 14,061 bits; its radicand 2^(14060 * 9973 + 1) has 140 million.
        start = time.perf_counter()
        root = _int_nth_root(2, 9973, 1, 14060)
        assert time.perf_counter() - start < 1
        assert root.bit_length() == 14061 and root >> 14000 == _int_nth_root(2, 9973, 1, 60)

    def test_small_and_invalid_radicands(self):
        assert [_int_nth_root(n, 3) for n in range(30)] == [newton_root_from_a_power_of_two(n, 3) for n in range(30)]
        with pytest.raises(ValueError):
            _int_nth_root(-1, 3)


class TestCanonicalExponents:
    def test_integral_exponents_are_ints(self):
        half = QExpr.q(Fraction(1, 2))
        # (t^2 - 1)(t^4 + 1) / (t^4 - 1) = (q^2 + 1) / (q + 1), via t = q^(1/2)
        reduced = _cyclotomic_qfrac([-1, 0, 1, 0, -1, 0, 1], [4], 0, 2)
        for expr in (QExpr.q(Fraction(4, 2)), half * half, QExpr({Fraction(1, 3): 0, 2: 1}),
                     (QExpr.q(3) * half).scale_exponents(2), reduced.num, reduced.den):
            assert expr.terms and all(type(e) is int for e, _ in expr.terms), expr
        # q -> q^k only for an int k >= 1
        for k, error in ((Fraction(3, 2), TypeError), (2.5, TypeError), (0, ValueError), (-1, ValueError)):
            with pytest.raises(error):
                QExpr.q().scale_exponents(k)

    def test_fractional_exponents_stay_reduced_fractions(self):
        (exponent, _), = (QExpr.q(Fraction(1, 3)) * QExpr.q(Fraction(1, 6))).terms
        assert exponent == Fraction(1, 2) and isinstance(exponent, Fraction)


class TestHashAgreesWithEquality:
    # A QExpr equals its constant's rational; a QFrac equals only a QFrac, whatever value built it.
    CASES = [
        (QFrac(QExpr.q(-1)), QFrac(QExpr({-1: 3}) / 3)),
        (QExpr({0: 3}), 3),
        (QFrac(3), QFrac(QExpr.q(Fraction(1, 2)) * 6 * inverse(QExpr.q(Fraction(1, 2)) * 2))),
        (QExpr({0: Fraction(-2, 3)}), Fraction(-2, 3)),
        (QExpr(), 0),
        (QFrac(0), QFrac(QExpr() * QExpr.q(-3))),
        (QFrac(QExpr.q(-2)), QFrac(QExpr.q(-1) * QExpr.q(-1))),
        (QFrac((QExpr.q(Fraction(1, 2)) + 1) * QExpr.q(Fraction(-3, 2))), QFrac(QExpr({-1: 1, Fraction(-3, 2): 1}))),
    ]

    @pytest.mark.parametrize("a, b", CASES)
    def test_equal_values_hash_alike(self, a, b):
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_a_fraction_equals_only_a_fraction(self):
        q = QExpr.q()
        for frac, value in ((QFrac(q), q), (QFrac(7), 7), (QFrac(Fraction(1, 2)), Fraction(1, 2))):
            assert frac != value and value != frac and frac.__eq__(value) is NotImplemented
            assert frac == QFrac(value) and len({frac, QFrac(value), value}) == 2

    def test_non_laurent_fraction_differs_from_its_numerator(self):
        frac = q_over_q_plus_one()
        assert frac != QExpr.q()
        assert len({frac, q_over_q_plus_one(), QExpr.q()}) == 2


class TestExactNumbers:
    """A bool is not an exact number: every reader refuses it, as numutil.is_exact_rational does."""

    @pytest.mark.parametrize("build", [
        lambda: QExpr.q() + True, lambda: True * QExpr.q(), lambda: QExpr.q() - True, lambda: False - QExpr.q(),
        lambda: QExpr.q() * False, lambda: QExpr.q() / True, lambda: QFrac(True),
        lambda: TruncatedSeries([True, 1]), lambda: QExpr.q().scale_exponents(True),
    ], ids=["add", "rmul", "sub", "rsub", "mul", "truediv", "qfrac", "series", "scale"])
    def test_a_bool_is_refused(self, build):
        # q + True was q + 1, QFrac(True) was 1 and TruncatedSeries([True, 1]).log() ran
        with pytest.raises(TypeError):
            build()

    def test_a_bool_equals_no_constant(self):
        # QExpr.one() == True was true
        assert QExpr.one() != True and QExpr() != False and not QExpr.one() == True
        for one in (1, Fraction(1)):
            assert QExpr.one() == one and hash(QExpr.one()) == hash(one)
        assert QExpr() == 0 and hash(QExpr()) == hash(0)


class TestScalarDivision:
    def test_scalar_quotient_stays_laurent(self):
        x = QExpr({Fraction(3, 2): 2, -1: 5})
        for scalar in (2, -3, Fraction(2, 3)):
            quotient = x / scalar
            assert type(quotient) is QExpr
            assert quotient == x * Fraction(1, scalar)
            assert quotient * scalar == x

    def test_division_by_zero_scalar(self):
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                QExpr.q() / zero

    def test_expression_quotient_is_a_type_error(self):
        # A quotient comes from the cyclotomic builder; QExpr / QExpr is not defined, not even
        # for a monomial.
        q = QExpr.q()
        for build in (lambda: q / (q + 1), lambda: q / q, lambda: 1 / q, lambda: Fraction(1, 2) / (q + 1)):
            with pytest.raises(TypeError):
                build()


class TestValueType:
    def test_qfrac_does_no_arithmetic(self):
        q = QExpr.q()
        frac = q_over_q_plus_one()
        for other in (frac, 2, Fraction(1, 2), q):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(frac, other)
                with pytest.raises(TypeError):
                    op(other, frac)
        with pytest.raises(TypeError):
            frac ** 2
        with pytest.raises(TypeError):
            -frac
        assert not hasattr(frac, "scale_exponents")

    def test_nested_fraction_is_not_built(self):
        with pytest.raises(TypeError):
            QFrac(q_over_q_plus_one())

    def test_built_from_one_value(self):
        # A second argument is a TypeError like any other wrong call: a monomial, a zero, a
        # binomial or a fraction alike.  One Laurent value is the reference's pair over 1.
        q = QExpr.q()
        for args in ((q, QExpr.q(2)), (1, 2), (q, 0), (QExpr.one(), QExpr()), (q, q + 1), (0, q - 1),
                     (1, QExpr.q(Fraction(1, 997)) - 1), (q_over_q_plus_one(), q), (1, q_over_q_plus_one())):
            with pytest.raises(TypeError):
                QFrac(*args)
        for value in (QExpr({Fraction(3, 2): 2, -1: 5}), QExpr.q(Fraction(-1, 3)), QExpr(), 7, 0, Fraction(-2, 3)):
            frac, num = QFrac(value), value if isinstance(value, QExpr) else QExpr({0: value})
            assert (frac.num, frac.den) == reference_canonical_pair(num, QExpr.one())
        # Every QExpr, the constructor's included, is _make's canonical value.
        assert "__init__" not in vars(QExpr) and type(QExpr({Fraction(2, 4): 3})) is QExpr


# The three ways a value is copied: copy and pickle both hand it its state through __setstate__.
ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]


def assert_round_trips(value):
    for round_trip in ROUND_TRIPS:
        other = round_trip(value)
        assert type(other) is type(value)
        assert (other, hash(other), str(other)) == (value, hash(value), str(value))


class TestFrozen:
    """The value types share one immutability guard, which copy and pickle get past."""

    def test_values_copy_and_pickle(self):
        q = QExpr.q()
        values = [3 * QExpr.q(2) - q + Fraction(1, 2), QExpr({Fraction(-1, 3): 2, Fraction(5, 2): Fraction(-7, 4)}),
                  QFrac(QExpr.q(-2) + Fraction(2, 3) * q), stringy_point_contribution(0, ["1/2", "-1/3"])]
        assert isinstance(values[-1], QFrac) and values[-1].den != QExpr.one()
        for value in values:
            assert_round_trips(value)

    def test_infinite_stays_the_one_instance(self):
        for round_trip in ROUND_TRIPS:
            assert round_trip(INFINITE) is INFINITE

    def test_infinite_is_kept_by_pickles_protocol(self):
        # by __reduce__, naming the module-level object, not by a singleton __new__
        assert "_instance" not in vars(InfiniteType) and "__new__" not in vars(InfiniteType)
        assert INFINITE.__reduce__() == "INFINITE"
        assert all(value is INFINITE for value in pickle.loads(pickle.dumps([INFINITE, INFINITE])))
        assert is_infinite(INFINITE) and repr(INFINITE) == "Infinite"

    def test_assignment_is_refused(self):
        frac = q_over_q_plus_one()
        for value, name in ((frac, "num"), (frac, "den"), (frac.num, "_nums")):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                setattr(value, name, QExpr.one())
        assert frac == q_over_q_plus_one() and frac.num == QExpr.q()
        assert "__setattr__" not in vars(QExpr) and "__setattr__" not in vars(QFrac)

    def test_deletion_is_refused(self):
        # del went through object.__delattr__ and emptied the slot; str() and hash() then raised
        frac, expr = q_over_q_plus_one(), QExpr.q() + 1
        for value, name in ((frac, "num"), (frac, "den"), (expr, "_nums"), (frac.num, "_r")):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                delattr(value, name)
        assert frac == q_over_q_plus_one() and expr == QExpr.q() + 1
        assert_round_trips(frac)
        assert_round_trips(expr)


class TestNoRepeatedCanonicalization:
    @staticmethod
    def count_calls(monkeypatch):
        from wildmckay import qexpr

        calls = []
        canonical = qexpr._canonical_pair

        def counted(num, den):
            calls.append((num, den))
            return canonical(num, den)

        monkeypatch.setattr(qexpr, "_canonical_pair", counted)
        return calls

    def test_comparison_with_laurent_values(self, monkeypatch):
        q = QExpr.q()
        frac, laurent = q_over_q_plus_one(), QFrac((q + 1) * QExpr.q(-2))
        one, three_halves = QFrac(QExpr.q(2) * QExpr.q(-2)), QFrac(Fraction(6, 4))
        calls = self.count_calls(monkeypatch)
        for _ in range(10):
            assert not frac == 7
        assert frac != q and q != frac and frac != Fraction(1, 2)
        # A QFrac with a monomial denominator is still not equal to its QExpr or rational.
        assert laurent != QExpr({-1: 1, -2: 1}) and QExpr({-1: 1, -2: 1}) != laurent
        assert laurent != QExpr.q(-1) and laurent != 0
        assert one != 1 and three_halves != Fraction(3, 2) and three_halves != 1
        assert calls == []


class TestSympyOracle:
    """Kernel sums and products, and the quotients of the Fraction-Euclid
    reference, against sympy.cancel, with q = t^6 (every random exponent is
    a multiple of 1/2 or 1/3).  A canonical QFrac is the coprime pair of
    polynomials in t with a monic denominator, so it must match sympy's
    reduced fraction exactly once that is made monic."""

    R = 6

    @staticmethod
    def random_expr(rng: random.Random) -> QExpr:
        r = rng.choice((1, 1, 2, 3))
        return QExpr({Fraction(rng.randint(-3, 4), r): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})

    def test_random_sums_products_quotients(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")

        def laurent(expr):
            return sum(sympy.Rational(c.numerator, c.denominator) * t ** int(e * self.R) for e, c in expr.terms)

        rng = random.Random(20261018)
        checked = 0
        while checked < 20:
            a, b, c, d = (self.random_expr(rng) for _ in range(4))
            if b.is_zero or c.is_zero or d.is_zero:
                continue
            checked += 1
            sa, sb, sc, sd = (laurent(v) for v in (a, b, c, d))
            # a/b + c/d, (a/b)(c/d) and (a/b)/(c/d), each one fraction cross-multiplied in QExpr.
            cases = [
                ((QFrac(a + b).num, QFrac(a + b).den), sa + sb), ((QFrac(a * b).num, QFrac(a * b).den), sa * sb),
                (reference_canonical_pair(a * d + c * b, b * d), sa / sb + sc / sd),
                (reference_canonical_pair(a * c, b * d), sa * sc / (sb * sd)),
                (reference_canonical_pair(a * d, b * c), sa * sd / (sb * sc)),
                (reference_canonical_pair(a * c, b * c), sa / sb),
            ]
            for (pair_num, pair_den), want in cases:
                num, den = sympy.fraction(sympy.cancel(want))
                lead = sympy.Poly(den, t).LC()
                assert sympy.expand(laurent(pair_num) - num / lead) == 0, (pair_num, pair_den, want)
                assert sympy.expand(laurent(pair_den) - den / lead) == 0, (pair_num, pair_den, want)


# ---------------------------------------------------------------------------
# Test-only oracles for the integer-numerator kernel: the Fraction-Euclid
# canonical form of tests/reference.py, and a {exponent: Fraction} dict model.
# ---------------------------------------------------------------------------


def random_terms(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Term pairs with fractional exponents, negative, zero and non-integer
    coefficients, and pairs that cancel."""
    terms = []
    for _ in range(rng.randint(0, 5)):
        e = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        c = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 9)))
        terms.append((e, c))
        if rng.random() < 0.2:
            terms.append((e, -c))
    return terms


def model(terms) -> dict:
    """The dict reference: exponent -> nonzero Fraction coefficient."""
    acc = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if c}


def model_of(expr: QExpr) -> dict:
    """The expression's value as a dict, with its canonical-form invariants checked."""
    exponents = [e for e, _ in expr.terms]
    assert exponents == sorted(exponents)
    assert all(type(e) is int if e.denominator == 1 else type(e) is Fraction for e in exponents)
    assert expr.exponent_denominator() == math.lcm(*[e.denominator for e in exponents])
    assert expr._den > 0 and math.gcd(expr._den, *(n for _, n in expr._nums)) == 1
    assert all(c for _, c in expr.terms)
    return dict(expr.terms)


class TestIntegerKernelOracles:
    N_CASES = 400
    N_FRACTIONS = 100

    def test_arithmetic_against_the_dict_model(self):
        rng = random.Random(20261019)
        for _ in range(self.N_CASES):
            ta, tb = random_terms(rng), random_terms(rng)
            a, b, ma, mb = QExpr(ta), QExpr(tb), model(ta), model(tb)
            assert model_of(a) == ma and model_of(b) == mb
            product = {}
            for ea, ca in ma.items():
                for eb, cb in mb.items():
                    product[ea + eb] = product.get(ea + eb, 0) + ca * cb
            assert model_of(a + b) == model(list(ma.items()) + list(mb.items()))
            assert model_of(a - b) == model(list(ma.items()) + [(e, -c) for e, c in mb.items()])
            assert model_of(a * b) == model(product.items())
            assert (a - a).is_zero and a + (-a) == QExpr() == a * 0
            scalar = rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9)))
            assert model_of(a * scalar) == model((e, c * scalar) for e, c in ma.items())
            assert model_of(scalar * a) == model_of(a * scalar)
            if scalar:
                assert model_of(a / scalar) == model((e, c / scalar) for e, c in ma.items())
            assert model_of(a + scalar) == model(list(ma.items()) + [(0, scalar)])
            assert model_of(scalar - a) == model([(0, scalar)] + [(e, -c) for e, c in ma.items()])

    def test_constants_hash_like_their_rationals(self):
        rng = random.Random(7)
        for _ in range(200):
            x = rng.choice((rng.randint(-10**30, 10**30), Fraction(rng.randint(-99, 99), rng.randint(1, 99))))
            assert QExpr({0: x}) == x and hash(QExpr({0: x})) == hash(x)
            assert hash(QExpr({0: x}) + QExpr.q(Fraction(1, 3)) - QExpr.q(Fraction(1, 3))) == hash(x)
        # A fractional exponent that cancels leaves r == 1 behind, as for the constants above.
        q = QExpr.q(Fraction(1, 2)) + QExpr.q() - QExpr.q(Fraction(1, 2))
        assert q == QExpr.q() and hash(q) == hash(QExpr.q()) and q.exponent_denominator() == 1

    def test_qfrac_build_against_the_fraction_euclid_oracle(self):
        # Both builders: a random numerator over a monomial, and over the same monomial times a
        # common one; and random integer rows t^shift a(t) over a product of binomials t^k - 1, a
        # times some of those binomials half the time, as stringy sums reach the cyclotomic builder.
        def monomial():
            return QExpr({Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))): rng.choice((-1, 1)) * Fraction(
                rng.randint(1, 12), rng.choice((1, 2, 3, 4, 9)))})

        rng = random.Random(1412)
        checked = gcds = 0
        while checked < self.N_FRACTIONS:
            num, den, common = QExpr(random_terms(rng)), monomial(), monomial()
            if num.is_zero:
                continue
            checked += 1
            r, ks, shift = rng.choice((1, 2, 3)), [rng.randint(1, 6) for _ in range(rng.randint(1, 3))], rng.randint(-4, 4)
            a = [rng.choice((-1, 1)) * rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
            a[-1] = a[-1] or 1
            for k in ks if rng.random() < 0.5 else ():
                if rng.random() < 0.7:
                    a = [x - y for x, y in zip([0] * k + a, a + [0] * k)]  # a (t^k - 1)
            binomials = math.prod([QExpr.q(Fraction(k, r)) - 1 for k in ks], start=QExpr.one())
            cyclotomic = _cyclotomic_qfrac(a, ks, shift, r)
            builds = [(QFrac(num * inverse(den)), num, den),
                      (QFrac(num * common * inverse(den * common)), num * common, den * common),
                      (cyclotomic, QExpr({Fraction(shift + i, r): c for i, c in enumerate(a)}), binomials)]
            for frac, top, bottom in builds:
                want = reference_canonical_pair(top, bottom)
                assert (frac.num, frac.den) == want, (top, bottom)
                assert model_of(frac.num) == model(want[0].terms) and model_of(frac.den) == model(want[1].terms)
            # a common factor cancelled: the denominator is below the binomials times t^max(-shift, 0)
            gcds += cyclotomic.den.terms[-1][0] < binomials.terms[-1][0] + Fraction(max(-shift, 0), r)
        assert gcds > self.N_FRACTIONS // 3, gcds
