"""Tests for the exact q-arithmetic kernel."""

import math
import operator
import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from wildmckay.qexpr import (
    INFINITE,
    PoleError,
    QExpr,
    QFrac,
    _int_nth_root,
    is_infinite,
)


def sqrt_oracle(n: int, digits: int) -> Fraction:
    """Independent square-root approximation: integer isqrt at fixed scale."""
    scale = 10**digits
    return Fraction(isqrt(n * scale * scale), scale)


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
        num = QExpr.q() - 1
        den = QExpr.q(Fraction(1, 2)) - 1
        result = num / den
        assert result.num == QExpr.q(Fraction(1, 2)) + 1
        assert result.den == QExpr.one()

    def test_division_with_nontrivial_denominator(self):
        # In t = q^(1/3): (t^3 - 1)/(t^2 - 1); gcd is t - 1, leaving
        # (t^2 + t + 1)/(t + 1), which is not a polynomial.
        num = QExpr.q() - 1
        den = QExpr.q(Fraction(2, 3)) - 1
        result = num / den
        third = Fraction(1, 3)
        assert result.num == QExpr({2 * third: 1, third: 1, 0: 1})
        assert result.den == QExpr({third: 1, 0: 1})

    def test_additive_identity(self):
        x = QExpr({Fraction(3, 2): 2, -1: 5})
        assert x + QExpr() == x
        assert QFrac(x + 0, QExpr.q() + 1) == QFrac(x, QExpr.q() + 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QExpr.one() / QExpr()
        with pytest.raises(ZeroDivisionError):
            QFrac(QExpr.one(), QExpr())

    def test_fraction_cancellation_is_canonical(self):
        q = QExpr.q()
        a = QFrac((q - 1) * (q + 1), (q - 1) * q)
        b = QFrac(q + 1, q)
        assert a == b
        assert hash(a) == hash(b)

    def test_negative_exponent_normalization(self):
        # q^(-2) and 1/q^2 canonicalize identically.
        assert QFrac(QExpr.q(-2)) == QFrac(1, QExpr.q(2))


class TestEvaluate:
    def test_serre_shape_at_5(self):
        # q^(1-n) with n = 2
        assert QExpr.q(-1).evaluate(5) == Fraction(1, 5)

    def test_polynomial_value(self):
        expr = QExpr.q(4) + QExpr.q(3)
        assert expr.evaluate(5) == 750

    def test_sqrt_approximation(self):
        expr = QExpr.q(Fraction(1, 2)) + 1
        tol = Fraction(1, 10**9)
        value = expr.evaluate(5, precision=tol)
        target = sqrt_oracle(5, 15) + 1
        assert abs(value - target) <= tol + Fraction(1, 10**15)

    def test_fractional_requires_precision(self):
        with pytest.raises(ValueError):
            QExpr.q(Fraction(1, 2)).evaluate(5)

    def test_pole_error(self):
        frac = QFrac(1, QExpr.q() - 1)
        with pytest.raises(PoleError):
            frac.evaluate(1)

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
        # Exponents over r <= 12 at integral and fractional q0, precisions from coarse to fine; the
        # oracle is computed far inside the precision, so the two must agree within it.
        rng = random.Random(1612)
        for _ in range(300):
            r = rng.randint(1, 12)
            expr = QExpr({Fraction(rng.randint(-3 * r, 3 * r), r): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(rng.randint(0, 8))})
            q0 = rng.choice((2, 5, 9, Fraction(2, 3), Fraction(1, 7)))
            tol = Fraction(1, 10 ** rng.choice((3, 12, 30)))
            assert expr.exponent_denominator() <= 12
            assert abs(expr.evaluate(q0, tol) - per_term_value(expr, q0, tol / 10**6)) <= tol * (1 + Fraction(1, 10**6))

    def test_fraction_evaluate_past_a_coarse_precision(self):
        # QFrac.evaluate also takes the value within 10^-20 of its size, for the 15 printed digits.
        frac = QFrac(QExpr.q() - 1, QExpr.q(Fraction(1, 2)) - 1)  # q^(1/2) + 1
        value = frac.evaluate(5, precision=Fraction(1, 10**3))
        assert abs(value - sqrt_oracle(5, 40) - 1) <= value / 10**20 + Fraction(1, 10**40)

    def test_fraction_evaluate_fractional_exponents(self):
        # (q - 1)/(q^(1/2) - 1) = q^(1/2) + 1 at q = 5
        frac = QFrac(QExpr.q() - 1, QExpr.q(Fraction(1, 2)) - 1)
        tol = Fraction(1, 10**9)
        value = frac.evaluate(5, precision=tol)
        target = sqrt_oracle(5, 15) + 1
        assert abs(value - target) <= 2 * tol


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
        rng = random.Random(55)
        checked = 0
        while checked < 200:
            a = random_qexpr(rng)
            b = random_qexpr(rng)
            if b.is_zero:
                continue
            checked += 1
            assert QFrac(a * b, b) == QFrac(a) == a

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
        # (q^(5/2) + q^(1/2)) / (q^(3/2) + q^(1/2)) = (q^2 + 1) / (q + 1), via t = q^(1/2)
        reduced = QFrac(QExpr.q(Fraction(5, 2)) + half, QExpr.q(Fraction(3, 2)) + half)
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
    CASES = [
        (QExpr.q(-1), QFrac(QExpr.q(-1))),
        (QExpr({0: 3}), 3),
        (QFrac(3), 3),
        (QExpr({0: Fraction(-2, 3)}), Fraction(-2, 3)),
        (QExpr(), 0),
        (QFrac(0), QExpr()),
        (QFrac(1, QExpr.q(2)), QExpr.q(-2)),
        (QFrac(QExpr.q(Fraction(1, 2)) + 1, QExpr.q(Fraction(3, 2))), QExpr({-1: 1, Fraction(-3, 2): 1})),
    ]

    @pytest.mark.parametrize("a, b", CASES)
    def test_equal_values_hash_alike(self, a, b):
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_non_laurent_fraction_differs_from_its_numerator(self):
        frac = QFrac(QExpr.q(), QExpr.q() + 1)
        assert frac != QExpr.q()
        assert len({frac, QFrac(QExpr.q(), QExpr.q() + 1), QExpr.q()}) == 2


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

    def test_expression_quotient_stays_fraction(self):
        q = QExpr.q()
        assert type(q / (q + 1)) is QFrac
        assert type(q / q) is QFrac


class TestValueType:
    def test_qfrac_does_no_arithmetic(self):
        q = QExpr.q()
        frac = QFrac(q, q + 1)
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
        q = QExpr.q()
        with pytest.raises(TypeError):
            QFrac(QFrac(q, q + 1), q)
        with pytest.raises(TypeError):
            QFrac(1, QFrac(q, q + 1))


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
        frac, laurent = QFrac(q, q + 1), QFrac(q + 1, QExpr.q(2))
        one, three_halves = QFrac(QExpr.q(2), QExpr.q(2)), QFrac(6, 4)
        calls = self.count_calls(monkeypatch)
        for _ in range(10):
            assert not frac == 7
        assert frac != q and q != frac and frac != Fraction(1, 2)
        assert laurent == QExpr({-1: 1, -2: 1}) and QExpr({-1: 1, -2: 1}) == laurent
        assert laurent != QExpr.q(-1) and laurent != 0
        assert one == 1 and three_halves == Fraction(3, 2) and three_halves != 1
        assert calls == []

    def test_copy_of_a_fraction(self, monkeypatch):
        q = QExpr.q()
        frac = QFrac(q, q + 1)
        calls = self.count_calls(monkeypatch)
        copy = QFrac(frac)
        assert calls == []
        assert (copy.num, copy.den) == (frac.num, frac.den) and copy == frac


class TestSympyOracle:
    """Kernel results against sympy.cancel, with q = t^6 (every random
    exponent is a multiple of 1/2 or 1/3).  A canonical QFrac is the
    coprime pair of polynomials in t with a monic denominator, so it must
    match sympy's reduced fraction exactly once that is made monic."""

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
                (a + b, sa + sb), (a * b, sa * sb), (QFrac(a * d + c * b, b * d), sa / sb + sc / sd),
                (QFrac(a * c, b * d), sa * sc / (sb * sd)), (QFrac(a * d, b * c), sa * sd / (sb * sc)),
                (QFrac(a * c, b * c), sa / sb),
            ]
            for result, want in cases:
                num, den = sympy.fraction(sympy.cancel(want))
                lead = sympy.Poly(den, t).LC()
                frac = QFrac(result)
                assert sympy.expand(laurent(frac.num) - num / lead) == 0, (result, want)
                assert sympy.expand(laurent(frac.den) - den / lead) == 0, (result, want)


# ---------------------------------------------------------------------------
# Test-only oracles for the integer-numerator kernel: the Fraction-Euclid
# canonicalization it replaced, and a {exponent: Fraction} dict model.
# ---------------------------------------------------------------------------


def _poly_strip(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
        if not _poly_strip(rem):
            break
    return _poly_strip(quo), rem


def _poly_gcd(a, b):
    """Monic gcd in Q[t] by the Euclidean algorithm."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def reference_canonical_pair(num: QExpr, den: QExpr) -> tuple[QExpr, QExpr]:
    """QFrac canonical form by Euclid over Fraction coefficients: over t = q^(1/r),
    shifted to valuation 0, divided by the monic gcd, denominator made monic."""
    if len(den.terms) == 1:
        (e0, c0), = den.terms
        shifted = QExpr({e - e0: c / c0 for e, c in num.terms})
        low = min(shifted.terms[0][0], 0)
        return QExpr({e - low: c for e, c in shifted.terms}), QExpr.q(-low)
    r = math.lcm(num.exponent_denominator(), den.exponent_denominator())
    shift = min(num.terms[0][0], den.terms[0][0])

    def dense(expr):
        out = [Fraction(0)] * (int((expr.terms[-1][0] - shift) * r) + 1)
        for e, c in expr.terms:
            out[int((e - shift) * r)] = c
        return out

    a, b = dense(num), dense(den)
    g = _poly_gcd(a, b)
    if len(g) > 1:
        (a, rem_a), (b, rem_b) = _poly_divmod(a, g), _poly_divmod(b, g)
        assert not rem_a and not rem_b
    return tuple(QExpr({Fraction(i, r): c / b[-1] for i, c in enumerate(cs)}) for cs in (a, b))


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
    N_FRACTIONS = 100  # the Fraction-Euclid oracle is about 30x slower than the kernel

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
        rng = random.Random(1412)
        checked = gcds = 0
        while checked < self.N_FRACTIONS:
            num, den, common = (QExpr(random_terms(rng)) for _ in range(3))
            if num.is_zero or den.is_zero or common.is_zero:
                continue
            checked += 1
            for top, bottom in ((num, den), (num * common, den * common)):
                frac = QFrac(top, bottom)
                want = reference_canonical_pair(top, bottom)
                assert (frac.num, frac.den) == want, (top, bottom)
                assert model_of(frac.num) == model(want[0].terms) and model_of(frac.den) == model(want[1].terms)
                gcds += len(bottom.terms) > 1
        assert gcds > self.N_FRACTIONS  # most builds take the polynomial gcd path
