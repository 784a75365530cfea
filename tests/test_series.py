"""Tests for truncated power series, exp and log."""

import random
from fractions import Fraction

import pytest

from wildmckay.qexpr import QExpr, QFrac
from wildmckay.series import ConstantTermError, TruncatedSeries


def series(*coeffs, truncation=None):
    return TruncatedSeries(coeffs, truncation)


class TestMul:
    def test_difference_of_squares(self):
        a = series(1, 1, truncation=2)
        b = series(1, -1, truncation=2)
        assert a * b == series(1, 0, -1)

    def test_multiplicative_identity(self):
        a = series(3, Fraction(1, 2), QExpr.q(-1), truncation=4)
        assert a * TruncatedSeries.one(4) == a

    def test_geometric_series_inverse(self):
        geometric = series(1, 1, 1, 1, 1)
        assert geometric * series(1, -1, truncation=4) == series(1, 0, 0, 0, 0)

    def test_truncation_is_min(self):
        a = TruncatedSeries.one(3)
        b = TruncatedSeries.one(7)
        assert (a * b).truncation == 3
        assert (a + b).truncation == 3


class TestExp:
    def test_exp_x(self):
        e = TruncatedSeries.x(4).exp()
        assert e == series(1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))

    def test_exp_zero(self):
        assert TruncatedSeries.zero(6).exp() == TruncatedSeries.one(6)

    def test_exp_degree_two_mass_shape(self):
        # Hand expansion: exp(x + (q^-1 + 1/2) x^2) = 1 + x + (q^-1 + 1/2 + 1/2) x^2 + ...
        inner = series(0, 1, QExpr.q(-1) + Fraction(1, 2))
        result = inner.exp()
        assert result.coefficient(2) == QExpr.q(-1) + 1

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(ConstantTermError):
            TruncatedSeries.one(3).exp()


class TestLog:
    def test_mercator(self):
        l = series(1, 1, truncation=3).log()
        assert l == series(0, 1, Fraction(-1, 2), Fraction(1, 3))

    def test_log_exp_inverse_pair(self):
        x = TruncatedSeries.x(6)
        assert x.exp().log() == x

    def test_constant_term_must_be_one(self):
        with pytest.raises(ConstantTermError):
            series(0, 1, truncation=2).log()


def random_zero_constant_series(rng: random.Random, truncation: int) -> TruncatedSeries:
    coeffs = [0]
    for _ in range(truncation):
        num = QExpr({rng.randint(-2, 2): Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 2))})
        coeffs.append(num + Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return TruncatedSeries(coeffs)


class TestInverseProperties:
    def test_exp_log_roundtrip_up_to_degree_12(self):
        rng = random.Random(4242)
        for _ in range(8):
            s = random_zero_constant_series(rng, 12)
            assert s.exp().log() == s
        for _ in range(8):
            s = random_zero_constant_series(rng, 12)
            m = s.exp()
            assert m.log().exp() == m

    def test_exp_is_a_homomorphism(self):
        rng = random.Random(777)
        for _ in range(8):
            a = random_zero_constant_series(rng, 8)
            b = random_zero_constant_series(rng, 8)
            assert (a + b).exp() == a.exp() * b.exp()


class TestCoefficientRing:
    def test_laurent_values_become_qexpr(self):
        s = series(3, Fraction(1, 2), QExpr.q(-2), QExpr({Fraction(1, 2): 1, Fraction(-1, 2): 1}))
        assert all(type(c) is QExpr for c in s.coefficients)
        assert s.coefficient(0) == QExpr.const(3) and s.coefficient(1) == QExpr.const(Fraction(1, 2))
        assert all(type(c) is QExpr for c in (s * 2).coefficients + (s * Fraction(1, 3)).coefficients)

    def test_qfrac_coefficient_is_a_type_error(self):
        q = QExpr.q()
        for value in (QFrac(q, q + 1), QFrac(1, QExpr.q(2)), 1.5, "q"):
            with pytest.raises(TypeError):
                series(0, value, truncation=3)
            with pytest.raises(TypeError):
                series(1, 1, truncation=3) * value
        with pytest.raises(TypeError):
            QFrac(q, q + 1) * series(1, 1, truncation=3)

    def test_one_representation_per_value(self):
        from_rationals = series(1, Fraction(2, 4), 0, truncation=3)
        from_laurent = series(QExpr.one(), QExpr.const(Fraction(1, 2)), QExpr.q(2) - QExpr.q(2), truncation=3)
        assert from_rationals == from_laurent
        assert hash(from_rationals) == hash(from_laurent)
        assert len({from_rationals, from_laurent}) == 1

    def test_exp_log_roundtrip_with_fractional_exponents(self):
        rng = random.Random(1018)
        for _ in range(4):
            s = random_zero_constant_series(rng, 5)
            half = QExpr({Fraction(rng.randint(-3, 3), 2): rng.randint(1, 3), Fraction(1, 3): -1})
            mixed = s + series(0, 0, half, truncation=5)
            assert mixed.exp().log() == mixed
            m = mixed.exp()
            assert m.log().exp() == m
