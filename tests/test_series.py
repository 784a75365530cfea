"""Tests for truncated power series, exp and log."""

import random
from fractions import Fraction

import pytest

from wildmckay import massformulas
from wildmckay.numutil import BudgetExceededError
from wildmckay.qexpr import DENSE_DEGREE_BUDGET, QExpr, QFrac, _cyclotomic_qfrac
from wildmckay.series import ConstantTermError, TruncatedSeries


def series(*coeffs, truncation=None):
    """The series of coeffs, padded with zeros through degree truncation."""
    padding = 0 if truncation is None else truncation + 1 - len(coeffs)
    return TruncatedSeries(list(coeffs) + [0] * padding)


class TestExp:
    def test_exp_x(self):
        e = series(0, 1, truncation=4).exp()
        assert e == series(1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))

    def test_exp_zero(self):
        assert series(0, truncation=6).exp() == series(1, truncation=6)

    def test_exp_degree_two_mass_shape(self):
        # Hand expansion: exp(x + (q^-1 + 1/2) x^2) = 1 + x + (q^-1 + 1/2 + 1/2) x^2 + ...
        inner = series(0, 1, QExpr.q(-1) + Fraction(1, 2))
        result = inner.exp()
        assert result.coefficient(2) == QExpr.q(-1) + 1

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(ConstantTermError):
            series(1, truncation=3).exp()


class TestLog:
    def test_mercator(self):
        l = series(1, 1, truncation=3).log()
        assert l == series(0, 1, Fraction(-1, 2), Fraction(1, 3))

    def test_log_exp_inverse_pair(self):
        x = series(0, 1, truncation=6)
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
            total = TruncatedSeries([x + y for x, y in zip(a.coefficients, b.coefficients)])
            assert total.exp() == oracle_mul(a.exp(), b.exp())


class TestCoefficientRing:
    def test_laurent_values_become_qexpr(self):
        s = series(3, Fraction(1, 2), QExpr.q(-2), QExpr({Fraction(1, 2): 1, Fraction(-1, 2): 1}))
        assert all(type(c) is QExpr for c in s.coefficients)
        assert s.coefficient(0) == QExpr({0: 3}) and s.coefficient(1) == QExpr({0: Fraction(1, 2)})
        tail = s.coefficients[1:]
        assert all(type(c) is QExpr for c in series(0, *tail).exp().coefficients + series(1, *tail).log().coefficients)

    def test_qfrac_coefficient_is_a_type_error(self):
        q_over_q_plus_one = _cyclotomic_qfrac([-1, 1], [2], 1, 1)  # q (q - 1) / (q^2 - 1)
        for value in (q_over_q_plus_one, QFrac(1, QExpr.q(2)), 1.5, "q"):
            with pytest.raises(TypeError):
                series(0, value, truncation=3)

    def test_one_representation_per_value(self):
        from_rationals = series(1, Fraction(2, 4), 0, truncation=3)
        from_laurent = series(QExpr.one(), QExpr({0: Fraction(1, 2)}), QExpr.q(2) - QExpr.q(2), truncation=3)
        assert from_rationals == from_laurent
        assert hash(from_rationals) == hash(from_laurent)
        assert len({from_rationals, from_laurent}) == 1

    def test_exp_log_roundtrip_with_fractional_exponents(self):
        rng = random.Random(1018)
        for _ in range(4):
            s = random_zero_constant_series(rng, 5)
            half = QExpr({Fraction(rng.randint(-3, 3), 2): rng.randint(1, 3), Fraction(1, 3): -1})
            mixed = TruncatedSeries([c + half if k == 2 else c for k, c in enumerate(s.coefficients)])
            assert mixed.exp().log() == mixed
            m = mixed.exp()
            assert m.log().exp() == m


# ---------------------------------------------------------------------------
# Oracle: the coefficient-by-coefficient recurrences on QExpr values, with no packed rows
# ---------------------------------------------------------------------------


def oracle_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.truncation, b.truncation)
    out = [QExpr()] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = out[i + j] + a.coefficient(i) * b.coefficient(j)
    return TruncatedSeries(out)


def oracle_exp(series: TruncatedSeries) -> TruncatedSeries:
    """m e_m = sum_k k s_k e_(m-k)."""
    n, s = series.truncation, series.coefficients
    assert s[0].is_zero
    ks = [c * k for k, c in enumerate(s)]
    e = [QExpr.one()] + [QExpr()] * n
    for m in range(1, n + 1):
        acc = QExpr()
        for k in range(1, m + 1):
            if not ks[k].is_zero:
                acc = acc + ks[k] * e[m - k]
        e[m] = acc / m
    return TruncatedSeries(e)


def oracle_log(series: TruncatedSeries) -> TruncatedSeries:
    """l_m = s_m - (sum_k k l_k s_(m-k)) / m."""
    n, s = series.truncation, series.coefficients
    assert s[0] == 1
    l = [QExpr()] * (n + 1)
    kl = [QExpr()] * (n + 1)
    for m in range(1, n + 1):
        acc = QExpr()
        for k in range(1, m):
            if not kl[k].is_zero and not s[m - k].is_zero:
                acc = acc + kl[k] * s[m - k]
        l[m] = s[m] - acc / m
        kl[m] = l[m] * m
    return TruncatedSeries(l)


def seeded_coefficient(rng: random.Random, bits: int) -> QExpr:
    """Zero about one time in four; else up to 4 terms with exponents in (1/6)Z from -3 to 3 and
    rational coefficients of either sign, numerators up to 2^bits."""
    if rng.random() < 0.25:
        return QExpr()
    return QExpr({Fraction(rng.randint(-18, 18), rng.choice((1, 2, 3, 6))):
                  Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))})


def seeded_series(rng: random.Random, truncation: int, bits: int, constant: int) -> TruncatedSeries:
    return TruncatedSeries([constant] + [seeded_coefficient(rng, bits) for _ in range(truncation)])


class TestAgainstTheRecurrences:
    """The packed-row kernel against the QExpr recurrences it replaced."""

    @pytest.mark.parametrize("truncation", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("bits", [4, 40, 240])
    def test_exp_log_and_mul_match(self, truncation, bits):
        rng = random.Random(1000 * truncation + bits)
        for _ in range(6):
            s = seeded_series(rng, truncation, bits, 0)
            assert s.exp() == oracle_exp(s)
            one_plus = seeded_series(rng, truncation, bits, 1)
            assert one_plus.log() == oracle_log(one_plus)
        # exp(s) exp(-s) = 1 for the last s, multiplied by the oracle's product
        minus = TruncatedSeries([-c for c in s.coefficients])
        assert oracle_mul(s.exp(), minus.exp()) == series(1, truncation=truncation)

    def test_integer_exponents_and_huge_coefficients(self):
        # Coefficients above 2^200 at every degree force slot widths of several hundred bits.
        rng = random.Random(31337)
        for truncation in (6, 14):
            coeffs = [QExpr({rng.randint(-5, 5): rng.randint(2**200, 2**260) * rng.choice((1, -1))
                             for _ in range(3)}) for _ in range(truncation)]
            s = TruncatedSeries([0] + coeffs)
            assert s.exp() == oracle_exp(s)
            assert (s.exp()).log() == oracle_log(s.exp())

    def test_cancellation_to_zero_rows(self):
        # log(exp(c x)) = c x: every packed sum of the log recurrence past degree 1 cancels to zero.
        c = QExpr({Fraction(1, 3): 5, -2: Fraction(-7, 4)})
        x, minus_x = series(0, c, truncation=8), series(0, -c, truncation=8)
        assert x.exp().log() == x and minus_x.exp().log() == minus_x
        assert oracle_mul(x.exp(), minus_x.exp()) == series(1, truncation=8)
        assert series(1, truncation=8).log() == series(0, truncation=8)

    @pytest.mark.parametrize("nmax", [60, 100])
    def test_mass_series_and_recovery_match(self, nmax, monkeypatch):
        series = massformulas.mass_series_via_exp(nmax)
        recovered = massformulas.recover_N_from_M(series)
        monkeypatch.setattr(TruncatedSeries, "exp", oracle_exp)
        monkeypatch.setattr(TruncatedSeries, "log", oracle_log)
        assert series == massformulas.mass_series_via_exp(nmax)
        assert recovered == massformulas.recover_N_from_M(series)

    def test_dense_span_cap(self):
        # Rows are dense in t = q^(g/r): products of 50 factors of 1 + q + q^1001 span 50,050.
        wide = QExpr({0: 1, 1: 1, 1001: 1})
        message = f"series budget exceeded: need 50050 t-degrees, budget {DENSE_DEGREE_BUDGET}"
        with pytest.raises(BudgetExceededError, match=message):
            series(0, wide, truncation=50).exp()
        assert series(0, wide, truncation=3).exp() == oracle_exp(series(0, wide, truncation=3))
        # A common step of the exponents is no span: t = q^1000 makes 1 + q^1000 one t-degree wide.
        sparse = series(1, QExpr({0: 1, 1000: 1}), truncation=60)
        assert sparse.log() == oracle_log(sparse)
