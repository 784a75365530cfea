"""Tests for the symbolic mass formulas and the exponential identity."""

import io
import random
from fractions import Fraction

import pytest
from reference import reference_recover_N_from_M

from wildmckay import cli
from wildmckay.localfields import algebra_mass_sum
from wildmckay.massformulas import bhargava_mass, mass_series_via_exp, recover_N_from_M, serre_mass
from wildmckay.numutil import divisors
from wildmckay.qexpr import QExpr, QFrac
from wildmckay.series import ConstantTermError, TruncatedSeries


def inner_series(N, n_max: int) -> TruncatedSeries:
    """sum_{n>=1} x^n sum_{f|n} N(f, n/f) / f through degree n_max: the exponent of the identity."""
    return TruncatedSeries([0] + [sum((N(f, n // f) * Fraction(1, f) for f in divisors(n)), QExpr())
                                  for n in range(1, n_max + 1)])


class TestSerreMass:
    def test_base_field(self):
        assert serre_mass(1, 1) == QExpr.one()

    def test_quadratic(self):
        assert serre_mass(2, 1) == QExpr.q(-1)

    def test_over_unramified_extension(self):
        # (q^2)^(1-3)
        assert serre_mass(3, 2) == QExpr.q(-4)


class TestBhargavaMass:
    def test_degree_two(self):
        assert bhargava_mass(2) == QExpr({0: 1, -1: 1})

    def test_degree_three(self):
        assert bhargava_mass(3) == QExpr({0: 1, -1: 1, -2: 1})

    def test_degree_four(self):
        # P(4,2) = 2 by enumeration of {3+1, 2+2}
        assert bhargava_mass(4) == QExpr({0: 1, -1: 1, -2: 2, -3: 1})


class TestMassSeries:
    def test_degree_one_coefficient(self):
        series = mass_series_via_exp(4)
        assert series.coefficient(0) == 1
        assert series.coefficient(1) == 1

    def test_degree_two_coefficient(self):
        # hand expansion: exp(x + x^2(q^-1 + 1/2)) has x^2 coefficient 1 + q^-1
        series = mass_series_via_exp(4)
        assert series.coefficient(2) == QExpr({0: 1, -1: 1})

    def test_degree_three_coefficient(self):
        # inner coefficient S_3 = q^-2 + 1/3; expansion gives 1 + q^-1 + q^-2
        series = mass_series_via_exp(4)
        assert series.coefficient(3) == QExpr({0: 1, -1: 1, -2: 1})

    def test_matches_bhargava_up_to_12(self):
        series = mass_series_via_exp(12)
        for n in range(1, 13):
            assert series.coefficient(n) == bhargava_mass(n), f"degree {n}"

    def test_wrong_variant_with_reciprocal_weight_fails_at_two(self):
        # The same exponential with an extra 1/n on x^n does not reproduce
        # the quadratic mass; this pins the corrected form.
        inner = inner_series(lambda f, m: serre_mass(m, f), 2)
        assert inner.exp() == mass_series_via_exp(2)
        weighted = TruncatedSeries(
            [c * Fraction(1, max(1, i)) for i, c in enumerate(inner.coefficients)]
        )
        wrong = weighted.exp()
        assert wrong.coefficient(2) == QExpr({-1: Fraction(1, 2), 0: Fraction(3, 4)})
        assert wrong.coefficient(2) != bhargava_mass(2)


class TestRecovery:
    def test_log_coefficient_two_of_bhargava_series(self):
        # S_2 = N(K,2)/1 + N(K_2,1)/2 = q^-1 + 1/2
        series = mass_series_via_exp(6)
        S = series.log()
        assert S.coefficient(2) == QExpr({-1: 1, 0: Fraction(1, 2)})

    def test_recover_base_masses(self):
        series = mass_series_via_exp(12)
        N = recover_N_from_M(series)
        assert N[(1, 1)] == 1
        assert N[(1, 2)] == QExpr.q(-1)
        assert N[(1, 4)] == QExpr.q(-3)
        for n in range(1, 13):
            assert N[(1, n)] == serre_mass(n), f"degree {n}"

    def test_recover_unramified_tower_masses(self):
        series = mass_series_via_exp(12)
        N = recover_N_from_M(series)
        for (f, m), value in N.items():
            assert value == serre_mass(m, f), f"(f,m)=({f},{m})"
            assert N[(f, 1)] == 1

    def test_round_trip(self):
        series = mass_series_via_exp(8)
        N = recover_N_from_M(series)
        rebuilt = inner_series(lambda f, m: N[(f, m)], 8).exp()
        assert rebuilt == series

    def test_constant_term_error_propagates(self):
        bad = TruncatedSeries([0, 1, 1])
        with pytest.raises(ValueError):
            recover_N_from_M(bad)
        # the one log is taken at truncation 0 too, where one log per f took none
        with pytest.raises(ConstantTermError):
            recover_N_from_M(TruncatedSeries([2]))
        assert recover_N_from_M(TruncatedSeries([1])) == {}


def random_series(rng: random.Random, truncation: int) -> TruncatedSeries:
    """Constant term 1, then up to three terms per coefficient: exponents in [-3, 3] over 1, 2 or 3,
    rational coefficients."""
    return TruncatedSeries([1] + [
        QExpr({Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
               for _ in range(rng.randint(0, 3))})
        for _ in range(truncation)])


def substituted(series: TruncatedSeries, f: int) -> TruncatedSeries:
    """The series with q replaced by q^f in every coefficient."""
    return TruncatedSeries([c.scale_exponents(f) for c in series.coefficients])


class TestOneLog:
    """recover_N_from_M takes one log and reads log M(q^f) as (log M)(q^f)."""

    @pytest.mark.parametrize("seed", range(16))
    def test_log_commutes_with_q_substitution(self, seed):
        rng = random.Random(seed)
        series = random_series(rng, rng.randint(1, 8))
        log = series.log()
        for f in range(2, 6):
            assert substituted(series, f).log() == substituted(log, f), f"f={f}"

    @pytest.mark.parametrize("seed", range(16))
    def test_recovery_equals_one_log_per_f_on_random_series(self, seed):
        rng = random.Random(seed)
        series = random_series(rng, rng.randint(1, 8))
        assert recover_N_from_M(series) == reference_recover_N_from_M(series)

    @pytest.mark.parametrize("n_max", range(1, 13))
    def test_recovery_equals_one_log_per_f_on_mass_series(self, n_max):
        series = mass_series_via_exp(n_max)
        assert recover_N_from_M(series) == reference_recover_N_from_M(series)

    def test_each_command_takes_one_exp_and_at_most_one_log(self, monkeypatch):
        # A deterministic stand-in for the mass pipeline's speed: one log per `mass invert`
        # (one log per f took 8 at --nmax 8), none for `mass expcheck`.
        calls = []
        for name in ("exp", "log"):
            def counted(self, _name=name, _method=getattr(TruncatedSeries, name)):
                calls.append(_name)
                return _method(self)

            monkeypatch.setattr(TruncatedSeries, name, counted)
        assert cli.main(["mass", "invert", "--nmax", "8"], stdout=io.StringIO()) == 0
        assert sorted(calls) == ["exp", "log"]
        calls.clear()
        assert cli.main(["mass", "expcheck", "--nmax", "8"], stdout=io.StringIO()) == 0
        assert calls == ["exp"]


class TestNumericConsistency:
    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bhargava_equals_enumeration(self, p, n):
        assert bhargava_mass(n).evaluate(p) == algebra_mass_sum(p, n)


class TestPartitionHilbertLink:
    def test_hilb_equals_scaled_bhargava(self):
        from wildmckay.partitions import hilb_point_count

        for n in range(1, 13):
            assert hilb_point_count(n) == bhargava_mass(n) * QExpr.q(2 * n)


class TestLaurentPipeline:
    def test_series_and_recovered_masses_are_qexpr(self):
        series = mass_series_via_exp(12)
        assert all(type(c) is QExpr for c in series.coefficients)
        recovered = recover_N_from_M(series)
        assert recovered and all(type(v) is QExpr for v in recovered.values())

    def test_mass_pipeline_never_canonicalizes_a_fraction(self, monkeypatch):
        # A deterministic stand-in for the mass pipeline's speed: Laurent
        # values must never reach the QFrac canonical form.
        from wildmckay import qexpr

        calls = []
        canonical = qexpr._canonical_pair

        def counted(num, den):
            calls.append((num, den))
            return canonical(num, den)

        monkeypatch.setattr(qexpr, "_canonical_pair", counted)
        recover_N_from_M(mass_series_via_exp(12))
        for command in ("expcheck", "invert"):
            assert cli.main(["mass", command, "--nmax", "8"], stdout=io.StringIO()) == 0
        assert calls == []
        QFrac(1, QExpr.q(2))
        assert len(calls) == 1
