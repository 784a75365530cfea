"""Tests for the symmetric-group McKay weights and the mass identity."""

from fractions import Fraction

import pytest
from test_localfields import algebra_invariants

from wildmckay import localfields
from wildmckay.localfields import (
    PartialEnumerationError,
    enumerate_tame_etale_algebras,
    enumerate_tame_field_classes,
)
from wildmckay.massformulas import bhargava_mass
from wildmckay.mckay import ROW_COLUMNS, verify_wild_mckay
from wildmckay.numutil import BudgetExceededError
from wildmckay.partitions import hilb_point_count


def named_rows(report):
    """The report's row tuples as dicts keyed by ROW_COLUMNS."""
    return [dict(zip(ROW_COLUMNS, row)) for row in report.rows]


def field(p, f, e, which=0):
    """The (f, e, orbit, 1) factor of one tame field of degree e f over Q_p."""
    matches = [c for c in enumerate_tame_field_classes(p, e * f) if c.f == f and c.e == e]
    return matches[which].f, matches[which].e, matches[which].orbit, 1


def weights(p, factors):
    """(v, w, centralizer order) of the algebra with those factors, from its `verify_wild_mckay` row."""
    n = sum(f * e * m for f, e, _, m in factors)
    row = next(row for row in named_rows(verify_wild_mckay(p, n)) if row["factors"] == factors)
    return row["v"], row["w"], row["aut"]


class TestWeights:
    def test_split_algebra(self):
        for n in (2, 3, 4):
            v, w, centralizer_order = weights(5, ((1, 1, (0,), n),))
            assert (v, w) == (0, 0)
            expected = 1
            for i in range(2, n + 1):
                expected *= i
            assert centralizer_order == expected

    def test_ramified_quadratic(self):
        assert weights(5, (field(5, 1, 2),)) == (1, 1, 2)

    def test_unramified_quadratic(self):
        assert weights(5, (field(5, 2, 1),)) == (0, 0, 2)

    @pytest.mark.parametrize("p", [7, 11])
    def test_w_equals_v_for_all_algebras_up_to_degree_6(self, p):
        for n in range(1, 7):
            rows = named_rows(verify_wild_mckay(p, n))
            algebras = enumerate_tame_etale_algebras(p, n)
            assert len(rows) == len(algebras)
            for row, (factors, d, _, _) in zip(rows, algebras):
                assert row["factors"] == factors
                assert row["w"] == row["v"], factors
                assert row["v"] == d

    def test_term_bounds(self):
        # each term is positive and at most q^(2n)
        p, n = 7, 4
        for row in named_rows(verify_wild_mckay(p, n)):
            term = Fraction(p ** (2 * n - row["v"]), row["aut"])
            assert 0 < term <= p ** (2 * n)


class TestMassSide:
    def test_p5_n1(self):
        assert verify_wild_mckay(5, 1).mass_side == 25

    def test_p5_n2(self):
        # 5^4 (1/2 + 1/2) + 2 * 5^3 / 2 = 625 + 125
        assert verify_wild_mckay(5, 2).mass_side == 750

    def test_p7_n3(self):
        assert verify_wild_mckay(7, 3).mass_side == 7**6 + 7**5 + 7**4

    @pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (5, 4), (7, 2), (7, 4), (11, 3)])
    def test_equals_scaled_bhargava(self, p, n):
        assert verify_wild_mckay(p, n).mass_side == p ** (2 * n) * bhargava_mass(n).evaluate(p)


class TestVerify:
    @pytest.mark.parametrize("p,n", [(5, 2), (5, 4), (7, 3), (11, 4)])
    def test_passes(self, p, n):
        report = verify_wild_mckay(p, n)
        assert report.passed
        assert report.mass_side == hilb_point_count(n).evaluate(p)
        assert sum(Fraction(r["term_num"], r["term_den"]) for r in named_rows(report)) == report.mass_side

    def test_p5_n4_value(self):
        report = verify_wild_mckay(5, 4)
        assert report.hilb_side == 5**8 + 5**7 + 2 * 5**6 + 5**5

    def test_guard(self):
        with pytest.raises(PartialEnumerationError):
            verify_wild_mckay(3, 4)

    @pytest.mark.parametrize("p, n", [(5, 4), (13, 8), (11, 10), (13, 12), (31, 11)])
    def test_rows_match_the_per_algebra_weights(self, p, n):
        report = verify_wild_mckay(p, n)
        algebras = enumerate_tame_etale_algebras(p, n)
        assert len(report.rows) == len(algebras)
        for row, (factors, *_) in zip(named_rows(report), algebras):
            # v = d, and w = the fixed locus's codimension 2 (n - geometric components) minus v
            d, components, aut = algebra_invariants(p, factors)
            v, w = d, 2 * (n - components) - d
            term = Fraction(p ** (2 * n - v), aut)
            assert row["factors"] == factors
            assert (row["d"], row["v"], row["w"], row["aut"]) == (d, v, w, aut)
            assert (row["term_num"], row["term_den"]) == (term.numerator, term.denominator)
        assert report.mass_side == sum(Fraction(r["term_num"], r["term_den"]) for r in named_rows(report))

    def test_rows_share_one_entry_per_distinct_factor(self):
        rows = named_rows(verify_wild_mckay(13, 8))
        entries = {}
        for row in rows:
            for entry in row["factors"]:
                assert entries.setdefault(entry, entry) is entry
        assert len({id(entry) for row in rows for entry in row["factors"]}) == len(entries)
        assert len(entries) < sum(len(row["factors"]) for row in rows)

    def test_budget_counts_algebras_before_listing(self, monkeypatch):
        monkeypatch.setattr(localfields, "ALGEBRAS_BUDGET", 3485)
        assert verify_wild_mckay(13, 12).passed
        monkeypatch.setattr(localfields, "ALGEBRAS_BUDGET", 3484)

        def no_listing(by_degree):
            raise AssertionError("listed although over budget")

        monkeypatch.setattr(localfields, "_tame_algebras", no_listing)
        with pytest.raises(BudgetExceededError) as err:
            verify_wild_mckay(13, 12)
        assert (err.value.required, err.value.budget) == (3485, 3484)
        assert str(err.value) == "algebras budget exceeded: need 3485 algebras listed, budget 3484"

    def test_default_budget_refuses_the_first_count_above_it(self, monkeypatch):
        # Over Q_23, degree 21 is the last within the cap and degree 22 the first above it.
        cap = localfields.ALGEBRAS_BUDGET
        assert localfields.count_tame_etale_algebras(23, 21) <= cap < localfields.count_tame_etale_algebras(23, 22)
        monkeypatch.setattr(localfields, "_tame_algebras", lambda by_degree: ["listed"])
        assert enumerate_tame_etale_algebras(23, 21) == ["listed"]
        with pytest.raises(BudgetExceededError) as err:
            enumerate_tame_etale_algebras(23, 22)
        assert (err.value.required, err.value.budget) == (152131, cap)

    def test_tame_classes_built_once_per_degree(self, monkeypatch):
        calls = []
        enumerate_classes = localfields.enumerate_tame_field_classes

        def counted(p, n):
            calls.append((p, n))
            return enumerate_classes(p, n)

        monkeypatch.setattr(localfields, "enumerate_tame_field_classes", counted)
        assert verify_wild_mckay(13, 8).passed
        assert sorted(calls) == [(13, k) for k in range(1, 9)]

    def test_breakdown_rows_match_algebras(self):
        report = verify_wild_mckay(5, 3)
        assert len(report.rows) == len(enumerate_tame_etale_algebras(5, 3))
        for row in named_rows(report):
            assert row["w"] == row["v"] == row["d"]
