"""Tests for the tame local-field enumeration and its exact invariants."""

import copy
import itertools
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest
from reference import ore_bounds_hold, reference_serre_mass, reference_tame_algebras

from wildmckay import localfields
from wildmckay.localfields import (
    FieldFixture,
    PartialEnumerationError,
    algebra_mass_sum,
    count_tame_etale_algebras,
    crossvalidate_fixtures,
    enumerate_tame_etale_algebras,
    enumerate_tame_field_classes,
    load_fixtures,
    skipped_wild_strata,
    tame_enumeration_is_complete,
)
from wildmckay.massformulas import bhargava_mass
from wildmckay.mckay import ROW_COLUMNS, verify_wild_mckay
from wildmckay.numutil import PRIME_TEST_LIMIT, BudgetExceededError

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "sample_fixtures.json"


class TestFieldClasses:
    def test_listing_refuses_a_p_that_is_not_prime(self):
        for p in (4, 1, 0):
            with pytest.raises(ValueError, match=f"^p={p} is not prime$"):
                enumerate_tame_field_classes(p, 2)

    def test_base_field(self):
        classes = enumerate_tame_field_classes(5, 1)
        assert len(classes) == 1
        cls = classes[0]
        assert (cls.f, cls.e, cls.disc_exponent, cls.aut_order) == (1, 1, 0, 1)

    def test_quadratics_over_q5(self):
        # Q_5 has exactly three quadratic extensions: the unramified one and
        # two ramified ones (g = gcd(2, 4) = 2 residue twists).
        classes = enumerate_tame_field_classes(5, 2)
        assert [(c.f, c.e, c.disc_exponent, c.aut_order) for c in classes] == [
            (2, 1, 0, 2),
            (1, 2, 1, 2),
            (1, 2, 1, 2),
        ]

    def test_cubics_over_q7(self):
        # g = gcd(3, 6) = 3 and multiplication by 7 is trivial mod 3, so the
        # three residues give three totally ramified classes, each Galois.
        classes = enumerate_tame_field_classes(7, 3)
        assert [(c.f, c.e, c.aut_order) for c in classes] == [
            (3, 1, 3),
            (1, 3, 3),
            (1, 3, 3),
            (1, 3, 3),
        ]
        ramified = [c for c in classes if c.e == 3]
        assert sum(Fraction(1, 7**c.disc_exponent * c.aut_order) for c in ramified) == Fraction(1, 49)

    def test_cubics_over_q5(self):
        # g = gcd(3, 4) = 1: a single ramified class with trivial automorphisms.
        classes = enumerate_tame_field_classes(5, 3)
        assert [(c.f, c.e, c.disc_exponent, c.aut_order) for c in classes] == [
            (3, 1, 0, 3),
            (1, 3, 2, 1),
        ]

    def test_wild_strata_skipped_and_reported(self):
        assert skipped_wild_strata(5, 5) == [(1, 5)]
        assert skipped_wild_strata(5, 10) == [(1, 10), (2, 5)]
        assert all(c.e % 5 != 0 for c in enumerate_tame_field_classes(5, 10))
        # p = 4 reported (1, 4) as wild, p = True read every stratum as wild, and (4, 2) was complete
        for call in (lambda: skipped_wild_strata(4, 4), lambda: tame_enumeration_is_complete(4, 2)):
            with pytest.raises(ValueError, match="^p=4 is not prime$"):
                call()
        with pytest.raises(ValueError, match="^p must be an integer, got True$"):
            skipped_wild_strata(True, 2)
        with pytest.raises(ValueError, match="^degree must be an integer, got 2.0$"):  # it was True
            tame_enumeration_is_complete(5, 2.0)

    def test_totally_ramified_class_count_matches_gcd(self):
        # number of (f=1, e) classes = gcd(e, p-1), each with that aut order
        for p in (5, 7, 11):
            for e in range(1, 7):
                if e % p == 0:
                    continue
                classes = [c for c in enumerate_tame_field_classes(p, e) if c.f == 1]
                assert len(classes) == gcd(e, p - 1)
                assert all(c.aut_order == gcd(e, p - 1) for c in classes)

    def test_stratum_mass_identity(self):
        # sum over classes of q^(-f(e-1)) / aut = q^(f(1-e)) / f for the
        # groupoid of degree-ef extensions with residue degree f.
        for p in (5, 7, 11):
            for n in range(1, 7):
                for cls_f in range(1, n + 1):
                    if n % cls_f:
                        continue
                    e = n // cls_f
                    if e % p == 0:
                        continue
                    stratum = [c for c in enumerate_tame_field_classes(p, n) if c.f == cls_f]
                    total = sum(Fraction(1, p**c.disc_exponent * c.aut_order) for c in stratum)
                    assert total == Fraction(1, cls_f * p ** (cls_f * (e - 1)))

    def test_serre_mass_tame_instance(self):
        # f = 1 stratum: sum p^(1-n) exactly
        for p, n in [(5, 2), (5, 3), (5, 4), (7, 3), (11, 6)]:
            stratum = [c for c in enumerate_tame_field_classes(p, n) if c.f == 1]
            total = sum(Fraction(1, p**c.disc_exponent * c.aut_order) for c in stratum)
            assert total == Fraction(1, p ** (n - 1))


def algebra_invariants(p, factors):
    """Test-only oracle: (d, geometric components, #Aut) of the algebra with those (f, e, orbit, m)
    factors, each class's d and #Aut read from enumerate_tame_field_classes, not from the listing:
    d = sum f(e-1) m, components = sum f m, #Aut = prod m! #Aut_c^m."""
    d, components, aut = 0, 0, 1
    for f, e, orbit, m in factors:
        cls = next(c for c in enumerate_tame_field_classes(p, e * f) if (c.f, c.e, c.orbit) == (f, e, orbit))
        d, components, aut = d + cls.disc_exponent * m, components + f * m, aut * factorial(m) * cls.aut_order**m
    return d, components, aut


def tame_sector(p, n):
    """Every multiset of tame classes of total degree n, also for p <= n."""
    return localfields._tame_algebras(localfields._tame_classes_by_degree(p, n))


class TestEtaleAlgebras:
    def test_degree_one(self):
        algebras = enumerate_tame_etale_algebras(5, 1)
        assert algebras == [(((1, 1, (0,), 1),), 0, 1, 1)]

    def test_degree_two_over_q5(self):
        algebras = enumerate_tame_etale_algebras(5, 2)
        stats = sorted((d, aut) for _, d, _, aut in algebras)
        assert stats == [(0, 2), (0, 2), (1, 2), (1, 2)]

    def test_degree_three_over_q5(self):
        # Brute-force verification of the list: 2 cubic fields, 3 quadratic
        # x linear products, 1 split algebra.  The mass identity below pins
        # the count at 6 (1/6 + 1/2 + 2/10 + 1/3 + 1/25 = 31/25).
        algebras = enumerate_tame_etale_algebras(5, 3)
        assert len(algebras) == 6
        shapes = sorted(tuple(sorted(e * f for f, e, _, m in factors for _ in range(m))) for factors, *_ in algebras)
        assert shapes == [(1, 1, 1), (1, 2), (1, 2), (1, 2), (3,), (3,)]
        assert algebra_mass_sum(5, 3) == Fraction(31, 25)

    def test_split_algebra_aut_is_factorial(self):
        for m in (2, 3, 4):
            listed = {factors: aut for factors, _, _, aut in enumerate_tame_etale_algebras(7, m)}
            assert listed[((1, 1, (0,), m),)] == algebra_invariants(7, ((1, 1, (0,), m),))[2] == factorial(m)

    def test_power_algebra_aut(self):
        # L^m has aut = m! * (aut L)^m
        quad = [c for c in enumerate_tame_field_classes(7, 2) if c.f == 2][0]
        factors = ((quad.f, quad.e, quad.orbit, 3),)
        listed = {row[0]: row[1:] for row in enumerate_tame_etale_algebras(7, 6)}
        assert listed[factors] == algebra_invariants(7, factors) == (0, 6, 6 * 2**3)

    def test_copies_and_pickles_rebuild_equal_values(self):
        cls = enumerate_tame_field_classes(7, 2)[1]
        assert copy.deepcopy(cls) == pickle.loads(pickle.dumps(cls)) == cls

    def test_mass_sums(self):
        assert algebra_mass_sum(5, 1) == 1
        assert algebra_mass_sum(5, 2) == Fraction(6, 5)
        assert algebra_mass_sum(7, 3) == Fraction(57, 49)
        # hand-audited: d=0 terms sum to 1, d=1 to 1/5, d=2 to 2/25, d=3 to 1/125
        assert algebra_mass_sum(5, 4) == Fraction(161, 125)

    def test_mass_sum_stays_exact_on_wild_strata(self, monkeypatch):
        # Bhargava's mass holds for p <= n too; with the completeness guard away, the strata with
        # j >= 2 (d > k) scaled by a float p^(k-d): (2, 2) raised "cannot use float as a series coefficient"
        monkeypatch.setattr(localfields, "_require_complete", lambda p, n: None)
        for p, n in itertools.product((2, 3, 5, 7), range(1, 13)):
            assert algebra_mass_sum(p, n) == bhargava_mass(n).evaluate(p), (p, n)

    def test_mass_sum_refuses_a_p_that_is_not_prime(self):
        # The mass stopped listing classes, which checked p: (4, 3) gave 21/16, (9, 2) 10/9, (6, 5) 1597/1296
        for p, n in ((4, 3), (9, 2), (6, 5), (1, 1), (4, 5)):
            with pytest.raises(ValueError, match=f"^p={p} is not prime$"):
                algebra_mass_sum(p, n)
        with pytest.raises(ValueError, match="^cannot decide whether"):
            algebra_mass_sum(PRIME_TEST_LIMIT, 2)
        # Fraction(5) answered 6/5 as if it were the prime 5
        for p in (Fraction(5), 5.0):
            with pytest.raises(ValueError, match="^p must be an integer, got "):
                algebra_mass_sum(p, 2)

    def test_mass_sum_refuses_a_degree_below_one(self):
        # (5, 0) gave 1 and (5, -3) an IndexError
        for n in (0, -3):
            with pytest.raises(ValueError, match="^need degree >= 1$"):
                algebra_mass_sum(5, n)

    def test_partial_enumeration_guard(self):
        assert not tame_enumeration_is_complete(3, 4)
        for fn in (algebra_mass_sum, enumerate_tame_etale_algebras):
            with pytest.raises(PartialEnumerationError):
                fn(3, 4)


def listed_mass(p, n):
    """Test-only oracle: the mass summed over the listing of every algebra."""
    total = Fraction(0)
    for _, d, _, aut in enumerate_tame_etale_algebras(p, n):
        total += Fraction(1, p**d * aut)
    return total


def class_weights(p, n):
    """W_0..W_n, W_k = sum p^(-d) / #Aut over the tame classes of degree k."""
    return [0] + [sum(Fraction(1, p**cls.disc_exponent * cls.aut_order)
                      for cls in enumerate_tame_field_classes(p, k)) for k in range(1, n + 1)]


def stratum_weights(p, n):
    """W_0..W_n, W_k = sum A(f, e, j) p^(-f (e - 1 + j)) over the strata (f, e, j) with ef = k, the
    wild ones too: j < e^2 takes in Ore's bound v_p(e) e."""
    return [0] + [sum(localfields._stratum_weight(p, f, k // f, j) / Fraction(p) ** (f * (k // f - 1 + j))
                      for f in range(1, k + 1) if k % f == 0 for j in range((k // f) ** 2)) for k in range(1, n + 1)]


def unscaled_masses(weights):
    """Test-only oracle: M_0..M_n of exp(sum_k W_k x^k) by j M_j = sum_k k W_k M_(j-k) on the masses
    themselves, n = len(weights) - 1."""
    mass = [Fraction(1)]
    for j in range(1, len(weights)):
        mass.append(sum(k * weights[k] * mass[j - k] for k in range(1, j + 1)) / j)
    return mass


def seeded_pairs(count, complete):
    """Seeded (p, n) with n <= 14 and p < 60 prime: p > n when complete, else p <= n."""
    rng = random.Random(1412)
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    pairs = []
    while len(pairs) < count:
        n = rng.randint(1 if complete else 2, 14)
        pair = (rng.choice([p for p in primes if (p > n) == complete]), n)
        if pair not in pairs:
            pairs.append(pair)
    return pairs


class TestCountingWithoutListing:
    """Count and mass come from prod_c 1/(1 - x^deg c) and prod_c exp(w_c x^deg c);
    the listing is their oracle."""

    @pytest.mark.parametrize("p, n", seeded_pairs(12, complete=True))
    def test_count_and_mass_match_the_listing(self, p, n):
        listed = enumerate_tame_etale_algebras(p, n)
        assert count_tame_etale_algebras(p, n) == len(listed)
        assert algebra_mass_sum(p, n) == listed_mass(p, n)
        assert [row[1:] for row in listed] == [algebra_invariants(p, row[0]) for row in listed]

    @pytest.mark.parametrize("p, n", seeded_pairs(6, complete=False))
    def test_tame_sector_count_when_wild_algebras_exist(self, p, n):
        assert p <= n
        assert count_tame_etale_algebras(p, n) == len(tame_sector(p, n))

    def test_known_counts(self):
        assert count_tame_etale_algebras(13, 12) == len(enumerate_tame_etale_algebras(13, 12)) == 3485
        assert count_tame_etale_algebras(17, 14) == len(enumerate_tame_etale_algebras(17, 14)) == 6013
        for p, n, count in ((13, 12, 3485), (17, 14, 6013)):
            assert len(reference_tame_algebras(localfields._tame_classes_by_degree(p, n))) == count
        assert algebra_mass_sum(17, 14) == listed_mass(17, 14)

    @pytest.mark.parametrize("p", [61, 211, 999983])
    def test_mass_matches_the_unscaled_recurrence(self, p):
        masses = unscaled_masses(class_weights(p, 60))
        assert [algebra_mass_sum(p, n) for n in range(1, 61)] == masses[1:]

    def test_mass_at_the_degree_cap_matches_the_unscaled_recurrence(self):
        assert algebra_mass_sum(211, 200) == unscaled_masses(class_weights(211, 200))[200]

    def test_counts_far_beyond_listing(self):
        assert count_tame_etale_algebras(101, 40) == 634306319
        assert count_tame_etale_algebras(29, 22) == 296646

    def test_listing_is_refused_past_the_algebras_budget(self, monkeypatch):
        # (29, 22) listed its 296,646 algebras in 1.3 s, and (101, 40) would have tried 634,306,319.
        def no_listing(by_degree):
            raise AssertionError("listed although over budget")

        monkeypatch.setattr(localfields, "_tame_algebras", no_listing)
        for p, n, count in ((29, 22, 296646), (101, 40, 634306319)):
            with pytest.raises(BudgetExceededError) as refused:
                enumerate_tame_etale_algebras(p, n)
            assert (refused.value.required, refused.value.budget) == (count, localfields.ALGEBRAS_BUDGET)

    @pytest.mark.parametrize("p, n", [(5, 4), (13, 8), (3, 6), (2, 5), (31, 10)])
    def test_listing_is_sorted_and_canonical(self, p, n):
        # Factors run in (degree, class) order, the class order being (-f, e, orbit); algebras
        # compare by their factors, each by class and then multiplicity.
        def by_degree(factor):
            f, e, orbit, m = factor
            return e * f, -f, e, orbit, m

        listed = [factors for factors, *_ in tame_sector(p, n)]
        canonical = [tuple(sorted(reversed(factors), key=by_degree)) for factors in listed]
        assert listed == sorted(canonical, key=lambda factors: [by_degree(factor)[1:] for factor in factors])
        assert len(set(listed)) == len(listed)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_listing_matches_the_reference(self, p):
        # p <= n pools miss their wild classes; the trimmed pools miss whole degrees as well
        for n in range(1, 11):
            by_degree = localfields._tame_classes_by_degree(p, n)
            trimmed = [classes if k % 3 else [] for k, classes in enumerate(by_degree)]
            for pool in (by_degree, trimmed, by_degree[:1] + [[]] + by_degree[2:]):
                assert localfields._tame_algebras(pool) == reference_tame_algebras(pool)

    @pytest.mark.parametrize("p, n", [(13, 12), (3, 9), (2, 10)])
    def test_search_makes_no_dead_end_call(self, p, n):
        # one extend call at the root and one per distinct proper prefix of a listed algebra
        extend = next(code for code in localfields._tame_algebras.__code__.co_consts
                      if getattr(code, "co_name", None) == "extend")
        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is extend

        by_degree = localfields._tame_classes_by_degree(p, n)
        sys.setprofile(count_calls)
        try:
            listed = [factors for factors, *_ in localfields._tame_algebras(by_degree)]
        finally:
            sys.setprofile(None)
        assert calls == 1 + len({factors[:i] for factors in listed for i in range(1, len(factors))})

    def test_class_invariants_are_computed_once(self):
        for p, n in [(5, 4), (7, 6), (13, 12), (3, 8)]:
            for cls in enumerate_tame_field_classes(p, n):
                g = gcd(cls.e, p**cls.f - 1)
                fixed = sum(1 for i in range(cls.f) if cls.orbit[0] * (p**i - 1) % g == 0)
                invariants = (cls.g, cls.degree, cls.disc_exponent, cls.aut_order)
                assert invariants == (g, cls.e * cls.f, cls.f * (cls.e - 1), g * fixed)
                assert {"g", "degree", "disc_exponent", "aut_order"} <= set(cls._fields)  # stored, not properties

    def test_invalid_degree(self):
        for fn in (count_tame_etale_algebras, enumerate_tame_etale_algebras):
            with pytest.raises(ValueError):
                fn(5, 0)


STRATA = [(p, f, e) for p in (2, 3, 5, 7) for f in (1, 2, 3) for e in range(1, 17)]


def eisenstein_measure(p, f, e, j):
    """mu(j) = A(f, e, j) f / q^j, q = p^f."""
    return localfields._stratum_weight(p, f, e, j) * f / Fraction(p**f) ** j


def ore_top(p, e):
    """v_p(e) e, the largest j Ore's condition allows (j < 4e + 3 for e <= 16)."""
    return max(j for j in range(4 * e + 3) if ore_bounds_hold(p, e, j))


class TestStratumWeights:
    """A(f, e, j) = mu(j) q^j / f, mu the Haar measure of the Eisenstein polynomials with different
    exponent e - 1 + j, against Krasner's count, Ore's bounds and Bhargava's formula."""

    def test_measure_is_krasners_count(self):
        cases = [(p, f, e, j) for p, f, e in STRATA for j in range(ore_top(p, e) + 1)]
        assert len(cases) == 963
        for case in cases:
            assert eisenstein_measure(*case) == reference_serre_mass(*case), case

    def test_measures_sum_to_one(self):
        for p, f, e in STRATA:
            assert sum(eisenstein_measure(p, f, e, j) for j in range(ore_top(p, e) + 1)) == 1, (p, f, e)

    def test_weight_is_zero_exactly_off_ores_bounds(self):
        for p, f, e in STRATA:
            for j in range(-3, 4 * e + 3):
                weight = localfields._stratum_weight(p, f, e, j)
                assert type(weight) is Fraction and (weight != 0) == ore_bounds_hold(p, e, j), (p, f, e, j)

    def test_quadratics_over_q2(self):
        # d: sum 1/#Aut over the quadratic fields, one with d = 0, two with d = 2 and four with d = 3
        weights = Counter()
        for f, e in ((2, 1), (1, 2)):
            for j in range(-3, 12):
                weights[f * (e - 1 + j)] += localfields._stratum_weight(2, f, e, j)
        assert +weights == {0: Fraction(1, 2), 2: 1, 3: 2}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_exp_of_the_weights_is_bhargavas_mass(self, p):
        masses = unscaled_masses(stratum_weights(p, 12))
        assert [masses[n] for n in range(p, 13)] == [bhargava_mass(n).evaluate(p) for n in range(p, 13)]

    @pytest.mark.parametrize("p, n", [(13, 12), (17, 14), (61, 20)])
    def test_tame_class_weights_are_the_stratum_weights(self, p, n):
        assert class_weights(p, n) == stratum_weights(p, n)

    def test_mass_lists_no_class(self, monkeypatch):
        monkeypatch.setattr(localfields, "enumerate_tame_field_classes", None)
        monkeypatch.setattr(localfields, "_tame_classes_by_degree", None)
        for p, n in ((13, 12), (211, 60), (211, 200), (401, 200), (999983, 200)):
            assert algebra_mass_sum(p, n) == bhargava_mass(n).evaluate(p)


def statuses(verdicts):
    """(label, status, reason) of each (fixture, status, reason) verdict, in the listed order."""
    return [(fix.label, status, reason) for fix, status, reason in verdicts]


class TestFixtures:
    def test_sample_file_crossvalidates(self):
        fixtures = load_fixtures(FIXTURES)
        verdicts = crossvalidate_fixtures(fixtures)
        assert [fix for fix, _, _ in verdicts] == sorted(fixtures, key=lambda fx: (fx.p, fx.n, fx.label))
        wild = [(label, reason) for label, status, reason in statuses(verdicts) if status == "uncheckable (wild)"]
        assert wild == [("2.2.2.1", ""), ("2.2.2.2", ""), ("2.2.3.1", "")]
        assert [status for _, status, _ in verdicts].count("matched") == len(fixtures) - 3

    def test_matched_ramified_quadratic(self):
        fix = FieldFixture(p=5, n=2, e=2, f=1, disc_exponent=1, aut_order=2, label="5.2.1.1")
        assert crossvalidate_fixtures([fix]) == [(fix, "matched", "")]

    def test_wild_listed_uncheckable(self):
        fix = FieldFixture(p=2, n=2, e=2, f=1, disc_exponent=2, aut_order=2, label="2.2.2.1")
        assert crossvalidate_fixtures([fix]) == [(fix, "uncheckable (wild)", "")]

    def test_impossible_wild_records_mismatch(self):
        # A ramified quadratic over Q_2 has d <= 3, and #Aut of a field divides its degree.
        records = [FieldFixture(p=2, n=2, e=2, f=1, disc_exponent=5, aut_order=2, label="2.2.5.1"),
                   FieldFixture(p=2, n=2, e=2, f=1, disc_exponent=2, aut_order=7, label="2.2.2.1"),
                   FieldFixture(p=3, n=3, e=3, f=1, disc_exponent=3, aut_order=2, label="3.3.3.1"),
                   FieldFixture(p=2, n=4, e=2, f=2, disc_exponent=5, aut_order=2, label="2.4.5.1"),
                   FieldFixture(p=2, n=4, e=4, f=1, disc_exponent=5, aut_order=2, label="2.4.5.2")]
        assert statuses(crossvalidate_fixtures(records)) == [
            ("2.2.2.1", "mismatch", "aut=7 does not divide n=2"),
            ("2.2.5.1", "mismatch", "j=d/f-e+1=4 fails Ore's condition: no Eisenstein polynomial has different exponent d/f"),
            ("2.4.5.1", "mismatch", "f=2 does not divide d=5"),
            ("2.4.5.2", "mismatch", "j=d/f-e+1=2 fails Ore's condition: no Eisenstein polynomial has different exponent d/f"),
            ("3.3.3.1", "mismatch", "aut=2 does not divide n=3"),
        ]

    @pytest.mark.parametrize("p, e, allowed", [(2, 2, {2, 3}), (3, 3, {3, 4, 5})])
    def test_wild_discriminant_within_ores_bounds(self, p, e, allowed):
        passed = set()
        for d in range(9):
            fix = FieldFixture(p=p, n=e, e=e, f=1, disc_exponent=d, aut_order=1, label=str(d))
            if crossvalidate_fixtures([fix])[0][1] == "uncheckable (wild)":
                passed.add(d)
        assert passed == allowed

    def test_wild_record_degree_capped_before_any_work(self, monkeypatch):
        # j = v_2(e) e = 27 * 2^27 meets Ore's condition; its stratum weight would count to j.
        monkeypatch.setattr(localfields, "_stratum_weight", None)
        e = 2**27
        fix = FieldFixture(p=2, n=e, e=e, f=1, disc_exponent=e - 1 + 27 * e, aut_order=1, label="huge")
        with pytest.raises(BudgetExceededError) as refused:
            crossvalidate_fixtures([fix])
        assert (refused.value.required, refused.value.budget) == (e, localfields.COUNT_DEGREE_BUDGET)

    def test_impossible_aut_mismatch(self):
        fix = FieldFixture(p=5, n=2, e=2, f=1, disc_exponent=1, aut_order=3, label="bogus")
        assert statuses(crossvalidate_fixtures([fix])) == [
            ("bogus", "mismatch", "no remaining tame class over Q_5 with (e,f,d,aut)=(2, 1, 1, 3)")
        ]

    def test_degree_mismatch(self):
        fix = FieldFixture(p=5, n=3, e=2, f=1, disc_exponent=1, aut_order=2, label="n")
        assert statuses(crossvalidate_fixtures([fix])) == [("n", "mismatch", "n=3 != e*f=2")]

    def test_multiplicity_is_respected(self):
        fix = FieldFixture(p=5, n=2, e=2, f=1, disc_exponent=1, aut_order=2, label="dup")
        # only two ramified quadratic classes exist
        assert [status for _, status, _ in crossvalidate_fixtures([fix, fix, fix])] == ["matched"] * 2 + ["mismatch"]

    def test_duplicate_labels_keep_their_own_verdicts(self):
        good = FieldFixture(p=5, n=2, e=2, f=1, disc_exponent=1, aut_order=2, label="same")
        bad = good._replace(disc_exponent=7)
        reason = "no remaining tame class over Q_5 with (e,f,d,aut)=(2, 1, 7, 2)"
        assert crossvalidate_fixtures([good, bad]) == [(good, "matched", ""), (bad, "mismatch", reason)]
        # within one label the input order decides which record takes the class slot
        assert crossvalidate_fixtures([bad, good]) == [(bad, "mismatch", reason), (good, "matched", "")]

    def test_malformed_records_rejected(self):
        record = {"p": 5, "n": 2, "e": 2, "f": 1, "c": 1, "aut": 2, "label": "5.2.1.1"}
        assert FieldFixture.from_json(record, 1).disc_exponent == 1
        for bad in (5, [record], {**record, "aut": 2.0}, {**record, "p": "5"}):
            with pytest.raises(ValueError):
                FieldFixture.from_json(bad, 1)


# ---------------------------------------------------------------------------
# An oracle for the tame sector from S_n alone.  The tame quotient of Gal(Q_p)
# is topologically generated by sigma and tau with sigma tau sigma^-1 = tau^p
# (Iwasawa), so for p > n the degree-n etale algebras are the S_n-classes of
# pairs (s, t) with s t s^-1 = t^p, the homomorphism count behind Kedlaya's
# mass formula (Kedlaya, "Mass formulas for local Galois representations",
# IMRN 2007).  Under it #Aut = |C(s) & C(t)|, the geometric components are the
# cycles of t and d = n - cycles(t).  Nothing here uses the (f, e, orbit)
# parametrization of localfields.
# ---------------------------------------------------------------------------


def compose(a, b):
    """(a b)(i) = a(b(i)) for permutations as tuples of images."""
    return tuple(a[i] for i in b)


def inverse(a):
    out = [0] * len(a)
    for i, image in enumerate(a):
        out[image] = i
    return tuple(out)


def orbit_sizes(perm):
    sizes, seen = [], set()
    for start in range(len(perm)):
        size, i = 0, start
        while i not in seen:
            seen.add(i)
            size, i = size + 1, perm[i]
        if size:
            sizes.append(size)
    return sizes


def s_n_tame_classes(p, n):
    """Counter of (d, #Aut, components, w), one entry per S_n-class of pairs (s, t).

    A class has a representative whose t is one fixed permutation per cycle type, and the
    classes with that t are the orbits of C(t), by conjugation, on {s : s t s^-1 = t^p}; the
    stabilizer of s is C(s) & C(t).  w is the codimension of the fixed locus of t on two copies
    of the permutation representation minus v = d."""
    perms = list(itertools.permutations(range(n)))
    by_type = {}
    for t in perms:
        by_type.setdefault(tuple(sorted(orbit_sizes(t))), t)
    classes = Counter()
    for t in by_type.values():
        t_p = tuple(range(n))
        for _ in range(p):
            t_p = compose(t, t_p)
        centralizer = [g for g in perms if compose(g, t) == compose(t, g)]
        solutions = {s for s in perms if compose(compose(s, t), inverse(s)) == t_p}
        assert solutions  # t^p is conjugate to t, since p is prime to the order of t
        doubled = t + tuple(n + i for i in t)  # t on the 2n coordinates of two copies
        components = len(orbit_sizes(t))
        d = n - components
        w = (2 * n - len(orbit_sizes(doubled))) - d
        while solutions:
            s = min(solutions)
            orbit = {compose(compose(g, s), inverse(g)) for g in centralizer}
            solutions -= orbit
            classes[d, len(centralizer) // len(orbit), components, w] += 1
    return classes


class TestSymmetricGroupOracle:
    @pytest.mark.parametrize("p, n", [(p, n) for p in (7, 11, 13, 29, 31) for n in range(1, 6)] + [(7, 6)])
    def test_invariants_match_pairs_in_s_n(self, p, n):
        oracle = s_n_tame_classes(p, n)
        listed = tame_sector(p, n)
        assert Counter((d, aut, components) for _, d, components, aut in listed) == Counter(
            {(d, aut, components): count for (d, aut, components, _), count in oracle.items()})
        rows = [dict(zip(ROW_COLUMNS, row)) for row in verify_wild_mckay(p, n).rows]
        assert Counter((row["d"], row["aut"], row["w"]) for row in rows) == Counter(
            {(d, aut, w): count for (d, aut, _, w), count in oracle.items()})
