"""Tame extensions of Q_p, their etale algebras, and exact invariants.

A finite extension of Q_p with residue degree f and tame ramification index
e (p not dividing e) is generated over the unramified field K_f by an e-th
root of p times a root of unity; with g = gcd(e, p^f - 1) the isomorphism
classes over Q_p are the orbits of a residue c in Z/g under multiplication
by p (the Frobenius action on the root-of-unity twist).  The enumerator
walks each orbit once and stores its class's invariants:

    degree = e * f,
    discriminant exponent d = f * (e - 1),
    #Aut = g * f / #orbit = g * #{i in Z/f : c * (p^i - 1) = 0 mod g}  (p^f = 1 mod g).

This parametrization is classical tame ramification theory; it is not
trusted blindly here.  Two independent checks keep it honest: the stratum
mass identity  sum_{classes with fixed (f,e)} q^(-f(e-1)) / #Aut =
q^(f(1-e)) / f, and cross-validation against external database fixtures.

An etale algebra is a multiset of classes, with #Aut(prod L_i^m_i) =
prod m_i! #Aut(L_i)^m_i, so counts and masses need no listing.  With
w_c = p^(-d_c) / #Aut_c and W_k its sum over classes of degree k, the number
of degree-n algebras and their mass sum p^(-d) / #Aut are the coefficients of
x^n in prod_c 1/(1 - x^deg c) and prod_c exp(w_c x^deg c) = exp(sum_k W_k x^k).
This regroups a sum over multisets; it does not assume the Serre/Bhargava
mass formula that `etale mass` checks, whose content is the per-class d and
#Aut above.  Algebras are listed only where per-algebra rows are needed.

Wild strata (p dividing e) are never computed: the enumerators skip and report
them, and a wild fixture is checked only against what every wild field satisfies
(f | d, Ore's bounds on d, #Aut | n).  Each fixture record gets one verdict.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path
from typing import Mapping, Sequence

from . import _lazy_module
from .numutil import (BudgetExceededError, check_exact_digits, divisors, exact_int, is_prime, json_array, json_object,
                      read_json, short_repr)

series = _lazy_module("series")  # algebra_mass_sum alone runs it, so that the listings never do

__all__ = [
    "TameFieldClass",
    "FieldFixture",
    "PartialEnumerationError",
    "enumerate_tame_field_classes",
    "skipped_wild_strata",
    "enumerate_tame_etale_algebras",
    "count_tame_etale_algebras",
    "tame_enumeration_is_complete",
    "algebra_mass_sum",
    "load_fixtures",
    "crossvalidate_fixtures",
    "ALGEBRAS_BUDGET",
    "COUNT_DEGREE_BUDGET",
    "MASS_DEGREE_BUDGET",
]

# Most algebras enumerate_tame_etale_algebras lists: at p = 23, n = 21 (97,109 algebras, the highest
# degree admitted) `mckay verify` peaks at 49 MiB in JSON, 46 MiB in CSV and 107 MiB in text, whose
# column widths need every cell: under 1.2 KiB per algebra.
ALGEBRAS_BUDGET = 100_000
# Largest degree of the tame classes listed by degree (`etale enumerate`, `mckay verify`): the
# algebra count steps through every tame class of degree <= n for each of the n + 1 counts;
# `etale enumerate` takes 0.40-0.53 s at n = 400 for p from 401 to 999983.
COUNT_DEGREE_BUDGET = 400
# Largest degree algebra_mass_sum accepts (`etale mass`), in degrees: its TruncatedSeries.exp adds
# n^2 / 2 products of constants whose denominators carry #Aut factors, not powers of p; `etale mass`
# takes 0.12-0.29 s at n = 200 for p from 211 to 999983 (in-process; Python 3.11, 2-vCPU Intel Xeon).
MASS_DEGREE_BUDGET = 200


class PartialEnumerationError(ValueError):
    """The tame sector does not exhaust the requested degree (p <= n)."""


class TameFieldClass(namedtuple("TameFieldClass", "p neg_f e orbit f g degree disc_exponent aut_order")):
    """Isomorphism class of a tame extension of Q_p, with its invariants.

    Sort order (f descending, e ascending, minimal orbit element ascending)
    is the canonical enumeration order: the tuple order on (p, -f, e, orbit)
    implements it, and the invariants after orbit are functions of those four.
    """

    __slots__ = ()


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n > COUNT_DEGREE_BUDGET:
        raise BudgetExceededError(n, COUNT_DEGREE_BUDGET, "count", unit="degrees")


def enumerate_tame_field_classes(p: int, n: int) -> list[TameFieldClass]:
    """All tame isomorphism classes of degree-n extensions of Q_p.

    Wild strata (p | e) are skipped; see skipped_wild_strata for the report.
    BudgetExceededError before any work past COUNT_DEGREE_BUDGET.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    _check_degree(n)
    classes: list[TameFieldClass] = []
    for f in divisors(n):
        e = n // f
        if e % p == 0:
            continue
        g = gcd(e, p**f - 1)
        seen = [False] * g
        for c in range(g):
            if seen[c]:
                continue
            orbit = []
            x = c
            while not seen[x]:
                seen[x] = True
                orbit.append(x)
                x = x * p % g
            classes.append(TameFieldClass(p, -f, e, tuple(sorted(orbit)), f, g, n, f * (e - 1), g * f // len(orbit)))
    return sorted(classes)


def skipped_wild_strata(p: int, n: int) -> list[tuple[int, int]]:
    """(f, e) strata of degree n that are wild over Q_p, hence not enumerated."""
    return [(f, n // f) for f in divisors(n) if (n // f) % p == 0]


def tame_enumeration_is_complete(p: int, n: int) -> bool:
    """True iff no wild stratum exists in any degree <= n, i.e. p > n."""
    return p > n


def _tame_classes_by_degree(p: int, n: int) -> list[list[TameFieldClass]]:
    """Entry k holds the tame classes of degree k, for k = 0..n (none of degree 0).
    BudgetExceededError before any work past COUNT_DEGREE_BUDGET."""
    _check_degree(n)
    return [[]] + [enumerate_tame_field_classes(p, k) for k in range(1, n + 1)]


def _tame_algebras(by_degree: list[list[TameFieldClass]]) -> list[tuple[tuple, int, int, int]]:
    """Every multiset of the classes by_degree[1:] of total degree n = len(by_degree) - 1, in
    sorted order, as (factors, disc exponent, geometric component count, #Aut); factors are
    (f, e, orbit, multiplicity) tuples, one object per distinct pair, in (degree, class) order.

    Algebras compare by their (class, multiplicity) pairs, so a DFS that tries each factor's
    classes in class order lists them sorted.  It appends to a list: a recursive generator
    would resume every level of the path once per algebra."""
    n = len(by_degree) - 1
    pool = [cls for classes in by_degree for cls in classes]  # (degree, class) order
    rank = {cls: r for r, cls in enumerate(sorted(pool))}
    ranks = [rank[cls] for cls in pool]  # class order
    degrees = [cls.degree for cls in pool]
    fits = [sum(1 for d in degrees if d <= r) for r in range(n + 1)]  # pool[:fits[r]] has degree <= r
    steps = [[((cls.f, cls.e, cls.orbit, m), cls.disc_exponent * m, cls.f * m, factorial(m) * cls.aut_order**m)
              for m in range(n // cls.degree + 1)] for cls in pool]
    choices: dict[tuple[int, int], list[int]] = {}
    found: list[tuple[tuple, int, int, int]] = []

    def extend(start: int, remaining: int, chosen: tuple, disc: int, components: int, aut: int) -> None:
        if (order := choices.get((start, remaining))) is None:
            order = choices[start, remaining] = sorted(range(start, fits[remaining]), key=ranks.__getitem__)
        for idx in order:
            degree, step = degrees[idx], steps[idx]
            for mult in range(1, remaining // degree + 1):
                factor, d, k, a = step[mult]
                if rest := remaining - mult * degree:
                    extend(idx + 1, rest, chosen + (factor,), disc + d, components + k, aut * a)
                else:  # a leaf, appended here to save a call per algebra
                    found.append((chosen + (factor,), disc + d, components + k, aut * a))

    extend(0, n, (), 0, 0, 1)
    return found


def enumerate_tame_etale_algebras(p: int, n: int) -> list[tuple[tuple, int, int, int]]:
    """All degree-n etale algebras over Q_p as _tame_algebras lists them.  PartialEnumerationError
    when wild algebras exist (p <= n), since the tame sector then misses them, and
    BudgetExceededError before any listing when there are more than ALGEBRAS_BUDGET."""
    _require_complete(p, n)
    by_degree = _tame_classes_by_degree(p, n)
    if (count := _algebra_count(by_degree)) > ALGEBRAS_BUDGET:
        raise BudgetExceededError(count, ALGEBRAS_BUDGET, "algebras", unit="algebras listed")
    return _tame_algebras(by_degree)


def count_tame_etale_algebras(p: int, n: int) -> int:
    """The number of multisets of tame classes of total degree n, without listing: the
    coefficient of x^n in prod_c 1/(1 - x^deg c) over tame classes c; for p > n it is
    len(enumerate_tame_etale_algebras(p, n)).  BudgetExceededError before any work past
    COUNT_DEGREE_BUDGET."""
    return _algebra_count(_tame_classes_by_degree(p, n))


def _algebra_count(by_degree: list[list[TameFieldClass]]) -> int:
    n = len(by_degree) - 1
    counts = [1] + [0] * n
    for k, classes in enumerate(by_degree):
        for _ in classes:
            for j in range(k, n + 1):
                counts[j] += counts[j - k]
    return counts[n]


def _require_complete(p: int, n: int) -> None:
    if not tame_enumeration_is_complete(p, n):
        raise PartialEnumerationError(
            f"p={p} <= n={n}: wild algebras exist in degree <= {n}, tame sector is incomplete"
        )


def algebra_mass_sum(p: int, n: int) -> Fraction:
    """sum over degree-n etale algebras of p^(-d) / #Aut, exactly, without
    listing: M_n of exp(sum_k W_k x^k), taken by TruncatedSeries.exp on constant coefficients.
    The series is exp(sum_k p^k W_k x^k), whose x^n coefficient is p^n M_n: p^k W_k =
    sum p^(k-d) / #Aut has only #Aut in its denominators (d < k).  BudgetExceededError before
    any work past MASS_DEGREE_BUDGET, or when the mass could not be printed (more than
    EXACT_DIGITS_BUDGET digits): first on p^(n-1), the denominator of Bhargava's
    sum_i P(n, n-i) p^(-i) in lowest terms (its numerator is 1 mod p and larger), then on the mass."""
    _require_complete(p, n)
    if n > MASS_DEGREE_BUDGET:
        raise BudgetExceededError(n, MASS_DEGREE_BUDGET, "mass", unit="degrees")
    check_exact_digits(p ** (n - 1), "mass", "digits in the mass at p")
    weights = [sum(Fraction(p ** (k - cls.disc_exponent), cls.aut_order) for cls in classes)
               for k, classes in enumerate(_tame_classes_by_degree(p, n))]
    value = series.TruncatedSeries(weights).exp().coefficient(n).coefficient(0) / p**n
    check_exact_digits(value, "mass", "digits in the mass at p")
    return value


# ---------------------------------------------------------------------------
# Fixture cross-validation
# ---------------------------------------------------------------------------


class FieldFixture(namedtuple("FieldFixture", "p n e f disc_exponent aut_order label")):
    """One record of an external local-fields database export."""

    __slots__ = ()

    @staticmethod
    def from_json(record: Mapping, position: int) -> "FieldFixture":
        """The fixture of the record at 1-based position in its file; a ValueError that names the
        record by its label, read first, or by its position when it has no string label."""
        name = f"fixture #{position}"
        try:  # is_prime's own ValueError at or above PRIME_TEST_LIMIT also names the record
            json_object(record, "fixture record")
            if isinstance(label := record.get("label"), str):
                name = f"fixture {short_repr(label)}"
            json_object(record, "fixture record", ("label", "p", "n", "e", "f", "c", "aut"))
            if not isinstance(label, str):
                raise ValueError(f"label must be a string, got {short_repr(label)}")
            fixture = FieldFixture(*[exact_int(record[key], key) for key in ("p", "n", "e", "f", "c", "aut")], label)
            if not is_prime(fixture.p):
                raise ValueError(f"p={fixture.p} is not prime")
            if min(fixture.n, fixture.e, fixture.f, fixture.aut_order) < 1 or fixture.disc_exponent < 0:
                raise ValueError("n, e, f and aut must be >= 1 and c >= 0")
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        return fixture


def load_fixtures(path: str | Path) -> list[FieldFixture]:
    data = json_array(read_json(path), "fixture file")
    return [FieldFixture.from_json(record, position) for position, record in enumerate(data, 1)]


def crossvalidate_fixtures(fixtures: Sequence[FieldFixture]) -> list[tuple[FieldFixture, str, str]]:
    """Check fixtures against the enumerated classes, with multiplicity: one (fixture, status,
    reason) per record, in (p, n, label) order.  Each tame fixture, in that order, consumes one
    enumerated class of its (p, n) with identical (e, f, d, #Aut) ("matched") or is a "mismatch";
    a wild fixture (p | e) is a "mismatch" when no wild field has its (e, f, d, #Aut) by
    ``_wild_reason``, and otherwise "uncheckable (wild)", never computed.  Only a mismatch has a
    reason."""
    slots: dict[tuple[int, int], Counter] = {}
    verdicts = []
    for fix in sorted(fixtures, key=lambda fx: (fx.p, fx.n, fx.label)):
        key = (fix.e, fix.f, fix.disc_exponent, fix.aut_order)
        if fix.n != fix.e * fix.f:
            verdicts.append((fix, "mismatch", f"n={fix.n} != e*f={fix.e * fix.f}"))
        elif fix.e % fix.p == 0:
            reason = _wild_reason(fix)
            verdicts.append((fix, "mismatch" if reason else "uncheckable (wild)", reason))
        else:
            if (left := slots.get((fix.p, fix.n))) is None:
                classes = enumerate_tame_field_classes(fix.p, fix.n)
                left = slots[fix.p, fix.n] = Counter((cls.e, cls.f, cls.disc_exponent, cls.aut_order) for cls in classes)
            if left[key] > 0:
                left[key] -= 1
                verdicts.append((fix, "matched", ""))
            else:
                verdicts.append((fix, "mismatch", f"no remaining tame class over Q_{fix.p} with (e,f,d,aut)={key}"))
    return verdicts


def _valuation(m: int, p: int) -> int:
    """v_p(m) for m >= 1."""
    v = 0
    while m % p == 0:
        m, v = m // p, v + 1
    return v


def _wild_reason(fix: FieldFixture) -> str:
    """Why no field with p | e has the fixture's invariants, or "" when it passes every check:
    f | d; Ore's condition min(v_p(b) e, v_p(e) e) <= j <= v_p(e) e on the different exponent
    d/f = e - 1 + j of the totally ramified part over the unramified field of degree f, with
    j = a e + b, 0 <= b < e and v_p(0) infinite; and #Aut | n."""
    e, f, d = fix.e, fix.f, fix.disc_exponent
    if d % f:
        return f"f={f} does not divide d={d}"
    j = d // f - e + 1
    top = _valuation(e, fix.p) * e
    low = min(_valuation(j % e, fix.p) * e, top) if j % e else top
    if not low <= j <= top:
        return f"j=d/f-e+1={j} fails Ore's condition {low} <= j <= {top}"
    if fix.n % fix.aut_order:
        return f"aut={fix.aut_order} does not divide n={fix.n}"
    return ""
