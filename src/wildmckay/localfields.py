"""Extensions of Q_p by stratum, the tame classes, their etale algebras, and exact invariants.

A finite extension of Q_p with residue degree f and tame ramification index
e (p not dividing e) is generated over the unramified field K_f by an e-th
root of p times a root of unity; with g = gcd(e, p^f - 1) the isomorphism
classes over Q_p are the orbits of a residue c in Z/g under multiplication
by p (the Frobenius action on the root-of-unity twist).  The enumerator
walks each orbit once and stores its class's invariants:

    degree = e * f,
    discriminant exponent d = f * (e - 1),
    #Aut = g * f / #orbit = g * #{i in Z/f : c * (p^i - 1) = 0 mod g}  (p^f = 1 mod g).

Every stratum (f, e, j), tame or wild, of the fields with discriminant exponent
d = f (e - 1 + j) is weighed without listing it: A(f, e, j) = mu(j) q^j / f, q = p^f, is
the sum of 1/#Aut over its fields, where mu(j) is the Haar measure of the Eisenstein
polynomials of degree e over K_f with different exponent e - 1 + j (Serre's proof of his
mass formula).  It is 0 exactly off Ore's condition, and 1/f on a tame stratum (j = 0).

The tame parametrization is classical tame ramification theory; it is not
trusted blindly here.  Two independent checks keep it honest: the stratum
mass identity  sum_{classes with fixed (f,e)} 1 / #Aut = A(f, e, 0), and
cross-validation against external database fixtures.

An etale algebra is a multiset of fields, with #Aut(prod L_i^m_i) =
prod m_i! #Aut(L_i)^m_i, so counts and masses need no listing.  The number of
degree-n algebras of tame classes is the coefficient of x^n in
prod_c 1/(1 - x^deg c) over the classes c.  With W_k = sum of A(f, e, j) p^(-d) over
the strata with ef = k, their mass sum p^(-d) / #Aut is the coefficient of x^n
in exp(sum_k W_k x^k).  This regroups a sum over multisets; it does not assume
the Serre/Bhargava mass formula that `etale mass` checks, whose content is the
stratum weights.  Algebras are listed only where per-algebra rows are needed.

Wild fields (p dividing e) are never listed: the enumerators skip and report
their strata, the mass and McKay paths refuse p <= n, and a wild fixture is
checked only against what every wild field satisfies (f | d, a stratum weight
that is not 0, #Aut | n).  Each fixture record gets one verdict.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path
from typing import Mapping, Sequence

from . import _lazy_module
from .numutil import (check_budget, check_exact_digits, divisors, exact_int, exact_prime, json_array, json_object,
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
# degree admitted) `mckay verify` takes about 0.5 s in JSON and CSV and 0.8 s in text as a process, and
# peaks at 48 MiB in JSON, 46 MiB in CSV and 106 MiB in text, whose column widths need every cell:
# under 1.2 KiB per algebra.
ALGEBRAS_BUDGET = 100_000
# Largest degree of the tame classes listed by degree (`etale enumerate`, `mckay verify`): the
# algebra count steps through every tame class of degree <= n for each of the n + 1 counts;
# `etale enumerate` takes 0.40-0.53 s at n = 400 for p from 401 to 999983.
COUNT_DEGREE_BUDGET = 400
# Largest degree algebra_mass_sum accepts (`etale mass`), in degrees: its TruncatedSeries.exp adds
# n^2 / 2 products of constants whose denominators are the residue degrees f, not powers of p;
# `etale mass` takes 0.06-0.17 s at n = 200 for p from 211 to 999983 and 0.65 s for p near 10^21, the
# largest the digits cap admits there (in-process; Python 3.11, 2-vCPU Intel Xeon).
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


def _check_degree(n: int, budget: int = COUNT_DEGREE_BUDGET, engine: str = "count") -> None:
    check_budget(exact_int(n, "degree", 1), budget, engine, "degrees")


def enumerate_tame_field_classes(p: int, n: int) -> list[TameFieldClass]:
    """All tame isomorphism classes of degree-n extensions of Q_p.

    Wild strata (p | e) are skipped; see skipped_wild_strata for the report.
    BudgetExceededError before any work past COUNT_DEGREE_BUDGET.
    """
    exact_prime(p)
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
    exact_prime(p)
    return [(f, n // f) for f in divisors(n) if (n // f) % p == 0]


def tame_enumeration_is_complete(p: int, n: int) -> bool:
    """True iff no wild stratum exists in any degree <= n, i.e. p > n."""
    return exact_prime(p) > exact_int(n, "degree")


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
    classes in class order lists them sorted.  It visits only live nodes: a factor is tried only
    when the degree it leaves is a sum of degrees of the classes after it in the pool, so every
    call lists at least one algebra.  It appends to a list: a recursive generator would resume
    every level of the path once per algebra."""
    n = len(by_degree) - 1
    pool = [cls for classes in by_degree for cls in classes]  # (degree, class) order
    rank = {cls: r for r, cls in enumerate(sorted(pool))}
    ranks = [rank[cls] for cls in pool]  # class order
    degrees = [cls.degree for cls in pool]
    fits = [sum(1 for d in degrees if d <= r) for r in range(n + 1)]  # pool[:fits[r]] has degree <= r
    full = (1 << n + 1) - 1
    reach = [1] * (len(pool) + 1)  # bit r of reach[i]: r is a sum of degrees of pool[i:]
    for i in range(len(pool) - 1, -1, -1):
        mask = reach[i + 1]
        while (grown := (mask | mask << degrees[i]) & full) != mask:
            mask = grown
        reach[i] = mask
    steps = [[((cls.f, cls.e, cls.orbit, m), cls.disc_exponent * m, cls.f * m, factorial(m) * cls.aut_order**m)
              for m in range(n // cls.degree + 1)] for cls in pool]
    choices: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    found: list[tuple[tuple, int, int, int]] = []

    def extend(start: int, remaining: int, chosen: tuple, disc: int, components: int, aut: int) -> None:
        if (order := choices.get((start, remaining))) is None:  # the live (idx, mult, rest), in class order
            order = choices[start, remaining] = [
                (idx, mult, rest) for idx in sorted(range(start, fits[remaining]), key=ranks.__getitem__)
                for mult in range(1, remaining // degrees[idx] + 1)
                if not (rest := remaining - mult * degrees[idx]) or reach[idx + 1] >> rest & 1]
        for idx, mult, rest in order:
            factor, d, k, a = steps[idx][mult]
            if rest:
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
    check_budget(_algebra_count(by_degree), ALGEBRAS_BUDGET, "algebras", "algebras listed")
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


def _stratum_weight(p: int, f: int, e: int, j: int) -> Fraction:
    """The weight A(f, e, j) = mu(j) q^j / f (q = p^f) of the module docstring, where the Eisenstein
    measure mu(j) is 0 off Ore's condition and otherwise q^-N, times 1 - 1/q when e does not divide j,
    with N = #{0 <= t < j : e does not divide t, t // e >= v_p(t mod e)}."""
    b, top = j % e, _valuation(e, p) * e
    if (j > top or j // e < _valuation(b, p)) if b else j != top:  # so does j < 0: j // e < 0, j != top
        return Fraction(0)
    count = sum(1 for t in range(j) if t % e and t // e >= _valuation(t % e, p))
    return Fraction((p**f - 1) * p ** (f * (j - count - 1)) if b else p ** (f * (j - count)), f)


def algebra_mass_sum(p: int, n: int) -> Fraction:
    """sum over degree-n etale algebras of p^(-d) / #Aut, exactly, without
    listing: M_n of exp(sum_k W_k x^k), taken by TruncatedSeries.exp on constant coefficients.
    The series is exp(sum_k p^k W_k x^k), whose x^n coefficient is p^n M_n: p^k W_k is the sum
    over the strata (f, e, j) with ef = k of _stratum_weight * p^(k-d), d = f (e - 1 + j), so
    p^(k-d) = p^(f(1-j)), an int for j <= 1 and an exact 1/p^(f(j-1)) past it; a tame stratum
    (j = 0) brings only its f into the denominators.  BudgetExceededError before
    any work past MASS_DEGREE_BUDGET, or when the mass could not be printed (more than
    EXACT_DIGITS_BUDGET digits): first on p^(n-1), the denominator of Bhargava's
    sum_i P(n, n-i) p^(-i) in lowest terms (its numerator is 1 mod p and larger), then on the mass."""
    _require_complete(p, n)
    _check_degree(n, MASS_DEGREE_BUDGET, "mass")
    check_exact_digits(p ** (n - 1), "mass", "digits in the mass at p")
    weights = [0] + [sum(_stratum_weight(p, f, k // f, j) * (p ** (f - f * j) if j < 2 else Fraction(1, p ** (f * j - f)))
                         for f in divisors(k) for j in range(_valuation(k // f, p) * (k // f) + 1))
                     for k in range(1, n + 1)]
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
        try:  # exact_prime's ValueError at or above PRIME_TEST_LIMIT also names the record
            json_object(record, "fixture record")
            if isinstance(label := record.get("label"), str):
                name = f"fixture {short_repr(label)}"
            json_object(record, "fixture record", ("label", "p", "n", "e", "f", "c", "aut"))
            if not isinstance(label, str):
                raise ValueError(f"label must be a string, got {short_repr(label)}")
            least = {"p": None, "n": 1, "e": 1, "f": 1, "c": 0, "aut": 1}
            fixture = FieldFixture(*[exact_int(record[key], key, least[key]) for key in least], label)
            exact_prime(fixture.p)
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
            _check_degree(fix.n)  # as for a tame record: the stratum weight counts up to j <= e v_p(e)
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
    f | d; Ore's condition on the different exponent d/f = e - 1 + j of the totally ramified
    part over the unramified field of degree f, which fails where the stratum weight is 0; and
    #Aut | n."""
    e, f, d = fix.e, fix.f, fix.disc_exponent
    if d % f:
        return f"f={f} does not divide d={d}"
    j = d // f - e + 1
    if not _stratum_weight(fix.p, f, e, j):
        return f"j=d/f-e+1={j} fails Ore's condition: no Eisenstein polynomial has different exponent d/f"
    if fix.n % fix.aut_order:
        return f"aut={fix.aut_order} does not divide n={fix.n}"
    return ""
