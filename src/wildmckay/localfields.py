"""Tame extensions of Q_p, their etale algebras, and exact invariants.

A finite extension of Q_p with residue degree f and tame ramification index
e (p not dividing e) is generated over the unramified field K_f by an e-th
root of p times a root of unity; with g = gcd(e, p^f - 1) the isomorphism
classes over Q_p are the orbits of a residue c in Z/g under multiplication
by p (the Frobenius action on the root-of-unity twist).  The class with
orbit of c has

    degree = e * f,
    discriminant exponent d = f * (e - 1),
    #Aut = g * #{i in Z/f : c * (p^i - 1) = 0 mod g}.

This parametrization is classical tame ramification theory; it is not
trusted blindly here.  Two independent checks keep it honest: the stratum
mass identity  sum_{classes with fixed (f,e)} q^(-f(e-1)) / #Aut =
q^(f(1-e)) / f, and cross-validation against external database fixtures.

Wild strata (p dividing e) are never computed, only imported as fixtures;
the enumerators skip and report them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .numutil import divisors, exact_int, is_prime, json_array, json_object

__all__ = [
    "TameFieldClass",
    "EtaleAlgebra",
    "FieldFixture",
    "FixtureReport",
    "PartialEnumerationError",
    "enumerate_tame_field_classes",
    "skipped_wild_strata",
    "enumerate_tame_etale_algebras",
    "complete_etale_algebras",
    "tame_enumeration_is_complete",
    "algebra_mass_sum",
    "load_fixtures",
    "crossvalidate_fixtures",
]


class PartialEnumerationError(ValueError):
    """The tame sector does not exhaust the requested degree (p <= n)."""


@dataclass(frozen=True, order=True)
class TameFieldClass:
    """Isomorphism class of a tame extension of Q_p.

    Sort order (f descending, e ascending, minimal orbit element ascending)
    is the canonical enumeration order; the dataclass ordering on
    (p, -f, e, orbit) implements it.
    """

    p: int
    neg_f: int
    e: int
    orbit: tuple[int, ...]

    def __init__(self, p: int, f: int, e: int, orbit: Sequence[int]):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if f < 1 or e < 1:
            raise ValueError("residue degree and ramification index must be >= 1")
        if e % p == 0:
            raise ValueError(f"wild class rejected: p={p} divides e={e}")
        g = gcd(e, p**f - 1)
        orbit = tuple(sorted(int(c) % g for c in orbit))
        if not orbit:
            raise ValueError("empty Frobenius orbit")
        if set(orbit) != {c * p % g for c in orbit}:
            raise ValueError(f"orbit {orbit} not closed under multiplication by {p} mod {g}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "neg_f", -f)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "orbit", orbit)

    @property
    def f(self) -> int:
        return -self.neg_f

    @property
    def g(self) -> int:
        return gcd(self.e, self.p**self.f - 1)

    @property
    def degree(self) -> int:
        return self.e * self.f

    @property
    def disc_exponent(self) -> int:
        return self.f * (self.e - 1)

    @property
    def aut_order(self) -> int:
        g = self.g
        c = self.orbit[0]
        frobenius_fixed = sum(1 for i in range(self.f) if c * (pow(self.p, i, g) - 1) % g == 0)
        return g * frobenius_fixed

    def describe(self) -> str:
        return f"f={self.f},e={self.e},c~{self.orbit}"


def enumerate_tame_field_classes(p: int, n: int) -> list[TameFieldClass]:
    """All tame isomorphism classes of degree-n extensions of Q_p.

    Wild strata (p | e) are skipped; see skipped_wild_strata for the report.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 1:
        raise ValueError("degree must be >= 1")
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
            classes.append(TameFieldClass(p, f, e, orbit))
    return sorted(classes)


def skipped_wild_strata(p: int, n: int) -> list[tuple[int, int]]:
    """(f, e) strata of degree n that are wild over Q_p, hence not enumerated."""
    return [(f, n // f) for f in divisors(n) if (n // f) % p == 0]


@dataclass(frozen=True, order=True)
class EtaleAlgebra:
    """Multiset of tame field classes, i.e. a tame etale algebra over Q_p."""

    factors: tuple[tuple[TameFieldClass, int], ...]

    def __init__(self, factors: Iterable[tuple[TameFieldClass, int]]):
        counted: dict[TameFieldClass, int] = {}
        for cls, mult in factors:
            if mult < 1:
                raise ValueError("factor multiplicities must be >= 1")
            counted[cls] = counted.get(cls, 0) + mult
        ps = {cls.p for cls in counted}
        if len(ps) > 1:
            raise ValueError("all factors must live over the same Q_p")
        canonical = tuple(sorted(counted.items(), key=lambda item: (item[0].degree, item[0])))
        object.__setattr__(self, "factors", canonical)

    @property
    def p(self) -> int:
        return self.factors[0][0].p

    @property
    def degree(self) -> int:
        return sum(cls.degree * m for cls, m in self.factors)

    @property
    def disc_exponent(self) -> int:
        return sum(cls.disc_exponent * m for cls, m in self.factors)

    @property
    def aut_order(self) -> int:
        out = 1
        for cls, m in self.factors:
            out *= factorial(m) * cls.aut_order**m
        return out

    @property
    def geometric_component_count(self) -> int:
        """Components after unramified base change: each field factor of
        residue degree f splits into f totally ramified pieces."""
        return sum(cls.f * m for cls, m in self.factors)

    def describe(self) -> str:
        return " x ".join(
            f"({cls.describe()})^{m}" if m > 1 else f"({cls.describe()})" for cls, m in self.factors
        )


def tame_enumeration_is_complete(p: int, n: int) -> bool:
    """True iff no wild stratum exists in any degree <= n, i.e. p > n."""
    return p > n


def enumerate_tame_etale_algebras(p: int, n: int) -> list[EtaleAlgebra]:
    """All multisets of tame field classes with total degree n.

    This is the full list of degree-n etale algebras when p > n; otherwise
    it is only the tame sector (check tame_enumeration_is_complete).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    pool: list[TameFieldClass] = []
    for m in range(1, n + 1):
        pool.extend(enumerate_tame_field_classes(p, m))
    pool.sort(key=lambda cls: (cls.degree, cls))

    results: list[EtaleAlgebra] = []

    def extend(start: int, remaining: int, chosen: list[tuple[TameFieldClass, int]]):
        if remaining == 0:
            results.append(EtaleAlgebra(chosen))
            return
        for idx in range(start, len(pool)):
            cls = pool[idx]
            if cls.degree > remaining:
                break
            for mult in range(1, remaining // cls.degree + 1):
                chosen.append((cls, mult))
                extend(idx + 1, remaining - mult * cls.degree, chosen)
                chosen.pop()

    extend(0, n, [])
    return sorted(results)


def complete_etale_algebras(p: int, n: int) -> list[EtaleAlgebra]:
    """All degree-n etale algebras over Q_p; PartialEnumerationError when
    wild algebras exist (p <= n), since the tame sector then misses them."""
    if not tame_enumeration_is_complete(p, n):
        raise PartialEnumerationError(
            f"p={p} <= n={n}: wild algebras exist in degree <= {n}, tame sector is incomplete"
        )
    return enumerate_tame_etale_algebras(p, n)


def algebra_mass_sum(p: int, n: int) -> Fraction:
    """sum over degree-n etale algebras of p^(-d) / #Aut, exactly."""
    total = Fraction(0)
    for algebra in complete_etale_algebras(p, n):
        total += Fraction(1, p**algebra.disc_exponent * algebra.aut_order)
    return total


# ---------------------------------------------------------------------------
# Fixture cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldFixture:
    """One record of an external local-fields database export."""

    p: int
    n: int
    e: int
    f: int
    disc_exponent: int
    aut_order: int
    label: str

    @staticmethod
    def from_json(record: Mapping) -> "FieldFixture":
        json_object(record, "fixture record")
        return FieldFixture(
            p=exact_int(record["p"], "p"),
            n=exact_int(record["n"], "n"),
            e=exact_int(record["e"], "e"),
            f=exact_int(record["f"], "f"),
            disc_exponent=exact_int(record["c"], "c"),
            aut_order=exact_int(record["aut"], "aut"),
            label=str(record["label"]),
        )

    @property
    def is_wild(self) -> bool:
        return self.e % self.p == 0


@dataclass
class FixtureReport:
    matched: list[str]
    uncheckable: list[str]
    mismatches: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "matched": sorted(self.matched),
            "uncheckable": sorted(self.uncheckable),
            "mismatches": [{"label": label, "reason": reason} for label, reason in sorted(self.mismatches)],
            "ok": self.ok,
        }


def load_fixtures(path: str | Path) -> list[FieldFixture]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json_array(json.load(fh), "fixture file")
    return [FieldFixture.from_json(record) for record in data]


def crossvalidate_fixtures(fixtures: Sequence[FieldFixture]) -> FixtureReport:
    """Check tame fixtures against the enumerated classes, with multiplicity.

    For each (p, n) group, every tame fixture must consume one enumerated
    class with identical (e, f, d, #Aut); wild fixtures are listed as
    uncheckable.  Consistency failures name the offending fixture label.
    """
    report = FixtureReport(matched=[], uncheckable=[], mismatches=[])
    grouped: dict[tuple[int, int], list[FieldFixture]] = {}
    for fix in fixtures:
        if fix.n != fix.e * fix.f:
            report.mismatches.append((fix.label, f"n={fix.n} != e*f={fix.e * fix.f}"))
            continue
        if fix.is_wild:
            report.uncheckable.append(fix.label)
            continue
        grouped.setdefault((fix.p, fix.n), []).append(fix)
    for (p, n), group in sorted(grouped.items()):
        slots: dict[tuple[int, int, int, int], int] = {}
        for cls in enumerate_tame_field_classes(p, n):
            key = (cls.e, cls.f, cls.disc_exponent, cls.aut_order)
            slots[key] = slots.get(key, 0) + 1
        for fix in sorted(group, key=lambda fx: fx.label):
            key = (fix.e, fix.f, fix.disc_exponent, fix.aut_order)
            if slots.get(key, 0) > 0:
                slots[key] -= 1
                report.matched.append(fix.label)
            else:
                report.mismatches.append(
                    (fix.label, f"no remaining tame class over Q_{p} with (e,f,d,aut)={key}")
                )
    return report
