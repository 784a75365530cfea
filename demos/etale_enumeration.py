#!/usr/bin/env python3
"""Walkthrough: enumerating tame extensions of Q_p and their etale algebras.

A tame class is (residue degree f, ramification e, Frobenius orbit of a
residue twist); its discriminant exponent is f(e-1).  Multisets of classes
are etale algebras, and their weighted count reproduces the partition-based
mass exactly.
"""

from fractions import Fraction

from wildmckay import (
    algebra_mass_sum,
    bhargava_mass,
    crossvalidate_fixtures,
    enumerate_tame_etale_algebras,
    enumerate_tame_field_classes,
    load_fixtures,
)


def describe(factors):
    """An algebra's (f, e, orbit, multiplicity) factors as (f=..,e=..,c~orbit)^m, joined by x."""
    return " x ".join(f"(f={f},e={e},c~{orbit})" + (f"^{m}" if m > 1 else "") for f, e, orbit, m in factors)


for p, n in [(5, 2), (5, 3), (7, 3)]:
    print(f"Tame field classes of degree {n} over Q_{p}:")
    for cls in enumerate_tame_field_classes(p, n):
        print(
            f"  f={cls.f} e={cls.e} orbit={list(cls.orbit)}  d={cls.disc_exponent}  #Aut={cls.aut_order}"
        )
    print()

p, n = 7, 3
print(f"Etale algebras of degree {n} over Q_{p}, with mass terms:")
total = Fraction(0)
for factors, d, _, aut in enumerate_tame_etale_algebras(p, n):
    term = Fraction(1, p**d * aut)
    total += term
    print(f"  {describe(factors):46}  d={d}  #Aut={aut:3}  term={term}")
print(f"  total mass = {total}")
print(f"  partition formula at q={p}: {bhargava_mass(n).evaluate(p)}")
assert algebra_mass_sum(p, n) == bhargava_mass(n).evaluate(p)

print("\nCross-validation against a database export:")
statuses = [status for _, status, _ in crossvalidate_fixtures(load_fixtures("data/sample_fixtures.json"))]
print(f"  matched:     {statuses.count('matched')}")
print(f"  uncheckable: {statuses.count('uncheckable (wild)')} (wild, p | e)")
print(f"  mismatches:  {statuses.count('mismatch')}")
