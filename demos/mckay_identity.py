#!/usr/bin/env python3
"""Walkthrough: the wild McKay identity for S_n on two permutation blocks.

Each etale algebra M of degree n gets a weight v (its discriminant
exponent) and the mass side sums q^(2n-v)/#C(H).  The quotient of affine
2n-space by S_n is resolved by the Hilbert scheme of n points on the plane,
whose point count is a partition polynomial in q.  The two sides agree
exactly at every good prime.
"""

from fractions import Fraction

from wildmckay import hilb_point_count, verify_wild_mckay


def describe(factors):
    """An algebra's (f, e, orbit, multiplicity) factors as (f=..,e=..,c~orbit)^m, joined by x."""
    return " x ".join(f"(f={f},e={e},c~{orbit})" + (f"^{m}" if m > 1 else "") for f, e, orbit, m in factors)

p, n = 5, 3
print(f"Weights for the degree-{n} algebras over Q_{p} (ambient dim {2 * n}):")
# verify_wild_mckay lists one row per algebra, each with the algebra's factors
for factors, _, v, w, aut, num, den in verify_wild_mckay(p, n).rows:
    print(f"  {describe(factors):40} v={v} w={w} #C(H)={aut:2}  term={Fraction(num, den)}")

print(f"\nHilbert scheme count polynomial: {hilb_point_count(n)}")

for p, n in [(5, 2), (5, 3), (5, 4), (7, 4), (11, 4)]:
    report = verify_wild_mckay(p, n)
    status = "OK " if report.passed else "FAIL"
    print(f"{status} p={p:2} n={n}:  mass side {report.mass_side}  =  Hilb count {report.hilb_side}")
