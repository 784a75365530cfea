#!/usr/bin/env python3
"""Walkthrough: stringy point counts from SNC stratum data.

A residue point on divisors with coefficients c_1..c_k (all < 1) and
vertical weight a contributes q^a prod (q-1)/(q^(1-c)-1); any coefficient
>= 1 on a populated stratum makes the whole count infinite.
"""

from fractions import Fraction

from wildmckay import (
    SncLogPairData,
    VerticalComponent,
    stringy_count_snc,
    stringy_point_contribution,
)

print("Single-point weights:")
for a, cs in [(0, []), (0, [Fraction(1, 2)]), (0, [Fraction(1, 2)] * 2), (1, [Fraction(-1)]), (0, [Fraction(1)])]:
    print(f"  a={a}, c={cs}:  {stringy_point_contribution(a, cs)}")

print("\nA smooth variety is its own stringy count:")
smooth = SncLogPairData([], [VerticalComponent(0, {frozenset(): 7})])
print(f"  7 residue points -> {stringy_count_snc(smooth)}")

print("\nA pair with two horizontal divisors (c = 1/2 and c = -1):")
data = SncLogPairData(
    [Fraction(1, 2), Fraction(-1)],
    [
        VerticalComponent(0, {frozenset(): 3, frozenset({1}): 1, frozenset({2}): 2}),
        VerticalComponent(1, {frozenset(): 1}),
    ],
    declared_total=7,
)
value = stringy_count_snc(data)
print(f"  symbolic: {value}")
print(f"  at q=9:   {value.evaluate(9)} (approximately {float(value.evaluate(9)):.6f})")

print("\nPutting weight 1 on a populated divisor diverges:")
divergent = SncLogPairData([Fraction(1)], [VerticalComponent(0, {frozenset({1}): 1})])
print(f"  -> {stringy_count_snc(divergent)}")

print("\n...but an empty stratum with a bad coefficient is harmless:")
harmless = SncLogPairData([Fraction(1)], [VerticalComponent(0, {frozenset({1}): 0, frozenset(): 4})])
print(f"  -> {stringy_count_snc(harmless)}")
