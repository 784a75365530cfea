#!/usr/bin/env python3
"""Walkthrough: Serre and Bhargava mass formulas and the exponential bridge.

The mass of a family of extensions is sum q^(-d) / #Aut over isomorphism
classes.  Serre: totally ramified degree-n extensions have mass q^(1-n).
Bhargava: degree-n etale algebras have mass sum_i P(n, n-i) q^(-i).
Packing fields into multisets turns one into the other through a formal
exp, and taking log turns it back.
"""

from wildmckay import bhargava_mass, mass_series_via_exp, recover_N_from_M, serre_mass

print("Serre masses q^(1-n):")
for n in range(1, 6):
    print(f"  n={n}:  {serre_mass(n)}")

print("\nBhargava masses (partition counts as coefficients):")
for n in range(1, 6):
    print(f"  n={n}:  {bhargava_mass(n)}")

print("\nExponential identity: exp(sum_n x^n sum_{f|n} N(K_f, n/f)/f)")
series = mass_series_via_exp(8)
for n in range(0, 9):
    coefficient = series.coefficient(n)
    print(f"  [x^{n}]  {coefficient}")

print("\nEvery coefficient equals the partition formula exactly:")
print(" ", all(series.coefficient(n) == bhargava_mass(n) for n in range(1, 9)))

print("\nInverting: log of the algebra series recovers the field masses.")
recovered = recover_N_from_M(series)
for n in range(1, 9):
    print(f"  N(K, {n}) = {recovered[(1, n)]}   (Serre: {serre_mass(n)})")

print("\nAnd over unramified base changes (q -> q^f):")
for f, m in [(2, 2), (2, 3), (3, 2), (4, 2)]:
    print(f"  N(K_{f}, {m}) = {recovered[(f, m)]}   (Serre: {serre_mass(m, f)})")
