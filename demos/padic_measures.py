#!/usr/bin/env python3
"""Walkthrough: p-adic measures by exact counting over residue rings.

Three experiments: a smooth curve whose solution counts multiply by p^d at
every level (so the measure stabilizes at #X(F_p)/p^d), singular curves
whose ambient box fraction decays to zero (null sets), and the shell-by-
shell monomial integral against its closed form.
"""

from fractions import Fraction

from wildmckay import (
    PolySystem,
    count_points_mod,
    monomial_integral,
    null_set_fraction,
    smooth_measure_check,
)

circle = PolySystem(5, 2, [[((2, 0), 1), ((0, 2), 1), ((0, 0), -1)]], dim=1)
print("Circle x^2 + y^2 = 1 over Z/5^m:")
for m in (1, 2, 3):
    rc = count_points_mod(circle, m)
    print(f"  m={m}:  count={rc.count:5}  count/p^m = {rc.normalized}")
report = smooth_measure_check(circle, m_max=4)
print(f"  lifted counts {report.counts} -> measure {report.measure} = #X(F_5)/5")

cusp = PolySystem(5, 2, [[((2, 0), 1), ((0, 3), -1)]], dim=1)
node = PolySystem(5, 2, [[((1, 1), 1)]], dim=1)
print("\nNull sets: box fraction of solutions of f = 0 in (Z/5^m)^2")
for name, system in (("x^2 = y^3", cusp), ("xy = 0", node)):
    fractions = [null_set_fraction(system, m) for m in range(1, 5)]
    shown = ", ".join(f"m={m}: {float(v):.5f}" for m, v in enumerate(fractions, start=1))
    print(f"  {name}:  {shown}")

print("\nMonomial integral of |x|^(-c) over the maximal ideal, p=5:")
for c in (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(-1), Fraction(1)):
    partial, exact = monomial_integral(c, 5, terms=60)
    print(f"  c={c}:  60-term sum {float(partial):.12f}   closed form {exact}")
