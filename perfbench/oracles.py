"""Reference mathematics for checking wildmckay outputs.

Nothing here imports wildmckay: every expected value is recomputed from
first principles (own partition counter, own F_p point counts, exact
evaluation of term lists), so a defect in the package cannot hide behind
its own arithmetic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

# Point counts of the singular curves in (Z/p^m)^2, frozen from an
# independent brute-force count (histograms of x^2 and y^3 mod p^m, and a
# direct scan of x*y mod p^m).  Every curve the generator emits is carried
# to one of these by a unit rescaling and a translation, both bijections of
# the box, so the counts apply unchanged.
SINGULAR_GOLDENS = {
    ("cusp", 5, 4): 1125,
    ("cusp", 7, 3): 637,
    ("cusp", 11, 2): 231,
    ("node", 5, 4): 2625,
    ("node", 7, 3): 1225,
}


class Mismatch(AssertionError):
    """An output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Partitions and mass formulas
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def parts_at_most(total: int, largest: int) -> int:
    """Partitions of `total` into parts of size <= `largest` (coin-change DP)."""
    ways = [1] + [0] * total
    for part in range(1, largest + 1):
        for value in range(part, total + 1):
            ways[value] += ways[value - part]
    return ways[total]


def partitions_exactly(n: int, k: int) -> int:
    """Partitions of n into exactly k parts: remove one from each part."""
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    return parts_at_most(n - k, k)


def bhargava_terms(n: int) -> dict[Fraction, Fraction]:
    """sum_i P(n, n-i) q^(-i) as an {exponent: coefficient} map."""
    return {Fraction(-i): Fraction(partitions_exactly(n, n - i)) for i in range(n)}


def hilbert_count(n: int, q: int) -> int:
    """#Hilb^n(A^2)(F_q) = sum_i P(n, n-i) q^(2n-i)."""
    return sum(partitions_exactly(n, n - i) * q ** (2 * n - i) for i in range(n))


# ---------------------------------------------------------------------------
# Pretty-printed q-expressions, e.g. "2*q^(-3) - 1/2*q + 1"
# ---------------------------------------------------------------------------

_TERM = re.compile(r"(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?=q)|$))?(?P<q>q(?:\^(?P<exp>\d+|\(-?\d+(?:/\d+)?\)))?)?")


def parse_pretty(text: str) -> dict[Fraction, Fraction]:
    """Inverse of the package's QExpr pretty printer."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    terms: dict[Fraction, Fraction] = {}
    for sign, body in [("+", pieces[0])] + list(zip(pieces[1::2], pieces[2::2])):
        negative = (sign == "-") != body.startswith("-")
        body = body.removeprefix("-")
        match = _TERM.fullmatch(body)
        expect(bool(body) and match is not None, f"unparsable term {body!r} in {text!r}")
        coeff = Fraction(match["coeff"] or 1)
        if match["q"] is None:
            exponent = Fraction(0)
        else:
            exponent = Fraction((match["exp"] or "1").strip("()"))
        expect(exponent not in terms, f"repeated exponent in {text!r}")
        terms[exponent] = -coeff if negative else coeff
    return terms


# ---------------------------------------------------------------------------
# Exact evaluation of serialized term lists at q = t^r
# ---------------------------------------------------------------------------


def quad_terms(quads) -> list[tuple[Fraction, Fraction]]:
    """[[exp_num, exp_den, coeff_num, coeff_den], ...] -> (exponent, coeff)."""
    return [(Fraction(en, ed), Fraction(cn, cd)) for en, ed, cn, cd in quads]


def exponent_lcm(exponents) -> int:
    r = 1
    for e in exponents:
        r = math.lcm(r, Fraction(e).denominator)
    return r


def eval_terms(terms, t: int, r: int) -> Fraction:
    """sum c q^e at q = t^r; every e*r must be an integer."""
    return sum((c * q_power(t, r, e) for e, c in terms), Fraction(0))


def q_power(t: int, r: int, e: Fraction) -> Fraction:
    """q^e at q = t^r."""
    k = Fraction(e) * r
    expect(k.denominator == 1, f"exponent {e} not a multiple of 1/{r}")
    return Fraction(t) ** int(k)


def point_weight(t: int, r: int, a: Fraction, cs) -> Fraction:
    """q^a prod_j (q-1)/(q^(1-c_j)-1) at q = t^r, straight from the definition."""
    q = Fraction(t) ** r
    value = q_power(t, r, a)
    for c in cs:
        value *= (q - 1) / (q_power(t, r, 1 - Fraction(c)) - 1)
    return value


# ---------------------------------------------------------------------------
# Residue counts
# ---------------------------------------------------------------------------


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def poly_value(poly, point, modulus: int) -> int:
    total = 0
    for exps, coeff in poly:
        term = coeff
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total % modulus


def count_fp(poly, p: int) -> int:
    """#{(x, y) in F_p^2 : f(x, y) = 0} by direct scan."""
    return sum(1 for x in range(p) for y in range(p) if poly_value(poly, (x, y), p) == 0)
