"""Stringy point counts of simple-normal-crossing log pairs, evaluated from
combinatorial stratum data.

The input is the boundary data visible to integer points: rational
coefficients c_j on horizontal divisors C_j, vertical components with
coefficients a_h, and for each pair (h, J) the number of residue points on
the locally closed stratum lying on exactly the C_j with j in J.  The count
is then

    sum_h q^(a_h) sum_J #stratum(h, J) prod_{j in J} (q - 1)/(q^(1-c_j) - 1),

finite precisely when every c_j >= 1 sits on empty strata only.  The sum
is taken over one common denominator D = prod_j (q^(1-c_j) - 1), the
product over the c_j < 1, on integer rows over t = q^(1/r), one r for every
exponent: the term for (h, J) is #stratum(h, J) q^(a_h) (q - 1)^|J|
prod_{j not in J} (q^(1-c_j) - 1), folded in one divisor at a time as a shift
and a subtraction.  D is the product of the t^k_j - 1, k_j = r(1 - c_j), so
its gcd with the numerator is a product of cyclotomic polynomials Phi_d(t),
d | k_j, found by trial division.  Components supported in the special
fiber where the model is singular carry no integer points and are
deliberately absent from the data model.

Whether the divisor data actually comes from an SNC pair (irreducible
completions, parameter products) is a geometric hypothesis on the caller's
side; nothing here can check it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .numutil import exact_int, json_array, json_object, parse_rational, read_json, short_repr, unpack_slots
from .qexpr import INFINITE, InfiniteType, QExpr, QFrac, _check_span, _cyclotomic_qfrac

__all__ = [
    "SncLogPairData",
    "VerticalComponent",
    "MalformedSubsetError",
    "stringy_point_contribution",
    "stringy_count_snc",
]


class MalformedSubsetError(ValueError):
    """A stratum key is not a valid subset of the horizontal divisor indices."""


class VerticalComponent(namedtuple("VerticalComponent", "a strata")):
    """One vertical coefficient a (a Fraction) with its stratum point counts.

    Keys of ``strata`` are frozensets of 1-based horizontal indices; the
    entry for frozenset() counts points on no horizontal divisor.  Use an
    a = 0 component for points lying on no vertical divisor at all.  They are
    kept as a tuple of (subset, count) pairs, ordered by sorted subset.
    """

    __slots__ = ()

    def __new__(cls, a, strata: Mapping[frozenset[int], int] | Iterable[tuple[frozenset[int], int]]):
        items = strata.items() if isinstance(strata, Mapping) else strata
        counts = ((frozenset(k), exact_int(v, "stratum count")) for k, v in items)
        return super().__new__(cls, Fraction(a), tuple(sorted(counts, key=lambda kv: sorted(kv[0]))))


class SncLogPairData(namedtuple("SncLogPairData", "horizontal vertical declared_total")):
    """Horizontal coefficients (a tuple of Fractions), vertical components (a tuple), and the
    total point count the input declared, or None."""

    __slots__ = ()

    def __new__(cls, horizontal: Sequence, vertical: Sequence[VerticalComponent], declared_total: int | None = None):
        horizontal = tuple(Fraction(c) for c in horizontal)
        vertical = tuple(vertical)
        n_div = len(horizontal)
        total = 0
        for component in vertical:
            for subset, count in component.strata:
                if count < 0:
                    raise ValueError(f"negative stratum count {count}")
                for j in subset:
                    if not (isinstance(j, int) and 1 <= j <= n_div):
                        raise MalformedSubsetError(
                            f"subset {short_repr(sorted(subset))} not within horizontal indices 1..{n_div}")
                total += count
        if declared_total is not None and total != exact_int(declared_total, "total"):
            raise ValueError(f"stratum counts sum to {total}, declared total is {declared_total}")
        return super().__new__(cls, horizontal, vertical, declared_total)

    # -- JSON ----------------------------------------------------------------

    @staticmethod
    def from_json(data: Mapping) -> "SncLogPairData":
        json_object(data, "SNC pair data")
        horizontal = [parse_rational(c) for c in json_array(data.get("horizontal", []), "horizontal")]
        vertical = []
        for entry in json_array(data.get("vertical", []), "vertical"):
            strata: dict[frozenset[int], int] = {}
            for stratum in json_array(json_object(entry, "vertical component").get("strata", []), "strata"):
                raw = json_object(stratum, "stratum", ("subset", "count"))["subset"]
                if not isinstance(raw, list) or any(not isinstance(j, int) or isinstance(j, bool) for j in raw):
                    raise MalformedSubsetError(f"subset {short_repr(raw)} must be an array of integers")
                subset = frozenset(raw)
                if len(subset) != len(raw):
                    raise MalformedSubsetError(f"subset {short_repr(raw)} has repeated indices")
                if subset in strata:
                    raise MalformedSubsetError(f"subset {short_repr(sorted(subset))} listed twice")
                strata[subset] = stratum["count"]
            vertical.append(VerticalComponent(parse_rational(entry.get("a", 0)), strata))
        return SncLogPairData(horizontal, vertical, data.get("total"))

    @staticmethod
    def load(path: str | Path) -> "SncLogPairData":
        return SncLogPairData.from_json(read_json(path))


def stringy_point_contribution(a, cs: Iterable) -> QFrac | InfiniteType:
    """Weight q^a prod_j (q-1)/(q^(1-c_j)-1) of a single residue point,
    Infinite as soon as one c_j >= 1: the stratum sum of one point on every C_j."""
    cs = [Fraction(c) for c in cs]
    return _stratum_sum(cs, [(Fraction(a), frozenset(range(1, len(cs) + 1)), 1)])


def stringy_count_snc(data: SncLogPairData) -> QFrac | InfiniteType:
    """Evaluate the stratum formula; Infinite iff a coefficient >= 1 occurs
    in a subset with a nonzero stratum count."""
    return _stratum_sum(data.horizontal, [(v.a, subset, count) for v in data.vertical for subset, count in v.strata])


def _stratum_sum(cs: Sequence[Fraction], strata: list[tuple[Fraction, frozenset[int], int]]) -> QFrac | InfiniteType:
    """The stratum formula over (a_h, J, #stratum(h, J)) triples."""
    # Only c_j < 1 enters the common denominator: at c_j = 1 the factor
    # q^0 - 1 is zero, and such a divisor may still sit on empty strata.
    strata = [(a, subset, count) for a, subset, count in strata if count]
    live = {j for j, c in enumerate(cs, 1) if c < 1}
    if any(not subset <= live for _, subset, _ in strata):
        return INFINITE
    if not live or not strata:
        return QFrac(QExpr([(a, count) for a, _, count in strata]))  # no divisor: a Laurent value
    r = math.lcm(*[cs[j - 1].denominator for j in live], *[a.denominator for a, _, _ in strata])
    ks = {j: r - cs[j - 1].numerator * (r // cs[j - 1].denominator) for j in sorted(live)}  # r (1 - c_j)
    # Over t, the term of (a, J) is #stratum t^(r a) (t^r - 1)^|J| prod_{j not in J} (t^k_j - 1):
    # row index r a - base and up, with its positive count at the top, so no top entry cancels.
    base, wide = min([a.numerator * (r // a.denominator) for a, _, _ in strata]), sum(ks.values())
    placed = [(a.numerator * (r // a.denominator) - base, subset, count) for a, subset, count in strata]
    size = max([i + sum([r - ks[j] for j in subset]) for i, subset, _ in placed]) + wide
    _check_span(max(size, wide))  # the rows and D; t^base is an exponent of the value, not a row
    # Rows are ints with a slot of width bytes per t-degree; a fold step at most doubles the sum of
    # the |coefficients|.  Strata that agree off the divisors folded so far share later products.
    width = ((sum([count for _, _, count in placed]) << len(ks)).bit_length() + 8) // 8
    rows: dict[frozenset[int], int] = {}
    for i, subset, count in placed:
        rows[subset] = rows.get(subset, 0) + (count << (8 * width * i))
    for j, k in ks.items():
        folded: dict[frozenset[int], int] = {}
        for subset, row in rows.items():
            rest = subset - {j}
            folded[rest] = folded.get(rest, 0) + (row << (8 * width * (r if j in subset else k))) - row
        rows = folded
    return _cyclotomic_qfrac(unpack_slots(rows[frozenset()], width, size + 1), list(ks.values()), base, r)
