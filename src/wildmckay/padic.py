"""Empirical p-adic measures by exact counting over residue rings.

Desk-scale evidence for the measure-theoretic facts the symbolic layer
relies on: a smooth variety has measure #X(F_p)/p^d (solution counts mod
p^(m+1) are exactly p^d times those mod p^m), the vanishing locus of a
non-constant polynomial is a null set (counts normalized by the full
ambient box decay to zero), and the one-variable monomial integral
int_{m_K} |x|^(-c) dx sums to q^(-1)(q-1)/(q^(1-c)-1) for c < 1 and
diverges for c >= 1.

All counting is exact integer arithmetic in one engine, first-order
Hensel lifting: only the box (Z/p)^n is enumerated, and the lifts of a
solution x mod p^k are the solutions of one linear system over F_p, because
f(x + p^k delta) = f(x) + p^k J(x) delta mod p^(k+1) for integer
polynomials and k >= 1, whether or not x is a singular point.  That system
depends on x only through J(x mod p) and f(x)/p^k mod p, so the frontier is
held in groups of points with one Jacobian mod p, solved once in the box scan,
each as coordinate columns: polynomials are evaluated exactly on whole columns
by lazy map chains, and a group's lifts are offset copies of its columns.  A
group whose Jacobian has full row rank has no constraints, so each of its points
has p^(n - rank) lifts at every level (Hensel's lemma): such a group is counted,
never listed or evaluated past the box.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress, product, repeat
from operator import add, floordiv, mod, mul, not_, or_
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import _lazy_module
from .numutil import (
    EXACT_DIGITS_BUDGET,
    BudgetExceededError,
    HenselMismatchError,
    SmoothnessError,
    check_budget,
    exact_int,
    exact_prime,
    json_object,
    parse_rational,
    read_json,
    short_repr,
)

# monomial_integral alone runs these, so that counting never does
qexpr, stringy = _lazy_module("qexpr"), _lazy_module("stringy")

__all__ = [
    "PolySystem",
    "ResidueCount",
    "SmoothMeasureReport",
    "BudgetExceededError",
    "SmoothnessError",
    "HenselMismatchError",
    "POINTS_BUDGET",
    "INTEGRAL_BUDGET",
    "LARGEST_SHELL_BUDGET",
    "EXACT_DIGITS_BUDGET",
    "count_points_mod",
    "null_set_fraction",
    "smooth_measure_check",
    "monomial_integral",
]

# Most points _level_counts evaluates: the box plus every frontier before the last, counted as if listed.
POINTS_BUDGET = 5_000_000
# Most work monomial_integral does, in shell bits: the bit sizes of the shells p^(i(c-1)) summed
# over i = 1..terms, terms (terms + 1) / 2 * max(1, |numerator of c - 1|) * bit_length(p).  The
# shells are summed as one q-expression and evaluated once, exactly or from one root of p:
# 0.02-0.04 s at the cap (c = -3, -100 or 2/3 at p = 5, c = 1/2 or 3/2 at p = 999983), where
# 12,500 terms of c = 3/2 at p = 999983 would take 1.6 s.
INTEGRAL_BUDGET = 50_000_000
# Largest shell monomial_integral sums, in bits: terms * max(1, |numerator of c - 1|) *
# bit_length(p).  One power costs more than its size (6.8 s for the shells of c = 1000001 at
# p = 5 over 5 terms, 15,000,000 bits), so a few large shells are refused although their sum fits
# INTEGRAL_BUDGET.  At both caps c = -100, 101 or 280/3 at p = 5 and c = -30 at p = 999983 take
# 0.01-0.07 s, and c = 1 + 1/49999 at p = 2 0.5 s: one root and 49,999 residue classes; a
# denominator of c - 1 past DENSE_DEGREE_BUDGET is refused (Python 3.11, 2-vCPU Intel Xeon).
LARGEST_SHELL_BUDGET = 250_000


class PolySystem(namedtuple("PolySystem", "p num_vars polys dim")):
    """Integer polynomial system over (Z/p^m)^n with an expected dimension; polys holds each
    polynomial as a tuple of (exponent tuple, nonzero coefficient) terms.

    The dimension d is caller-supplied knowledge about the variety; it only
    enters normalizations, never the counting itself.
    """

    __slots__ = ()

    def __new__(cls, p: int, num_vars: int, polys: Sequence[Sequence[Sequence]], dim: int):
        p, num_vars, dim = exact_prime(p), exact_int(num_vars, "n", 1), exact_int(dim, "d")
        if not 0 <= dim <= num_vars:
            raise ValueError(f"expected dimension {dim} outside [0, {num_vars}]")
        if not isinstance(polys, (list, tuple)):
            raise ValueError(f"polys must be a list of polynomials, got {short_repr(polys)}")
        clean_polys = []
        for poly in polys:
            if not isinstance(poly, (list, tuple)):
                raise ValueError(f"polynomial {short_repr(poly)} must be a list of terms")
            terms = []
            for term in poly:
                is_pair = isinstance(term, (list, tuple)) and len(term) == 2
                if not (is_pair and isinstance(term[0], (list, tuple))):
                    raise ValueError(f"term {short_repr(term)} must be [exponents, coefficient]")
                exps = tuple(exact_int(e, "exponent", 0) for e in term[0])
                coeff = exact_int(term[1], "coefficient")
                if len(exps) != num_vars:
                    raise ValueError(f"exponent vector {short_repr(exps)} has wrong length")
                if coeff != 0:
                    terms.append((exps, coeff))
            if not terms:
                raise ValueError("each polynomial needs at least one nonzero term")
            clean_polys.append(tuple(terms))
        return super().__new__(cls, p, num_vars, tuple(clean_polys), dim)

    # -- serialization ------------------------------------------------------

    @staticmethod
    def from_json(data: Mapping) -> "PolySystem":
        json_object(data, "polynomial system", ("p", "n", "polys", "d"))
        return PolySystem(data["p"], data["n"], data["polys"], data["d"])

    @staticmethod
    def load(path: str | Path) -> "PolySystem":
        return PolySystem.from_json(read_json(path))


class ResidueCount(namedtuple("ResidueCount", "p dim modulus_exponent count")):
    __slots__ = ()

    @property
    def normalized(self) -> Fraction:
        return Fraction(self.count, self.p ** (self.modulus_exponent * self.dim))


# ---------------------------------------------------------------------------
# Exact counting engine
# ---------------------------------------------------------------------------


def _compiled(polys) -> list:
    """Per-polynomial term lists with zero exponents dropped."""
    return [
        [(coeff, tuple((idx, e) for idx, e in enumerate(exps) if e)) for exps, coeff in poly]
        for poly in polys
    ]


def _jacobian_polys(system: PolySystem) -> list:
    """Row i, column v: the compiled partial derivative of poly i in variable v."""
    return [
        _compiled(
            [(exps[:v] + (exps[v] - 1,) + exps[v + 1 :], coeff * exps[v]) for exps, coeff in poly if exps[v]]
            for v in range(system.num_vars)
        )
        for poly in system.polys
    ]


def _linear_solver(jacobian: tuple, p: int, n: int):
    """J @ delta = b over F_p for every b, from one elimination of [J | I] on J's columns, J the
    rows of n residues mod p in the flat tuple jacobian; it gives T with T @ J in reduced echelon
    form.  Returns (rank, None) as soon as every row of J has a pivot, when every b is solvable.
    Otherwise returns (rank, (constraints, pivots, basis)): constraints are the rows t of T with
    t @ J = 0, and b is solvable iff t . b = 0 for each; pivots maps each pivot column col to its
    row r of T negated, and delta[col] = r . b, zeros elsewhere, is then a solution; basis spans
    the kernel."""
    count = len(jacobian) // n
    rows = [[*jacobian[i * n:i * n + n], *(int(i == j) for j in range(count))] for i in range(count)]
    cols: list[int] = []
    for col in range(n):
        rank = len(cols)
        for i in range(rank, count):
            if rows[i][col]:
                break
        else:
            continue
        if rank + 1 == count:  # the last row's pivot: J has full row rank
            return count, None
        top, rows[i] = rows[i], rows[rank]
        inv = pow(top[col], -1, p)
        rows[rank] = top = [v * inv % p for v in top]
        for i, row in enumerate(rows):
            if i != rank and (factor := row[col]):
                rows[i] = [(v - factor * w) % p for v, w in zip(row, top)]
        cols.append(col)
    rank = len(cols)
    if rank == count:  # J has no rows
        return rank, None
    basis = []
    for free in [c for c in range(n) if c not in cols]:
        vector = [0] * n
        vector[free] = 1
        for col, row in zip(cols, rows):
            vector[col] = -row[free] % p
        basis.append(vector)
    pivots = {col: [-v % p for v in row[n:]] for col, row in zip(cols, rows)}
    return rank, ([row[n:] for row in rows[rank:]], pivots, basis)


def _column_values(compiled, column, size: int) -> list:
    """Lazy exact values of the compiled polynomials at size points whose coordinate i is read
    from a new iterable column(i) for each factor it appears in."""

    def term(coeff, factors):
        chained = [column(i) if e == 1 else map(pow, column(i), repeat(e)) for i, e in factors]
        return reduce(partial(map, mul), chained + [repeat(coeff, size)] if coeff != 1 or not chained else chained)

    return [reduce(partial(map, add), [term(*t) for t in terms] or [repeat(0, size)]) for terms in compiled]


def _dot(row, columns):
    """Lazy column of row . x over the points, for a nonzero row and columns x."""
    return reduce(partial(map, add), [x if c == 1 else map(mul, x, repeat(c)) for c, x in zip(row, columns) if c])


def _box_slabs(p: int, n: int) -> Iterator[tuple[list, int]]:
    """(columns, size) slabs of the box (Z/p)^n in product order: the last s coordinates run
    through (Z/p)^s in each slab and the others are constant, with s >= 1 and p^s <= 4096 if s > 1."""
    s = max([1] + [s for s in range(2, n + 1) if p**s <= 4096])
    inner = list(zip(*product(range(p), repeat=s))) if s > 1 else [range(p)]
    for prefix in product(range(p), repeat=n - s):
        yield [[x] * p**s for x in prefix] + inner, p**s


def _level_counts(system: PolySystem, m: int, rank: int | None = None) -> Iterator[int]:
    """Yield #X(Z/p^k) for k = 1..m, one level at a time.

    A solution x mod p^k lifts to x + p^k delta mod p^(k+1) iff
    J(x mod p) delta = -f(x)/p^k over F_p: no lifts, or p^(n - rank J).
    Per group of one J mod p, f/p^k mod p is listed from one lazy evaluation
    of the whole frontier, the constraints and the particular solution are
    column dot products of it, and the children are p^(n - rank J) offset
    copies of the surviving columns.  The last level is counted, not listed,
    and so is every constraint-free group (J mod p of full row rank): a lift
    keeps its residue mod p, so each of its points has p^(n - rank J) lifts at
    every level, and only its number of points per kernel dimension is kept.
    POINTS_BUDGET bounds the points evaluated: the box plus every frontier
    before the last, a counted one as if it were listed, checked before each
    one is listed; p^(m deg), about the size of the polynomials' values at
    points mod p^m (deg their largest total degree, at least 1), may have at
    most EXACT_DIGITS_BUDGET digits.  If rank is given, every mod-p solution
    must have it, checked in box order.
    """
    p, n = system.p, system.num_vars
    degree = max([sum(exps) for poly in system.polys for exps, _ in poly] + [1])
    power = "p^m" if degree == 1 else f"p^({degree}m)"
    check_budget(math.floor(m * degree * math.log10(p)) + 1, EXACT_DIGITS_BUDGET, "lifting", f"digits in {power}")
    evaluated = p**n
    check_budget(evaluated, POINTS_BUDGET, "box", "points evaluated", 1)
    polys = _compiled(system.polys)
    derivatives = sum(_jacobian_polys(system), [])
    # J mod p, row by row -> (rank, None) if constraint-free, else (rank, (columns, constraints,
    # negated pivot rows, kernel basis)); free[b]: points of constraint-free groups with kernel dimension b
    found, groups, free = 0, {}, [0] * (n + 1)
    for columns, size in _box_slabs(p, n):
        residues = [map(mod, v, repeat(p)) for v in _column_values(polys, columns.__getitem__, size)]
        keep = list(map(not_, reduce(partial(map, or_), residues, repeat(0, size))))
        found += sum(keep)
        if m == 1 and rank is None:
            continue
        columns = [list(compress(x, keep)) for x in columns]
        jacobians = [map(mod, v, repeat(p)) for v in _column_values(derivatives, columns.__getitem__, sum(keep))]
        for entry in zip(*columns, *jacobians):
            point, jacobian = entry[:n], entry[n:]
            if jacobian not in groups:  # of full row rank, J has no constraints and only its rank is kept
                found_rank, solution = _linear_solver(jacobian, p, n)
                groups[jacobian] = found_rank, solution and ([[] for _ in point], *solution)
            found_rank, group = groups[jacobian]
            if rank is not None and found_rank != rank:
                raise SmoothnessError(f"Jacobian rank {found_rank} != {rank} at mod-{p} point {point}")
            if not group:
                free[n - found_rank] += 1
                continue
            for column, x in zip(group[0], point):
                column.append(x)
    yield found
    groups, step = [group for _, group in groups.values() if group], 1
    for k in range(1, m):
        step *= p
        free = [c * p**b for b, c in enumerate(free)]  # each point of such a group has p^b lifts
        size, lifts, end = sum(free), [], 0
        if groups:
            frontier = lambda i: chain.from_iterable([group[0][i] for group in groups])
            values = _column_values(polys, frontier, sum(len(group[0][0]) for group in groups))
            residues = [list(map(mod, map(floordiv, v, repeat(step)), repeat(p))) for v in values]
        for columns, constraints, pivots, basis in groups:
            start, end = end, end + len(columns[0])
            rhs = [r[start:end] for r in residues]
            checks = [map(mod, _dot(t, rhs), repeat(p)) for t in constraints]
            keep = list(map(not_, reduce(partial(map, or_), checks)))
            survivors = sum(keep)
            if k + 1 < m:
                columns, rhs = ([list(compress(x, keep)) for x in xs] for xs in (columns, rhs))
            size += survivors * p ** len(basis)
            if survivors:
                lifts.append((columns, rhs, constraints, pivots, basis))
        if k + 1 == m:
            yield size
            return
        evaluated += size
        check_budget(evaluated, POINTS_BUDGET, "lifting", "points evaluated", k + 1)
        groups = []
        while lifts:  # popped, so that each parent group is freed once its children are listed
            columns, rhs, constraints, pivots, basis = lifts.pop()
            kernel = [[0]] * n  # offsets by coordinate, over F_p^len(basis) in product order
            for v in basis:
                kernel = [[(o + t * v[j]) % p for o in offsets for t in range(p)] for j, offsets in enumerate(kernel)]
            children = []
            for j, (x, offsets) in enumerate(zip(columns, kernel)):
                if j in pivots:
                    particular = list(map(mod, _dot(pivots[j], rhs), repeat(p)))
                    lifted = (map(mul, map(mod, map(add, particular, repeat(o)), repeat(p)), repeat(step))
                              for o in offsets)
                else:
                    lifted = map(repeat, [step * o for o in offsets], repeat(len(x)))
                children.append(list(map(add, chain.from_iterable(repeat(x, len(offsets))), chain.from_iterable(lifted))))
            groups.append((children, constraints, pivots, basis))
        yield size


def count_points_mod(system: PolySystem, m: int) -> ResidueCount:
    """Exact number of simultaneous roots in (Z/p^m)^n."""
    *_, count = _level_counts(system, exact_int(m, "m", 1))
    return ResidueCount(p=system.p, dim=system.dim, modulus_exponent=m, count=count)


def null_set_fraction(system: PolySystem, m: int) -> Fraction:
    """count / p^(m n): the box fraction cut out by the system.

    Normalization is by the full ambient dimension n, not d; for a proper
    subvariety this must decay to zero as m grows.
    """
    return Fraction(count_points_mod(system, m).count, system.p ** (m * system.num_vars))


# ---------------------------------------------------------------------------
# Smooth measure check
# ---------------------------------------------------------------------------


class SmoothMeasureReport(namedtuple("SmoothMeasureReport", "p dim m_max counts measure")):
    __slots__ = ()


def smooth_measure_check(system: PolySystem, m_max: int) -> SmoothMeasureReport:
    """Verify count(m+1) = p^d count(m) for 1 <= m < m_max and report the
    stabilized measure #X(F_p)/p^d.

    The Jacobian must have rank n - d at every mod-p solution (checked, not
    assumed); the counts themselves are exact whether or not the lifting
    relation holds.
    """
    exact_int(m_max, "m_max", 1)
    p, n, d = system.p, system.num_vars, system.dim
    counts: list[int] = []
    for count in _level_counts(system, m_max, rank=n - d):
        if counts and count != p**d * counts[-1]:
            m = len(counts)
            raise HenselMismatchError(f"count({m + 1}) = {count} != p^d * count({m}) = {p**d * counts[-1]}")
        counts.append(count)
    return SmoothMeasureReport(
        p=p, dim=d, m_max=m_max, counts=counts, measure=Fraction(counts[0], p**d)
    )


# ---------------------------------------------------------------------------
# Monomial integral
# ---------------------------------------------------------------------------


def monomial_integral(c: Fraction | int, p: int, terms: int) -> tuple[Fraction, qexpr.QFrac | qexpr.InfiniteType]:
    """Truncation and closed form of the integral of |x|^(-c) over m_K, c read by parse_rational.

    partial = sum_{i=1}^{terms} q^(i(c-1)) (1 - q^(-1)) at q = p, the measures of
    the valuation-i shells; exact = q^(-1)(q-1)/(q^(1-c)-1), the stringy weight of one point
    with a = -1 on a divisor of coefficient c, so Infinite when c >= 1.  The partial sum is
    exact for integer c; for fractional c it is the approximation of evaluate, within
    numutil.DEFAULT_PRECISION and within 10^-20 of its size.
    """
    exact_int(terms, "terms", 1)
    exact_prime(p)
    c = parse_rational(c)
    first_shell = max(1, abs((c - 1).numerator)) * p.bit_length()
    shell_bits, largest = terms * (terms + 1) // 2 * first_shell, terms * first_shell
    check_budget(shell_bits, INTEGRAL_BUDGET, "integral", "shell bits")
    check_budget(largest, LARGEST_SHELL_BUDGET, "integral", "bits in the largest shell")
    # one q-expression, so that a fractional c takes one root of p for all its shells
    shells = qexpr.QExpr([(i * (c - 1), 1) for i in range(1, terms + 1)]) * (1 - qexpr.QExpr.q(-1))
    partial = shells.evaluate(p)
    return partial, stringy.stringy_point_contribution(-1, [c])
