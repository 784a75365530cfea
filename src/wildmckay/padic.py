"""Empirical p-adic measures by exact counting over residue rings.

Desk-scale evidence for the measure-theoretic facts the symbolic layer
relies on: a smooth variety has measure #X(F_p)/p^d (solution counts mod
p^(m+1) are exactly p^d times those mod p^m), the vanishing locus of a
non-constant polynomial is a null set (counts normalized by the full
ambient box decay to zero), and the one-variable monomial integral
int_{m_K} |x|^(-c) dx sums to q^(-1)(q-1)/(q^(1-c)-1) for c < 1 and
diverges for c >= 1.

All counting is exact integer arithmetic.  Two engines exist: plain
enumeration of the full box (Z/p^m)^n, and level-by-level lifting that
enumerates the p^n candidate lifts of each solution; both are exhaustive,
the second just skips non-solutions' lifts, which makes deep levels
reachable for small solution sets.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .numutil import exact_int, is_prime
from .qexpr import INFINITE, InfiniteType, QExpr, QFrac, nth_root_approx

__all__ = [
    "PolySystem",
    "ResidueCount",
    "SmoothMeasureReport",
    "BudgetExceededError",
    "SmoothnessError",
    "HenselMismatchError",
    "DEFAULT_BUDGET",
    "count_points_mod",
    "largest_affordable_m",
    "null_set_fraction",
    "smooth_measure_check",
    "monomial_integral",
]

DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration budget exceeded: need {required}, budget {budget}")
        self.required = required
        self.budget = budget


class SmoothnessError(ValueError):
    """The Jacobian drops rank at a mod-p solution."""


class HenselMismatchError(ArithmeticError):
    """Solution counts fail the smooth lifting relation count(m+1) = p^d count(m)."""


Term = tuple[tuple[int, ...], int]
Poly = tuple[Term, ...]


@dataclass(frozen=True)
class PolySystem:
    """Integer polynomial system over (Z/p^m)^n with an expected dimension.

    The dimension d is caller-supplied knowledge about the variety; it only
    enters normalizations, never the counting itself.
    """

    p: int
    num_vars: int
    polys: tuple[Poly, ...]
    dim: int

    def __init__(self, p: int, num_vars: int, polys: Sequence[Sequence[Sequence]], dim: int):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if not 0 <= dim <= num_vars:
            raise ValueError(f"expected dimension {dim} outside [0, {num_vars}]")
        if not isinstance(polys, (list, tuple)):
            raise ValueError(f"polys must be a list of polynomials, got {polys!r}")
        clean_polys = []
        for poly in polys:
            if not isinstance(poly, (list, tuple)):
                raise ValueError(f"polynomial {poly!r} must be a list of terms")
            terms = []
            for term in poly:
                is_pair = isinstance(term, (list, tuple)) and len(term) == 2
                if not (is_pair and isinstance(term[0], (list, tuple))):
                    raise ValueError(f"term {term!r} must be [exponents, coefficient]")
                exps = tuple(exact_int(e, "exponent") for e in term[0])
                coeff = exact_int(term[1], "coefficient")
                if len(exps) != num_vars:
                    raise ValueError(f"exponent vector {exps} has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("exponents must be non-negative")
                if coeff != 0:
                    terms.append((exps, coeff))
            if not terms:
                raise ValueError("each polynomial needs at least one nonzero term")
            clean_polys.append(tuple(terms))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "polys", tuple(clean_polys))
        object.__setattr__(self, "dim", dim)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.num_vars,
            "d": self.dim,
            "polys": [[[list(exps), coeff] for exps, coeff in poly] for poly in self.polys],
        }

    @staticmethod
    def from_json(data: Mapping) -> "PolySystem":
        return PolySystem(
            p=exact_int(data["p"], "p"),
            num_vars=exact_int(data["n"], "n"),
            polys=data["polys"],
            dim=exact_int(data["d"], "d"),
        )

    @staticmethod
    def load(path: str | Path) -> "PolySystem":
        with open(path, "r", encoding="utf-8") as fh:
            return PolySystem.from_json(json.load(fh))


@dataclass(frozen=True)
class ResidueCount:
    p: int
    dim: int
    modulus_exponent: int
    count: int

    @property
    def normalized(self) -> Fraction:
        return Fraction(self.count, self.p ** (self.modulus_exponent * self.dim))


# ---------------------------------------------------------------------------
# Exact counting engines
# ---------------------------------------------------------------------------


def _compiled(system: PolySystem, modulus: int):
    """Per-polynomial term lists with zero exponents dropped."""
    compiled = []
    for poly in system.polys:
        terms = []
        for exps, coeff in poly:
            factors = tuple((idx, e) for idx, e in enumerate(exps) if e > 0)
            terms.append((coeff % modulus, factors))
        compiled.append(terms)
    return compiled


def _is_solution(compiled, point, modulus) -> bool:
    for terms in compiled:
        acc = 0
        for coeff, factors in terms:
            value = coeff
            for idx, e in factors:
                value = value * pow(point[idx], e, modulus) % modulus
            acc = (acc + value) % modulus
        if acc:
            return False
    return True


def _box_solutions(system: PolySystem, m: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Solutions in the full box (Z/p^m)^n; the box size is checked against
    the budget before the first point is tested."""
    box = system.p ** (m * system.num_vars)
    if box > budget:
        raise BudgetExceededError(required=box, budget=budget)
    modulus = system.p**m
    compiled = _compiled(system, modulus)
    for point in itertools.product(range(modulus), repeat=system.num_vars):
        if _is_solution(compiled, point, modulus):
            yield point


def _lift_level(
    system: PolySystem, solutions: list[tuple[int, ...]], m: int, budget: int
) -> list[tuple[int, ...]]:
    """All solutions mod p^(m+1) lying over the given solutions mod p^m.

    Exhaustive: every solution mod p^(m+1) reduces to one mod p^m, so
    checking the p^n translates x + p^m * delta of each x misses nothing.
    """
    p, n = system.p, system.num_vars
    work = len(solutions) * p**n
    if work > budget:
        raise BudgetExceededError(required=work, budget=budget)
    modulus = p ** (m + 1)
    step = p**m
    compiled = _compiled(system, modulus)
    lifted = []
    for base in solutions:
        for delta in itertools.product(range(p), repeat=n):
            candidate = tuple(b + step * d for b, d in zip(base, delta))
            if _is_solution(compiled, candidate, modulus):
                lifted.append(candidate)
    return lifted


def count_points_mod(system: PolySystem, m: int, budget: int = DEFAULT_BUDGET) -> ResidueCount:
    """Exact number of simultaneous roots in (Z/p^m)^n, by full enumeration."""
    if m < 1:
        raise ValueError("need m >= 1")
    count = sum(1 for _ in _box_solutions(system, m, budget))
    return ResidueCount(p=system.p, dim=system.dim, modulus_exponent=m, count=count)


def largest_affordable_m(system: PolySystem, budget: int = DEFAULT_BUDGET) -> int:
    """Largest m whose full box p^(m n) fits the budget (0 if none does)."""
    m = 0
    while system.p ** ((m + 1) * system.num_vars) <= budget:
        m += 1
    return m


def null_set_fraction(system: PolySystem, m: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """count / p^(m n): the box fraction cut out by the system.

    Normalization is by the full ambient dimension n, not d; for a proper
    subvariety this must decay to zero as m grows.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    count = sum(1 for _ in _box_solutions(system, m, budget))
    return Fraction(count, system.p ** (m * system.num_vars))


# ---------------------------------------------------------------------------
# Smooth measure check
# ---------------------------------------------------------------------------


def _jacobian_rank_mod_p(system: PolySystem, point: tuple[int, ...]) -> int:
    p = system.p
    rows = []
    for poly in system.polys:
        row = []
        for var in range(system.num_vars):
            acc = 0
            for exps, coeff in poly:
                e = exps[var]
                if e == 0:
                    continue
                value = coeff * e % p
                for idx, exp in enumerate(exps):
                    exp_here = exp - 1 if idx == var else exp
                    if exp_here:
                        value = value * pow(point[idx], exp_here, p) % p
                acc = (acc + value) % p
            row.append(acc)
        rows.append(row)
    # Gaussian elimination over F_p
    rank = 0
    cols = system.num_vars
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(v - factor * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@dataclass
class SmoothMeasureReport:
    p: int
    dim: int
    m_max: int
    counts: list[int]
    measure: Fraction

    @property
    def residue_point_count(self) -> int:
        return self.counts[0]


def smooth_measure_check(system: PolySystem, m_max: int, budget: int = DEFAULT_BUDGET) -> SmoothMeasureReport:
    """Verify count(m+1) = p^d count(m) for 1 <= m < m_max and report the
    stabilized measure #X(F_p)/p^d.

    The Jacobian must have rank n - d at every mod-p solution (checked, not
    assumed); counting then proceeds by exhaustive lift enumeration, which
    stays exact whether or not the lifting relation holds.
    """
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    p, n, d = system.p, system.num_vars, system.dim
    solutions = list(_box_solutions(system, 1, budget))
    expected_rank = n - d
    for point in solutions:
        rank = _jacobian_rank_mod_p(system, point)
        if rank != expected_rank:
            raise SmoothnessError(
                f"Jacobian rank {rank} != {expected_rank} at mod-{p} point {point}"
            )
    counts = [len(solutions)]
    frontier = solutions
    for m in range(1, m_max):
        frontier = _lift_level(system, frontier, m, budget)
        counts.append(len(frontier))
        if counts[-1] != p**d * counts[-2]:
            raise HenselMismatchError(
                f"count({m + 1}) = {counts[-1]} != p^d * count({m}) = {p**d * counts[-2]}"
            )
    return SmoothMeasureReport(
        p=p, dim=d, m_max=m_max, counts=counts, measure=Fraction(counts[0], p**d)
    )


# ---------------------------------------------------------------------------
# Monomial integral
# ---------------------------------------------------------------------------


def monomial_integral(
    c: Fraction | int,
    p: int,
    terms: int,
    precision: Fraction = Fraction(1, 10**12),
) -> tuple[Fraction, QFrac | InfiniteType]:
    """Truncation and closed form of the integral of |x|^(-c) over m_K.

    partial = sum_{i=1}^{terms} p^(ic) (p^(-i) - p^(-i-1)), the measures of
    the valuation-i shells; exact = q^(-1)(q-1)/(q^(1-c)-1) when c < 1 and
    the Infinite value otherwise.  The partial sum is exact for integer c
    and a rational approximation within `precision` for fractional c.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    c = Fraction(c)
    partial = Fraction(0)
    unit_shell = 1 - Fraction(1, p)
    for i in range(1, terms + 1):
        exponent = i * (c - 1)
        if exponent.denominator == 1:
            power = Fraction(p) ** int(exponent)
        else:
            power = nth_root_approx(
                Fraction(p) ** exponent.numerator,
                exponent.denominator,
                precision / terms,
            )
        partial += power * unit_shell
    if c >= 1:
        return partial, INFINITE
    exact = QFrac(QExpr.q(-1) * (QExpr.q() - 1), QExpr.q(1 - c) - 1)
    return partial, exact
