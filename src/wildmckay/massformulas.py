"""Symbolic mass formulas for local fields.

Serre's mass formula: totally ramified degree-n extensions of a local field
with residue cardinality q have total mass q^(1-n) (mass = q^(-d) / #Aut).
Bhargava's mass formula: degree-n etale algebras have total mass
sum_{i=0}^{n-1} P(n, n-i) q^(-i).

The two are linked by an exponential identity.  Writing N(K_f, m) for the
totally ramified mass over the unramified extension K_f (with q replaced by
q^f) and M(K, n) for the etale-algebra mass,

    sum_n M(K, n) x^n = exp( sum_n x^n sum_{f|n} N(K_f, n/f) / f ).

Note the inner sum enters with weight 1: an etale algebra is a multiset of
fields, each field of degree n = e*f contributes x^n q^(-d) / #Aut, and
collecting fields by residue degree gives exactly N(K_f, n/f)/f.  A variant
with an extra 1/n factor on x^n is seen in print, but it is inconsistent:
it would give 3/4 + q^(-1)/2 as the degree-2 coefficient instead of the
quadratic mass 1 + q^(-1).  Tests pin the corrected form against the
independently enumerated algebra masses.
"""

from __future__ import annotations

from .numutil import BudgetExceededError, divisors
from .partitions import partition_row
from .qexpr import QExpr, _make, _sum_over
from .series import TruncatedSeries

__all__ = [
    "serre_mass",
    "bhargava_mass",
    "mass_series_via_exp",
    "recover_N_from_M",
    "NMAX_BUDGET",
    "BHARGAVA_DEGREE_BUDGET",
]

# Largest truncation degree the mass series accepts, in series degrees: exp and log cost about
# nmax^2 / 2 packed row products; at 100, `mass invert` (one exp, one log) takes 0.07-0.13 s and
# `mass expcheck` 0.04-0.08 s in-process, in each format (Python 3.11, 2-vCPU Intel Xeon).
NMAX_BUDGET = 100
# Largest degree bhargava_mass accepts (`mass bhargava --n`), in degrees: its partition table
# takes n^2 / 4 big-integer additions; `mass bhargava --n 4000` takes 0.49-0.67 s in-process
# in each format (Python 3.11, 2-vCPU Intel Xeon).
BHARGAVA_DEGREE_BUDGET = 4000


def _check_degree(n_max: int) -> None:
    if n_max > NMAX_BUDGET:
        raise BudgetExceededError(n_max, NMAX_BUDGET, "series", unit="degrees")


def serre_mass(n: int, f: int = 1) -> QExpr:
    """Totally ramified mass q_f^(1-n) over the unramified extension of
    degree f, i.e. q^(f(1-n))."""
    if n < 1 or f < 1:
        raise ValueError("need n >= 1 and f >= 1")
    return QExpr.q(f * (1 - n))


def bhargava_mass(n: int) -> QExpr:
    """Etale-algebra mass sum_{i=0}^{n-1} P(n, n-i) q^(-i).  BudgetExceededError, before any
    work, past BHARGAVA_DEGREE_BUDGET."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > BHARGAVA_DEGREE_BUDGET:
        raise BudgetExceededError(n, BHARGAVA_DEGREE_BUDGET, "partition", unit="degrees")
    row = partition_row(n)
    return _make([(-i, row[n - i]) for i in range(n)])


def _inner_exponent_series(n_max: int) -> TruncatedSeries:
    """sum_{n>=1} x^n sum_{f|n} N(K_f, n/f) / f with Serre's masses N, truncated at n_max.  Serre's
    q^(f(1-m)) at m = n/f is q^(f-n), so coefficient n is sum_{f|n} q^(f-n) (n/f) / n, built in
    canonical form over the common denominator n."""
    return TruncatedSeries([QExpr()] + [_make([(f - n, n // f) for f in divisors(n)], n)
                                        for n in range(1, n_max + 1)])


def mass_series_via_exp(n_max: int) -> TruncatedSeries:
    """Generating series sum_n M(K, n) x^n via the exponential identity, from Serre's totally
    ramified masses over the K_f.  BudgetExceededError, before any work, past NMAX_BUDGET."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    _check_degree(n_max)
    return _inner_exponent_series(n_max).exp()


def recover_N_from_M(M_series: TruncatedSeries) -> dict[tuple[int, int], QExpr]:
    """Solve the exponential identity for the totally ramified masses.

    The mass series over K_f is the input series M with q replaced by q^f.  That substitution is
    an injective ring map on the coefficients, so it commutes with the exp/log recurrences:
    log M(q^f) = (log M)(q^f), and one log serves every f.  Its coefficients
    S(f)_m = (log M)_m(q^f) = sum_{j|m} N(f*j, m/j) / j are triangular in m:
    N(f, m) = S(f)_m - sum_{j|m, j>1} N(f*j, m/j) / j.  Returns N on all pairs with
    f * m <= truncation degree.  ConstantTermError unless M has constant term 1, and
    BudgetExceededError past NMAX_BUDGET or when log M would span more than the dense budget:
    the cases of one log per f, whose f = 1 log was the largest (at truncation 0 it took none).
    """
    n_max = M_series.truncation
    _check_degree(n_max)
    log_M = M_series.log()
    N: dict[tuple[int, int], QExpr] = {}
    for m in range(1, n_max + 1):
        for f in range(1, n_max // m + 1):
            others = [(N[(f * j, m // j)], -j) for j in divisors(m)[1:]]
            N[(f, m)] = _sum_over([(log_M.coefficient(m).scale_exponents(f), 1)] + others)
    return N
