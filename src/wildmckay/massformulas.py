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

Both directions are computed: mass_series_via_exp takes the exp of Serre's side, and
recover_N_from_M recovers Serre's masses from one log of Bhargava's side, bhargava_series.
"""

from __future__ import annotations

from .numutil import check_budget, divisors, exact_int
from .partitions import partition_row, partition_rows
from .qexpr import QExpr, _make, _sum_over
from .series import TruncatedSeries

__all__ = [
    "serre_mass",
    "bhargava_mass",
    "bhargava_series",
    "mass_series_via_exp",
    "recover_N_from_M",
    "NMAX_BUDGET",
    "BHARGAVA_DEGREE_BUDGET",
]

# Largest truncation degree the mass series accepts, in series degrees: exp and log cost about
# nmax^2 / 2 packed row products; at 100, `mass invert` (one log, 100 solves) and `mass expcheck`
# (one exp) take 0.03-0.05 s each in-process, in each format (Python 3.11, 2-vCPU Intel Xeon).
NMAX_BUDGET = 100
# Largest degree bhargava_mass accepts (`mass bhargava --n`), in degrees: its partition table
# takes n^2 / 4 big-integer additions; `mass bhargava --n 4000` takes 0.49-0.67 s in-process
# in each format (Python 3.11, 2-vCPU Intel Xeon).
BHARGAVA_DEGREE_BUDGET = 4000


def serre_mass(n: int, f: int = 1) -> QExpr:
    """Totally ramified mass q_f^(1-n) over the unramified extension of
    degree f, i.e. q^(f(1-n))."""
    n, f = exact_int(n, "n", 1), exact_int(f, "f", 1)
    return QExpr.q(f * (1 - n))


def bhargava_mass(n: int) -> QExpr:
    """Etale-algebra mass sum_{i=0}^{n-1} P(n, n-i) q^(-i).  BudgetExceededError, before any
    work, past BHARGAVA_DEGREE_BUDGET."""
    check_budget(exact_int(n, "n", 1), BHARGAVA_DEGREE_BUDGET, "partition", "degrees")
    row = partition_row(n)
    return _make([(-i, row[n - i]) for i in range(n)])


def _check_nmax(n_max: int) -> None:
    check_budget(exact_int(n_max, "n_max", 1), NMAX_BUDGET, "series", "degrees")


def bhargava_series(n_max: int) -> TruncatedSeries:
    """Generating series sum_n M(K, n) x^n from Bhargava's partition formula, M(K, 0) = P(0, 0) = 1, truncated at
    n_max, from one partition table.  BudgetExceededError, before any work, past NMAX_BUDGET."""
    _check_nmax(n_max)
    return TruncatedSeries([_make([(-i, row[n - i]) for i in range(n + 1)]) for n, row in enumerate(partition_rows(n_max))])


def _inner_exponent_series(n_max: int) -> TruncatedSeries:
    """sum_{n>=1} x^n sum_{f|n} N(K_f, n/f) / f with Serre's masses N, truncated at n_max.  Serre's
    q^(f(1-m)) at m = n/f is q^(f-n), so coefficient n is sum_{f|n} q^(f-n) (n/f) / n, built in
    canonical form over the common denominator n."""
    return TruncatedSeries([QExpr()] + [_make([(f - n, n // f) for f in divisors(n)], n)
                                        for n in range(1, n_max + 1)])


def mass_series_via_exp(n_max: int) -> TruncatedSeries:
    """Generating series sum_n M(K, n) x^n via the exponential identity, from Serre's totally
    ramified masses over the K_f.  BudgetExceededError, before any work, past NMAX_BUDGET."""
    _check_nmax(n_max)
    return _inner_exponent_series(n_max).exp()


def recover_N_from_M(M_series: TruncatedSeries) -> dict[tuple[int, int], QExpr]:
    """Solve the exponential identity for the totally ramified masses.

    The mass series over K_f is the input series M with q replaced by q^f.  That substitution is
    an injective ring map on the coefficients, so it commutes with the exp/log recurrences:
    log M(q^f) = (log M)(q^f), and one log serves every f.  Its coefficients
    S(f)_m = (log M)_m(q^f) = sum_{j|m} N(f*j, m/j) / j are triangular in m:
    N(f, m) = S(f)_m - sum_{j|m, j>1} N(f*j, m/j) / j.  The map commutes with this solve too: if
    N(f*j, k) = N(1, k)(q^(f*j)) = N(j, k)(q^f) for every k < m, then N(f, m) = N(1, m)(q^f), so
    each m takes one solve, at f = 1, and one substitution per f > 1.  Returns N on all pairs with
    f * m <= truncation degree.  ConstantTermError unless M has constant term 1, and
    BudgetExceededError past NMAX_BUDGET or when log M would span more than the dense budget.
    """
    n_max = M_series.truncation
    check_budget(n_max, NMAX_BUDGET, "series", "degrees")
    log_M = M_series.log()
    N: dict[tuple[int, int], QExpr] = {}
    for m in range(1, n_max + 1):
        N[(1, m)] = one = _sum_over([(log_M.coefficient(m), 1)] + [(N[(j, m // j)], -j) for j in divisors(m)[1:]])
        for f in range(2, n_max // m + 1):
            N[(f, m)] = one.scale_exponents(f)
    return N
