"""Test-only references: the QFrac canonical form by Euclid over Fraction coefficients, the
totally ramified masses from one log per unramified degree, and linear systems over F_p by
Gauss-Jordan elimination.

The kernel builds a QFrac over a monomial denominator (an exponent shift) or over a product of
binomials t^k - 1 (cyclotomic trial division, in ``qexpr._cyclotomic_qfrac``).  This reference
reduces any quotient by its polynomial gcd over Q, so the tests compare both builders against it,
and take from it the values with other denominators that they need.

``massformulas.recover_N_from_M`` takes one log and substitutes q -> q^f into its coefficients;
``reference_recover_N_from_M`` substitutes into the series first and takes one log per f.

``padic._linear_solver`` eliminates on the Jacobian's columns only and stops once every row has a
pivot; ``reference_linear_solver`` reduces every column of ``[J | I]``.
"""

import math
from fractions import Fraction

from wildmckay.numutil import divisors
from wildmckay.qexpr import QExpr, QFrac
from wildmckay.series import TruncatedSeries


def _poly_strip(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_divmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
        if not _poly_strip(rem):
            break
    return _poly_strip(quo), rem


def _poly_gcd(a, b):
    """Monic gcd in Q[t] by the Euclidean algorithm."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def reference_canonical_pair(num: QExpr, den: QExpr) -> tuple[QExpr, QExpr]:
    """QFrac canonical form by Euclid over Fraction coefficients: over t = q^(1/r),
    shifted to valuation 0, divided by the monic gcd, denominator made monic."""
    if num.is_zero:
        return num, QExpr.one()
    if len(den.terms) == 1:
        (e0, c0), = den.terms
        shifted = QExpr({e - e0: c / c0 for e, c in num.terms})
        low = min(shifted.terms[0][0], 0)
        return QExpr({e - low: c for e, c in shifted.terms}), QExpr.q(-low)
    r = math.lcm(num.exponent_denominator(), den.exponent_denominator())
    shift = min(num.terms[0][0], den.terms[0][0])

    def dense(expr):
        out = [Fraction(0)] * (int((expr.terms[-1][0] - shift) * r) + 1)
        for e, c in expr.terms:
            out[int((e - shift) * r)] = c
        return out

    a, b = dense(num), dense(den)
    g = _poly_gcd(a, b)
    if len(g) > 1:
        (a, rem_a), (b, rem_b) = _poly_divmod(a, g), _poly_divmod(b, g)
        assert not rem_a and not rem_b
    return tuple(QExpr({Fraction(i, r): c / b[-1] for i, c in enumerate(cs)}) for cs in (a, b))


def reference_qfrac(num: QExpr, den: QExpr) -> QFrac:
    """A QFrac holding reference_canonical_pair(num, den), set as the cyclotomic builder sets its
    own pair: a value for a denominator that no kernel builder takes, such as q - 5."""
    value = object.__new__(QFrac)
    value_num, value_den = reference_canonical_pair(num, den)
    object.__setattr__(value, "_num", value_num)
    object.__setattr__(value, "_den", value_den)
    return value


def reference_recover_N_from_M(M_series: TruncatedSeries) -> dict[tuple[int, int], QExpr]:
    """N(f, m) for f * m <= the truncation degree, from S(f) = log M(q^f), one log per f, by
    N(f, m) = S(f)_m - sum_{j|m, j>1} N(f*j, m/j) / j."""
    n_max = M_series.truncation
    logs = {f: TruncatedSeries([c.scale_exponents(f) for c in M_series.coefficients[: n_max // f + 1]]).log()
            for f in range(1, n_max + 1)}
    N: dict[tuple[int, int], QExpr] = {}
    for m in range(1, n_max + 1):
        for f in range(1, n_max // m + 1):
            N[(f, m)] = logs[f].coefficient(m) - sum(
                [N[(f * j, m // j)] * Fraction(1, j) for j in divisors(m)[1:]], QExpr())
    return N


def reference_linear_solver(matrix, p: int, n: int):
    """(pivots, constraints, basis) for matrix @ delta = b over F_p, matrix a list of rows of n
    integers, by Gauss-Jordan elimination of [matrix | I] over all of its columns, giving T with
    T @ matrix in reduced echelon form: b is solvable iff t . b = 0 for every constraint row t of
    T; a solution then has delta[col] = t . b for each pivot (col, t) and zeros elsewhere; basis
    spans the kernel."""
    size = len(matrix)
    rows = [[v % p for v in row] + [int(i == j) for j in range(size)] for i, row in enumerate(matrix)]
    cols = []
    for col in range(n + size):
        top = len(cols)
        candidates = [i for i in range(top, size) if rows[i][col]]
        if not candidates:
            continue
        rows[top], rows[candidates[0]] = rows[candidates[0]], rows[top]
        inverse = pow(rows[top][col], p - 2, p)  # Fermat
        rows[top] = [v * inverse % p for v in rows[top]]
        for i in range(size):
            if i != top:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[top])]
        cols.append(col)
    pivots = [(col, row[n:]) for col, row in zip(cols, rows) if col < n]
    constraints = [row[n:] for col, row in zip(cols, rows) if col >= n]
    basis = []
    for free in range(n):
        if free not in cols:
            vector = [int(c == free) for c in range(n)]
            for col, row in zip(cols, rows):
                if col < n:
                    vector[col] = -row[free] % p
            basis.append(vector)
    return pivots, constraints, basis
