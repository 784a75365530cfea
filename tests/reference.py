"""Test-only references: the QFrac canonical form by Euclid over Fraction coefficients, the
totally ramified masses from one log per unramified degree, and linear systems over F_p by
Gauss-Jordan elimination.

The kernel builds a QFrac over a monomial denominator (an exponent shift) or over a product of
binomials t^k - 1 (cyclotomic trial division, in ``qexpr._cyclotomic_qfrac``).  This reference
reduces any quotient by its polynomial gcd over Q, so the tests compare both builders against it,
and take from it the values with other denominators that they need.

``massformulas.recover_N_from_M`` takes one log and substitutes q -> q^f into its coefficients;
``reference_recover_N_from_M`` substitutes into the series first and takes one log per f.

``localfields._tame_algebras`` lists the multisets of tame classes by a pruned depth-first search;
``reference_tame_algebras`` builds them from the partitions of n, one multiset of classes per part
size, and sorts them afterwards.

``padic._linear_solver`` eliminates on the Jacobian's columns only and stops once every row has a
pivot; ``reference_linear_solver`` reduces every column of ``[J | I]``.

``localfields._stratum_weight`` weighs a stratum by the Haar measure of its Eisenstein polynomials;
``reference_serre_mass`` takes the same measure from Krasner's count of the fields, and
``ore_bounds_hold`` is Ore's condition written out as bounds on j.

``partitions.hilb_point_count`` reads the partition table; ``reference_hilb_point_count`` counts
the points of the Hilbert scheme itself, as commuting pairs of matrices with a cyclic vector.
"""

import itertools
import math
from collections import Counter
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
    object.__setattr__(value, "num", value_num)
    object.__setattr__(value, "den", value_den)
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


def _partitions(n: int, largest: int):
    """The partitions of n into parts <= largest, each a list of parts, largest first."""
    if n == 0:
        yield []
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def reference_tame_algebras(by_degree) -> list[tuple[tuple, int, int, int]]:
    """Every multiset of the classes by_degree[1:] of total degree n = len(by_degree) - 1, as
    ``_tame_algebras`` lists it: (factors, d, components, #Aut) with (f, e, orbit, m) factors in
    (degree, class) order, d = sum f(e-1) m, components = sum f m, #Aut = prod m! #Aut_c^m.  Each
    partition of n takes, for every part size k that occurs c times, a multiset of c classes of
    degree k; the algebras are sorted by their factors, each by class and then multiplicity."""
    n = len(by_degree) - 1
    algebras = []
    for partition in _partitions(n, n):
        for picks in itertools.product(*(itertools.combinations_with_replacement(by_degree[k], c)
                                         for k, c in Counter(partition).items())):
            mults = Counter(cls for pick in picks for cls in pick)
            ordered = sorted(mults.items(), key=lambda item: (item[0].degree, item[0]))
            factors = tuple((cls.f, cls.e, cls.orbit, m) for cls, m in ordered)
            d = sum(cls.disc_exponent * m for cls, m in ordered)
            components = sum(cls.f * m for cls, m in ordered)
            aut = math.prod(math.factorial(m) * cls.aut_order**m for cls, m in ordered)
            algebras.append((factors, d, components, aut))
    return sorted(algebras, key=lambda algebra: [(-f, e, orbit, m) for f, e, orbit, m in algebra[0]])


def _v(m: int, p: int) -> int:
    """v_p(m) for m >= 1."""
    return 0 if m % p else 1 + _v(m // p, p)


def ore_bounds_hold(p: int, e: int, j: int) -> bool:
    """Ore's condition min(v_p(b) e, v_p(e) e) <= j <= v_p(e) e on the different exponent e - 1 + j
    of a totally ramified degree-e extension, j = a e + b with 0 <= b < e and v_p(0) infinite."""
    top = _v(e, p) * e
    low = min(_v(j % e, p) * e, top) if j % e else top
    return low <= j <= top


def reference_serre_mass(p: int, f: int, e: int, j: int) -> Fraction:
    """Serre's mass count q^-j / e of the totally ramified degree-e extensions of K_f (q = p^f) with
    different exponent e - 1 + j, by Krasner's count of them inside an algebraic closure as S. Pauli
    and X.-F. Roblot restate it ("On the computation of all extensions of a p-adic field of a given
    degree", Math. Comp. 70 (2001)): 0 off Ore's condition, else, with j = a e + b, 0 <= b < e and
    S = sum_{i=1..a} e / p^i, e q^S when b = 0 and e (q - 1) q^(S + floor((b - 1) / p^(a + 1))) when not."""
    if not ore_bounds_hold(p, e, j):
        return Fraction(0)
    q, (a, b) = p**f, divmod(j, e)
    S = sum(e // p**i for i in range(1, a + 1))
    count = e * q**S if b == 0 else e * (q - 1) * q ** (S + (b - 1) // p ** (a + 1))
    return Fraction(count, e * q**j)


def _generates(X, Y, n: int, q: int) -> bool:
    """Whether e_1 generates F_q^n (q prime) under the n x n matrices X and Y, lists of rows: the
    span of e_1, closed under X and Y by Gaussian elimination, is the whole space."""
    echelon = {}  # pivot column -> a spanning vector, 1 there and 0 at the earlier pivots
    queue = [[int(i == 0) for i in range(n)]]
    while queue:
        v = queue.pop()
        for col, row in echelon.items():
            if v[col]:
                v = [(a - v[col] * b) % q for a, b in zip(v, row)]
        if any(v):
            col = next(i for i, a in enumerate(v) if a)
            inverse = pow(v[col], q - 2, q)  # Fermat
            echelon[col] = v = [a * inverse % q for a in v]
            queue += [[sum(m * a for m, a in zip(M[i], v)) % q for i in range(n)] for M in (X, Y)]
    return len(echelon) == n


def reference_hilb_point_count(n: int, q: int) -> Fraction:
    """#Hilb^n(A^2)(F_q) for a prime q, without the partition table: an ideal of colength n in
    F_q[x, y] is a commuting pair (X, Y) in M_n(F_q) with a cyclic vector v, up to the free action
    of GL_n(F_q) (H. Nakajima, Lectures on Hilbert schemes of points on surfaces, ch. 1), so the
    count is #{(X, Y, v)} / #GL_n(F_q).  GL_n(F_q) moves every nonzero v to e_1, so #{(X, Y, v)}
    is q^n - 1 times the number of commuting pairs for which e_1 is cyclic; for each X, Y runs
    over its centralizer, the kernel of the linear map Y -> XY - YX."""
    cells = list(itertools.product(range(n), repeat=2))
    cyclic = 0
    for entries in itertools.product(range(q), repeat=n * n):
        X = [entries[i * n:(i + 1) * n] for i in range(n)]
        # (XY - YX)[i][k] = sum_j X[i][j] Y[j][k] - Y[i][j] X[j][k], a linear form in the Y[a][b]
        commutator = [[X[i][a] * (b == k) - (a == i) * X[b][k] for a, b in cells] for i, k in cells]
        basis = reference_linear_solver(commutator, q, n * n)[2]
        for coords in itertools.product(range(q), repeat=len(basis)):
            Y = [sum(c * v[i] for c, v in zip(coords, basis)) % q for i in range(n * n)]
            cyclic += _generates(X, [Y[i * n:(i + 1) * n] for i in range(n)], n, q)
    return Fraction((q**n - 1) * cyclic, math.prod(q**n - q**i for i in range(n)))
