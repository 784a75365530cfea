"""Tests for exact residue-ring counting and the monomial integral."""

import io
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from typing import Iterator

import pytest
from reference import reference_canonical_pair, reference_linear_solver

from wildmckay import padic
from wildmckay.cli import main
from wildmckay.padic import (
    BudgetExceededError,
    HenselMismatchError,
    PolySystem,
    SmoothnessError,
    _compiled,
    _jacobian_polys,
    _linear_solver,
    count_points_mod,
    monomial_integral,
    null_set_fraction,
    smooth_measure_check,
)
from wildmckay.qexpr import QExpr, QFrac, is_infinite


def circle(p):
    return PolySystem(p, 2, [[((2, 0), 1), ((0, 2), 1), ((0, 0), -1)]], dim=1)


def cusp(p):
    return PolySystem(p, 2, [[((2, 0), 1), ((0, 3), -1)]], dim=1)


NODE5 = PolySystem(5, 2, [[((1, 1), 1)]], dim=1)
LINE3 = PolySystem(3, 2, [[((1, 0), 1)]], dim=1)
CUBIC5 = PolySystem(5, 2, [[((0, 2), 1), ((3, 0), -1), ((1, 0), -1), ((0, 0), -1)]], dim=1)


def brute_force_plane_count(p, residual):
    """Independent oracle: double loop over F_p^2."""
    return sum(1 for x in range(p) for y in range(p) if residual(x, y) % p == 0)


def box_count(system, m):
    """Independent oracle: test every point of the full box (Z/p^m)^n."""
    modulus = system.p**m

    def value(poly, point):
        total = 0
        for exps, coeff in poly:
            for x, e in zip(point, exps):
                coeff *= x**e
            total += coeff
        return total

    return sum(
        1
        for point in itertools.product(range(modulus), repeat=system.num_vars)
        if all(value(poly, point) % modulus == 0 for poly in system.polys)
    )


def squares_table_cusp_count(p, m):
    """Independent oracle for x^2 = y^3 mod p^m: for each y, the number of
    x whose square is y^3, read from a table of squares."""
    modulus = p**m
    squares = [0] * modulus
    for x in range(modulus):
        squares[x * x % modulus] += 1
    return sum(squares[pow(y, 3, modulus)] for y in range(modulus))


def random_system(rng):
    """A small integer system: p in {2, 3, 5, 7}, 1-3 variables, 1-2
    equations, coefficients that may be divisible by p."""
    p = rng.choice([2, 3, 5, 7])
    n = rng.randint(1, 3)
    coeffs = [1, -1, 2, 3, p, -p, p * p]
    polys = [
        [(tuple(rng.randint(0, 3) for _ in range(n)), rng.choice(coeffs)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, 2))
    ]
    return PolySystem(p, n, polys, dim=0)


class TestCountPointsMod:
    def test_level_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^need m >= 1$"):
            count_points_mod(circle(5), 0)
        with pytest.raises(ValueError, match="^need m_max >= 1$"):
            smooth_measure_check(circle(5), 0)

    def test_circle_mod_5(self):
        oracle = brute_force_plane_count(5, lambda x, y: x * x + y * y - 1)
        rc = count_points_mod(circle(5), 1)
        assert rc.count == oracle == 4
        assert rc.normalized == Fraction(4, 5)

    def test_circle_mod_25(self):
        rc = count_points_mod(circle(5), 2)
        assert rc.count == 20
        assert rc.normalized == Fraction(4, 5)

    def test_whole_space(self):
        free = PolySystem(5, 1, [], dim=1)
        rc = count_points_mod(free, 2)
        assert rc.count == 25
        assert rc.normalized == 1

    def test_budget_guard(self, monkeypatch):
        # points evaluated: the 25-point box, then the frontiers of 20 and 100
        # points, each added as if it were listed; level 4 (500 points) is the last
        monkeypatch.setattr(padic, "POINTS_BUDGET", 100)
        with pytest.raises(BudgetExceededError) as err:
            count_points_mod(circle(5), 4)
        assert err.value.required == 145
        assert err.value.budget == 100
        assert str(err.value) == "lifting budget exceeded at level 3: need 145 points evaluated, budget 100"
        monkeypatch.setattr(padic, "POINTS_BUDGET", 145)
        assert count_points_mod(circle(5), 4).count == 500
        monkeypatch.setattr(padic, "POINTS_BUDGET", 24)
        with pytest.raises(BudgetExceededError) as err:
            null_set_fraction(circle(5), 1)
        assert str(err.value) == "box budget exceeded at level 1: need 25 points evaluated, budget 24"
        assert err.value.required == 25


    def test_empty_frontier_stops_lifting(self, monkeypatch):
        # x^2 - 2 has no root mod 5, so no level after the box evaluates anything.
        calls = []
        evaluate = padic._column_values
        monkeypatch.setattr(padic, "_column_values", lambda *args: calls.append(args) or evaluate(*args))
        no_root = PolySystem(5, 1, [[((2,), 1), ((0,), -2)]], dim=0)
        # 3075 is the deepest level it admits: 5^(2 * 3075) has 4,299 digits
        assert list(padic._level_counts(no_root, 3075)) == [0] * 3075
        assert len(calls) == 2  # the polynomials and their Jacobian on the box


class TestSmoothMeasure:
    def test_circle_p5(self):
        report = smooth_measure_check(circle(5), m_max=3)
        assert report.counts == [4, 20, 100]
        assert report.measure == Fraction(4, 5)

    def test_circle_p13(self):
        oracle = brute_force_plane_count(13, lambda x, y: x * x + y * y - 1)
        report = smooth_measure_check(circle(13), m_max=4)
        assert report.counts[0] == oracle == 12
        assert report.counts == [12, 12 * 13, 12 * 13**2, 12 * 13**3]
        assert report.measure == Fraction(12, 13)

    def test_smooth_cubic_p5(self):
        oracle = brute_force_plane_count(5, lambda x, y: y * y - x**3 - x - 1)
        report = smooth_measure_check(CUBIC5, m_max=4)
        assert report.counts[0] == oracle
        assert report.measure == Fraction(oracle, 5)

    def test_line_is_smooth_with_measure_one(self):
        report = smooth_measure_check(LINE3, m_max=3)
        assert report.counts == [3, 9, 27]
        assert report.measure == 1

    def test_node_jacobian_violation(self):
        with pytest.raises(SmoothnessError) as err:
            smooth_measure_check(NODE5, m_max=2)
        assert "(0, 0)" in str(err.value)

    def test_hensel_mismatch_on_degenerate_system(self):
        # 5x mod 5 is identically zero, so the rank check passes with d = 1,
        # but counts collapse at level 2 instead of multiplying by p.
        degenerate = PolySystem(5, 1, [[((1,), 5)]], dim=1)
        with pytest.raises(HenselMismatchError):
            smooth_measure_check(degenerate, m_max=2)

    def test_lifting_agrees_with_box_enumeration(self):
        report = smooth_measure_check(circle(7), m_max=3)
        assert report.counts == [box_count(circle(7), m) for m in (1, 2, 3)]

    def test_circle_p13_deep(self):
        report = smooth_measure_check(circle(13), m_max=5)
        assert report.counts == [12, 156, 2028, 26364, 342732]


class TestNullSet:
    def test_cusp_fraction_mod_5(self):
        oracle = brute_force_plane_count(5, lambda x, y: x * x - y**3)
        assert oracle == 5
        assert null_set_fraction(cusp(5), 1) == Fraction(1, 5)

    def test_cusp_fraction_decays(self):
        assert null_set_fraction(cusp(5), 3) < Fraction(1, 5)
        assert null_set_fraction(cusp(5), 4) < Fraction(1, 100)

    def test_node_fraction_decays_in_steps_of_two(self):
        values = [null_set_fraction(NODE5, m) for m in (1, 2, 3, 4)]
        assert values[2] <= values[0]
        assert values[3] <= values[1]

    def test_no_solutions(self):
        one = PolySystem(5, 2, [[((0, 0), 1)]], dim=1)
        assert null_set_fraction(one, 2) == 0

    def test_cusp_deep_levels_match_squares_table(self):
        expected = [5, 45, 225, 1125, 5625, 90625, 453125]
        assert [squares_table_cusp_count(5, m) for m in range(1, 8)] == expected
        assert [count_points_mod(cusp(5), m).count for m in range(1, 8)] == expected
        assert null_set_fraction(cusp(5), 5) == Fraction(expected[4], 5**10)


class TestEngineAgainstBox:
    """The lifting engine against full-box enumeration on small systems."""

    SINGULAR = {
        "cusp-p2": cusp(2),
        "cusp-p3": cusp(3),
        "node-p5": NODE5,
        "xy-and-x2+y2-p2": PolySystem(2, 2, [[((1, 1), 1)], [((2, 0), 1), ((0, 2), 1)]], dim=0),
        "x2-p3": PolySystem(3, 1, [[((2,), 1)]], dim=0),
        "cone-p2": PolySystem(2, 3, [[((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)]], dim=2),
        "5x-p5": PolySystem(5, 2, [[((1, 0), 5)]], dim=1),
        "x3+7-p7": PolySystem(7, 1, [[((3,), 1), ((0,), 7)]], dim=0),
    }

    @staticmethod
    def deepest_small_box(system):
        m = 1
        while system.p ** ((m + 1) * system.num_vars) <= 2500:
            m += 1
        return m

    def check(self, system):
        for m in range(1, self.deepest_small_box(system) + 1):
            assert count_points_mod(system, m).count == box_count(system, m), (system, m)

    @pytest.mark.parametrize("system", SINGULAR.values(), ids=list(SINGULAR))
    def test_singular_systems(self, system):
        self.check(system)

    def test_seeded_random_systems(self):
        rng = random.Random(20140)
        for _ in range(400):
            self.check(random_system(rng))


# ---------------------------------------------------------------------------
# Oracle: the per-point lifting engine the column engine replaced, on the reference solver
# ---------------------------------------------------------------------------


def _times(matrix, vector, p: int) -> list[int]:
    return [sum(map(operator.mul, row, vector)) % p for row in matrix]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_linear_solver_against_reference(p):
    # rank, solvability of a random b and of an image b, and kernel dimension; the engine's
    # particular solution and kernel basis are checked against the matrix itself
    rng = random.Random(78 + p)
    full = 0
    for _ in range(400):
        n, size = rng.randint(1, 4), rng.randint(0, 4)
        matrix = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(size)]
        rank, solution = _linear_solver(tuple(itertools.chain.from_iterable(matrix)), p, n)
        pivots, constraints, basis = reference_linear_solver(matrix, p, n)
        assert rank == len(pivots)
        if solution is None:
            full += 1
            assert rank == size and not constraints and len(basis) == n - rank
            continue
        found_constraints, negated, found_basis = solution
        assert rank < size and len(found_basis) == len(basis) == n - rank
        assert all(not any(_times(matrix, v, p)) for v in found_basis)
        for b in ([rng.randrange(p) for _ in range(size)], _times(matrix, [rng.randrange(p) for _ in range(n)], p)):
            solvable = not any(sum(map(operator.mul, t, b)) % p for t in constraints)
            assert solvable == (not any(sum(map(operator.mul, t, b)) % p for t in found_constraints)), (matrix, b)
            if solvable:
                delta = [-sum(map(operator.mul, negated[col], b)) % p if col in negated else 0 for col in range(n)]
                assert _times(matrix, delta, p) == b, (matrix, b)
    assert 50 <= full <= 350  # both outcomes are drawn often


def _values(compiled, point) -> list[int]:
    """Exact integer values of the compiled polynomials at point."""
    values = []
    for terms in compiled:
        acc = 0
        for coeff, factors in terms:
            for idx, e in factors:
                coeff *= point[idx] ** e
            acc += coeff
        values.append(acc)
    return values


def _affine_points(particular, basis, p: int) -> list[list[int]]:
    """Every point particular + sum t_i basis_i with t in F_p^len(basis)."""
    points = [particular]
    for vector in basis:
        points = [[(a + t * b) % p for a, b in zip(point, vector)] for point in points for t in range(p)]
    return points


def _level_counts(system: PolySystem, m: int, rank: int | None = None) -> Iterator[int]:
    """Yield #X(Z/p^k) for k = 1..m, one level at a time.

    A solution x mod p^k lifts to x + p^k delta mod p^(k+1) iff
    J(x mod p) delta = -f(x)/p^k over F_p: no lifts, or p^(n - rank J).
    The last level is counted, not listed.  padic.POINTS_BUDGET bounds the points
    evaluated: the box plus every listed frontier, checked before each one
    is listed.  If rank is given, every mod-p solution must have it.
    """
    p, n = system.p, system.num_vars
    evaluated = p**n
    if evaluated > padic.POINTS_BUDGET:
        raise BudgetExceededError(evaluated, padic.POINTS_BUDGET, "box", 1)
    polys = _compiled(system.polys)
    derivatives = _jacobian_polys(system)
    solvers: dict[tuple[int, ...], tuple] = {}

    def solver(point):
        residue = tuple(x % p for x in point)
        if residue not in solvers:
            jacobian = [[v % p for v in _values(row, residue)] for row in derivatives]
            solvers[residue] = reference_linear_solver(jacobian, p, n)
        return solvers[residue]

    box = itertools.product(range(p), repeat=n)
    frontier = [point for point in box if not any(v % p for v in _values(polys, point))]
    if rank is not None:
        for point in frontier:
            found = len(solver(point)[0])
            if found != rank:
                raise SmoothnessError(f"Jacobian rank {found} != {rank} at mod-{p} point {point}")
    yield len(frontier)
    for k in range(1, m):
        step = p**k
        spaces = []
        for point in frontier:
            pivots, constraints, basis = solver(point)
            rhs = [-(v // step) for v in _values(polys, point)]
            if any(sum(map(operator.mul, t, rhs)) % p for t in constraints):
                continue
            particular = [0] * n
            for col, t in pivots:
                particular[col] = sum(map(operator.mul, t, rhs)) % p
            spaces.append((point, particular, basis))
        size = sum(p ** len(basis) for _, _, basis in spaces)
        if k + 1 == m:
            yield size
            return
        evaluated += size
        if evaluated > padic.POINTS_BUDGET:
            raise BudgetExceededError(evaluated, padic.POINTS_BUDGET, "lifting", k + 1)
        frontier = [
            tuple(x + step * d for x, d in zip(point, delta))
            for point, particular, basis in spaces
            for delta in _affine_points(particular, basis, p)
        ]
        yield len(frontier)


def outcome(engine, system, m, rank=None):
    """The counts an engine yields, ending in (error type, message) if it refuses or fails."""
    counts = []
    try:
        counts.extend(engine(system, m, rank))
    except (BudgetExceededError, SmoothnessError) as exc:
        counts.append((type(exc).__name__, str(exc)))
    return counts


class TestAgainstPerPointEngine:
    """The column engine against the per-point engine: the same counts, budget refusals
    and smoothness failures."""

    @staticmethod
    def compare(monkeypatch, budget, system, m, rank):
        monkeypatch.setattr(padic, "POINTS_BUDGET", budget)
        expected = outcome(_level_counts, system, m, rank)
        assert outcome(padic._level_counts, system, m, rank) == expected, (system, m, rank, budget)
        return expected[-1] if isinstance(expected[-1], tuple) else None

    def test_seeded_random_systems(self, monkeypatch):
        # At the lower budget some draws are refused at the box and some while lifting; a draw
        # refused for needing at most 5,000 points runs again with the budget one below and at
        # exactly what it needed.
        rng = random.Random(31415)
        errors, boundaries = [], 0
        for budget in (300, 20_000):
            for _ in range(300):
                system, m, rank = random_system(rng), rng.randint(1, 4), rng.choice([None, None, 0, 1, 2])
                error = self.compare(monkeypatch, budget, system, m, rank)
                if error:
                    errors.append(error[1].split()[0])
                if error and error[0] == "BudgetExceededError":
                    needed = int(error[1].split("need ")[1].split()[0])
                    if needed <= 5_000:
                        boundaries += 1
                        self.compare(monkeypatch, needed - 1, system, m, rank)
                        self.compare(monkeypatch, needed, system, m, rank)
        assert min(errors.count("box"), errors.count("lifting"), errors.count("Jacobian"), boundaries) >= 10

    @pytest.mark.parametrize("system", TestEngineAgainstBox.SINGULAR.values(), ids=list(TestEngineAgainstBox.SINGULAR))
    def test_singular_systems_with_rank(self, system):
        for m in range(1, 6):
            for rank in (None, 0, 1, 2):
                assert outcome(padic._level_counts, system, m, rank) == outcome(_level_counts, system, m, rank)

    def test_deep_circle(self):
        counts = smooth_measure_check(circle(5), 9).counts
        assert counts == list(_level_counts(circle(5), 9, rank=1)) == [4 * 5**k for k in range(9)]


def squares_table_sum_count(p, n, m):
    """Independent oracle for x_1^2 + ... + x_n^2 = 0 mod p^m: the distribution of one square
    mod p^m, convolved n times."""
    modulus = p**m
    squares = [0] * modulus
    for x in range(modulus):
        squares[x * x % modulus] += 1
    sums = [1] + [0] * (modulus - 1)
    for _ in range(n):
        sums = [sum(sums[a] * squares[(c - a) % modulus] for a in range(modulus)) for c in range(modulus)]
    return sums[0]


class TestCountedGroups:
    """A group whose Jacobian mod p has full row rank is counted, never evaluated past the box;
    a group with constraint rows is still listed."""

    @staticmethod
    def evaluations_after_the_box(monkeypatch, system, m, rank=None):
        calls = []
        evaluate = padic._column_values
        monkeypatch.setattr(padic, "_column_values", lambda *args: calls.append(args) or evaluate(*args))
        levels = padic._level_counts(system, m, rank)
        counts = [next(levels)]
        box_calls = len(calls)
        counts.extend(levels)
        return counts, len(calls) - box_calls

    def test_smooth_circle_is_counted(self, monkeypatch):
        counts, later = self.evaluations_after_the_box(monkeypatch, circle(5), 9, rank=1)
        assert later == 0
        assert counts == list(_level_counts(circle(5), 9, rank=1)) == [4 * 5**k for k in range(9)]

    def test_overdetermined_system_is_listed(self, monkeypatch):
        # the circle's polynomial twice: rank 1 with 2 polynomials, so every group has a constraint row
        twice = PolySystem(5, 2, circle(5).polys * 2, dim=1)
        counts, later = self.evaluations_after_the_box(monkeypatch, twice, 5, rank=1)
        assert later == 4  # one evaluation of the listed frontier per level after the box
        assert counts == list(_level_counts(twice, 5, rank=1)) == [4 * 5**k for k in range(5)]
        assert smooth_measure_check(twice, 5).measure == Fraction(4, 5)

    def test_sum_of_eight_squares(self, monkeypatch):
        # every mod-3 point but 0 is counted; 0 has rank 0 and is listed. The per-point engine
        # would list about 4.9 million points at m = 3, so it checks m = 2.
        system = PolySystem(3, 8, [[(tuple(2 * (i == j) for j in range(8)), 1) for i in range(8)]], dim=7)
        counts, later = self.evaluations_after_the_box(monkeypatch, system, 3)
        assert later == 2
        assert counts == [squares_table_sum_count(3, 8, m) for m in (1, 2, 3)] == [2241, 4905441, 10728553761]
        assert counts[:2] == list(_level_counts(system, 2))


class TestMonomialIntegral:
    def test_no_terms_and_a_p_that_is_not_prime_are_refused(self):
        with pytest.raises(ValueError, match="^need terms >= 1$"):
            monomial_integral(0, 5, 0)
        with pytest.raises(ValueError, match="^p=4 is not prime$"):
            monomial_integral(0, 4, 3)
        with pytest.raises(ValueError, match="^p must be an integer, got 5.0$"):
            monomial_integral(0, 5.0, 3)

    def test_c_zero_telescopes(self):
        partial, exact = monomial_integral(0, 5, terms=3)
        assert partial == Fraction(1, 5) - Fraction(1, 5**4)
        assert exact == QFrac(QExpr.q(-1))

    def test_c_half(self):
        partial, exact = monomial_integral(Fraction(1, 2), 5, terms=60)
        assert exact == QFrac((QExpr.q(Fraction(1, 2)) + 1) * QExpr.q(-1))
        target = exact.evaluate(5)
        # (5^(1/2) + 1) / 5 near 0.65: within 10^-20 of its size, finer than DEFAULT_PRECISION
        assert abs(target - Fraction(math.isqrt(5 * 10**60) + 10**30, 5 * 10**30)) < Fraction(1, 10**20)
        assert abs(partial - target) < Fraction(1, 10**9)
        assert abs(partial - Fraction(6472135955, 10**10)) < Fraction(1, 10**6)

    def test_c_negative_one(self):
        partial, exact = monomial_integral(-1, 5, terms=40)
        assert (exact.num, exact.den) == reference_canonical_pair(QExpr.one(), QExpr.q(2) + QExpr.q())
        assert abs(partial - exact.evaluate(5)) < Fraction(1, 10**9)

    @pytest.mark.parametrize("c", ["2/3", "-1", "1/2", "-49994/3", "-20000", "1/997", "-7/3"])
    def test_closed_form_is_the_built_quotient(self, c):
        # The closed form is the stringy weight of one point with a = -1, reduced by cyclotomic
        # trial division; the oracle builds q^-1 (q-1) / (q^(1-c) - 1) and reduces it by Euclid's
        # gcd over Fraction coefficients.
        c = Fraction(c)
        _, exact = monomial_integral(c, 5, terms=1)
        assert (exact.num, exact.den) == reference_canonical_pair(QExpr.q(-1) * (QExpr.q() - 1), QExpr.q(1 - c) - 1)

    def test_closed_form_refused_as_the_built_quotient(self, capsys):
        # Over t = q^(1/49999) the rows reduced are q - 1 and q^(1 - c) - 1, at most 49,999 t-degrees
        # (under DENSE_DEGREE_BUDGET); the factor q^-1 is an exponent, not a row, so the closed form
        # is built.  The CLI refuses it at q = 5, where the largest power of q is counted first.
        c = Fraction(1, 49999)
        _, exact = monomial_integral(c, 5, terms=1)
        assert (exact.num, exact.den) == reference_canonical_pair(QExpr.q(-1) * (QExpr.q() - 1), QExpr.q(1 - c) - 1)
        assert main(["padic", "integral", "--c", "1/49999", "--p", "5", "--terms", "1"], stdout=io.StringIO()) == 2
        assert "digits in a power of q" in capsys.readouterr().err

    def test_divergent_cases(self):
        for c in (1, Fraction(3, 2), 2):
            partial, exact = monomial_integral(c, 5, terms=10)
            assert is_infinite(exact)
        partial, _ = monomial_integral(1, 5, terms=10)
        assert partial == 10 * Fraction(4, 5)

    def test_partial_sums_increase_and_converge(self):
        for c in (0, Fraction(1, 2), Fraction(2, 3), -1):
            p10, exact = monomial_integral(c, 5, terms=10)
            p15, _ = monomial_integral(c, 5, terms=15)
            p20, _ = monomial_integral(c, 5, terms=20)
            assert p10 < p15 < p20
            target = exact.evaluate(5)
            assert abs(p20 - target) < abs(p15 - target) < abs(p10 - target)
            assert p20 < target + Fraction(1, 10**9)


class TestSerialization:
    def test_round_trip(self):
        data = {"p": 13, "n": 2, "d": 1, "polys": [[[[2, 0], 1], [[0, 2], 1], [[0, 0], -1]]]}
        assert PolySystem.from_json(data) == circle(13)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"p": 5, "n": 2, "d": 1, "polys": [[[[2, 0], 1], [[0, 3], -1]]]}))
        assert PolySystem.load(path) == cusp(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolySystem(4, 1, [], dim=1)
        with pytest.raises(ValueError):
            PolySystem(5, 2, [[((1, 0), 0)]], dim=1)
        with pytest.raises(ValueError):
            PolySystem(5, 2, [], dim=3)
        for args, message in (((5, 0, [], 0), "need n >= 1"),
                              ((5, 2, [[((2,), 1)]], 1), r"exponent vector \(2,\) has wrong length"),
                              ((5, 2, [[((2, -1), 1)]], 1), "need exponent >= 0")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                PolySystem(*args)
        # p, n and d are read as exact integers, as from JSON, so none is kept as a float
        for args, name in (((5.0, 2, [], 1), "p"), ((5, 2.0, [], 1), "n"), ((5, 2, [], 1.0), "d"),
                           ((5, True, [], 1), "n")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                PolySystem(*args)
        # inexact coefficients and ill-shaped polynomials are rejected, not truncated
        for polys in ([[((2, 0), 1.5)]], 5, [5], [[5]], [[((2, 0),)]], [[((2.0, 0), 1)]]):
            with pytest.raises(ValueError):
                PolySystem(5, 2, polys, dim=1)
