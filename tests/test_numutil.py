"""Tests for the shared integer/rational helpers."""

import ast
import re
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from wildmckay import localfields, massformulas, numutil, padic, partitions
from wildmckay.mckay import verify_wild_mckay
from wildmckay.numutil import (
    EXACT_DIGITS_BUDGET, PRIME_TEST_LIMIT, BudgetExceededError, check_budget, check_exact_digits, decimal_digits, divisors,
    exact_int, exact_prime, is_prime, json_array, json_object, pack_slots, parse_rational, read_json, unpack_slots,
)
from wildmckay.stringy import VerticalComponent


def test_is_prime_small_range():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division_below_10_to_the_5():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [n for n in range(-3, 10**5) if trial_division(n)]


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801,  # Carmichael numbers
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37, caught by 41
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_on_large_primes_and_the_limit():
    assert is_prime(2**61 - 1) and is_prime(10**18 + 9)
    assert is_prime(3317044064679887385961813)  # the largest prime below the limit
    assert not is_prime((2**61 - 1) * (2**19 - 1))
    for n in (PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 1, 2**127 - 1):
        with pytest.raises(ValueError, match="cannot decide whether"):
            is_prime(n)


def test_is_prime_answers_only_for_an_exact_integer():
    for value in (5.0, Fraction(5), True, Decimal(5), "5"):
        with pytest.raises(ValueError, match="^a number tested for primality must be an integer, got "):
            is_prime(value)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    with pytest.raises(ValueError):
        divisors(0)


def test_parse_rational_forms():
    assert parse_rational(3) == 3
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational(" -1/2 ") == Fraction(-1, 2)
    assert parse_rational([5, 10]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational({"num": 1})
    for zero_den in ("1/0", [1, 0]):
        with pytest.raises(ValueError):
            parse_rational(zero_den)
    with pytest.raises(ValueError):
        parse_rational([1.5, 2])


def test_parse_rational_exponent_notation():
    # Decimal forms, exponents and PEP 515 underscores read alike on every Python version (the
    # values are written out, not read by Fraction, whose grammar differs between versions), and
    # built without a 10**exponent, so that 0e99999999 is read at once.
    expected = {"1.5e-3": Fraction(3, 2000), "-2E+10": Fraction(-2 * 10**10), ".5e3": Fraction(500),
                "5.e1": Fraction(50), "1_0.0_5e2": Fraction(1005), "+12.5e-3": Fraction(1, 80),
                " 7e1 ": Fraction(70), "-0.0e-5": Fraction(0), "1_0": Fraction(10), "1_0.5": Fraction(21, 2),
                "1_0/3_0": Fraction(1, 3), "-4.25": Fraction(-17, 4), "1_0e5": Fraction(10**6)}
    for text, value in expected.items():
        assert parse_rational(text) == value, text
    assert parse_rational("0e99999999") == 0
    for text in ("1/2e5", "e5", "1.5e", "1__0e5", "1_", "_1", "1 / 2", "1/-2", "1.5/2", "", "."):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)


def test_parse_rational_counts_digits_in_lowest_terms(monkeypatch):
    # With the budget at the digits that _int itself reads (the mantissa without leading zeros or
    # its fraction's trailing zeros, and the exponent), every value whose numerator or denominator
    # in lowest terms has more is refused, and the count it reports is those digits, here checked
    # against the built Fraction; every other value is read.
    import random

    from wildmckay import numutil

    rng = random.Random(7)
    refused = 0
    for _ in range(2000):
        n = rng.choice([rng.randrange(1, 10 ** rng.randrange(1, 30)), 2 ** rng.randrange(60) * rng.choice([1, 3, 7]),
                        5 ** rng.randrange(40) * rng.choice([1, 2, 3])])
        digits, cut, exponent = str(n), rng.randrange(len(str(n)) + 1), rng.randrange(-120, 120)
        text = (digits[:cut] + "." + digits[cut:] if rng.random() < 0.5 else digits) + f"e{exponent}"
        mantissa = text.split("e")[0].rstrip("0") if "." in text else digits
        value = Fraction(n, 10 ** (len(digits) - cut if "." in text else 0)) * Fraction(10) ** exponent
        monkeypatch.setattr(numutil, "EXACT_DIGITS_BUDGET", max(len(mantissa.replace(".", "")), len(str(abs(exponent)))))
        count = max(len(str(abs(value.numerator))), len(str(value.denominator)))
        if count > numutil.EXACT_DIGITS_BUDGET:
            refused += 1
            with pytest.raises(BudgetExceededError) as caught:
                parse_rational(text)
            assert caught.value.required == count, text
        else:
            assert parse_rational(text) == value, text
    assert 1000 < refused < 2000  # both branches are taken
    monkeypatch.setattr(numutil, "EXACT_DIGITS_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="need 2 digits in a fixture, budget 1"):
        parse_rational("1/10", "a fixture")


def test_exact_int():
    assert exact_int(-3, "n") == -3
    assert exact_int(0, "n", 0) == 0 and exact_int(10**50, "n", 1) == 10**50
    for value in (True, 1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            exact_int(value, "n")
        with pytest.raises(ValueError, match="^n must be an integer"):  # the type is read before the bound
            exact_int(value, "n", 5)
    with pytest.raises(ValueError, match="^need stratum count >= 0$"):
        exact_int(-1, "stratum count", 0)


def test_exact_prime():
    assert exact_prime(2) == 2 and exact_prime(2**61 - 1) == 2**61 - 1
    for value in (4, 1, 0, -7):
        with pytest.raises(ValueError, match=f"^p={value} is not prime$"):
            exact_prime(value)
    # a non-integer is refused by its name, and is_prime's refusal at PRIME_TEST_LIMIT passes through
    for value, shown in ((True, "True"), (5.0, "5.0"), (Fraction(5), r"Fraction\(5, 1\)")):
        with pytest.raises(ValueError, match=f"^p must be an integer, got {shown}$"):
            exact_prime(value)
    with pytest.raises(ValueError, match="^cannot decide whether"):
        exact_prime(PRIME_TEST_LIMIT)


def fixture_with(key):
    return lambda value: localfields.FieldFixture.from_json(
        {"label": "x", "p": 5, "n": 2, "e": 2, "f": 1, "c": 1, "aut": 2, key: value}, 1)


LINE = padic.PolySystem(5, 1, [[((1,), 1)]], 0)
# Every library argument read by exact_int with a lower bound: (call on the value, what, least).
LOWER_BOUNDS = {
    "serre_mass n": (massformulas.serre_mass, "n", 1),
    "serre_mass f": (lambda v: massformulas.serre_mass(2, v), "f", 1),
    "bhargava_mass": (massformulas.bhargava_mass, "n", 1),
    "bhargava_series": (massformulas.bhargava_series, "n_max", 1),
    "mass_series_via_exp": (massformulas.mass_series_via_exp, "n_max", 1),
    "enumerate_tame_field_classes": (lambda v: localfields.enumerate_tame_field_classes(5, v), "degree", 1),
    "count_tame_etale_algebras": (lambda v: localfields.count_tame_etale_algebras(5, v), "degree", 1),
    "algebra_mass_sum": (lambda v: localfields.algebra_mass_sum(5, v), "degree", 1),
    "verify_wild_mckay": (lambda v: verify_wild_mckay(5, v), "degree", 1),
    **{f"FieldFixture {key}": (fixture_with(key), key, least)
       for key, least in (("n", 1), ("e", 1), ("f", 1), ("c", 0), ("aut", 1))},
    "partition_row": (partitions.partition_row, "n", 0),
    "partition_rows": (partitions.partition_rows, "n", 0),
    "partition_count n": (lambda v: partitions.partition_count(v, 0), "n", 0),
    "partition_count k": (lambda v: partitions.partition_count(3, v), "k", 0),
    "partitions_into_parts n": (lambda v: list(partitions.partitions_into_parts(v, 1)), "n", 0),
    "partitions_into_parts k": (lambda v: list(partitions.partitions_into_parts(3, v)), "k", 0),
    "hilb_point_count": (partitions.hilb_point_count, "n", 1),
    "PolySystem n": (lambda v: padic.PolySystem(5, v, [], 0), "n", 1),
    "PolySystem exponent": (lambda v: padic.PolySystem(5, 1, [[([v], 1)]], 0), "exponent", 0),
    "count_points_mod": (lambda v: padic.count_points_mod(LINE, v), "m", 1),
    "smooth_measure_check": (lambda v: padic.smooth_measure_check(LINE, v), "m_max", 1),
    "monomial_integral": (lambda v: padic.monomial_integral(0, 5, v), "terms", 1),
    "VerticalComponent": (lambda v: VerticalComponent(0, {frozenset(): v}), "stratum count", 0),
    "divisors": (divisors, "n", 1),
}


@pytest.mark.parametrize("name", LOWER_BOUNDS)
def test_every_integer_argument_is_read_with_its_bound(name):
    # bhargava_mass(True) was 1, verify_wild_mckay(5, True) passed, serre_mass(Fraction(3, 2)) was q^(-1/2),
    # divisors(6.0) was [1, 2, 3.0, 6.0] and algebra_mass_sum(5, 2.0) ended in an internal TypeError
    call, what, least = LOWER_BOUNDS[name]
    for value in (True, 2.0, Fraction(3, 2)):
        with pytest.raises(ValueError, match=re.escape(f"{what} must be an integer, got {value!r}") + "$"):
            call(value)
    with pytest.raises(ValueError, match=re.escape(f"need {what} >= {least}") + "$"):
        call(least - 1)
    call(least)  # the bound itself is read


def test_exact_number_tests():
    for value in (0, -3, 10**50):
        assert numutil.is_exact_int(value) and numutil.is_exact_rational(value)
    assert numutil.is_exact_rational(Fraction(1, 2)) and numutil.is_exact_rational(Fraction(2))
    assert not numutil.is_exact_int(Fraction(2))
    for value in (True, False, 1.0, "1", None, Decimal(1), [1, 2]):
        assert not numutil.is_exact_int(value) and not numutil.is_exact_rational(value)
    for value in (True, False):  # neither reader takes a bool for 0 or 1
        with pytest.raises(ValueError, match="^not a rational: "):
            parse_rational(value)
        with pytest.raises(ValueError, match="must be an integer"):
            parse_rational([value, 1])


def exact_number_tests(tree) -> set[str]:
    """The functions (or "<module>") holding a test for bool, or for int and Fraction together: a
    name bool in an isinstance call or a comparison, or int and Fraction in one isinstance call."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            names = {n.id for n in ast.walk(child) if isinstance(n, ast.Name)}
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
                if "bool" in names or {"int", "Fraction"} <= names:
                    found.add(where)
            elif isinstance(child, ast.Compare) and "bool" in names:
                found.add(where)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(tree, "<module>")
    return found


def test_numutil_holds_the_only_exact_number_tests():
    # the value layer kept its own copies, which read a bool as 1: QExpr.q() + True was q + 1
    found = {path.name: exact_number_tests(ast.parse(path.read_text(encoding="utf-8")))
             for path in Path(numutil.__file__).parent.glob("*.py")}
    # cli._cell writes a bool as yes/no; it reads no number
    assert {name: where for name, where in found.items() if where} == {"numutil.py": {"is_exact_int"},
                                                                      "cli.py": {"_cell"}}
    assert exact_number_tests(ast.parse("isinstance(x, (int, Fraction)) and not isinstance(x, bool)")) == {"<module>"}


def test_json_shapes():
    assert json_object({"p": 5}, "system") == {"p": 5}
    assert json_array([1], "polys") == [1]
    for value in ([1], 1, "x", None):
        with pytest.raises(ValueError, match="system must be a JSON object"):
            json_object(value, "system")
    for value in ({"p": 5}, (1,), 1, None):
        with pytest.raises(ValueError, match="polys must be a JSON array"):
            json_array(value, "polys")


def test_read_json(tmp_path):
    path = tmp_path / "input.json"
    path.write_text('{"label": "Q_5 \u00e9tale", "p": 5}', encoding="utf-8")
    assert read_json(path) == read_json(str(path)) == {"label": "Q_5 \u00e9tale", "p": 5}
    path.write_text("[" * 100_000 + "]" * 100_000)  # a RecursionError from json.load
    with pytest.raises(ValueError, match=r"input\.json: JSON nested too deeply to read$"):
        read_json(path)
    # Runs of digits are matched from their first digit only: unanchored, the scan for a run past
    # the budget tried every start in each 4,000-digit integer and took 1.5 s on this file.
    path.write_text("[%s]" % ", ".join(["7" * 4000] * 50))
    start = time.perf_counter()
    assert read_json(path) == [int("7" * 4000)] * 50
    assert time.perf_counter() - start < 0.5


def test_decimal_digits_match_the_printed_length():
    values = [0, 1, 9, 10, 11, 99, 100, 2**64, 10**4299, 10**4300 - 1]
    values += [10**k + d for k in range(1, 60) for d in (-1, 0, 1)] + [7**k for k in range(200)]
    for n in values:
        assert decimal_digits(n) == decimal_digits(-n) == len(str(n))


def test_check_exact_digits_admits_what_prints():
    check_exact_digits(Fraction(10**4300 - 1, 7), "evaluation", "digits")
    check_exact_digits(-(10**4300 - 1), "evaluation", "digits")
    for value in (10**4300, Fraction(3, 10**4300), Fraction(-(10**4300), 7)):
        with pytest.raises(BudgetExceededError, match=f"need 4301 digits, budget {EXACT_DIGITS_BUDGET}"):
            check_exact_digits(value, "evaluation", "digits")


def test_check_budget_refuses_only_past_the_budget():
    check_budget(7, 7, "box", "points evaluated", 1)
    with pytest.raises(BudgetExceededError, match="^lifting budget exceeded at level 3: need 8 points evaluated, budget 7$") as caught:
        check_budget(8, 7, "lifting", "points evaluated", 3)
    assert (caught.value.required, caught.value.budget) == (8, 7)
    with pytest.raises(BudgetExceededError, match="^series budget exceeded: need 101 degrees, budget 100$"):
        check_budget(101, 100, "series", "degrees")


def budget_error_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BudgetExceededError"]


def enclosing(tree):
    """(name of the innermost function around node, or "<module>", node) for every node of tree."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            yield where, child
            yield from visit(child, child.name if isinstance(child, ast.FunctionDef) else where)
    return visit(tree, "<module>")


def test_only_exact_prime_refuses_a_p_that_is_not_prime():
    # six functions in four modules tested p with is_prime and raised their own "is not prime"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in Path(numutil.__file__).parent.glob("*.py")}
    nodes = [(name, where, node) for name, tree in trees.items() for where, node in enclosing(tree)]
    prime_tests = {(name, where) for name, where, node in nodes if isinstance(node, ast.Call)
                   and getattr(node.func, "id", getattr(node.func, "attr", None)) == "is_prime"}
    # past exact_prime, only the Moebius step of the cyclotomic reduction asks, of the divisors of d
    assert prime_tests == {("numutil.py", "exact_prime"), ("qexpr.py", "_cyclotomic_qfrac")}
    refusals = {(name, where) for name, where, node in nodes if isinstance(node, ast.Raise)
                and any(isinstance(c, ast.Constant) and "is not prime" in str(c.value) for c in ast.walk(node))}
    assert refusals == {("numutil.py", "exact_prime")}


def test_only_check_budget_builds_the_budget_error():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in Path(numutil.__file__).parent.glob("*.py")}
    calls = {name: len(budget_error_calls(tree)) for name, tree in trees.items()}
    check = next(node for node in trees["numutil.py"].body if getattr(node, "name", None) == "check_budget")
    assert {name: count for name, count in calls.items() if count} == {"numutil.py": 1}
    assert len(budget_error_calls(check)) == 1


# Slots of every width from 1 to 17 bytes, the machine-word widths among them: rows of one slot and of
# several, at 0, +-1 and the widest values a slot holds, +-(2^(8w-1) - 1).
SLOT_ROWS = [(w, nums) for w in range(1, 18) for top in [(1 << (8 * w - 1)) - 1]
             for nums in ([0], [1], [-1], [top], [-top], [0, 1, -1, top, -top, 0], [-top, top, -top], [top] * 5)]


def check_slot_codec():
    for w, nums in SLOT_ROWS:
        packed = pack_slots(nums, w)
        assert packed == sum(n << (8 * w * i) for i, n in enumerate(nums)), (w, nums)
        assert unpack_slots(packed, w, len(nums)) == nums, (w, nums)
    for w in range(1, 18):
        for nums in ([1 << (8 * w - 1)], [0, -(1 << (8 * w - 1)) - 1]):  # a slot past its width never wraps around
            with pytest.raises(OverflowError):
                pack_slots(nums, w)


def test_slot_codec_round_trip():
    assert set(numutil._WORDS) <= {1, 2, 4, 8}
    check_slot_codec()


def test_slot_codec_byte_path(monkeypatch):
    monkeypatch.setattr(numutil, "_WORDS", {})  # every width slot by slot, as on a big-endian machine
    check_slot_codec()
