"""Tests for the shared integer/rational helpers."""

from fractions import Fraction

import pytest

from wildmckay.numutil import (
    EXACT_DIGITS_BUDGET, PRIME_TEST_LIMIT, BudgetExceededError, check_exact_digits, decimal_digits, divisors,
    exact_int, format_rational, is_prime, json_array, json_object, parse_rational, read_json,
)


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
    # With no digits allowed every value is refused, and the count it reports is the digits of
    # its numerator or denominator in lowest terms, here checked against the built Fraction.
    import random

    from wildmckay import numutil

    monkeypatch.setattr(numutil, "EXACT_DIGITS_BUDGET", 0)
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.choice([rng.randrange(1, 10 ** rng.randrange(1, 30)), 2 ** rng.randrange(60) * rng.choice([1, 3, 7]),
                        5 ** rng.randrange(40) * rng.choice([1, 2, 3])])
        digits, cut = str(n), rng.randrange(len(str(n)) + 1)
        text = (digits[:cut] + "." + digits[cut:] if rng.random() < 0.5 else digits) + f"e{rng.randrange(-120, 120)}"
        value = Fraction(n, 10 ** (len(digits) - cut if "." in text else 0)) * Fraction(10) ** int(text.split("e")[1])
        with pytest.raises(BudgetExceededError) as refused:
            parse_rational(text)
        assert refused.value.required == max(len(str(abs(value.numerator))), len(str(value.denominator))), text
    with pytest.raises(BudgetExceededError, match="need 2 digits in a fixture, budget 0"):
        parse_rational("1/10", "a fixture")


def test_exact_int():
    assert exact_int(-3, "n") == -3
    for value in (True, 1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="n must be an integer"):
            exact_int(value, "n")


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


def test_format_rational():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 7)) == "-3/7"


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
