"""Tests for the shared integer/rational helpers."""

from fractions import Fraction

import pytest

from wildmckay.numutil import (
    divisors, exact_int, format_rational, is_prime, json_array, json_object, parse_rational,
)


def test_is_prime_small_range():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


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


def test_format_rational():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 7)) == "-3/7"
