"""Small integer and rational helpers shared across modules."""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

__all__ = [
    "BudgetExceededError", "is_prime", "divisors", "exact_int", "json_object", "json_array", "parse_rational",
    "format_rational",
]


class BudgetExceededError(RuntimeError):
    """A command would do more work than its budget allows: points evaluated for the padic engines
    "box" (the level-1 box) and "lifting" (a listed frontier), algebras listed for "algebras"."""

    def __init__(self, required: int, budget: int, engine: str, level: int | None = None,
                 unit: str = "points evaluated"):
        where = "" if level is None else f" at level {level}"
        super().__init__(f"{engine} budget exceeded{where}: need {required} {unit}, budget {budget}")
        self.required = required
        self.budget = budget


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here are desk-scale primes."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError("divisors needs a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def exact_int(value, what: str) -> int:
    """value itself if it is an int; bool, float and anything else are a
    ValueError, so that no input is silently truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(value, what: str) -> Mapping:
    """value itself if it is a JSON object; anything else is a ValueError."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def json_array(value, what: str) -> list:
    """value itself if it is a JSON array; anything else is a ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


def parse_rational(value) -> Fraction:
    """Accept an int, an "a/b" string, or a two-element [num, den] array.

    Every malformed value, a zero denominator included, is a ValueError.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    try:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value.strip())
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return Fraction(exact_int(value[0], "numerator"), exact_int(value[1], "denominator"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
