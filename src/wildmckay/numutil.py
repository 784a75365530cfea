"""Small integer and rational helpers shared across modules."""

from __future__ import annotations

import json
import math
import os
import re
import sys
from array import array
from collections.abc import Mapping
from fractions import Fraction

__all__ = [
    "BudgetExceededError", "SmoothnessError", "HenselMismatchError", "PoleError", "DEFAULT_PRECISION",
    "EXACT_DIGITS_BUDGET", "PRIME_TEST_LIMIT", "SHORT_REPR_LIMIT", "is_prime", "divisors", "is_exact_int",
    "is_exact_rational", "exact_int", "exact_prime", "short_repr", "decimal_digits", "check_budget",
    "check_exact_digits", "pack_slots", "unpack_slots", "read_json", "json_object", "json_array", "parse_integer",
    "parse_rational",
]

# Absolute precision of every printed approximation (1e-12); QFrac.evaluate also aims within 10^-20 of its size.
DEFAULT_PRECISION = Fraction(1, 10**12)
# Most decimal digits in the numerator or denominator of an exact value read or printed: Python's default
# int-to-str limit, past which it could not be printed.  A lower limit still refuses earlier, through int() and str().
EXACT_DIGITS_BUDGET = 4300
# Most characters of an input value that a refusal echoes (short_repr): with argparse's usage line,
# an option's refusal then stays under 300 bytes (at most 284, by `padic integral --terms`).
SHORT_REPR_LIMIT = 80


class BudgetExceededError(RuntimeError):
    """A command would do more work than its budget allows: points evaluated for the padic engines
    "box" (the level-1 box) and "lifting" (a frontier, listed or counted), and digits of p^(m deg)
    and of a printed normalized count or box fraction for "lifting", algebras listed for "algebras",
    degrees for "count", "mass", "partition" and "series", t-degrees of a dense q-fraction for
    "fraction" and of a packed series row for "series", shell bits (in all, and in the largest
    shell) for "integral", digits of the mass at p for "mass", digits of a power of q (counted
    before any evaluation) and of the exact value at q for "evaluation", digits of a parsed
    rational (an option or a value in a JSON file) or JSON integer for "input", and digits of a
    printed exponent or coefficient of a q-expression for "output".  Raised only by check_budget."""

    def __init__(self, required: int, budget: int, engine: str, level: int | None = None,
                 unit: str = "points evaluated"):
        where = "" if level is None else f" at level {level}"
        super().__init__(f"{engine} budget exceeded{where}: need {required} {unit}, budget {budget}")
        self.required = required
        self.budget = budget


class SmoothnessError(ValueError):
    """The Jacobian drops rank at a mod-p solution."""


class HenselMismatchError(ArithmeticError):
    """Solution counts fail the smooth lifting relation count(m+1) = p^d count(m)."""


class PoleError(ArithmeticError):
    """Raised when a fraction is evaluated at a zero of its denominator."""


# Miller-Rabin to the first 13 prime bases is exact below PRIME_TEST_LIMIT, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86 (2017), 985-1003).  The first
# 12 bases are not enough there: 318665857834031151167461 is a strong pseudoprime to 2, ..., 37.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on an exact integer (is_exact_int); a ValueError for anything else,
    and at or above PRIME_TEST_LIMIT, where no fixed set of bases is proven, so that no probable
    prime is ever accepted."""
    if exact_int(n, "a number tested for primality") >= PRIME_TEST_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: the test is exact only below {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor up to 41
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def decimal_digits(n: int) -> int:
    """Decimal digits of |n|, counted exactly without converting n to a string: from a float
    estimate below the count, one power of 10 and a few multiplications by 10."""
    n = abs(n)
    digits = max(1, int(math.log10(n)) - 1) if n else 1  # the float is off by far less than 1
    power = 10**digits
    while n >= power:
        digits, power = digits + 1, power * 10
    return digits


def check_budget(required: int, budget: int, engine: str, unit: str, level: int | None = None) -> None:
    """BudgetExceededError(required, budget, engine, level, unit) when required > budget."""
    if required > budget:
        raise BudgetExceededError(required, budget, engine, level, unit)


def check_exact_digits(value: int | Fraction, engine: str, unit: str) -> None:
    """BudgetExceededError when the numerator or the denominator of value has more than
    EXACT_DIGITS_BUDGET decimal digits, so that it could not be printed."""
    value = Fraction(value)
    digits = max(decimal_digits(value.numerator), decimal_digits(value.denominator))
    check_budget(digits, EXACT_DIGITS_BUDGET, engine, unit)


# Array type codes of the machine words (1, 2, 4, 8 bytes), the slot widths packed as one array on a little-endian machine.
_WORDS = {array(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}


def _slot_bias(half: int, size: int, count: int) -> int:
    """half in each of count slots of size bytes, least significant first."""
    return int.from_bytes(half.to_bytes(size, "little") * count, "little")


def pack_slots(nums: list[int], size: int) -> int:
    """sum nums[i] * 2^(8 size i), each |nums[i]| < 2^(8 size - 1); a slot past its width is an OverflowError."""
    half, code = 1 << (8 * size - 1), _WORDS.get(size)
    biased = [n + half for n in nums]
    raw = array(code, biased).tobytes() if code else b"".join([n.to_bytes(size, "little") for n in biased])
    return int.from_bytes(raw, "little") - _slot_bias(half, size, len(nums))


def unpack_slots(packed: int, size: int, count: int) -> list[int]:
    """[n_0, ..., n_(count-1)] from packed = sum n_i 2^(8 size i), each |n_i| < 2^(8 size - 1)."""
    half = 1 << (8 * size - 1)
    raw = memoryview((packed + _slot_bias(half, size, count)).to_bytes(size * count, "little"))
    if code := _WORDS.get(size):
        return [n - half for n in raw.cast(code)]
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, size * count, size)]


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    exact_int(n, "n", 1)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def short_repr(value) -> str:
    """repr(value) cut to SHORT_REPR_LIMIT characters and "...": an input value as a refusal echoes it."""
    text = repr(value)
    return text if len(text) <= SHORT_REPR_LIMIT else text[:SHORT_REPR_LIMIT] + "..."


def is_exact_int(value) -> bool:
    """An int that is not a bool: the one test of an exact integer, so a bool is never read as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_exact_rational(value) -> bool:
    """An exact integer (is_exact_int) or a Fraction: the one test of an exact rational."""
    return isinstance(value, Fraction) or is_exact_int(value)


def exact_int(value, what: str, least: int | None = None) -> int:
    """value itself if is_exact_int(value); a bool, a float or anything else is a ValueError, so none is truncated,
    and so is a value below least when it is given."""
    if not is_exact_int(value):
        raise ValueError(f"{what} must be an integer, got {short_repr(value)}")
    if least is not None and value < least:
        raise ValueError(f"need {what} >= {least}")
    return value


def exact_prime(value) -> int:
    """value itself if exact_int(value, "p") is prime; is_prime's ValueError at PRIME_TEST_LIMIT passes through."""
    if not is_prime(exact_int(value, "p")):
        raise ValueError(f"p={value} is not prime")
    return value


def read_json(path: str | os.PathLike):
    """The JSON value in the UTF-8 file at path; a value nested past the decoder's recursion
    limit is a one-line ValueError, not a RecursionError, and an integer of more than EXACT_DIGITS_BUDGET
    digits a BudgetExceededError of engine "input": only a text with a run of that many digits (matched
    from a run's first digit, in linear time) has its integers counted by _int, so most files pay for no hook."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    long_run = re.search(r"(?<![0-9])[0-9]{%d}" % (EXACT_DIGITS_BUDGET + 1), text)
    counted = (lambda digits: _int(digits, "digits in a JSON integer")) if long_run else None
    try:
        return json.loads(text, parse_int=counted)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def json_object(value, what: str, required: tuple = ()) -> Mapping:
    """value itself if it is a JSON object with every required key; anything else is a ValueError
    that names the first missing key."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {short_repr(value)}")
    for key in required:
        if key not in value:
            raise ValueError(f"missing field {key!r}")
    return value


def json_array(value, what: str) -> list:
    """value itself if it is a JSON array; anything else is a ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {short_repr(value)}")
    return value


# The strings read as rationals: an integer over an optional positive integer, or a decimal with
# an optional fraction part and exponent ("-1.5e-3", "2E+10"), with PEP 515 underscores between
# digits, matched case-insensitively.  It is the grammar of Fraction's parser on Python 3.11,
# kept here because that parser's grammar differs between versions (3.10 reads no underscores,
# 3.12 also reads spaces around "/"); re compiles it on first use, so that an import does not.
_RATIONAL = r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*)|(?:\.(\d*|\d+(?:_\d+)*))?(?:E([-+]?\d+(?:_\d+)*))?)\s*\Z"


def _int(text: str, unit: str) -> int:
    """int(text) for a signed digit string, its leading zeros dropped first; a string of more
    than EXACT_DIGITS_BUDGET digits is refused by its count, before int() reads it."""
    digits = text.lstrip("+-0_")
    check_budget(len(digits) - digits.count("_"), EXACT_DIGITS_BUDGET, "input", unit)
    return -int(digits or "0") if text[:1] == "-" else int(digits or "0")


def _decimal(sign: str, whole: str, fraction: str, exponent: str, unit: str) -> Fraction:
    """sign whole.fraction * 10^exponent, the fraction's trailing zeros moved into the exponent, counted
    before its power of 10 is built: n / 10^k is (n / 10^l) / 10^(k-l) in lowest terms for
    l = min(k, bit length of n), since n / 10^l keeps no factor 2 or 5 of n once 2^l > n."""
    fraction = fraction.rstrip("0_")
    n = _int(sign + whole + fraction, unit)
    if not n:
        return Fraction(0)
    shift = _int(exponent, unit) - len(fraction.replace("_", ""))
    top = min(max(-shift, 0), n.bit_length())
    small, shift = Fraction(n, 10**top), shift + top
    digits = max(decimal_digits(small.numerator) + max(shift, 0), decimal_digits(small.denominator) - min(shift, 0))
    check_budget(digits, EXACT_DIGITS_BUDGET, "input", unit)
    return small * Fraction(10) ** shift


def parse_integer(value: str, what: str) -> int:
    """An integer string of _RATIONAL's grammar with no "/", fraction or exponent, which is int()'s grammar,
    read by _int as "digits in {what}"; anything else is a ValueError."""
    if not (match := re.match(_RATIONAL, value)) or match.lastindex != 2:  # "/", "." or "e" matched a later group
        raise ValueError(f"not an integer: {short_repr(value)}")
    return _int(match[1] + match[2], f"digits in {what}")


def parse_rational(value, what: str = "a rational") -> Fraction:
    """Accept an int, an "a/b" or decimal string (the grammar of _RATIONAL), or a two-element
    [num, den] array.

    Every malformed value, a zero denominator included, is a ValueError, and a value with more
    than EXACT_DIGITS_BUDGET digits in its numerator or denominator a BudgetExceededError of
    engine "input", counted as "digits in {what}": a digit string by its length before int()
    reads it, and a decimal string before its power of 10 is built.
    """
    unit = f"digits in {what}"
    try:
        if is_exact_rational(value):
            rational = Fraction(value)
        elif isinstance(value, str) and (match := re.match(_RATIONAL, value, re.IGNORECASE)):
            sign, whole, denominator, fraction, exponent = match.groups("")
            if denominator:
                rational = Fraction(_int(sign + whole, unit), _int(denominator, unit))
            else:
                rational = _decimal(sign, whole, fraction, exponent, unit)
        elif isinstance(value, (list, tuple)) and len(value) == 2:
            rational = Fraction(exact_int(value[0], "numerator"), exact_int(value[1], "denominator"))
        else:
            raise ValueError(f"not a rational: {short_repr(value)}")
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {short_repr(value)}") from None
    check_exact_digits(rational, "input", unit)
    return rational
