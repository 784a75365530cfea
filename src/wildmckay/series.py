"""Truncated formal power series in x with Laurent coefficients in q, and their exp and log.

Carrier of the exponential formula relating masses of field extensions to masses of etale
algebras: exp of the per-degree weights, and log to invert it.  Every coefficient is a ``QExpr``;
an int or Fraction becomes a constant one, anything else (a ``QFrac`` included) is a TypeError.
exp and log run on dense integer rows over t = q^(g/r), r the lcm of the coefficients' exponent
denominators and g the gcd of their integer exponents over q^(1/r), so t is the largest step
dividing every exponent: each coefficient is the numerators of t^low, t^(low+1), ... over one
denominator, packed into one integer of signed w-bit slots, so a product of two coefficients is
one big-integer multiply (Kronecker substitution, as in FLINT's fmpz_poly; D. Harvey, J.
Symbolic Comput. 44 (2009)).  exp and log run the recurrences m e_m = sum_k k s_k e_(m-k) and
m l_m = m s_m - sum_k k l_k s_(m-k); each step sums its products over one denominator in the
packed domain and unpacks once, with w from the bits of that step's products, rounded up to 32,
and each row keeps its packing per width.
"""

from __future__ import annotations

import math
from typing import Iterable

from .numutil import slot_bias, unpack_slots
from .qexpr import QExpr, _check_span, _make, _pairs_over, _row

__all__ = ["TruncatedSeries", "ConstantTermError"]


class ConstantTermError(ValueError):
    """Constant coefficient violates the precondition of exp or log."""


_ZERO = QExpr()


def _coefficient(value: object) -> QExpr:
    """value as a coefficient: a QExpr as it is, an int or Fraction as a constant."""
    if (coeff := QExpr._coerce(value)) is None:
        raise TypeError(f"cannot use {type(value).__name__} as a series coefficient")
    return coeff


class _Row:
    """A nonzero coefficient: numerators of t^low, ..., t^high over den > 0, the first and last
    nonzero, with its packings by slot width in bytes."""

    __slots__ = ("low", "high", "nums", "den", "bits", "packed")

    def __init__(self, low: int, nums: list[int], den: int):
        self.low, self.high, self.nums, self.den = low, low + len(nums) - 1, nums, den
        self.bits = max(max(nums), -min(nums)).bit_length()
        self.packed: dict[int, int] = {}

    def pack(self, size: int) -> int:
        """Keeps and returns sum of nums[i] * 2^(8 size i), read from the slots biased to unsigned."""
        half = 1 << (8 * size - 1)
        biased = b"".join([(n + half).to_bytes(size, "little") for n in self.nums])
        packed = self.packed[size] = int.from_bytes(biased, "little") - slot_bias(half, size, len(self.nums))
        return packed


def _dot(terms: list[tuple[int, _Row, _Row]]) -> _Row | None:
    """sum of c * a * b over terms in lowest terms, None when zero."""
    if not terms:
        return None
    den = math.lcm(*[a.den * b.den for _, a, b in terms])
    terms = [(c * (den // (a.den * b.den)), a, b) for c, a, b in terms]
    low = min([a.low + b.low for _, a, b in terms])
    count = max([a.high + b.high for _, a, b in terms]) + 1 - low
    # |slot of the sum| < sum over terms of |c| * min(len a, len b) * 2^(a.bits + b.bits), min <= count
    bits = max([c.bit_length() + a.bits + b.bits for c, a, b in terms]) + count.bit_length() + len(terms).bit_length()
    size = (bits + 32) // 32 * 4  # slot bytes: bits + 1 sign bit, rounded up to 32 bits
    total = 0
    for c, a, b in terms:
        total += c * (a.packed.get(size) or a.pack(size)) * (b.packed.get(size) or b.pack(size)) << (
            8 * size * (a.low + b.low - low))
    nums = unpack_slots(total, size, count)
    if not (nonzero := [i for i, n in enumerate(nums) if n]):
        return None
    nums = nums[nonzero[0]:nonzero[-1] + 1]
    if (g := math.gcd(den, *nums)) != 1:
        nums, den = [n // g for n in nums], den // g
    return _Row(low + nonzero[0], nums, den)


def _scaled(row: _Row | None, a: int, b: int) -> _Row | None:
    """row * a / b in lowest terms, for coprime a, b > 0."""
    if row is None:
        return None
    g, h = math.gcd(a, row.den), math.gcd(b, *row.nums)
    return _Row(row.low, [n // h * (a // g) for n in row.nums], row.den // g * (b // h))


def _rows(coeffs: tuple[QExpr, ...], degree: int) -> tuple[tuple[int, int], list[_Row | None]]:
    """((g, r), the rows of coeffs over t = q^(g/r)), g / r the largest step of which every
    exponent is a multiple, for coefficients whose products reach `degree` factors; a
    BudgetExceededError when such a product could span more than DENSE_DEGREE_BUDGET t-degrees."""
    r = math.lcm(*[c._r for c in coeffs])
    g = math.gcd(*[e * (r // c._r) for c in coeffs for e, _ in c._nums]) or 1
    rows: list[_Row | None] = []
    for c in coeffs:
        ts = [(e // g, n) for e, n in _pairs_over(c, r)]
        if ts:
            _check_span((ts[-1][0] - ts[0][0]) * degree, "series")
        rows.append(_Row(ts[0][0], _row(ts, ts[0][0]), c._den) if ts else None)
    return (g, r), rows


def _expr(row: _Row | None, step: tuple[int, int]) -> QExpr:
    if row is None:
        return _ZERO
    g, r = step
    return _make([(i * g, n) for i, n in enumerate(row.nums, row.low)], row.den, r)


class TruncatedSeries:
    """Power series known exactly through degree ``truncation``, its number of coefficients less one."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[object]):
        cs = tuple(_coefficient(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        object.__setattr__(self, "_coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- inspection ------------------------------------------------------------

    @property
    def truncation(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[QExpr, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> QExpr:
        if not 0 <= n <= self.truncation:
            raise IndexError(f"coefficient {n} beyond truncation {self.truncation}")
        return self._coeffs[n]

    # -- exp / log ------------------------------------------------------------------

    def exp(self) -> "TruncatedSeries":
        """Formal exponential; requires constant coefficient 0."""
        if not self._coeffs[0].is_zero:
            raise ConstantTermError("exp needs a series with zero constant term")
        n = self.truncation
        step, s = _rows(self._coeffs, n)
        ks = [_scaled(row, k, 1) for k, row in enumerate(s)]  # k s_k, integral for the mass series
        e: list[_Row | None] = [_Row(0, [1], 1)] + [None] * n
        for m in range(1, n + 1):
            e[m] = _scaled(_dot([(1, ks[k], e[m - k]) for k in range(1, m + 1) if ks[k] and e[m - k]]), 1, m)
        return TruncatedSeries([_expr(row, step) for row in e])

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; requires constant coefficient 1."""
        if self._coeffs[0] != 1:
            raise ConstantTermError("log needs a series with constant term 1")
        n = self.truncation
        step, s = _rows(self._coeffs, n)
        kl: list[_Row | None] = [None] * (n + 1)  # k l_k
        for m in range(1, n + 1):
            terms = [(-1, kl[k], s[m - k]) for k in range(1, m) if kl[k] and s[m - k]]
            if s[m]:
                terms.append((m, s[m], s[0]))
            kl[m] = _dot(terms)
        return TruncatedSeries([_expr(_scaled(row, 1, k), step) for k, row in enumerate(kl)])

    # -- comparison / display --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:5])
        if self.truncation >= 5:
            shown += ", ..."
        return f"TruncatedSeries[N={self.truncation}]({shown})"
