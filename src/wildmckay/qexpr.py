"""Exact arithmetic in q with rational exponents, and its fraction field.

A ``QExpr`` is a finite Q-linear combination of powers q^e with e rational,
i.e. an element of Z[q^(1/r) : r >= 1] tensored with Q.  All symbolic point
counts and masses produced by this package live here: q stands for the
residue cardinality of the local field, so typical values look like
q^(1-n) or q^(n-v).  A ``QFrac`` is a quotient of two such expressions,
kept in a canonical reduced form so that equality is plain structural
equality.

Coefficients are ``fractions.Fraction`` and exponents are ints when
integral; there is no floating point anywhere in this module except on
explicit request via ``evaluate`` with a stated precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]

__all__ = [
    "QExpr",
    "QFrac",
    "InfiniteType",
    "INFINITE",
    "PoleError",
    "is_infinite",
    "monomial",
    "nth_root_approx",
]


class PoleError(ArithmeticError):
    """Raised when a fraction is evaluated at a zero of its denominator."""


class InfiniteType:
    """Distinguished infinite value.

    Divergent p-adic integrals and stringy point counts are a legitimate
    outcome, not an error, so they get a first-class singleton value.
    """

    _instance = None

    def __new__(cls) -> "InfiniteType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinite"


INFINITE = InfiniteType()


def is_infinite(value: object) -> bool:
    return isinstance(value, InfiniteType)


# ---------------------------------------------------------------------------
# Dense polynomial helpers over Q[t] (lists of Fraction, index = degree).
# Only what the fraction-field canonicalization needs: gcd and exact division.
# ---------------------------------------------------------------------------


def _poly_strip(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b):
        factor = rem[-1] / lead
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
        _poly_strip(rem)
        if not rem:
            break
    return _poly_strip(quo), rem


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd in Q[t] by the Euclidean algorithm."""
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


def _poly_div_exact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    quo, rem = _poly_divmod(a, b)
    if rem:
        raise ArithmeticError("inexact polynomial division during canonicalization")
    return quo


# ---------------------------------------------------------------------------
# QExpr
# ---------------------------------------------------------------------------


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _make(acc: Mapping[Rational, Fraction]) -> "QExpr":
    """QExpr in canonical form from a map of int or Fraction exponents to
    Fraction coefficients, without the checks of the public constructor."""
    obj = object.__new__(QExpr)
    object.__setattr__(obj, "_terms", tuple(sorted(
        (e if type(e) is int or e.denominator != 1 else e.numerator, c) for e, c in acc.items() if c
    )))
    return obj


class QExpr:
    """Exact Laurent expression in q with rational exponents.

    Canonical form: no zero coefficients, integral exponents stored as
    ints and the others as reduced Fractions (so Laurent polynomials do no
    Fraction exponent arithmetic), terms sorted by ascending exponent.
    Instances are immutable and hashable; two expressions are equal iff
    their term maps are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Rational, Rational] | Iterable[tuple[Rational, Rational]] = ()):
        acc: dict[Rational, Fraction] = {}
        for exponent, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            e = exponent if type(exponent) is int else _as_fraction(exponent)
            acc[e] = acc.get(e, 0) + _as_fraction(coeff)
        object.__setattr__(self, "_terms", _make(acc)._terms)

    def __setattr__(self, name, value):
        raise AttributeError("QExpr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QExpr":
        return QExpr()

    @staticmethod
    def one() -> "QExpr":
        return QExpr({0: 1})

    @staticmethod
    def q(exponent: Rational = 1) -> "QExpr":
        return QExpr({exponent: 1})

    @staticmethod
    def const(value: Rational) -> "QExpr":
        return QExpr({0: value})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Rational, Fraction], ...]:
        """Term pairs (exponent, coefficient), ascending in exponent."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exponent: Rational) -> Fraction:
        e = _as_fraction(exponent)
        for exp, coeff in self._terms:
            if exp == e:
                return coeff
        return Fraction(0)

    def exponent_denominator(self) -> int:
        """Least r such that every exponent is a multiple of 1/r."""
        r = 1
        for exp, _ in self._terms:
            r = math.lcm(r, exp.denominator)
        return r

    def has_integer_exponents(self) -> bool:
        return all(exp.denominator == 1 for exp, _ in self._terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "QExpr | None":
        if isinstance(other, QExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return _make({0: _as_fraction(other)})
        return None

    def __add__(self, other: object) -> "QExpr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc = dict(self._terms)
        for e, c in rhs._terms:
            acc[e] = acc.get(e, 0) + c
        return _make(acc)

    __radd__ = __add__

    def __neg__(self) -> "QExpr":
        return _make({e: -c for e, c in self._terms})

    def __sub__(self, other: object) -> "QExpr":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "QExpr":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs - self

    def __mul__(self, other: object) -> "QExpr":
        if isinstance(other, (int, Fraction)):
            return _make({e: c * other for e, c in self._terms})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc: dict[Rational, Fraction] = {}
        for e1, c1 in self._terms:
            for e2, c2 in rhs._terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return _make(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QExpr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("QExpr powers must be non-negative integers")
        result = QExpr.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other: object) -> "QExpr | QFrac":
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        if isinstance(other, QFrac):
            return NotImplemented
        return QFrac(self, other)

    def __rtruediv__(self, other: object) -> "QFrac":
        if isinstance(other, QFrac):
            return NotImplemented
        return QFrac(other, self)

    def scale_exponents(self, k: int) -> "QExpr":
        """Substitute q -> q^k (k a positive integer)."""
        if k < 1:
            raise ValueError("exponent scale must be a positive integer")
        return QExpr({e * k: c for e, c in self._terms})

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QExpr.const(other)
        if isinstance(other, QExpr):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its rational, so it must hash like it.
        if not self._terms or (len(self._terms) == 1 and self._terms[0][0] == 0):
            return hash(self.coefficient(0))
        return hash(("QExpr", self._terms))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0: Rational, precision: Rational | float | None = None) -> Fraction:
        """Substitute q := q0 (> 0).

        Exact when every exponent is an integer.  Otherwise a precision must
        be supplied and the result is a rational approximation within it.
        """
        value, _exact = self._approximate(q0, precision)
        return value

    def _approximate(self, q0: Rational, precision) -> tuple[Fraction, bool]:
        q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError("evaluation point must be positive")
        if self.has_integer_exponents():
            total = Fraction(0)
            for e, c in self._terms:
                total += c * q0 ** int(e)
            return total, True
        if precision is None:
            raise ValueError("fractional exponents require an explicit precision")
        tol = Fraction(precision)
        if tol <= 0:
            raise ValueError("precision must be positive")
        n_terms = max(1, len(self._terms))
        total = Fraction(0)
        for e, c in self._terms:
            if e.denominator == 1:
                total += c * q0 ** int(e)
                continue
            term_tol = tol / n_terms / max(Fraction(1), abs(c))
            root = nth_root_approx(q0 ** e.numerator, e.denominator, term_tol)
            total += c * root
        return total, False

    # -- serialization / display ----------------------------------------------

    def to_json(self) -> list[list[int]]:
        """Term quadruples [exp_num, exp_den, coeff_num, coeff_den], ascending."""
        return [[e.numerator, e.denominator, c.numerator, c.denominator] for e, c in self._terms]

    @staticmethod
    def from_json(data: Iterable[Iterable[int]]) -> "QExpr":
        terms = []
        for quad in data:
            en, ed, cn, cd = (int(v) for v in quad)
            terms.append((Fraction(en, ed), Fraction(cn, cd)))
        return QExpr(terms)

    def __repr__(self) -> str:
        return f"QExpr({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in reversed(self._terms):
            if e == 0:
                body = str(c)
            else:
                power = "q" if e == 1 else f"q^({e})" if (e.denominator != 1 or e < 0) else f"q^{e}"
                if c == 1:
                    body = power
                elif c == -1:
                    body = f"-{power}"
                else:
                    body = f"{c}*{power}"
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def monomial(coeff: Rational, exponent: Rational) -> QExpr:
    """Single-term expression coeff * q^exponent (zero if coeff is 0)."""
    return QExpr({exponent: coeff})


# ---------------------------------------------------------------------------
# QFrac
# ---------------------------------------------------------------------------


class QFrac:
    """Quotient of two QExpr in canonical reduced form.

    Canonicalization: scale exponents to a common denominator r, so both
    parts become Laurent polynomials in t = q^(1/r); shift by the smaller
    valuation so both are ordinary polynomials with min valuation 0; divide
    out the polynomial gcd; finally rescale so the denominator is monic.
    The result is unique, so equality is structural.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: object, den: object = 1):
        if isinstance(num, QFrac) and type(den) is int and den == 1:
            object.__setattr__(self, "_num", num._num)
            object.__setattr__(self, "_den", num._den)
            return
        if isinstance(num, QFrac) or isinstance(den, QFrac):
            top = num if isinstance(num, QFrac) else QFrac(num)
            bottom = den if isinstance(den, QFrac) else QFrac(den)
            num, den = top._num * bottom._den, top._den * bottom._num
        num_e, den_e = QExpr._coerce(num), QExpr._coerce(den)
        if num_e is None or den_e is None:
            raise TypeError(f"cannot build a q-expression from {type(num if num_e is None else den).__name__}")
        if den_e.is_zero:
            raise ZeroDivisionError("zero denominator in q-fraction")
        if num_e.is_zero:
            object.__setattr__(self, "_num", QExpr.zero())
            object.__setattr__(self, "_den", QExpr.one())
            return
        n, d = _canonical_pair(num_e, den_e)
        object.__setattr__(self, "_num", n)
        object.__setattr__(self, "_den", d)

    def __setattr__(self, name, value):
        raise AttributeError("QFrac is immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def num(self) -> QExpr:
        return self._num

    @property
    def den(self) -> QExpr:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def as_laurent(self) -> "QExpr | None":
        """The value as a Laurent expression when the denominator is a
        monomial, else None."""
        if len(self._den.terms) != 1:
            return None
        (e0, c0), = self._den.terms
        return _make({e - e0: c / c0 for e, c in self._num.terms})

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "QFrac | None":
        if isinstance(other, QFrac):
            return other
        if isinstance(other, (int, Fraction)):
            # A constant over 1 is already canonical.
            scalar = object.__new__(QFrac)
            object.__setattr__(scalar, "_num", QExpr.const(other))
            object.__setattr__(scalar, "_den", QExpr.one())
            return scalar
        if isinstance(other, QExpr):
            return QFrac(other)
        return None

    def __add__(self, other: object) -> "QFrac":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self._num.is_zero:
            return rhs
        if rhs._num.is_zero:
            return self
        if self._den == rhs._den:
            return QFrac(self._num + rhs._num, self._den)
        return QFrac(self._num * rhs._den + rhs._num * self._den, self._den * rhs._den)

    __radd__ = __add__

    def __neg__(self) -> "QFrac":
        return QFrac(-self._num, self._den)

    def __sub__(self, other: object) -> "QFrac":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "QFrac":
        return (-self) + other

    def __mul__(self, other: object) -> "QFrac":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QFrac(self._num * rhs._num, self._den * rhs._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QFrac":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs._num.is_zero:
            raise ZeroDivisionError("division by zero q-fraction")
        return QFrac(self._num * rhs._den, self._den * rhs._num)

    def __rtruediv__(self, other: object) -> "QFrac":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    def __pow__(self, n: int) -> "QFrac":
        if not isinstance(n, int):
            raise ValueError("QFrac powers must be integers")
        if n < 0:
            return QFrac(self._den ** (-n), self._num ** (-n))
        return QFrac(self._num**n, self._den**n)

    def scale_exponents(self, k: int) -> "QFrac":
        """Substitute q -> q^k (k a positive integer)."""
        return QFrac(self._num.scale_exponents(k), self._den.scale_exponents(k))

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QExpr.const(other)
        if isinstance(other, QExpr):
            # A non-Laurent value never equals a Laurent one.
            return self.as_laurent() == other
        if isinstance(other, QFrac):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        # A Laurent value equals its QExpr, so it must hash like it.
        laurent = self.as_laurent()
        return hash(("QFrac", self._num, self._den) if laurent is None else laurent)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, q0: Rational, precision: Rational | float | None = None) -> Fraction:
        """Substitute q := q0 (> 0); PoleError at a zero of the denominator."""
        q0 = Fraction(q0)
        if self._num.has_integer_exponents() and self._den.has_integer_exponents():
            den_v = self._den.evaluate(q0)
            if den_v == 0:
                raise PoleError(f"denominator {self._den} vanishes at q={q0}")
            return self._num.evaluate(q0) / den_v
        if precision is None:
            raise ValueError("fractional exponents require an explicit precision")
        tol = Fraction(precision)
        inner = tol / 4
        for _ in range(64):
            num_v, num_exact = self._num._approximate(q0, inner)
            den_v, den_exact = self._den._approximate(q0, inner)
            num_err = Fraction(0) if num_exact else inner
            den_err = Fraction(0) if den_exact else inner
            if den_exact and den_v == 0:
                raise PoleError(f"denominator {self._den} vanishes at q={q0}")
            if abs(den_v) > 2 * den_err:
                quotient = num_v / den_v
                bound = (num_err + abs(quotient) * den_err) / (abs(den_v) - den_err)
                if bound <= tol:
                    return quotient
            inner /= 16
        raise PoleError(f"denominator {self._den} vanishes (or nearly) at q={q0}")

    # -- serialization / display ----------------------------------------------

    def to_json(self) -> dict:
        return {"num": self._num.to_json(), "den": self._den.to_json()}

    @staticmethod
    def from_json(data: Mapping) -> "QFrac":
        return QFrac(QExpr.from_json(data["num"]), QExpr.from_json(data["den"]))

    def __repr__(self) -> str:
        return f"QFrac({self})"

    def __str__(self) -> str:
        if self._den == QExpr.one():
            return str(self._num)
        num = str(self._num)
        den = str(self._den)
        if len(self._num.terms) > 1:
            num = f"({num})"
        if len(self._den.terms) > 1:
            den = f"({den})"
        return f"{num} / {den}"


def _canonical_pair(num: QExpr, den: QExpr) -> tuple[QExpr, QExpr]:
    if len(den.terms) == 1:
        # Monomial denominator: no gcd needed, only an exponent shift.
        (e0, c0), = den.terms
        shifted = _make({e - e0: c / c0 for e, c in num.terms})
        low = shifted.terms[0][0]
        if low >= 0:
            return shifted, QExpr.one()
        return _make({e - low: c for e, c in shifted.terms}), QExpr.q(-low)
    r = math.lcm(num.exponent_denominator(), den.exponent_denominator())
    num_i = {int(e * r): c for e, c in num.terms}
    den_i = {int(e * r): c for e, c in den.terms}
    shift = min(min(num_i), min(den_i))
    num_i = {e - shift: c for e, c in num_i.items()}
    den_i = {e - shift: c for e, c in den_i.items()}

    def dense(d: dict[int, Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (max(d) + 1)
        for e, c in d.items():
            out[e] = c
        return out

    a, b = dense(num_i), dense(den_i)
    g = _poly_gcd(a, b)
    if len(g) > 1:
        a = _poly_div_exact(a, g)
        b = _poly_div_exact(b, g)
    lead = b[-1]
    a = [c / lead for c in a]
    b = [c / lead for c in b]
    to_expr = lambda cs: _make({(i if r == 1 else Fraction(i, r)): c for i, c in enumerate(cs)})
    return to_expr(a), to_expr(b)


# ---------------------------------------------------------------------------
# Rational root approximation (exact integer Newton + scaling)
# ---------------------------------------------------------------------------


def _int_nth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1, by integer Newton iteration."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n in (0, 1):
        return n
    x = 1 << (-(-n.bit_length() // k) + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def nth_root_approx(x: Rational, k: int, tol: Rational) -> Fraction:
    """Rational approximation of x^(1/k), x > 0, within absolute error tol."""
    x = Fraction(x)
    tol = Fraction(tol)
    if x < 0:
        raise ValueError("negative radicand")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if k == 1 or x in (0, 1):
        return x
    scale = 1
    while Fraction(2, scale) > tol:
        scale <<= 1
    radicand = (x.numerator * scale**k) // x.denominator
    return Fraction(_int_nth_root(radicand, k), scale)
