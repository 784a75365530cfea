"""Exact arithmetic in q with rational exponents, and q-fractions as values.

A ``QExpr`` is a finite Q-linear combination of powers q^e with e rational,
i.e. an element of Z[q^(1/r) : r >= 1] tensored with Q: the one ring every
symbolic point count, mass and series coefficient lives in.  q stands for
the residue cardinality of the local field, so typical values look like
q^(1-n) or q^(n-v).  A ``QFrac`` is the value of a quotient of two such
expressions, built once from a numerator and a denominator computed in that
ring; it does no arithmetic, and its canonical reduced form makes equality
structural.

A ``QExpr`` stores integer numerators over one positive common
denominator, as FLINT's fmpq_poly does, so a sum or product is integer
multiply-adds and one gcd; ``terms`` builds ``fractions.Fraction``
coefficients on demand.  Exponents are ints when integral and reduced
Fractions otherwise.  ``QFrac`` canonicalization works on dense integer
rows over t = q^(1/r), of at most DENSE_DEGREE_BUDGET terms: a general
quotient takes its gcd over Z by primitive remainder sequences, and a
quotient by a product of binomials t^k - 1 by trial division with the
cyclotomic polynomials that divide them.  There is no floating point here
except on explicit request via ``evaluate`` with a stated precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations
from operator import sub
from typing import Iterable, Mapping, Union

from .numutil import BudgetExceededError, divisors

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
    "DENSE_DEGREE_BUDGET",
]

# Largest dense form a q-fraction is reduced on, in t-degrees (r times the exponent span, t =
# q^(1/r)): at 50,000, `stringy point --c=-49997/3` takes 0.25 s in-process, most of it printing,
# and the gcd of q^-1 (q - 1) / (q^(1 - c) - 1) at c = -49994/3 0.13 s (Python 3.11, 2-vCPU Xeon).
DENSE_DEGREE_BUDGET = 50_000


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
# Dense polynomials over Z[t] (int lists, index = degree, nonzero leading entry)
# ---------------------------------------------------------------------------


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    c = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quo, rem) with c * a == quo * b + rem for an integer c > 0, by
    fraction-free division of a by b (lead(b) > 0) that scales only by
    lead(b) / gcd(lead(rem), lead(b)); c == 1 when b divides a in Z[t]."""
    rem, lead, k = list(a), b[-1], len(b)
    quo = [0] * max(0, len(a) - k + 1)
    while len(rem) >= k:
        g = math.gcd(rem[-1], lead)
        scale, factor, shift = lead // g, rem[-1] // g, len(rem) - k
        if scale != 1:
            rem, quo = [x * scale for x in rem], [x * scale for x in quo]
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    return quo, rem


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[t] of two nonzero polynomials by the primitive
    polynomial remainder sequence (Knuth, TAOCP vol. 2, 4.6.1)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _pseudo_divmod(a, b)[1]
        if b:
            b = _primitive(b)
    return a


def _times_binomial(a: list[int], e: int) -> list[int]:
    """a * (1 - t^e)."""
    return list(map(sub, a + [0] * e, [0] * e + a))


def _over_binomial(a: list[int], e: int) -> list[int] | None:
    """a / (1 - t^e), or None when 1 - t^e does not divide a: the quotient is the running sums
    of a along each residue class mod e, and the full class sums are the remainder."""
    sums, top = a[:], max(0, len(a) - e)
    for s in range(min(e, len(a))):
        sums[s::e] = accumulate(a[s::e])
    return None if any(sums[top:]) else sums[:top]


def _check_span(size: int) -> None:
    if size > DENSE_DEGREE_BUDGET:
        raise BudgetExceededError(size, DENSE_DEGREE_BUDGET, "fraction", unit="t-degrees")


# ---------------------------------------------------------------------------
# QExpr
# ---------------------------------------------------------------------------


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# Tuples and star-arguments here are built from lists, never generators: a tuple
# built from a generator is resized, and that grows CPython's tuple free lists
# by a block per call, up to several MB of peak memory over a long run.


def _make(acc: Mapping[Rational, int], den: int = 1) -> "QExpr":
    """QExpr in canonical form from a map of int or Fraction exponents to
    integer numerators over den > 0, without the checks of the public
    constructor."""
    nums = [(e if type(e) is int or e.denominator != 1 else e.numerator, n) for e, n in acc.items() if n]
    nums.sort()
    return _from_sorted(nums, den)


def _from_sorted(nums: list[tuple[Rational, int]], den: int) -> "QExpr":
    """QExpr from nonzero (exponent, numerator) pairs, exponents canonical and ascending, over
    den > 0."""
    if den != 1:
        g = math.gcd(den, *[n for _, n in nums])
        if g != 1:
            den //= g
            nums = [(e, n // g) for e, n in nums]
    obj = object.__new__(QExpr)
    object.__setattr__(obj, "_nums", tuple(nums))
    object.__setattr__(obj, "_den", den)
    return obj


def _sum_over(parts: list[tuple["QExpr", int]]) -> "QExpr":
    """sum of value / k over (value, k) pairs (k a nonzero int) over the lcm of the denominators."""
    den = math.lcm(*[v._den * abs(k) for v, k in parts])
    acc: dict[Rational, int] = {}
    for v, k in parts:
        scale = den // (v._den * k)
        for e, n in v._nums:
            acc[e] = acc.get(e, 0) + n * scale
    return _make(acc, den)


class QExpr:
    """Exact Laurent expression in q with rational exponents.

    Canonical form: integer numerators over one positive common
    denominator with gcd(den, *numerators) == 1 (FLINT's fmpq_poly
    layout), no zero numerators, integral exponents stored as ints and the
    others as reduced Fractions, terms sorted by ascending exponent.
    Instances are immutable and hashable; two expressions are equal iff
    their canonical forms are equal.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Rational, Rational] | Iterable[tuple[Rational, Rational]] = ()):
        acc: dict[Rational, Fraction] = {}
        for exponent, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            e = exponent if type(exponent) is int else _as_fraction(exponent)
            acc[e] = acc.get(e, 0) + (coeff if type(coeff) is int else _as_fraction(coeff))
        den = math.lcm(*[c.denominator for c in acc.values()])
        made = _make({e: c.numerator * (den // c.denominator) for e, c in acc.items()}, den)
        object.__setattr__(self, "_nums", made._nums)
        object.__setattr__(self, "_den", made._den)

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
        return _make({exponent: 1}) if type(exponent) is int else QExpr({exponent: 1})

    @staticmethod
    def const(value: Rational) -> "QExpr":
        return QExpr({0: value})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Rational, Fraction], ...]:
        """Term pairs (exponent, coefficient), ascending in exponent."""
        return tuple([(e, Fraction(n, self._den)) for e, n in self._nums])

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, exponent: Rational) -> Fraction:
        return Fraction(dict(self._nums).get(_as_fraction(exponent), 0), self._den)

    def exponent_denominator(self) -> int:
        """Least r such that every exponent is a multiple of 1/r."""
        return math.lcm(*[exp.denominator for exp, _ in self._nums])

    def has_integer_exponents(self) -> bool:
        return all(type(exp) is int for exp, _ in self._nums)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "QExpr | None":
        if isinstance(other, QExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return _make({0: other.numerator}, other.denominator)
        return None

    def _scaled(self, a: int, b: int) -> "QExpr":
        """self * a / b for integers a and b > 0."""
        return _make({e: n * a for e, n in self._nums}, self._den * b)

    def _plus(self, rhs: "QExpr", sign: int) -> "QExpr":
        """self + sign * rhs over the lcm of the two denominators."""
        da, db = self._den, rhs._den
        den = da if da == db else math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        acc = dict(self._nums) if fa == 1 else {e: n * fa for e, n in self._nums}
        for e, n in rhs._nums:
            acc[e] = acc.get(e, 0) + n * fb
        return _make(acc, den)

    def __add__(self, other: object) -> "QExpr":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self._plus(rhs, 1)

    __radd__ = __add__

    def __neg__(self) -> "QExpr":
        return self._scaled(-1, 1)

    def __sub__(self, other: object) -> "QExpr":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self._plus(rhs, -1)

    def __rsub__(self, other: object) -> "QExpr":
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else lhs._plus(self, -1)

    def __mul__(self, other: object) -> "QExpr":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc: dict[Rational, int] = {}
        for e1, n1 in self._nums:
            for e2, n2 in rhs._nums:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + n1 * n2
        return _make(acc, self._den * rhs._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QExpr | QFrac":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a q-expression by zero")
            a, b = other.denominator, other.numerator
            return self._scaled(a, b) if b > 0 else self._scaled(-a, -b)
        return QFrac(self, other)

    def __rtruediv__(self, other: object) -> "QFrac":
        return QFrac(other, self)

    def scale_exponents(self, k: int) -> "QExpr":
        """Substitute q -> q^k (k a positive integer)."""
        if k < 1:
            raise ValueError("exponent scale must be a positive integer")
        return _make({e * k: n for e, n in self._nums}, self._den)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if isinstance(other, QExpr):
            return self._nums == other._nums and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its rational, so it must hash like it.
        if not self._nums or (len(self._nums) == 1 and self._nums[0][0] == 0):
            return hash(self.coefficient(0))
        return hash(("QExpr", self._nums, self._den))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0: Rational, precision: Rational | float | None = None) -> Fraction:
        """Substitute q := q0 (> 0).

        Exact when every exponent is an integer.  Otherwise a precision must
        be supplied and the result is a rational approximation within it.
        """
        return self._approximate(q0, precision)[0]

    def _approximate(self, q0: Rational, precision) -> tuple[Fraction, bool]:
        q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError("evaluation point must be positive")
        if self.has_integer_exponents():
            # At q0 = a/b the value is a^low b^-high acc / den with acc = sum n a^(e - low)
            # b^(high - e), a homogeneous sum on ints.  Adjacent runs (low, high, acc) merge as
            # (lo, hi, v) + (lo2, hi2, w) -> (lo, hi2, v b^(hi2 - hi) + w a^(lo2 - lo)), pairwise,
            # so a long sum costs a few big multiplies per halving instead of one per term.
            a, b = q0.numerator, q0.denominator
            runs = [(e, e, n) for e, n in self._nums] or [(0, 0, 0)]
            while len(runs) > 1:
                merged = [(lo, hi2, v * b ** (hi2 - hi) + w * a ** (lo2 - lo))
                          for (lo, hi, v), (lo2, hi2, w) in zip(runs[::2], runs[1::2])]
                runs = merged + runs[2 * len(merged):]
            (low, high, acc), = runs
            top, bottom = acc * a ** max(low, 0) * b ** max(-high, 0), a ** max(-low, 0) * b ** max(high, 0)
            return Fraction(top, self._den * bottom), True
        if precision is None:
            raise ValueError("fractional exponents require an explicit precision")
        tol = Fraction(precision)
        if tol <= 0:
            raise ValueError("precision must be positive")
        n_terms = max(1, len(self._nums))
        total = Fraction(0)
        for e, c in self.terms:
            if type(e) is int:
                total += c * q0**e
                continue
            term_tol = tol / n_terms / max(Fraction(1), abs(c))
            root = nth_root_approx(q0 ** e.numerator, e.denominator, term_tol)
            total += c * root
        return total, False

    # -- serialization / display ----------------------------------------------

    def to_json(self) -> list[list[int]]:
        """Term quadruples [exp_num, exp_den, coeff_num, coeff_den], ascending."""
        return [[e.numerator, e.denominator, c.numerator, c.denominator] for e, c in self.terms]

    @staticmethod
    def from_json(data: Iterable[Iterable[int]]) -> "QExpr":
        return QExpr((Fraction(int(en), int(ed)), Fraction(int(cn), int(cd))) for en, ed, cn, cd in data)

    def __repr__(self) -> str:
        return f"QExpr({self})"

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        den, parts = self._den, []
        for e, n in reversed(self._nums):
            c = n if den == 1 else Fraction(n, den)
            if e == 0:
                body = str(c)
            else:
                power = "q" if e == 1 else f"q^({e})" if (type(e) is not int or e < 0) else f"q^{e}"
                body = power if c == 1 else f"-{power}" if c == -1 else f"{c}*{power}"
            parts.append(body if not parts else f" - {body[1:]}" if body[0] == "-" else f" + {body}")
        return "".join(parts)


def monomial(coeff: Rational, exponent: Rational) -> QExpr:
    """Single-term expression coeff * q^exponent (zero if coeff is 0)."""
    return QExpr({exponent: coeff})


# ---------------------------------------------------------------------------
# QFrac
# ---------------------------------------------------------------------------


class QFrac:
    """Value of a quotient of two QExpr, in canonical reduced form.

    A value type: built, compared, hashed, evaluated, printed and serialised,
    never added or multiplied (sums and products are taken in QExpr first).

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
        num_e, den_e = QExpr._coerce(num), QExpr._coerce(den)
        if num_e is None or den_e is None:
            raise TypeError(f"cannot build a q-expression from {type(num if num_e is None else den).__name__}")
        if den_e.is_zero:
            raise ZeroDivisionError("zero denominator in q-fraction")
        n, d = (num_e, QExpr.one()) if num_e.is_zero else _canonical_pair(num_e, den_e)
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
        if len(self._den._nums) != 1:
            return None
        return _over_monomial(self._num, self._den)

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
        if len(self._num._nums) > 1:
            num = f"({num})"
        if len(self._den._nums) > 1:
            den = f"({den})"
        return f"{num} / {den}"


def _over_monomial(num: QExpr, den: QExpr) -> QExpr:
    """num / den for a monomial den."""
    (e0, n0), = den._nums
    sign = 1 if n0 > 0 else -1
    return _make({e - e0: n * den._den * sign for e, n in num._nums}, num._den * n0 * sign)


def _canonical_pair(num: QExpr, den: QExpr) -> tuple[QExpr, QExpr]:
    if len(den._nums) == 1:
        # Monomial denominator: no gcd needed, only an exponent shift.
        shifted = _over_monomial(num, den)
        low = min(shifted._nums[0][0], 0)
        return _over_monomial(shifted, QExpr.q(low)), QExpr.q(-low)
    # Over t = q^(1/r), shifted by the smaller valuation, both parts are integer
    # polynomials over their denominators: num / den = (a / num._den) / (b / den._den).
    r = math.lcm(num.exponent_denominator(), den.exponent_denominator())
    shift = min(num._nums[0][0], den._nums[0][0])
    _check_span(int((max(num._nums[-1][0], den._nums[-1][0]) - shift) * r))

    def dense(expr: QExpr) -> list[int]:
        out = [0] * (int((expr._nums[-1][0] - shift) * r) + 1)
        for e, n in expr._nums:
            out[int((e - shift) * r)] = n
        return out

    a, b = dense(num), dense(den)
    g = _primitive_gcd(a, b)
    if len(g) > 1:
        a, b = _pseudo_divmod(a, g)[0], _pseudo_divmod(b, g)[0]
    return _rows_pair(a, b, r, den._den, num._den)


def _cyclotomic_qfrac(a: list[int], ks: list[int], shift: int, r: int) -> QFrac:
    """The QFrac t^shift a(t) / prod_k (t^k - 1) over t = q^(1/r), for a(0) != 0.

    As t^k - 1 = prod_{d | k} Phi_d(t), the gcd is prod_d Phi_d^m_d, m_d the smaller of the
    multiplicity of Phi_d in a and the number of k that d divides, found by trial division; the
    product of the t^k - 1 is divided by the same Phi_d.  Both parts are taken over binomials
    1 - t^e, which changes their signs alike, and the denominator is made monic at the end."""

    def over_phi(a: list[int]) -> list[int] | None:
        # +-a / Phi_d, or None; the multiplications come first, so the divisions are exact iff Phi_d | a.
        for e, m in phi:
            if (a := _times_binomial(a, e) if m < 0 else _over_binomial(a, e)) is None:
                return None
        return a

    b = [(-1) ** len(ks)]
    for k in ks:
        b = _times_binomial(b, k)
    for d in sorted({d for k in ks for d in divisors(k)}):
        # Phi_d = +-prod_{e | d} (1 - t^e)^mu(d/e), and mu(d/e) != 0 only for e = d / (distinct primes).
        primes = [p for p in divisors(d)[1:] if all(p % f for f in range(2, math.isqrt(p) + 1))]
        phi = sorted([(d // math.prod(s), (-1) ** n) for n in range(len(primes) + 1) for s in combinations(primes, n)],
                     key=lambda em: em[1])
        for _ in range(sum(k % d == 0 for k in ks)):
            if (quo := over_phi(a)) is None:
                break
            a, b = quo, over_phi(b)
    num, den = _rows_pair(*(([0] * shift + a, b) if shift >= 0 else (a, [0] * -shift + b)), r)
    value = object.__new__(QFrac)
    object.__setattr__(value, "_num", num)
    object.__setattr__(value, "_den", den)
    return value


def _rows_pair(a: list[int], b: list[int], r: int, scale: int = 1, den: int = 1) -> tuple[QExpr, QExpr]:
    """The canonical pair of (scale * a / den) / b for coprime integer rows over t = q^(1/r)
    (index = degree, nonzero last entries): exponents i/r, denominator made monic."""
    lead = b[-1]
    sign = 1 if lead > 0 else -1
    to_expr = lambda cs, scale, den: _from_sorted(
        [(i // r if i % r == 0 else Fraction(i, r), c * scale) for i, c in enumerate(cs) if c], den)
    return to_expr(a, scale * sign, den * lead * sign), to_expr(b, sign, lead * sign)


# ---------------------------------------------------------------------------
# Rational root approximation (exact integer Newton + scaling)
# ---------------------------------------------------------------------------


def _int_nth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0, k >= 1: math.isqrt for k = 2, else integer Newton from above,
    started from the root of the top bits (found the same way), so a few full-size steps do."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    shift = n.bit_length() // (2 * k) * k  # drop a multiple of k low bits, about half of them
    x = (_int_nth_root(n >> shift, k) + 1) << (shift // k) if shift else 1 << (-(-n.bit_length() // k) + 1)
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
