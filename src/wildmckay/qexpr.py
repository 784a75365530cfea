"""Exact arithmetic in q with rational exponents, and q-fractions as values.

A ``QExpr`` is a finite Q-linear combination of powers q^e with e rational,
i.e. an element of Z[q^(1/r) : r >= 1] tensored with Q: the one ring every
symbolic point count, mass and series coefficient lives in.  q stands for
the residue cardinality of the local field, so typical values look like
q^(1-n) or q^(n-v).  A ``QFrac`` is the value of a quotient of two such
expressions, built once from a numerator and a denominator computed in that
ring; it does no arithmetic, equals only a ``QFrac``, and its canonical
reduced form makes that equality structural.

A ``QExpr`` stores integer exponents over t = q^(1/r), one least r per
value, and integer numerators over one positive common denominator, as
FLINT's fmpq_poly does, so a sum or product is integer multiply-adds and
one gcd, and two values are rescaled to a common r only when theirs
differ; ``terms`` builds ``fractions.Fraction`` exponents and coefficients
on demand.  A ``QFrac`` denominator is a monomial, reduced by an exponent
shift, or a product of binomials t^k - 1, reduced on dense integer rows
over t of at most DENSE_DEGREE_BUDGET terms by trial division with the
cyclotomic polynomials that divide it.  There is no floating point here;
``evaluate`` is exact for r == 1 and otherwise a rational within
DEFAULT_PRECISION and 10^-20 of its size, from one root of q0 and powers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations
from operator import sub
from typing import Iterable, Mapping, Sequence, Union

from .numutil import DEFAULT_PRECISION, EXACT_DIGITS_BUDGET, BudgetExceededError, PoleError, divisors, is_prime

Rational = Union[int, Fraction]

__all__ = [
    "QExpr",
    "QFrac",
    "InfiniteType",
    "INFINITE",
    "PoleError",
    "is_infinite",
    "DENSE_DEGREE_BUDGET",
]

# Largest dense form a q-fraction is reduced on, in t-degrees (r times the exponent span, t =
# q^(1/r)): at 50,000, `stringy point --c=-49997/3` takes 0.15 s in-process, most of it printing, and
# reducing q^-1 (q - 1) / (q^(1 - c) - 1) at c = -49994/3 0.02-0.03 s (Python 3.11, 2-vCPU Xeon).
DENSE_DEGREE_BUDGET = 50_000


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


def _row(pairs: Sequence[tuple[int, int]], low: int) -> list[int]:
    """The dense row, from degree low up, of (degree, coefficient) pairs ascending in degree."""
    out = [0] * (pairs[-1][0] - low + 1)
    for e, n in pairs:
        out[e - low] = n
    return out


def _check_span(size: int, engine: str = "fraction") -> None:
    if size > DENSE_DEGREE_BUDGET:
        raise BudgetExceededError(size, DENSE_DEGREE_BUDGET, engine, unit="t-degrees")


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


def _make(pairs: Iterable[tuple[int, int]], den: int = 1, r: int = 1) -> "QExpr":
    """QExpr in canonical form from (exponent over t = q^(1/r), integer numerator) pairs with
    distinct exponents, over den > 0: zero numerators dropped, the pairs sorted, and den and the
    numerators, and r and the exponents, divided by their gcds."""
    nums = [p for p in pairs if p[1]]
    nums.sort()
    if den != 1 and (g := math.gcd(den, *[n for _, n in nums])) != 1:
        den //= g
        nums = [(e, n // g) for e, n in nums]
    if r != 1 and (g := math.gcd(r, *[e for e, _ in nums])) != 1:
        r //= g
        nums = [(e // g, n) for e, n in nums]
    obj = object.__new__(QExpr)
    object.__setattr__(obj, "_r", r)
    object.__setattr__(obj, "_nums", tuple(nums))
    object.__setattr__(obj, "_den", den)
    return obj


def _pairs_over(x: "QExpr", r: int) -> Sequence[tuple[int, int]]:
    """The (exponent, numerator) pairs of x with its exponents over t = q^(1/r), r a multiple of x._r."""
    return x._nums if r == x._r else [(e * (r // x._r), n) for e, n in x._nums]


def _sum_over(parts: list[tuple["QExpr", int]]) -> "QExpr":
    """sum of value / k over (value, k) pairs (k a nonzero int) over the lcms of the denominators
    and of the exponent denominators."""
    den, r = math.lcm(*[v._den * abs(k) for v, k in parts]), math.lcm(*[v._r for v, _ in parts])
    acc: dict[int, int] = {}
    for v, k in parts:
        scale = den // (v._den * k)
        for e, n in _pairs_over(v, r):
            acc[e] = acc.get(e, 0) + n * scale
    return _make(acc.items(), den, r)


def _horner(runs: list[tuple[int, int, int]], a: int, b: int) -> int:
    """acc with sum_i n_i (a/b)^i = a^low b^(-high) acc, for runs (i, i, n_i) ascending in i from
    (low, low, 0) to (high, high, 0), a homogeneous sum on ints.  Adjacent runs (low, high, acc)
    merge as (lo, hi, v) + (lo2, hi2, w) -> (lo, hi2, v b^(hi2 - hi) + w a^(lo2 - lo)), pairwise,
    so a long sum costs a few big multiplies per halving instead of one per term."""
    while len(runs) > 1:
        merged = [(lo, hi2, v * b ** (hi2 - hi) + w * a ** (lo2 - lo))
                  for (lo, hi, v), (lo2, hi2, w) in zip(runs[::2], runs[1::2])]
        runs = merged + runs[2 * len(merged):]
    return runs[0][2]


def _part_value(x: "QExpr", q0: Fraction, tol: Fraction) -> Fraction:
    """x at q := q0 > 0: sum_j E_j t^j with t = q0^(1/r), where E_j = sum n q0^i / den over the
    exponents i r + j of residue class j, each exact by one integer Horner pass.

    Exact for r == 1.  Otherwise within tol: t is taken as T / 2^s with T = floor(t 2^s), its
    powers as P_0 = 2^s and P_(j+1) = floor(P_j T / 2^s), so 0 <= t^j - P_j / 2^s <= 2 j M^(j-1)
    2^-s with M = max(1, t) <= 2^(k/r), max(1, q0) <= 2^k, and the result is within
    2 sum_j j |E_j| 2^(k (j-1) / r) 2^-s of the value, which s keeps within tol.
    """
    r, a, b = x._r, q0.numerator, q0.denominator
    if r != 1:
        _check_span(r)  # r residue classes, and a root of degree r
    nums = x._nums or ((0, 0),)
    low, high = nums[0][0] // r, nums[-1][0] // r
    classes = [[(low, low, 0)] for _ in range(r)]
    for e, n in nums:
        i, j = divmod(e, r)
        classes[j].append((i, i, n))
    # value = top / bottom * sum_j sums[j] t^j
    sums = [_horner(runs + [(high, high, 0)], a, b) for runs in classes]
    top, bottom = a ** max(low, 0) * b ** max(-high, 0), x._den * a ** max(-low, 0) * b ** max(high, 0)
    if r == 1:
        return Fraction(sums[0] * top, bottom)
    k = a.bit_length() - b.bit_length() + 1 if a > b else 0
    weight = sum([j * abs(v) << -(-k * (j - 1) // r) for j, v in enumerate(sums) if j and v])
    bound = Fraction(2 * weight * top, bottom * tol)  # times 2^-s
    s = max(1, bound.numerator.bit_length() - bound.denominator.bit_length() + 1)
    root, power, total = _int_nth_root(a, r, b, s), 1 << s, 0
    for v in sums:
        total += v * power
        power = power * root >> s
    return Fraction(total * top, bottom << s)


class QExpr:
    """Exact Laurent expression in q with rational exponents.

    Canonical form: r >= 1 and integer exponents over t = q^(1/r) with gcd(r, *exponents) == 1,
    so r is the least common denominator of the exponents; integer numerators over one positive
    common denominator with gcd(den, *numerators) == 1 (FLINT's fmpq_poly layout); no zero
    numerators; terms sorted by ascending exponent.  Instances are immutable and hashable; two
    expressions are equal iff their canonical forms are equal.
    """

    __slots__ = ("_r", "_nums", "_den")

    def __init__(self, terms: Mapping[Rational, Rational] | Iterable[tuple[Rational, Rational]] = ()):
        pairs = [(e if type(e) is int else _as_fraction(e), c if type(c) is int else _as_fraction(c))
                 for e, c in (terms.items() if isinstance(terms, Mapping) else terms)]
        r, den = math.lcm(*[e.denominator for e, _ in pairs]), math.lcm(*[c.denominator for _, c in pairs])
        acc: dict[int, int] = {}
        for e, c in pairs:
            e = e.numerator * (r // e.denominator)
            acc[e] = acc.get(e, 0) + c.numerator * (den // c.denominator)
        made = _make(acc.items(), den, r)
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(made, name))

    def __setattr__(self, name, value):
        raise AttributeError("QExpr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one() -> "QExpr":
        return QExpr({0: 1})

    @staticmethod
    def q(exponent: Rational = 1) -> "QExpr":
        return _make([(exponent, 1)]) if type(exponent) is int else QExpr({exponent: 1})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Rational, Fraction], ...]:
        """Term pairs (exponent, coefficient), ascending in exponent; an integral exponent is an
        int, the others reduced Fractions."""
        r, den = self._r, self._den
        return tuple([(e // r if e % r == 0 else Fraction(e, r), Fraction(n, den)) for e, n in self._nums])

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, exponent: Rational) -> Fraction:
        return Fraction(dict(self._nums).get(_as_fraction(exponent) * self._r, 0), self._den)

    def exponent_denominator(self) -> int:
        """Least r such that every exponent is a multiple of 1/r."""
        return self._r

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "QExpr | None":
        if isinstance(other, QExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return _make([(0, other.numerator)], other.denominator)
        return None

    def __add__(self, other: object) -> "QExpr":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else _sum_over([(self, 1), (rhs, 1)])

    __radd__ = __add__

    def __neg__(self) -> "QExpr":
        return self * -1

    def __sub__(self, other: object) -> "QExpr":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else _sum_over([(self, 1), (rhs, -1)])

    def __rsub__(self, other: object) -> "QExpr":
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else _sum_over([(lhs, 1), (self, -1)])

    def __mul__(self, other: object) -> "QExpr":
        if isinstance(other, (int, Fraction)):
            return _make([(e, n * other.numerator) for e, n in self._nums], self._den * other.denominator, self._r)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        r = math.lcm(self._r, rhs._r)
        acc: dict[int, int] = {}
        ys = _pairs_over(rhs, r)
        for e1, n1 in _pairs_over(self, r):
            for e2, n2 in ys:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + n1 * n2
        return _make(acc.items(), self._den * rhs._den, r)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QExpr":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a q-expression by zero")
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def scale_exponents(self, k: int) -> "QExpr":
        """Substitute q -> q^k (k a positive int)."""
        if type(k) is not int:
            raise TypeError(f"exponent scale must be an int, got {type(k).__name__}")
        if k < 1:
            raise ValueError("exponent scale must be a positive integer")
        return _make([(e * k, n) for e, n in self._nums], self._den, self._r)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if isinstance(other, QExpr):
            return self._nums == other._nums and self._den == other._den and self._r == other._r
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its rational, so it must hash like it.
        if not self._nums or (len(self._nums) == 1 and self._nums[0][0] == 0):
            return hash(self.coefficient(0))
        return hash(("QExpr", self._r, self._nums, self._den))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, q0: Rational) -> Fraction:
        """Substitute q := q0 > 0, as the value QFrac(self): exact for integer exponents."""
        return QFrac(self).evaluate(q0)

    # -- serialization / display ----------------------------------------------

    def to_json(self) -> list[list[int]]:
        """Term quadruples [exp_num, exp_den, coeff_num, coeff_den], ascending."""
        r, den = self._r, self._den
        return [[e // (g := math.gcd(e, r)), r // g, n // (h := math.gcd(n, den)), den // h] for e, n in self._nums]

    def __repr__(self) -> str:
        return f"QExpr({self})"

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        r, den, parts = self._r, self._den, []
        for e, n in reversed(self._nums):
            c = n if den == 1 else Fraction(n, den)
            if e == 0:
                body = str(c)
            else:
                g = r if r == 1 else math.gcd(e, r)
                power = ("q" if e == r else f"q^({e // g}/{r // g})" if g < r
                         else f"q^({e // r})" if e < 0 else f"q^{e // r}")
                body = power if c == 1 else f"-{power}" if c == -1 else f"{c}*{power}"
            parts.append(body if not parts else f" - {body[1:]}" if body[0] == "-" else f" + {body}")
        return "".join(parts)


# ---------------------------------------------------------------------------
# QFrac
# ---------------------------------------------------------------------------


class QFrac:
    """Value of a quotient of two QExpr, in canonical reduced form.

    A value type: built, compared, hashed, evaluated and printed,
    never added or multiplied (sums and products are taken in QExpr first).
    It equals only a QFrac: QFrac(7) != 7 and QFrac(q) != q.

    Canonical form: over t = q^(1/r), coprime polynomial parts with a monic
    denominator, which is unique, so equality is structural.  The denominator
    is a monomial (q^k with k >= 0 least, the numerator then a polynomial)
    or comes from the cyclotomic builder ``_cyclotomic_qfrac``;
    ``QFrac(num, den)`` with any other den is a TypeError.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: object, den: object = 1):
        num_e, den_e = QExpr._coerce(num), QExpr._coerce(den)
        if num_e is None or den_e is None:
            raise TypeError(f"cannot build a q-expression from {type(num if num_e is None else den).__name__}")
        if den_e.is_zero:
            raise ZeroDivisionError("zero denominator in q-fraction")
        if len(den_e._nums) != 1:
            raise TypeError("a q-fraction is built over a monomial denominator or by the cyclotomic builder")
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

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QFrac):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- evaluation -----------------------------------------------------------

    def check_powers(self, q0: Rational) -> None:
        """BudgetExceededError, before any power, when evaluating at q0 = a/b takes a power of q0
        of more than EXACT_DIGITS_BUDGET digits, counted as max(r, |i|) log10 max(a, b) (clamped at
        10^15, which keeps it a lower bound) over each part's exponents i r + j (0 <= j < r): the
        powers q0^i, and q0^r for the r powers of the root q0^(1/r), each of at least log2 q0 bits.
        For r = 1 it bounds the exact Horner pass too: its integers have at most about twice those
        digits plus the coefficients'."""
        q0 = Fraction(q0)
        top = min(10**15, max(max(part._r, max((abs(e // part._r) for e, _ in part._nums), default=0))
                              for part in (self._num, self._den)))
        if (digits := math.floor(top * math.log10(max(q0.numerator, q0.denominator))) + 1) > EXACT_DIGITS_BUDGET:
            raise BudgetExceededError(digits, EXACT_DIGITS_BUDGET, "evaluation", unit="digits in a power of q")

    def evaluate(self, q0: Rational) -> Fraction:
        """Substitute q := q0 (> 0); PoleError at a zero of the denominator.  Exact when both parts
        have integer exponents; otherwise each part is evaluated within an inner precision that
        shrinks until the quotient is known within DEFAULT_PRECISION, and within 10^-20 of the
        first estimate's size, so that 15 significant digits of it are the value's."""
        q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError("evaluation point must be positive")
        inner, aim = DEFAULT_PRECISION / 4, None
        for _ in range(64):
            num_v, den_v = _part_value(self._num, q0, inner), _part_value(self._den, q0, inner)
            num_err, den_err = [0 if part._r == 1 else inner for part in (self._num, self._den)]
            if not den_err and den_v == 0:
                raise PoleError(f"denominator {self._den} vanishes at q={q0}")
            if abs(den_v) > 2 * den_err:
                quotient = num_v / den_v
                if not (num_err or den_err):
                    return quotient
                aim = aim or min(DEFAULT_PRECISION, abs(quotient) / 10**20) or DEFAULT_PRECISION
                if (num_err + abs(quotient) * den_err) / (abs(den_v) - den_err) <= aim:
                    return quotient
                # that bound is near inner (1 + |quotient|) / |den_v|, so a large quotient needs more at once
                inner = min(inner, aim * (abs(den_v) - den_err) / (2 + 2 * abs(quotient)))
            inner /= 16
        raise PoleError(f"denominator {self._den} vanishes (or nearly) at q={q0}")

    # -- display ----------------------------------------------------------------

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


def _canonical_pair(num: QExpr, den: QExpr) -> tuple[QExpr, QExpr]:
    """The canonical pair of num / den for a nonzero num and a monomial den = c t^e0: an exponent
    shift, num t^-(e0 + low) / c over t^-low, low the least exponent of num / den if negative, else 0."""
    r = math.lcm(num._r, den._r)
    (e0, n0), = _pairs_over(den, r)
    sign, pairs = 1 if n0 > 0 else -1, _pairs_over(num, r)
    shift = e0 + (low := min(pairs[0][0] - e0, 0))
    return _make([(e - shift, n * den._den * sign) for e, n in pairs], num._den * n0 * sign, r), _make([(-low, 1)], 1, r)


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
        primes = [p for p in divisors(d)[1:] if is_prime(p)]
        phi = sorted([(d // math.prod(s), (-1) ** n) for n in range(len(primes) + 1) for s in combinations(primes, n)],
                     key=lambda em: em[1])
        for _ in range(sum(k % d == 0 for k in ks)):
            if (quo := over_phi(a)) is None:
                break
            a, b = quo, over_phi(b)
    lead = b[-1]
    sign = 1 if lead > 0 else -1
    value = object.__new__(QFrac)
    for name, row, low in (("_num", a, max(shift, 0)), ("_den", b, max(-shift, 0))):
        object.__setattr__(value, name, _make([(i, c * sign) for i, c in enumerate(row, low)], lead * sign, r))
    return value


# ---------------------------------------------------------------------------
# Rational root approximation (exact integer Newton + scaling)
# ---------------------------------------------------------------------------


def _int_nth_root(n: int, k: int, den: int = 1, shift: int = 0) -> int:
    """floor(2^shift (n / den)^(1/k)) for n >= 0, den >= 1, k >= 1 and any integer shift: the
    largest x with x^k den <= n 2^(shift k), with no number of the radicand's size formed.

    Integer Newton steps x -> ((k - 1) x + floor(n 2^(shift k) / (den x^(k-1)))) // k, from just
    above the root's top half (found the same way) or a float estimate, take x^(k-1) rounded down
    to p bits, a word past the root's size.  That only raises a step, so each stays at or above
    the floor, as exact ones do, and they stop within a unit or two of it.  x^k rounded down and
    up then places x, exactly only where they leave it open (a perfect power, or nearly one)."""
    if n < 0:
        raise ValueError("negative radicand")
    top = shift * k

    def over(m: int, e: int = 0) -> int:  # floor(n 2^top / (den m 2^e))
        return (n << (top - e) if top >= e else n >> (e - top)) // (den * m)

    if k == 1 or n == 0:
        return over(1)
    if k == 2:
        return math.isqrt(over(1))
    log = shift + (math.log2(n) - math.log2(den)) / k
    w = math.floor(log)
    p = max(w, 0) + k.bit_length() + 64

    def power(x: int, j: int, up: bool) -> tuple[int, int]:  # (m, e): m 2^e <= x^j, >= when up
        m, e = 1, 0
        for bit in bin(j)[2:]:
            m, e = m * m * (x if bit == "1" else 1), 2 * e
            drop = max(m.bit_length() - p, 0)
            m, e = -(-m >> drop) if up else m >> drop, e + drop
        return m, e

    def step(x: int) -> int:
        return ((k - 1) * x + over(*power(x, k - 1, False))) // k

    if w > 2 * k.bit_length() + 64:
        x = (_int_nth_root(n, k, den, shift - w // 2) + 1) << (w // 2)
    else:  # from below, a step would land near (root / x)^(k-1) root / k
        x = int(2 ** (log - w + 52))
        x = x << (w - 52) if w >= 52 else x >> (52 - w)
        x = step(x + (x >> 20) + 2)
    while x and (y := step(x)) < x:
        x = y
    while x and not (over(*power(x, k, True)) or over(*power(x, k, False)) and over(x**k)):
        x -= 1
    return x

