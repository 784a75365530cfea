"""Truncated formal power series in x with Laurent coefficients in q.

Carrier of the exponential formula relating masses of field extensions to
masses of etale algebras.  Every coefficient is a ``QExpr``, the one
coefficient ring: the masses and their logarithms are Laurent in q, and exp
and log, computed coefficient-by-coefficient from the
differential-equation recurrences (no factorial blowup, O(N^2) coefficient
multiplications), divide only by integers.  An int or Fraction coefficient
becomes a constant ``QExpr``; anything else, a ``QFrac`` included, is a
TypeError.
"""

from __future__ import annotations

from typing import Iterable

from .qexpr import QExpr

__all__ = ["TruncatedSeries", "ConstantTermError", "DEFAULT_TRUNCATION"]

DEFAULT_TRUNCATION = 12


class ConstantTermError(ValueError):
    """Constant coefficient violates the precondition of exp or log."""


_ZERO = QExpr()


def _coefficient(value: object) -> QExpr:
    """value as a coefficient: a QExpr as it is, an int or Fraction as a constant."""
    if (coeff := QExpr._coerce(value)) is None:
        raise TypeError(f"cannot use {type(value).__name__} as a series coefficient")
    return coeff


class TruncatedSeries:
    """Power series known exactly through degree ``truncation``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[object], truncation: int | None = None):
        cs = [_coefficient(c) for c in coeffs]
        if truncation is not None:
            if truncation < 0:
                raise ValueError("truncation degree must be non-negative")
            cs = cs[: truncation + 1]
            cs.extend(_ZERO for _ in range(truncation + 1 - len(cs)))
        if not cs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(truncation: int = DEFAULT_TRUNCATION) -> "TruncatedSeries":
        return TruncatedSeries([], truncation)

    @staticmethod
    def one(truncation: int = DEFAULT_TRUNCATION) -> "TruncatedSeries":
        return TruncatedSeries([1], truncation)

    @staticmethod
    def x(truncation: int = DEFAULT_TRUNCATION) -> "TruncatedSeries":
        return TruncatedSeries([0, 1], truncation)

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

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.truncation, other.truncation)
        return TruncatedSeries([self._coeffs[i] + other._coeffs[i] for i in range(n + 1)])

    def __mul__(self, other: object) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            n = min(self.truncation, other.truncation)
            out = [_ZERO] * (n + 1)
            for i in range(n + 1):
                a = self._coeffs[i]
                if a.is_zero:
                    continue
                for j in range(n + 1 - i):
                    b = other._coeffs[j]
                    if not b.is_zero:
                        out[i + j] = out[i + j] + a * b
            return TruncatedSeries(out)
        scalar = _coefficient(other)
        return TruncatedSeries([c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    # -- exp / log ------------------------------------------------------------------

    def exp(self) -> "TruncatedSeries":
        """Formal exponential; requires constant coefficient 0."""
        if not self._coeffs[0].is_zero:
            raise ConstantTermError("exp needs a series with zero constant term")
        n = self.truncation
        s = self._coeffs
        ks = [c * k for k, c in enumerate(s)]
        e = [QExpr.one()] + [_ZERO] * n
        for m in range(1, n + 1):
            acc = _ZERO
            for k in range(1, m + 1):
                if not ks[k].is_zero:
                    acc = acc + ks[k] * e[m - k]
            e[m] = acc / m
        return TruncatedSeries(e)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; requires constant coefficient 1."""
        if self._coeffs[0] != 1:
            raise ConstantTermError("log needs a series with constant term 1")
        n = self.truncation
        s = self._coeffs
        l = [_ZERO] * (n + 1)
        kl = [_ZERO] * (n + 1)
        for m in range(1, n + 1):
            acc = _ZERO
            for k in range(1, m):
                if not kl[k].is_zero and not s[m - k].is_zero:
                    acc = acc + kl[k] * s[m - k]
            l[m] = s[m] - acc / m
            kl[m] = l[m] * m
        return TruncatedSeries(l)

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
