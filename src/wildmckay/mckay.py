"""Wild McKay correspondence for the symmetric group on two copies of the
permutation representation.

S_n acts on affine 2n-space by permuting coordinates in two blocks of n.
Each degree-n etale algebra (equivalently, each S_n-algebra) carries two
weights:

  v = discriminant exponent of the algebra, and
  w = codim of the fixed locus of the inertia action minus v.

The fixed-locus codimension is 2(n - number of geometric components), and a
tame factor with invariants (e, f) contributes f components, each totally
ramified of degree e; hence codim = 2 * sum f(e-1) and w = v for this
representation.

The mass side of the correspondence is sum over algebras of
q^(2n - v) / #centralizer with the centralizer order equal to the
automorphism order of the algebra; it must equal the point count of the
Hilbert scheme of n points on the plane (the crepant resolution of the
quotient), which the hilb_point_count polynomial provides.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .localfields import enumerate_tame_etale_algebras
from .partitions import hilb_point_count

__all__ = ["verify_wild_mckay", "McKayReport", "ROW_COLUMNS"]

# The fields of a `verify_wild_mckay` row, in row order.
ROW_COLUMNS = ("factors", "d", "v", "w", "aut", "term_num", "term_den")


def _weights(n: int, disc_exponent: int, components: int) -> tuple[int, int]:
    """(v, w) of a degree-n algebra with that many geometric components: v = d, and w is
    the codimension 2 (n - components) of the fixed locus minus v."""
    return disc_exponent, 2 * (n - components) - disc_exponent


class McKayReport(namedtuple("McKayReport", "p n mass_side hilb_side rows")):
    """Both sides as Fractions, and the rows as tuples in ROW_COLUMNS order."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.mass_side == self.hilb_side


def verify_wild_mckay(p: int, n: int) -> McKayReport:
    """Check mass side == Hilbert-scheme point count at q = p, exactly.

    The report carries one ROW_COLUMNS tuple per algebra, so a failure localizes to an
    algebra.  More than ALGEBRAS_BUDGET algebras raise BudgetExceededError before any listing.
    Each row's factors are the listing's (f, e, orbit, multiplicity) tuples, one object per
    distinct factor, shared by the rows.  The weights and the term are computed once
    per distinct (d, components, #Aut), and the mass side adds each distinct term once."""
    terms: dict[tuple[int, int, int], list] = {}  # (d, components, #Aut) -> [row tail, algebras]
    rows = []
    for factors, d, components, aut in enumerate_tame_etale_algebras(p, n):
        if (term := terms.get((d, components, aut))) is None:
            v, w = _weights(n, d, components)
            power = p ** (2 * n - v)
            common = gcd(power, aut)
            term = terms[d, components, aut] = [(d, v, w, aut, power // common, aut // common), 0]
        term[1] += 1
        rows.append((factors,) + term[0])
    # One Fraction for the whole sum: the distinct terms over the lcm of their denominators.
    den = lcm(*(tail[5] for tail, _ in terms.values()))
    mass_side = Fraction(sum(count * tail[4] * (den // tail[5]) for tail, count in terms.values()), den)
    hilb_side = hilb_point_count(n).evaluate(p)
    return McKayReport(p=p, n=n, mass_side=mass_side, hilb_side=hilb_side, rows=rows)
