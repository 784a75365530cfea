"""Partition counting and the point count of the Hilbert scheme of points.

P(n, k) counts partitions of n into exactly k parts.  The Hilbert scheme of
n points on the affine plane stratifies into affine cells indexed by
partitions, which gives its point count over a field with q elements as
sum_{i=0}^{n-1} P(n, n-i) q^(2n-i).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .qexpr import QExpr

__all__ = ["partition_count", "partitions_into_parts", "hilb_point_count"]


@lru_cache(maxsize=None)
def partition_count(n: int, k: int) -> int:
    """Number of partitions of n into exactly k parts.

    Recurrence: P(n, k) = P(n-1, k-1) + P(n-k, k); either the partition
    contains a part 1 (remove it) or every part is >= 2 (subtract 1 from
    each part).
    """
    if n < 0 or k < 0:
        raise ValueError("partition_count needs non-negative arguments")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return partition_count(n - 1, k - 1) + partition_count(n - k, k)


def partitions_into_parts(n: int, k: int, _cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n into exactly k parts, non-increasing, in
    lexicographically decreasing order.  Oracle companion to partition_count."""
    if n < 0 or k < 0:
        raise ValueError("partitions_into_parts needs non-negative arguments")
    cap = n if _cap is None else _cap
    if k == 0:
        if n == 0:
            yield ()
        return
    # Largest part must leave at least k-1 for the remaining parts.
    for largest in range(min(cap, n - k + 1), 0, -1):
        for rest in partitions_into_parts(n - largest, k - 1, largest):
            yield (largest,) + rest


def hilb_point_count(n: int) -> QExpr:
    """Point count of the Hilbert scheme of n points on the plane, in q."""
    if n < 1:
        raise ValueError("need n >= 1")
    return QExpr({2 * n - i: partition_count(n, n - i) for i in range(n)})
