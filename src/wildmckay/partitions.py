"""Partition counting and the point count of the Hilbert scheme of points.

P(n, k) counts partitions of n into exactly k parts.  The Hilbert scheme of
n points on the affine plane stratifies into affine cells indexed by
partitions, which gives its point count over a field with q elements as
sum_{i=0}^{n-1} P(n, n-i) q^(2n-i).
"""

from __future__ import annotations

from typing import Iterator

from .qexpr import QExpr, _make

__all__ = ["partition_count", "partition_row", "partitions_into_parts", "hilb_point_count"]


def partition_row(n: int) -> list[int]:
    """[P(n, 0), ..., P(n, n)] from one table filled in a loop, with no state kept between calls.
    P(n, k) counts the partitions of n - k into parts of size at most k (take 1 from each part and
    conjugate): the entry at n - k once the part sizes 1..k are counted in."""
    if n < 0:
        raise ValueError("partition_row needs a non-negative argument")
    row = [int(n == 0)] + [0] * n
    counts = [1] + [0] * n  # partitions of m into the part sizes counted so far
    for k in range(1, n + 1):
        for m in range(k, n - k + 1):
            counts[m] += counts[m - k]
        row[k] = counts[n - k]
    return row


def partition_count(n: int, k: int) -> int:
    """Number of partitions of n into exactly k parts."""
    if n < 0 or k < 0:
        raise ValueError("partition_count needs non-negative arguments")
    return partition_row(n)[k] if k <= n else 0


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
    row = partition_row(n)
    return _make([(2 * n - i, row[n - i]) for i in range(n)])
