"""Tests for partition counts against direct enumeration."""

import pytest

from wildmckay.partitions import hilb_point_count, partition_count, partition_row, partitions_into_parts
from wildmckay.qexpr import QExpr


class TestPartitionCount:
    def test_three_into_two(self):
        # enumeration: {2+1}
        assert list(partitions_into_parts(3, 2)) == [(2, 1)]
        assert partition_count(3, 2) == 1

    def test_four_into_two(self):
        # enumeration: {3+1, 2+2}
        assert list(partitions_into_parts(4, 2)) == [(3, 1), (2, 2)]
        assert partition_count(4, 2) == 2

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_all_ones(self, n):
        assert partition_count(n, n) == 1
        assert list(partitions_into_parts(n, n)) == [(1,) * n]

    def test_edge_cases(self):
        assert partition_count(0, 0) == 1
        assert partition_count(5, 0) == 0
        assert partition_count(3, 7) == 0

    def test_recurrence_against_enumeration_up_to_40(self):
        for n in range(41):
            for k in range(n + 1):
                enumerated = sum(1 for _ in partitions_into_parts(n, k))
                assert partition_count(n, k) == enumerated
                if 1 <= k:
                    assert partition_count(n, k) == partition_count(n - 1, k - 1) + partition_count(n - k, k)

    def test_enumerated_partitions_are_valid(self):
        for part in partitions_into_parts(12, 4):
            assert sum(part) == 12
            assert len(part) == 4
            assert all(part[i] >= part[i + 1] for i in range(3))


def euler_partition_numbers(n_max):
    """p(0..n_max) by Euler's pentagonal number recurrence, an oracle independent of P(n, k)."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k = 1
        while (pentagonal := k * (3 * k - 1) // 2) <= n:
            sign = 1 if k % 2 else -1
            p[n] += sign * p[n - pentagonal]
            if pentagonal + k <= n:
                p[n] += sign * p[n - pentagonal - k]
            k += 1
    return p


class TestPartitionRow:
    def test_rows_sum_to_euler_partition_numbers(self):
        euler = euler_partition_numbers(1200)
        for n in (0, 1, 2, 7, 40, 499, 500, 1200):
            row = partition_row(n)
            assert len(row) == n + 1 and sum(row) == euler[n]
            assert row[n] == 1 and (n < 1 or row[1] == 1) and (n < 2 or row[2] == n // 2)

    def test_large_degree_does_not_depend_on_earlier_calls(self):
        # Filled iteratively: degree 2000 answers cold, at a depth where recursion would overflow.
        assert sum(partition_row(2000)) == euler_partition_numbers(2000)[2000]
        assert partition_count(2000, 1000) == euler_partition_numbers(1000)[1000]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            partition_row(-1)
        with pytest.raises(ValueError):
            partition_count(-1, 0)


class TestHilbPointCount:
    def test_single_point(self):
        assert hilb_point_count(1) == QExpr({2: 1})

    def test_two_points(self):
        assert hilb_point_count(2) == QExpr({4: 1, 3: 1})

    def test_three_points(self):
        # P(3,3) = P(3,2) = P(3,1) = 1 by enumeration
        assert hilb_point_count(3) == QExpr({6: 1, 5: 1, 4: 1})

    def test_four_points(self):
        # P(4,2) = 2 by enumeration: {3+1, 2+2}
        assert hilb_point_count(4) == QExpr({8: 1, 7: 1, 6: 2, 5: 1})
