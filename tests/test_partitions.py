"""Tests for partition counts against direct enumeration."""

import pytest

from wildmckay.partitions import hilb_point_count, partition_count, partitions_into_parts
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
