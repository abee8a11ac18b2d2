from __future__ import annotations

import pytest

from combinat import (
    DEFAULT_ORACLE_CAP,
    OracleCapExceeded,
    dyson_rank,
    enum_overpartitions,
    enum_partitions,
    m2_rank,
    m2spt_oracle,
    oracle_counts,
    over_rank,
    spt_oracle,
)

PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
OVERPARTITIONS = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232]
SPT = [0, 1, 3, 5, 10, 14, 26, 35, 57, 80, 119]


def test_partition_counts():
    assert [len(enum_partitions(n)) for n in range(11)] == PARTITIONS


def test_partitions_are_sorted_and_sum():
    for n in range(9):
        seen = set()
        for p in enum_partitions(n):
            assert sum(p) == n
            assert list(p) == sorted(p, reverse=True)
            assert p not in seen
            seen.add(p)


def test_distinct_odd_filter():
    assert enum_partitions(4, "distinct_odd_parts") == [(4,), (3, 1), (2, 2)]
    for p in enum_partitions(9, "distinct_odd_parts"):
        odds = [x for x in p if x % 2]
        assert len(odds) == len(set(odds))
    for p in enum_partitions(8, "distinct_odd_smallest_even"):
        assert p[-1] % 2 == 0


def test_unknown_filter_rejected():
    with pytest.raises(ValueError):
        enum_partitions(4, "no_such_filter")
    with pytest.raises(ValueError):
        enum_partitions(-1)


def test_overpartition_counts():
    assert [len(enum_overpartitions(n)) for n in range(11)] == OVERPARTITIONS


def test_overpartition_marks_are_part_values():
    for n in range(7):
        for parts, marked in enum_overpartitions(n):
            assert marked <= set(parts)


def test_rank_statistics():
    assert dyson_rank(()) == 0
    assert dyson_rank((4,)) == 3
    assert dyson_rank((2, 1, 1)) == -1
    assert m2_rank(()) == 0
    assert m2_rank((5, 2)) == 1
    assert m2_rank((4, 1)) == 0
    assert over_rank(((3, 1), frozenset({3}))) == 1
    assert over_rank(((), frozenset())) == 0


def test_rank_counts_of_four():
    # partitions of 4 have ranks 3, 1, 0, -1, -3, one apiece
    for m in range(-5, 6):
        want = 1 if m in (3, 1, 0, -1, -3) else 0
        assert oracle_counts("N", m, 4) == want


def test_rank_count_symmetry_and_totals():
    for n in range(9):
        total = 0
        for m in range(-n - 1, n + 2):
            c = oracle_counts("N", m, n)
            assert c == oracle_counts("N", -m, n)
            total += c
        assert total == len(enum_partitions(n))
        total_over = sum(
            oracle_counts("NBar", m, n) for m in range(-n - 1, n + 2)
        )
        assert total_over == len(enum_overpartitions(n))
        total_m2 = sum(
            oracle_counts("N2", m, n) for m in range(-n - 1, n + 2)
        )
        assert total_m2 == len(enum_partitions(n, "distinct_odd_parts"))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        oracle_counts("NoSuchKind", 0, 3)


def test_spt_oracle_values():
    assert [spt_oracle(n) for n in range(11)] == SPT


def test_spt_oracle_definition():
    # weight each partition by the multiplicity of its smallest part
    for n in range(1, 9):
        total = sum(p.count(p[-1]) for p in enum_partitions(n))
        assert spt_oracle(n) == total


def test_m2spt_oracle_definition():
    # same weighting on partitions with distinct odd parts and even
    # smallest part
    for n in range(1, 11):
        total = sum(
            p.count(p[-1])
            for p in enum_partitions(n, "distinct_odd_smallest_even")
        )
        assert m2spt_oracle(n) == total
    assert m2spt_oracle(4) == 3


def test_oracle_cap():
    with pytest.raises(OracleCapExceeded):
        spt_oracle(DEFAULT_ORACLE_CAP + 1)
    with pytest.raises(OracleCapExceeded):
        oracle_counts("N", 0, DEFAULT_ORACLE_CAP + 1)
    assert spt_oracle(16, cap=16) > 0
    with pytest.raises(ValueError):
        spt_oracle(-1)
