"""Brute-force partition and overpartition oracles.

These enumerations are deliberately naive: they are the independent
ground truth that the generating-function builders are tested against for
small n. A partition is a weakly decreasing tuple of positive integers;
an overpartition is a partition together with the set of part values
whose first occurrence is overlined.

Ranks of the empty partition are 0 by convention; the empty partition
contributes only to n = 0 counts.
"""

from __future__ import annotations

from typing import Iterator

from qhecke.errors import QheckeError

Partition = tuple[int, ...]
Overpartition = tuple[Partition, frozenset[int]]

DEFAULT_ORACLE_CAP = 14

_FILTERS = ("none", "distinct_odd_parts", "distinct_odd_smallest_even")


class OracleCapExceeded(QheckeError):
    """A brute-force enumeration oracle was asked beyond its size cap."""


def _gen_partitions(n: int, max_part: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - p, p):
            yield (p,) + rest


def _odd_parts_distinct(parts: Partition) -> bool:
    seen = set()
    for p in parts:
        if p % 2:
            if p in seen:
                return False
            seen.add(p)
    return True


def enum_partitions(n: int, filter: str = "none") -> list[Partition]:
    """All partitions of n, optionally restricted.

    "distinct_odd_parts" keeps partitions whose odd parts are all
    distinct (even parts may repeat). "distinct_odd_smallest_even"
    additionally requires a smallest part that is even, which excludes
    the empty partition.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if filter not in _FILTERS:
        raise ValueError(f"unknown filter {filter!r}")
    out = []
    for parts in _gen_partitions(n, n if n else 1):
        if filter != "none" and not _odd_parts_distinct(parts):
            continue
        if filter == "distinct_odd_smallest_even":
            if not parts or parts[-1] % 2:
                continue
        out.append(parts)
    return out


def enum_overpartitions(n: int) -> list[Overpartition]:
    """All overpartitions of n: a partition plus a choice of part values
    to overline (at most one occurrence per distinct value)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Overpartition] = []
    for parts in _gen_partitions(n, n if n else 1):
        distinct = sorted(set(parts))
        for mask in range(1 << len(distinct)):
            marked = frozenset(
                v for i, v in enumerate(distinct) if mask >> i & 1
            )
            out.append((parts, marked))
    return out


def dyson_rank(p: Partition) -> int:
    """Largest part minus number of parts."""
    if not p:
        return 0
    return p[0] - len(p)


def m2_rank(p: Partition) -> int:
    """Ceiling of half the largest part, minus the number of parts.

    Defined on partitions with distinct odd parts; the generating
    function is the authoritative cross-check for this convention.
    """
    if not p:
        return 0
    return (p[0] + 1) // 2 - len(p)


def over_rank(o: Overpartition) -> int:
    """Overpartition rank: largest part minus number of parts, ignoring
    which parts are overlined."""
    parts, _ = o
    if not parts:
        return 0
    return parts[0] - len(parts)


def _check_cap(n: int, cap: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise OracleCapExceeded(f"oracle asked at n={n}, cap is {cap}")


def oracle_counts(kind: str, m: int, n: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Exact rank counts by enumeration.

    kind "N": partitions of n with Dyson rank m.
    kind "NBar": overpartitions of n with rank m.
    kind "N2": partitions of n with distinct odd parts and M2-rank m.
    """
    _check_cap(n, cap)
    if kind == "N":
        return sum(1 for p in enum_partitions(n) if dyson_rank(p) == m)
    if kind == "NBar":
        return sum(1 for o in enum_overpartitions(n) if over_rank(o) == m)
    if kind == "N2":
        return sum(
            1
            for p in enum_partitions(n, "distinct_odd_parts")
            if m2_rank(p) == m
        )
    raise ValueError(f"unknown count kind {kind!r}")


def spt_oracle(n: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Total multiplicity of the smallest part over all partitions of n."""
    _check_cap(n, cap)
    total = 0
    for parts in enum_partitions(n):
        if parts:
            total += parts.count(parts[-1])
    return total


def m2spt_oracle(n: int, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Same count restricted to partitions with distinct odd parts and an
    even smallest part."""
    _check_cap(n, cap)
    total = 0
    for parts in enum_partitions(n, "distinct_odd_smallest_even"):
        total += parts.count(parts[-1])
    return total
