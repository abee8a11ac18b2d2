from __future__ import annotations

import random

import pytest

from milne import (
    NotInRegion,
    labels1,
    labels2,
    milne_T,
    q1_exponent,
    q2_exponent,
    verify_milne,
)


def rand_source_point(rng: random.Random) -> tuple[int, int]:
    n = rng.randrange(0, 80)
    m = rng.randrange(-(n // 2), n // 2 + 1) if n else 0
    return (m, n)


def test_exponent_forms():
    assert q1_exponent((0, 0)) == 0
    assert q1_exponent((1, 2)) == 2
    assert q2_exponent((1, 3)) == 2
    assert labels1((1, 2)) == (1, 0)
    assert labels2((1, 3)) == (0, 1)


def test_map_small_points():
    # even |m| halves m and keeps n
    assert milne_T((0, 0)) == (0, 0)
    assert milne_T((2, 5)) == (1, 5)
    assert milne_T((-2, 4)) == (-1, 4)
    # odd |m| reflects; the image must land in the target cone
    m1, n1 = milne_T((1, 2))
    assert n1 >= 3 * abs(m1)
    assert q2_exponent((m1, n1)) == q1_exponent((1, 2))


def test_outside_region_raises():
    with pytest.raises(NotInRegion):
        milne_T((3, 5))
    with pytest.raises(NotInRegion):
        milne_T((-1, 1))


def test_randomized_pointwise_invariants():
    rng = random.Random(20260814)
    for _ in range(1000):
        p = rand_source_point(rng)
        m, n = p
        img = milne_T(p)
        m1, n1 = img
        assert n1 >= 3 * abs(m1), p
        assert q2_exponent(img) == q1_exponent(p), p
        assert (m + n) % 2 == n1 % 2, p
        a, b = labels1(p)
        assert labels2(img) == ((a, b) if m % 2 == 0 else (b, a)), p


def test_verify_milne_counts():
    r = verify_milne(60)
    assert r["ok"] is True
    assert r["q_cap"] == 60
    assert r["source_points"] == r["target_points"] > 0


def test_verify_milne_zero_cap():
    r = verify_milne(0)
    assert r["ok"] is True
    # only exponent-zero points survive the cap
    assert r["source_points"] >= 1
