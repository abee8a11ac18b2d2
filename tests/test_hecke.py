from __future__ import annotations

import random

import pytest

from qhecke.errors import UnknownIdentity
from qhecke.hecke import (
    TEMPLATE_IDS,
    eval_fabc,
    eval_template,
    kronecker,
    template_catalog,
)
from qhecke.polyring import LaurentPoly
from qhecke.qseries import Monomial, QSeries, qs_first_mismatch


def series_equal(f, g) -> bool:
    return qs_first_mismatch(f, g) is None


def brute_fabc(a: int, b: int, c: int, x: Monomial, y: Monomial, N: int) -> QSeries:
    """Direct double loop over a generous lattice box."""
    span = 2 * N + 12
    acc: list[dict[int, int]] = [{} for _ in range(N + 1)]
    for r in range(-span, span + 1):
        for s in range(-span, span + 1):
            if (r >= 0) != (s >= 0):
                continue
            e = (
                a * r * (r - 1) // 2
                + b * r * s
                + c * s * (s - 1) // 2
                + r * x.q_exp
                + s * y.q_exp
            )
            if e < 0 or e > N:
                continue
            coeff = 1 if r >= 0 else -1
            if (r + s) % 2:
                coeff = -coeff
            if x.sign < 0 and r % 2:
                coeff = -coeff
            if y.sign < 0 and s % 2:
                coeff = -coeff
            ze = r * x.z_exp + s * y.z_exp
            acc[e][ze] = acc[e].get(ze, 0) + coeff
    return QSeries(N, [LaurentPoly(row) for row in acc])


def test_eval_fabc_against_brute_force():
    N = 30
    cases = [
        ((1, 3, 1), Monomial(1, 1, 1), Monomial(1, -1, 1)),
        ((2, 3, 2), Monomial(1, 1, 1), Monomial(1, -1, 2)),
        ((1, 3, 1), Monomial(-1, 0, 1), Monomial(1, 2, 1)),
        ((2, 3, 2), Monomial(-1, 1, 2), Monomial(-1, -1, 1)),
    ]
    for (a, b, c), x, y in cases:
        assert series_equal(
            eval_fabc(a, b, c, x, y, N), brute_fabc(a, b, c, x, y, N)
        ), (a, b, c, x, y)


def test_eval_fabc_rejects_bad_shape():
    with pytest.raises(ValueError):
        eval_fabc(0, 1, 1, Monomial(1, 0, 1), Monomial(1, 0, 1), 5)
    with pytest.raises(ValueError):
        eval_fabc(1, -1, 1, Monomial(1, 0, 1), Monomial(1, 0, 1), 5)


def test_template_catalog_lookup():
    assert "NEWrankid" in TEMPLATE_IDS
    assert "HR1" in TEMPLATE_IDS
    t = template_catalog("NEWrankid")
    assert t.id == "NEWrankid"
    with pytest.raises(UnknownIdentity):
        template_catalog("no-such-template")


def test_template_eval_orders():
    for tid in ("HR1", "HR2", "HR3", "HR4", "NEWrankid", "CONJ2"):
        t = template_catalog(tid)
        f = eval_template(t, 12)
        assert f.order == 12
        g = eval_template(t, 20)
        for k in range(13):
            assert f.coeff(k) == g.coeff(k), (tid, k)


def test_template_window_argument_policing():
    andid = template_catalog("ANDID")
    assert andid.windowed
    with pytest.raises(ValueError):
        eval_template(andid, 10)
    plain = template_catalog("NEWrankid")
    with pytest.raises(ValueError):
        eval_template(plain, 10, z_window=5)


def test_kronecker_small_table():
    # character mod 12: +1 at 1, 11; -1 at 5, 7; 0 at shared factors
    expect12 = {1: 1, 5: -1, 7: -1, 11: 1}
    for n in range(12):
        assert kronecker(12, n) == expect12.get(n, 0)
    # character mod 4 from the top entry -4
    expect4 = {1: 1, 3: -1}
    for n in range(4):
        assert kronecker(-4, n) == expect4.get(n, 0)


def test_kronecker_periodicity_randomized():
    rng = random.Random(20260814)
    for _ in range(1000):
        n = rng.randrange(0, 10**6)
        assert kronecker(12, n + 12) == kronecker(12, n)
        assert kronecker(-4, n + 4) == kronecker(-4, n)
        assert kronecker(12, n) in (-1, 0, 1)


def test_kronecker_multiplicative_in_bottom():
    rng = random.Random(31)
    for _ in range(500):
        m = rng.randrange(0, 4000)
        n = rng.randrange(0, 4000)
        for a in (12, -4):
            assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_template_exponent_integrality_randomized():
    rng = random.Random(77)
    ids = list(TEMPLATE_IDS)
    checked = 0
    while checked < 1000:
        t = template_catalog(rng.choice(ids))
        n = rng.randrange(t.n_start, 60)
        window = 40 if t.windowed else None
        ms = list(t.m_range(n, window))
        if not ms:
            continue
        m = rng.choice(ms)
        for coeff, _z, q2 in t.terms(n, m):
            if coeff:
                assert q2 % 2 == 0, (t.id, n, m, q2)
        checked += 1
