from __future__ import annotations

import random

import pytest

from qhecke.errors import HalfIntegerExponent, NonTerminating, UnknownIdentity
from qhecke.hecke import (
    _CATALOG,
    HeckeTemplate,
    Piece,
    _rows,
    eval_fabc,
    eval_template,
    kronecker,
    template_catalog,
)
from qhecke.polyring import LaurentPoly
from qhecke.qseries import Monomial, QSeries, qs_first_mismatch

TEMPLATE_IDS = tuple(sorted(_CATALOG))


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
    # built to N + 9 and cut to N, every template equals itself built to N
    for tid in TEMPLATE_IDS:
        t = template_catalog(tid)
        if t.windowed:
            continue
        for n in range(41):
            f = eval_template(t, n)
            assert f.order == n
            assert f == QSeries(n, eval_template(t, n + 9).coeffs[: n + 1]), (tid, n)


def test_template_window_argument_policing():
    andid = template_catalog("ANDID")
    assert andid.windowed
    with pytest.raises(ValueError):
        eval_template(andid, 10)
    for window in (-1, -2, -5):
        with pytest.raises(ValueError):
            eval_template(andid, 6, z_window=window)
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


def _form(f: tuple[int, ...], n: int, m: int) -> int:
    """The numerator of a quadratic form (n^2, nm, m^2, n, m, 1, den)."""
    a, b, c, d, e, g, _ = f
    return a * n * n + b * n * m + c * m * m + d * n + e * m + g


def _in_cone(p: Piece, n: int, m: int, window: int | None) -> bool:
    lo, hi = p.lo, p.hi
    if window is not None:
        lo, hi = lo + ((0, -window - 1, 1),), hi + ((0, window + 1, 1),)
    return (
        n >= p.n0
        and all(d * m >= a * n + r for a, r, d in lo)
        and all(d * m <= a * n + r for a, r, d in hi)
    )


def test_template_exponent_integrality_randomized():
    # every exponent and weight at a lattice point the evaluator visits,
    # with a nonzero character, is an integer
    rng = random.Random(77)
    ids = list(TEMPLATE_IDS)
    checked = 0
    while checked < 1000:
        t = template_catalog(rng.choice(ids))
        p = rng.choice(t.pieces)
        rows = [(n, ms) for n, ms in _rows(t.id, p, 60, 40 if t.windowed else None) if ms]
        n, ms = rng.choice(rows)
        m = rng.choice(ms)
        if p.chi and not kronecker(p.chi[0], n) * kronecker(p.chi[1], m):
            continue
        assert _form(p.q, n, m) % p.q[6] == 0, (t.id, n, m)
        assert _form(p.weight, n, m) % p.weight[6] == 0, (t.id, n, m)
        for _, zn, zm, zc, zd in p.z:
            assert (zn * n + zm * m + zc) % zd == 0, (t.id, n, m)
        checked += 1


def test_derived_enumeration_matches_box():
    # the lattice points the evaluator derives from a piece's data are
    # exactly those of a brute-force box with q-exponent at most N
    box = 48
    convex = HeckeTemplate("convex", (
        Piece((1, -2, 2, 0, 0, 0, 1)),  # (n-m)^2 + m^2: vertex m = n/2 inside m >= 0
        Piece((1, 6, 1, -1, -1, 0, 2)),  # f_{1,3,1}'s quadrant: vertex below m = 0
        Piece((1, -2, 2, 0, 0, 0, 1), lo=((1, 1, 1),)),  # the first form above m = n + 1
    ))
    for t in [template_catalog(tid) for tid in TEMPLATE_IDS] + [convex]:
        tid, window = t.id, 3 if t.windowed else None
        for p in t.pieces:
            den = p.q[6]
            points = [
                (n, m, _form(p.q, n, m))
                for n in range(p.n0, box)
                for m in range(-box, box + 1)
                if _in_cone(p, n, m, window)
            ]
            for N in range(31):
                want = {(n, m) for n, m, q in points if q <= N * den}
                got = {
                    (n, m)
                    for n, ms in _rows(tid, p, N, window)
                    for m in ms
                    if _form(p.q, n, m) <= N * den
                }
                assert got == want, (tid, p, N)
                assert all(n < box - 8 for n, _ in want), (tid, p, N)


def test_unbounded_form_raises_nonterminating():
    # HR2's form n^2 - 2m^2 + n falls like -n^2 along m = n
    hr2_wide = Piece((1, 0, -2, 1, 0, 0, 2), sign=(1, 1, 0), lo=((-1, 0, 1),), hi=((1, 0, 1),))
    # ANDID's form without its window is 0 all along m = -n
    andid = template_catalog("ANDID").pieces[0]
    # a form concave in m on a cone with no upper line
    open_cone = Piece((1, 0, -1, 0, 0, 0, 1))
    for p in (hr2_wide, andid, open_cone):
        with pytest.raises(NonTerminating):
            eval_template(HeckeTemplate("bad", (p,)), 10)


def test_non_integral_form_raises_half_integer():
    with pytest.raises(HalfIntegerExponent):
        Piece((1, 0, 0, 0, 0, 0, 2))  # n^2 / 2 at odd n
    with pytest.raises(HalfIntegerExponent):
        Piece((1, 0, 0, 0, 0, 0, 1), z=((1, 1, 1, 0, 2),))  # z^{(n+m)/2}
    with pytest.raises(HalfIntegerExponent):
        Piece((1, 0, 0, 0, 0, 0, 1), weight=(0, 0, 0, 1, 0, 0, 3))  # weight n/3
    # (n^2 + 1)/2 is odd only at even n, where kronecker(-4, n) is zero
    Piece((1, 0, 0, 0, 0, 1, 2), chi=(-4, 1))
