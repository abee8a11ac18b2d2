"""End-to-end acceptance gate.

One test per shipping criterion, so `pytest -v` emits exactly one
pass or fail line for each. Every numeric assertion is exact integer
equality; where a criterion pins a wall-clock budget the test enforces
it with a timing assert.
"""
from __future__ import annotations

import random
import time

from qhecke.hecke import (
    Monomial,
    _rows,
    eval_fabc,
    eval_template,
    kronecker,
    template_catalog,
)
from qhecke.polyring import LaurentPoly
from qhecke.qseries import (
    QSeries,
    qs_add,
    qs_first_mismatch,
    qs_invert,
    qs_mul,
    qs_one,
)
from qhecke.specfun import build_H, build_K, build_R
from qhecke.suite import (
    CONGRUENCE_RULES,
    check_congruence,
    group_verdicts,
    lookup,
    sequence_values,
    verify_all,
    verify_identity,
)
from combinat import m2spt_oracle, oracle_counts, spt_oracle
from milne import verify_milne
from test_bailey import limit_transform, pair1, verify_limit_sum, verify_pair
from test_hecke import TEMPLATE_IDS

_cache: dict = {}


def _order1000_tables() -> tuple[list[int], list[int], float]:
    """Both order-1000 tables from one timed run, shared by criteria 1-2."""
    if "tables" not in _cache:
        t0 = time.perf_counter()
        spt = sequence_values("spt", 1000)
        a = sequence_values("a", 1000)
        _cache["tables"] = (spt, a, time.perf_counter() - t0)
    return _cache["tables"]


def _assert_all_ok(results: list[dict]) -> None:
    for r in results:
        assert r["ok"] is True, (r["id"], r["order"], r["first_mismatch"])


def test_criterion_01_spt_table():
    spt, _, elapsed = _order1000_tables()
    assert spt[1:7] == [1, 3, 5, 10, 14, 26]
    assert spt[1000] == 600656570957882248155746472836274
    assert elapsed < 30.0, f"order-1000 tables took {elapsed:.1f}s"
    print(f"criterion 1: spt(1..6), spt(1000) exact in {elapsed:.2f}s")


def test_criterion_02_a_table():
    _, a, elapsed = _order1000_tables()
    expect = {
        1: 1, 3: -4, 5: -1, 6: 9, 8: 1, 9: 4, 10: -16, 13: -4,
        990: -1936, 995: -900, 996: -49, 1000: -705,
    }
    for n, v in expect.items():
        assert a[n] == v, (n, a[n], v)
    print(f"criterion 2: twelve a(n) values exact (shared {elapsed:.2f}s run)")


def test_criterion_03_congruences():
    t0 = time.perf_counter()
    reports = [check_congruence(rid) for rid in sorted(CONGRUENCE_RULES)]
    elapsed = time.perf_counter() - t0
    for r in reports:
        assert r["ok"] is True, (r["id"], r["violations"][:3])
    by_id = {r["id"]: r for r in reports}
    assert by_id["congs35"]["n_max"] == 199
    for ell in (5, 7, 17):
        assert by_id[f"heckecong-l{ell}"]["n_max"] == 2000 // ell
    for ell in (3, 5, 11):
        assert by_id[f"m2heckecong-l{ell}"]["n_max"] == 2000 // ell
    assert elapsed < 120.0, f"congruence pass took {elapsed:.1f}s"
    print(f"criterion 3: 7 congruence rules pass in {elapsed:.2f}s")


def test_criterion_04_two_variable_suite():
    t0 = time.perf_counter()
    two_var = verify_all(
        ["NEWrankid", "CONJ1a", "CONJ1b", "CONJ2"], order=50
    )
    at_z1 = verify_all(
        ["NEWrankid-z1", "CONJ1a-z1", "CONJ1b-z1", "CONJ2-z1",
         "HR1", "HR2", "HR3", "HR4"],
        order=200,
    )
    at_zm1 = verify_all(
        ["NEWrankid-zm1", "CONJ2-zm1", "HRf", "HRfv2", "HRmu", "HRmuv2"],
        order=200,
    )
    elapsed = time.perf_counter() - t0
    _assert_all_ok(two_var + at_z1 + at_zm1)
    assert elapsed < 300.0, f"suite took {elapsed:.1f}s"
    print(f"criterion 4: 4 two-variable + 14 specialization records "
          f"in {elapsed:.2f}s")


def test_criterion_05_spt_crank_suite():
    _assert_all_ok(verify_all(["NEWSid", "EQNEWSid"], order=50))
    _assert_all_ok(verify_all(["NEWSPTid"], order=300))
    _assert_all_ok(verify_all(["cor1", "HRnewv2", "SPHR1", "SPHR2"]))
    print("criterion 5: NEWSid/EQNEWSid at 50, NEWSPTid at 300, "
          "cor1/HRnewv2/SPHR1/SPHR2 at defaults")


def test_criterion_06_false_theta_and_bar_suite():
    fams = [f"{fam}-n{n}" for fam in ("fJTPv1", "fJTP", "fJTP2")
            for n in range(11)]
    _assert_all_ok(verify_all(fams))
    _assert_all_ok(verify_all(
        ["RAML1", "RAML1A", "RAML1B", "falseT1a", "falseT2", "falseT2a",
         "Entry931", "CONJ1s1", "CONJ2s1"],
        order=40,
    ))
    for rid in ("SBid", "S2id"):
        assert lookup(rid).cleared_note, rid
    _assert_all_ok(verify_all(
        ["SBid", "S2id", "NEWSBid", "NEWS2id", "NEWS2id2"], order=40
    ))
    _assert_all_ok(verify_all(["SBcorid", "NEWM2SPTid"], order=300))
    print("criterion 6: 33 triple-product records, 9 partial-theta records "
          "at 40, 5 bar/2-marked records at 40, 2 at 300")


def test_criterion_07_mock_theta_suite():
    assert lookup("ANDID").cleared_note
    _assert_all_ok(verify_all(["ANDID"], order=50))

    N = 30
    for (a, b, c), x, y in (
        ((1, 3, 1), Monomial(1, 1, 1), Monomial(1, -1, 1)),
        ((1, 3, 1), Monomial(-1, 0, 1), Monomial(1, 2, 1)),
        ((2, 3, 2), Monomial(1, 1, 1), Monomial(1, -1, 2)),
        ((2, 3, 2), Monomial(-1, 1, 2), Monomial(-1, -1, 1)),
    ):
        got = eval_fabc(a, b, c, x, y, N)
        want = _brute_fabc(a, b, c, x, y, N)
        assert qs_first_mismatch(got, want) is None, (a, b, c, x, y)

    _assert_all_ok(verify_all(["MORTID1", "MORTID2"], order=40))
    _assert_all_ok(verify_all(["MORTID2B", "MORTID3B"], order=200))

    for group, order in (("MORTID1B", 40), ("MORTID3", 40)):
        members = [f"{group}-printed", f"{group}-corrected"]
        results = verify_all(members, order=order)
        verdict = group_verdicts(results)[group]
        status = ", ".join(
            f"{r['id']}: {'ok' if r['ok'] else 'FAIL'}" for r in results
        )
        assert not verdict["unresolved"], (
            f"unresolved discrepancy in {group}: no variant "
            f"verifies ({status})"
        )
        assert verdict["ok"] is True
        print(f"criterion 7: {group} settled per-variant ({status})")


def _brute_fabc(a: int, b: int, c: int, x: Monomial, y: Monomial,
                N: int) -> QSeries:
    """Independent double loop over a generous lattice box."""
    span = 2 * N + 12
    acc: list[dict[int, int]] = [{} for _ in range(N + 1)]
    for r in range(-span, span + 1):
        for s in range(-span, span + 1):
            if (r >= 0) != (s >= 0):
                continue
            e = (a * r * (r - 1) // 2 + b * r * s + c * s * (s - 1) // 2
                 + r * x.q_exp + s * y.q_exp)
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


def test_criterion_08_bailey_machinery():
    p = pair1()
    rep = verify_pair(p, 8, 40)
    assert rep["ok"] is True and rep["pairs_checked"] == 9
    rep = verify_pair(limit_transform(p), 8, 40)
    assert rep["ok"] is True and rep["pairs_checked"] == 9

    _assert_all_ok(verify_all([f"A1-n{n}" for n in range(13)]))
    for n in range(9):
        assert lookup(f"slaterid-n{n}").cleared_note
    _assert_all_ok(verify_all([f"slaterid-n{n}" for n in range(9)]))
    _assert_all_ok(verify_all([f"niceid-k{k}" for k in range(11)], order=100))

    rep = verify_limit_sum(p, 40)
    assert rep["ok"] is True
    print("criterion 8: pair1 + limit transform as pairs, A1 n<=12, "
          "slater n<=8, niceid k<=10 at 100, limit sum at 40")


def test_criterion_09_bijection_and_rhs_agreement():
    rep = verify_milne(300)
    assert rep["ok"] is True
    assert rep["q_cap"] == 300
    assert rep["source_points"] == rep["target_points"] == 377

    lhs = eval_template(template_catalog("CONJ1a"), 60)
    rhs = eval_template(template_catalog("CONJ1b"), 60)
    assert qs_first_mismatch(lhs, rhs) is None
    print(f"criterion 9: bijection exhaustive on {rep['source_points']} "
          "points at cap 300; double-sum sides agree at order 60")


def test_criterion_10_oracle_equivalence():
    n_max = 14
    series = {
        "N": build_R(n_max),
        "NBar": build_H(n_max),
        "N2": build_K(n_max),
    }
    rows_checked = 0
    for kind, qs in series.items():
        for n in range(n_max + 1):
            row = qs.coeffs[n]
            sign = -1 if (kind == "N2" and n % 2) else 1
            for m in range(-(n + 2), n + 3):
                want = sign * oracle_counts(kind, m, n)
                assert row.coeff(m) == want, (kind, n, m, row.coeff(m), want)
            for m in row.support():
                assert abs(m) <= n + 2, (kind, n, m)
            rows_checked += 1

    spt = sequence_values("spt", n_max)
    m2 = sequence_values("m2spt", n_max)
    for n in range(n_max + 1):
        assert spt[n] == spt_oracle(n)
        assert m2[n] == m2spt_oracle(n)
    print(f"criterion 10: {rows_checked} coefficient rows + 2 sequences "
          "match enumeration")


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20260814)

    # qs_invert contract: u * u^{-1} == 1 for units
    for _ in range(1000):
        order = rng.randrange(4, 10)
        rows = [{0: rng.choice((1, -1))}]
        for _ in range(order):
            rows.append({
                z: rng.randrange(-4, 5)
                for z in range(-2, 3) if rng.random() < 0.5
            })
        u = QSeries(order, [LaurentPoly(r) for r in rows])
        prod = qs_mul(u, qs_invert(u))
        assert qs_first_mismatch(prod, qs_one(order)) is None

    # ring axioms: distributivity and commutativity
    def rand_series(order: int) -> QSeries:
        rows = []
        for _ in range(order + 1):
            rows.append({
                z: rng.randrange(-3, 4)
                for z in range(-2, 3) if rng.random() < 0.4
            })
        return QSeries(order, [LaurentPoly(r) for r in rows])

    for _ in range(1000):
        order = rng.randrange(3, 7)
        f, g, h = (rand_series(order) for _ in range(3))
        lhs = qs_mul(qs_add(f, g), h)
        rhs = qs_add(qs_mul(f, h), qs_mul(g, h))
        assert qs_first_mismatch(lhs, rhs) is None
        assert qs_first_mismatch(qs_mul(f, g), qs_mul(g, f)) is None

    # Kronecker periodicity tables
    table12 = {1: 1, 11: 1, 5: -1, 7: -1}
    table4 = {1: 1, 3: -1}
    for _ in range(1000):
        n = rng.randrange(-4000, 4000)
        k = rng.randrange(1, 50)
        assert kronecker(12, n) == kronecker(12, n + 12 * k)
        assert kronecker(-4, n) == kronecker(-4, n + 4 * k)
        assert kronecker(12, n) == table12.get(n % 12, 0)
        assert kronecker(-4, n) == table4.get(n % 4, 0)

    # template exponent integrality: every exponent and weight at a
    # visited lattice point with a nonzero character is an integer
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
        for (a, b, c, d, e, f, den) in (p.q, p.weight):
            assert (a * n * n + b * n * m + c * m * m + d * n + e * m + f) % den == 0, (t.id, n, m)
        for _, zn, zm, zc, zd in p.z:
            assert (zn * n + zm * m + zc) % zd == 0, (t.id, n, m)
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"property suites took {elapsed:.1f}s"
    print(f"criterion 11: 4 property suites x 1000 cases in {elapsed:.2f}s")
