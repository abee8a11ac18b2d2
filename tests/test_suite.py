from __future__ import annotations

import dataclasses
import random
from itertools import count, repeat
from operator import add

import pytest

import qhecke.specfun as specfun
import qhecke.suite as suite
from qhecke.errors import UnknownIdentity, UnknownSeriesId, VerificationFailed
from qhecke.qseries import (
    Factors,
    HyperSum,
    Power,
    Product,
    QSeries,
    at_z,
    evaluate,
    gauss_binomial,
    qs_add,
    qs_monomial,
    qs_mul_monomial,
    qs_one,
    qs_product,
    qs_sub,
    qs_zero,
    zf_add_into,
    zf_div_euler,
    zf_div_factor,
    zf_mul_factor,
    zf_mul_jacobi_cube,
    zf_one,
    zf_pochhammer_inf,
    zf_shift,
    zf_to_qseries,
    zf_zero,
)
from qhecke.specfun import SeriesName, build_series
from qhecke.suite import (
    CONGRUENCE_RULES,
    DISCREPANCY_GROUPS,
    CongruenceRule,
    Variables,
    check_congruence,
    group_verdicts,
    lookup,
    mutated_demo_record,
    overall_ok,
    registry_catalog,
    sequence_values,
    verify_all,
    verify_identity,
)
from combinat import enum_partitions, m2spt_oracle, spt_oracle


# Term-by-term sums over the smallest part: the differential oracles for
# the nested (Horner) sptBar and M2spt engines.


def termwise_sptbar(n_max: int) -> list[int]:
    acc = zf_zero(n_max)
    if n_max < 1:
        return acc
    term = zf_shift(zf_one(n_max), 1)
    zf_pochhammer_inf(4, 2, 1, term)
    for e in range(1, n_max + 1):
        zf_div_factor(term, -1, e)
        zf_div_factor(term, -1, e)
    zf_add_into(acc, term)
    for n in range(2, n_max + 1):
        term = zf_shift(term, 1)
        zf_mul_factor(term, -1, n - 1)
        zf_mul_factor(term, -1, n - 1)
        zf_div_factor(term, -1, 2 * n)
        zf_add_into(acc, term)
    return acc


def termwise_m2spt(n_max: int) -> list[int]:
    acc = zf_zero(n_max)
    if n_max < 2:
        return acc
    term = zf_shift(zf_one(n_max), 2)
    zf_pochhammer_inf(4, 2, 1, term)
    zf_pochhammer_inf(3, 2, -1, term)
    for e in range(2, n_max + 1, 2):
        zf_div_factor(term, -1, e)
        zf_div_factor(term, -1, e)
    zf_add_into(acc, term)
    n = 2
    while 2 * n <= n_max:
        term = zf_shift(term, 2)
        zf_mul_factor(term, -1, 2 * n - 2)
        zf_mul_factor(term, -1, 2 * n - 2)
        zf_div_factor(term, -1, 2 * n)
        zf_div_factor(term, 1, 2 * n - 1)
        zf_add_into(acc, term)
        n += 1
    return acc


# The nested (Horner) sums the sptBar and M2spt engines ran before they
# became theta quotients: their differential oracles.


def horner_sptbar(n_max: int) -> list[int]:
    """sptBar = sum_{n>=1} a_n T_n with a_n = q^n/(1-q^n)^2 and
    T_n = (-q^{n+1}; q)_oo/(q^{n+1}; q)_oo. Since T_{n-1} = T_n (1+q^n)/(1-q^n),
    U_1 = a_1 and U_n = U_{n-1} (1+q^n)/(1-q^n) + a_n give
    sum_{n<=N} a_n T_n = T_N U_N, and T_N = 1 modulo q^{N+1}."""
    acc = zf_zero(n_max)
    for n in range(1, n_max + 1):
        zf_mul_factor(acc, 1, n)
        zf_div_factor(acc, -1, n)
        acc[n::n] = map(add, acc[n::n], count(1))
    return acc


def horner_m2spt(n_max: int) -> list[int]:
    """M2spt = sum_{n>=1} a_n T_n with a_n = q^{2n}/(1-q^{2n})^2 and
    T_n = (-q^{2n+1}; q^2)_oo/(q^{2n+2}; q^2)_oo; U_n = U_{n-1}
    (1+q^{2n-1})/(1-q^{2n}) + a_n up to M = floor(N/2). T_M is 1 + q^N
    modulo q^{N+1} for odd N and 1 for even N, and U_M has no constant
    term, so the series is U_M."""
    acc = zf_zero(n_max)
    for n in range(1, n_max // 2 + 1):
        zf_mul_factor(acc, 1, 2 * n - 1)
        zf_div_factor(acc, -1, 2 * n)
        acc[2 * n :: 2 * n] = map(add, acc[2 * n :: 2 * n], count(1))
    return acc


# sum_{n>=1} q^n / ((1 - q^n)^2 (q^{n+1};q)_oo), from n = 1: the
# term-by-term oracle for the nested spt check route.
SPT_DIRECT_SUM = HyperSum(
    Power(1, 0, 0, 1),
    num=(Power(-1, 0, 1, 0),) * 2, den=(Power(-1, 0, 1, 1),),
    head=Power(1, 0, 0, 1), head_factors=Product(den=(Factors(-1, 0, 1, 1, 1), Factors(-1, 0, 1))),
)


def rank_lambert_form(N: int, s: int, b, eps: int, c: int, product: Product) -> QSeries:
    """product * [1 + c sum_{k>=1} (-1)^k q^{b(k)} (1 + eps q^{sk})
    (1 - z)(1 - z^{-1}) / ((1 - zq^{sk})(1 - z^{-1}q^{sk}))], term k of
    q-valuation b(k)."""
    acc = qs_one(N)
    k = 1
    while b(k) <= N:
        num = (Factors(-1, 1, 0, 1, 1), Factors(-1, -1, 0, 1, 1), Factors(eps, 0, s * k, 1, 1))
        den = (Factors(-1, 1, s * k, 1, 1), Factors(-1, -1, s * k, 1, 1))
        term = qs_monomial(-c if k % 2 else c, 0, b(k), N)
        acc = qs_add(acc, qs_product(term, Product(num, den)))
        k += 1
    return qs_product(acc, product)


# The Gaussian-binomial loops the finite Jacobi triple product records
# ran before their sums became specs: their differential oracles.


def loop_finite_pair_v1_rhs(n: int, N: int) -> QSeries:
    acc = qs_zero(N)
    for j in range(-n, n + 2):
        # the binomial is z-free: divide on the dense kernel, off the
        # packed rows that the specs under test run on
        b = [c.coeff(0) for c in gauss_binomial(2 * n + 1, n + j, 1, N).coeffs]
        zf_div_factor(b, -1, 2 * n + 1)
        b = zf_to_qseries(b)
        s = 1 if (j + 1) % 2 == 0 else -1
        e1 = (j - 1) * (j - 2) // 2
        e2 = j * (j + 1) // 2
        acc = qs_add(acc, qs_mul_monomial(b, s, j, e1))
        acc = qs_sub(acc, qs_mul_monomial(b, s, j, e2))
    return acc


def loop_finite_pair_rhs(n: int, N: int) -> QSeries:
    acc = qs_zero(N)
    for j in range(-n, n + 1):
        b = gauss_binomial(2 * n, n + j, 1, N)
        s = 1 if j % 2 == 0 else -1
        acc = qs_add(acc, qs_mul_monomial(b, s, j, j * (j - 1) // 2))
    return acc


def loop_finite_pair_sq_rhs(n: int, N: int) -> QSeries:
    acc = qs_zero(N)
    for k in range(-n, n + 1):
        b = gauss_binomial(2 * n, n + k, 2, N)
        s = 1 if k % 2 == 0 else -1
        acc = qs_add(acc, qs_mul_monomial(b, s, k, k * k))
    return acc


def test_finite_pair_sums_match_loops():
    loops = {
        "fJTPv1": loop_finite_pair_v1_rhs,
        "fJTP": loop_finite_pair_rhs,
        "fJTP2": loop_finite_pair_sq_rhs,
    }
    for n in range(11):
        for family, loop in loops.items():
            record = lookup(f"{family}-n{n}")
            for N in (0, 1, 7, record.default_order):
                assert record.rhs_builder(N) == loop(n, N), (record.id, N)


def sptbar_oracle(n: int) -> int:
    """Overpartition smallest-part count by enumeration: each partition
    counts the multiplicity of its smallest part, times 2^(distinct parts - 1)
    for the overlines on the parts other than the smallest."""
    return sum(
        p.count(p[-1]) << (len(set(p)) - 1) for p in enum_partitions(n) if p
    )


def test_catalog_shape():
    records = registry_catalog()
    ids = [r.id for r in records]
    assert len(ids) >= 45
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    for r in records:
        assert r.default_order >= 1
        assert r.variables in (Variables.Z_AND_Q, Variables.Q_ONLY)


def test_catalog_covers_required_families():
    ids = {r.id for r in registry_catalog()}
    required = {
        "R1", "H1", "K1", "K1b",
        "NEWrankid", "CONJ1a", "CONJ1b", "CONJ2",
        "HR1", "HR2", "HR3", "HR4",
        "HRf", "HRfv2", "HRmu", "HRmuv2", "HRnewv2",
        "NEWSid", "EQNEWSid", "NEWSPTid", "SRids", "cor1",
        "SPHR1", "SPHR2", "MILid", "Szqid2", "FFWid", "gR", "N2Kid",
        "falseT1a", "falseT2", "falseT2a", "RAML1", "RAML1A", "RAML1B",
        "Entry931", "CONJ1s1", "CONJ2s1",
        "SBid", "S2id", "NEWSBid", "NEWS2id", "NEWS2id2",
        "SBcorid", "NEWM2SPTid", "ANDID",
        "MORTID1", "MORTID2", "MORTID2B", "MORTID3B",
        "MORTID1B-printed", "MORTID1B-corrected",
        "MORTID3-printed", "MORTID3-corrected",
    }
    assert required <= ids
    for fam, hi in (("fJTPv1", 10), ("fJTP", 10), ("fJTP2", 10)):
        for n in range(hi + 1):
            assert f"{fam}-n{n}" in ids
    for k in range(11):
        assert f"niceid-k{k}" in ids
    for n in range(13):
        assert f"A1-n{n}" in ids
    for n in range(9):
        assert f"slaterid-n{n}" in ids


def test_lookup():
    rec = lookup("HR1")
    assert rec.id == "HR1"
    assert rec.variables is Variables.Q_ONLY
    with pytest.raises(UnknownIdentity):
        lookup("definitely-not-registered")


def test_verify_identity_result_shape():
    r = verify_identity("R1", 30)
    assert r["id"] == "R1"
    assert r["ok"] is True
    assert r["order"] == 30
    assert r["first_mismatch"] is None
    assert r["elapsed_ms"] >= 0


def test_verify_identity_default_order():
    rec = lookup("NEWrankid")
    r = verify_identity("NEWrankid")
    assert r["order"] == rec.default_order
    assert r["ok"] is True


def test_verify_all_glob_expansion():
    results = verify_all(["HR?", "fJTP2-n[0-3]"], order=20)
    got = sorted(r["id"] for r in results)
    assert got == [
        "HR1", "HR2", "HR3", "HR4", "HRf",
        "fJTP2-n0", "fJTP2-n1", "fJTP2-n2", "fJTP2-n3",
    ]
    with pytest.raises(UnknownIdentity):
        verify_all(["no-such-*"])


def test_all_records_verify_at_reduced_order():
    skip = {"MORTID1B-printed", "MORTID3-printed"}
    for rec in registry_catalog():
        if rec.id in skip:
            continue
        r = verify_identity(rec.id, 16)
        assert r["ok"] is True, (rec.id, r["first_mismatch"])


def test_discrepancy_groups():
    assert DISCREPANCY_GROUPS == {
        "MORTID1B": ("MORTID1B-printed", "MORTID1B-corrected"),
        "MORTID3": ("MORTID3-printed", "MORTID3-corrected"),
    }
    for name, members in DISCREPANCY_GROUPS.items():
        ids = {r.id for r in registry_catalog()}
        assert set(members) <= ids
        results = verify_all(list(members), order=20)
        verdict = group_verdicts(results)[name]
        assert verdict["ok"] is True
        assert verdict["unresolved"] is False
        # printed variant fails, corrected passes
        assert any(not r["ok"] for r in results)
        assert overall_ok(results) is True


def test_group_rollup_requires_full_group():
    # a failing group member without its sibling in the run is a failure
    printed = verify_all(["MORTID1B-printed"], order=20)
    assert overall_ok(printed) is False
    verdicts = group_verdicts(printed)
    assert "MORTID1B" not in verdicts


def test_group_unresolved_when_no_member_passes():
    fake = [
        {"id": "MORTID1B-printed", "ok": False, "order": 5,
         "first_mismatch": None, "elapsed_ms": 0.0},
        {"id": "MORTID1B-corrected", "ok": False, "order": 5,
         "first_mismatch": None, "elapsed_ms": 0.0},
    ]
    verdict = group_verdicts(fake)["MORTID1B"]
    assert verdict["ok"] is False
    assert verdict["unresolved"] is True
    assert overall_ok(fake) is False


def test_mutated_record_is_caught():
    rec = mutated_demo_record()
    assert rec.id == "NEWrankid-mutated"
    r = verify_identity(rec.id, 12)
    assert r["ok"] is False
    assert r["first_mismatch"] == {
        "q_power": 1,
        "z_power": -1,
        "lhs": -2,
        "rhs": 0,
    }


def test_sequences_match_enumeration():
    spt = sequence_values("spt", 14)
    m2 = sequence_values("m2spt", 14)
    bar = sequence_values("sptBar", 14)
    for n in range(15):
        assert spt[n] == spt_oracle(n)
        assert m2[n] == m2spt_oracle(n)
        assert bar[n] == sptbar_oracle(n)


def test_nested_sums_match_termwise_sums():
    # Both parities of n_max: the M2spt tail differs between them.
    for n_max in list(range(81)) + [300]:
        assert sequence_values("sptBar", n_max) == termwise_sptbar(n_max), n_max
        assert sequence_values("m2spt", n_max) == termwise_m2spt(n_max), n_max


def test_theta_quotients_match_horner_sums():
    for n_max in list(range(81)) + [300, 1000, 2000]:
        assert sequence_values("sptBar", n_max) == horner_sptbar(n_max), n_max
        assert sequence_values("m2spt", n_max) == horner_m2spt(n_max), n_max


def test_spt_check_route_matches_termwise_sum():
    for n_max in list(range(61)) + [300]:
        assert suite._spt_series_direct(n_max) == suite._zf(evaluate(SPT_DIRECT_SUM, n_max)), n_max
    assert suite._spt_series_direct(300) == suite._spt_series(300)


def test_rank_generating_functions_as_lambert_series():
    # The rank forms behind the three rows of suite._spt_quotient, checked
    # with z kept: the Dyson rank, the overpartition rank and the M2-rank.
    N = 60
    inv_q = Product(den=(Factors(-1, 0, 1),))
    rows = (
        (specfun.build_R, 1, lambda k: k * (3 * k + 1) // 2, 1, 1, inv_q),
        (specfun.build_H, 1, lambda k: k * k + k, 0, 2, Product((Factors(1, 0, 1),), inv_q.den)),
        (specfun.build_N2_rank, 2, lambda k: 2 * k * k + k, 1, 1,
         Product((Factors(1, 0, 1, 2),), (Factors(-1, 0, 2, 2),))),
    )
    for build, s, b, eps, c, product in rows:
        assert rank_lambert_form(N, s, b, eps, c, product) == build(N), build.__name__


def test_sparse_euler_and_jacobi_products():
    rng = random.Random(12)
    for step in (1, 2, 12, 16):
        for N in list(range(0, 40)) + [97, 150, 200]:
            f = [rng.randrange(-(2**80), 2**80) for _ in range(N + 1)]
            quotient = zf_div_euler(f, step)
            back = list(quotient)
            zf_pochhammer_inf(step, step, 1, back)
            assert back == f, (step, N)
            expect = list(f)
            for e in range(step, N + 1, step):
                zf_div_factor(expect, -1, e)
            assert quotient == expect, (step, N)
            cube = list(f)
            for _ in range(3):
                zf_pochhammer_inf(step, step, 1, cube)
            assert zf_mul_jacobi_cube(f, step) == cube, (step, N)


def per_n_divisor_sums(n_max: int, s: int) -> list[int]:
    """sum_{m>=1} sigma(m) q^{sm}, one slice add per multiple n of s: the
    oracle of the grouped suite._divisor_sums."""
    acc = zf_zero(n_max)
    for n in range(s, n_max + 1, s):
        acc[n::n] = map(add, acc[n::n], repeat(n // s))
    return acc


def test_grouped_divisor_sums_match_per_n_loop():
    for s in (1, 2, 3):
        for n_max in list(range(301)) + [2000]:
            assert suite._divisor_sums(n_max, s) == per_n_divisor_sums(n_max, s), (n_max, s)
    sigma = suite._divisor_sums(60, 1)
    assert sigma[:13] == [0, 1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28]


def test_sequence_prefix_stability():
    rng = random.Random(8)
    for name in ("spt", "sptBar", "m2spt", "a", "alpha", "beta"):
        long = sequence_values(name, 40)
        cut = rng.randrange(5, 35)
        assert sequence_values(name, cut) == long[: cut + 1], name


def test_a_sequence_is_eta_cubed_times_spt():
    n_max = 60
    spt = sequence_values("spt", n_max)
    expect = list(spt)
    zf_pochhammer_inf(1, 1, 1, expect)
    zf_pochhammer_inf(1, 1, 1, expect)
    zf_pochhammer_inf(1, 1, 1, expect)
    assert sequence_values("a", n_max) == expect


# The division routes that a, beta and the eta-weighted record sides ran
# before they became numerator times Euler series: each divides a
# numerator by its theta series (sequence_values) and multiplies the
# quotient by a cube of (q^s;q^s)_oo. Their oracles.


def division_a(n_max: int) -> list[int]:
    return zf_mul_jacobi_cube(sequence_values("spt", n_max), 1)


def division_beta(n_max: int) -> list[int]:
    m_cap = max((n_max - 1) // 8, 0)
    m2 = sequence_values("m2spt", m_cap)
    acc = zf_zero(n_max)
    for m in range(1, m_cap + 1):
        acc[8 * m + 1] = -m2[m] if m % 2 else m2[m]
    return zf_mul_jacobi_cube(acc, 16)


def eta_cubed_times(vals: list[int], step: int) -> QSeries:
    """(q^step;q^step)_oo^3 sum vals[n] q^n."""
    return zf_to_qseries(zf_mul_jacobi_cube(vals, step))


def division_side(id: str, N: int) -> QSeries:
    """The left side of NEWSPTid, SBcorid or NEWM2SPTid: the sequence, at
    -q for the M2 record, times its eta cube."""
    if id == "NEWM2SPTid":
        vals = sequence_values("m2spt", N)
        return eta_cubed_times([-v if n % 2 else v for n, v in enumerate(vals)], 2)
    return eta_cubed_times(sequence_values("spt" if id == "NEWSPTid" else "sptBar", N), 1)


def test_weighted_tables_match_division_routes():
    for n in list(range(61)) + [300, 997, 2000, 4000]:
        assert sequence_values("a", n) == division_a(n), n
        assert sequence_values("beta", n) == division_beta(n), n
    for id in ("NEWSPTid", "SBcorid", "NEWM2SPTid"):
        build = lookup(id).lhs_builder
        for N in list(range(61)) + [300]:
            assert build(N) == division_side(id, N), (id, N)


def test_a_keeps_the_spt_check(monkeypatch):
    # a reads no spt value, but still checks the spt quotient against the
    # sum over the smallest part, up to the direct-sum cap
    fast = suite._spt_series

    def drifted(n_max):
        vals = fast(n_max)
        vals[-1] += 1
        return vals

    monkeypatch.setattr(suite, "_spt_series", drifted)
    for n in (5, 40, 2000):
        with pytest.raises(VerificationFailed):
            sequence_values("a", n)


def test_alpha_beta_embeddings():
    n_max = 97
    spt = sequence_values("spt", (n_max - 1) // 12)
    acc = [0] * (n_max + 1)
    for m, v in enumerate(spt):
        if 12 * m + 1 <= n_max:
            acc[12 * m + 1] = v
    for _ in range(3):
        zf_pochhammer_inf(12, 12, 1, acc)
    assert sequence_values("alpha", n_max) == acc

    m2 = sequence_values("m2spt", (n_max - 1) // 8)
    acc = [0] * (n_max + 1)
    for m, v in enumerate(m2):
        if 8 * m + 1 <= n_max:
            acc[8 * m + 1] = v if m % 2 == 0 else -v
    for _ in range(3):
        zf_pochhammer_inf(16, 16, 1, acc)
    assert sequence_values("beta", n_max) == acc


def test_sequence_error_paths():
    with pytest.raises(ValueError):
        sequence_values("spt", -1)
    with pytest.raises(UnknownSeriesId) as exc:
        sequence_values("nope", 5)
    assert "spt" in str(exc.value)


def test_congruence_rules_table():
    assert set(CONGRUENCE_RULES) == {
        "congs35",
        "heckecong-l5", "heckecong-l7", "heckecong-l17",
        "m2heckecong-l3", "m2heckecong-l5", "m2heckecong-l11",
    }
    for rule in CONGRUENCE_RULES.values():
        assert rule.default_n_max >= 1


def test_check_congruence_result_shape():
    r = check_congruence("congs35", 30)
    assert r["id"] == "congs35"
    assert r["sequence"] == "a"
    assert r["n_max"] == 30
    assert r["ok"] is True
    assert r["violations"] == []


def test_check_congruence_unknown_rule():
    with pytest.raises(UnknownIdentity):
        check_congruence("congs36")


def test_wrong_sign_rule_reports_violations():
    # the sign only matters at indices divisible by ell whose pullback is
    # nonzero; the first such index for ell = 5 is n = 65
    base = CONGRUENCE_RULES["heckecong-l5"]
    flipped = dataclasses.replace(base, id="heckecong-l5-flipped", eps=-base.eps)
    r = check_congruence(flipped, 80)
    assert r["ok"] is False
    assert r["violations"][0] == {"n": 65, "residual": -50}


def test_verify_all_deterministic():
    a = verify_all(["SBid", "S2id", "MILid"], order=24)
    b = verify_all(["SBid", "S2id", "MILid"], order=24)
    strip = lambda rs: [
        {k: v for k, v in r.items() if k != "elapsed_ms"} for r in rs
    ]
    assert strip(a) == strip(b)


def test_record_sides_are_truncation_consistent():
    # Every side built to N + 9 and cut to order N equals the side built
    # to N: no builder or kernel lets the truncation order leak into a
    # lower coefficient.
    for record in registry_catalog():
        for build in (record.lhs_builder, record.rhs_builder):
            for n in (6, 17):
                small = build(n)
                big = build(n + 9)
                assert small.order == n and big.order == n + 9, record.id
                assert small == QSeries(n, big.coeffs[: n + 1]), (record.id, n)
    # the same for every named series, and for the sums behind them at
    # z = 1 and z = -1
    for name in SeriesName:
        for n in (0, 6, 17):
            small = build_series(name, n)
            big = build_series(name, n + 9)
            assert small == QSeries(n, big.coeffs[: n + 1]), (name, n)
    sums = (specfun.R_SUM, specfun.H_SUM, specfun.K_SUM, specfun.N2_SUM, specfun.S_SUM,
            specfun.SBAR_SUM, specfun.S2_SUM, specfun.PARTIAL_THETA_SUM)
    for spec in sums:
        for z in (1, -1):
            for n in (0, 6, 17):
                small = evaluate(at_z(spec, z), n)
                big = evaluate(at_z(spec, z), n + 9)
                assert small == QSeries(n, big.coeffs[: n + 1]), (spec, z, n)
