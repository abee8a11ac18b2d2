from __future__ import annotations

from functools import partial
from math import isqrt

import pytest

import qhecke.qseries as qseries
import qhecke.specfun as specfun
import qhecke.suite as suite

from qhecke.errors import UnknownSeriesId
from qhecke.qseries import (
    INFINITY,
    Factors,
    HyperSum,
    Monomial,
    Product,
    div_factor,
    evaluate,
    mul_factor,
    pochhammer,
    qs_add,
    qs_collapse_z,
    qs_first_mismatch,
    qs_invert,
    qs_mul,
    qs_mul_monomial,
    qs_one,
    qs_substitute_neg_q,
    qs_zero,
)
from qhecke.specfun import (
    SeriesName,
    build_crank_style,
    build_f_mock3,
    build_false_theta_sides,
    build_g_cleared,
    build_H,
    build_K,
    build_mu_mock2,
    build_N2_rank,
    build_partial_theta,
    build_R,
    build_S2_def,
    build_S_def,
    build_S_formula,
    build_SBar_def,
    build_series,
)
from combinat import m2spt_oracle, oracle_counts, spt_oracle
from test_polyring import lp_invert_var

ORACLE_N = 10


def series_equal(f, g) -> bool:
    return qs_first_mismatch(f, g) is None


def test_rank_series_match_enumeration():
    f = build_R(ORACLE_N)
    for n in range(ORACLE_N + 1):
        poly = f.coeff(n)
        for m in range(-n - 1, n + 2):
            assert poly.coeff(m) == oracle_counts("N", m, n), (n, m)


def test_over_rank_series_matches_enumeration():
    f = build_H(ORACLE_N)
    for n in range(ORACLE_N + 1):
        poly = f.coeff(n)
        for m in range(-n - 1, n + 2):
            assert poly.coeff(m) == oracle_counts("NBar", m, n), (n, m)


def test_m2_series_match_enumeration():
    # K carries the alternating sign (-1)^n, the N2 builder does not
    f = build_K(ORACLE_N)
    g = build_N2_rank(ORACLE_N)
    for n in range(ORACLE_N + 1):
        sign = -1 if n % 2 else 1
        for m in range(-n - 1, n + 2):
            count = oracle_counts("N2", m, n)
            assert f.coeff(n).coeff(m) == sign * count, (n, m)
            assert g.coeff(n).coeff(m) == count, (n, m)


def test_z_inversion_symmetry():
    for build in (
        build_R,
        build_H,
        build_K,
        build_N2_rank,
        build_S_def,
        build_SBar_def,
        build_S2_def,
    ):
        f = build(12)
        for n in range(13):
            assert lp_invert_var(f.coeff(n)) == f.coeff(n), build.__name__
    f = build_crank_style(1, 12)
    for n in range(13):
        assert lp_invert_var(f.coeff(n)) == f.coeff(n)


def test_specialized_products():
    N = 60
    euler = pochhammer(Monomial(1, 0, 1), INFINITY, N)
    # rank gf at z=1 is the partition gf
    assert series_equal(build_R(N, z_value=1), qs_invert(euler))
    # over-rank gf at z=1 is (-q)_oo/(q)_oo
    over = qs_mul(pochhammer(Monomial(-1, 0, 1), INFINITY, N), qs_invert(euler))
    assert series_equal(build_H(N, z_value=1), over)
    # M2 gf at z=1 is (q;q^2)_oo/(q^2;q^2)_oo
    k1 = qs_mul(
        pochhammer(Monomial(1, 0, 1), INFINITY, N, step=2),
        qs_invert(pochhammer(Monomial(1, 0, 2), INFINITY, N, step=2)),
    )
    assert series_equal(build_K(N, z_value=1), k1)
    # and with q -> -q the odd factors flip sign
    k1b = qs_mul(
        pochhammer(Monomial(-1, 0, 1), INFINITY, N, step=2),
        qs_invert(pochhammer(Monomial(1, 0, 2), INFINITY, N, step=2)),
    )
    assert series_equal(qs_substitute_neg_q(build_K(N, z_value=1)), k1b)


def test_z_value_matches_collapse(monkeypatch):
    # Every z-carrying spec: at z0 = +-1 the dense route must agree with the
    # packed route collapsed at z0, and must not reach packed rows.
    N = 16
    builds = [
        build_R, build_H, build_K, build_N2_rank, build_S_def, build_SBar_def,
        build_S2_def, build_partial_theta,
    ]
    builds += [
        partial(build_crank_style, base, overline=overline)
        for base in (1, 2) for overline in (False, True)
    ]
    specs = [
        v for module in (specfun, suite) for v in vars(module).values()
        if isinstance(v, (HyperSum, Product))
    ]
    assert suite._RANK_PRODUCT in specs and specfun._LERCH_SUM in specs
    specs += [spec for n in range(4) for side in suite._finite_pair_sums(n) for spec in side]
    builds += [partial(evaluate, spec) for spec in specs]
    full = [build(N) for build in builds]

    def packed_step(*args):
        raise AssertionError("the z-free route ran on packed rows")

    monkeypatch.setattr(qseries, "_add_rows", packed_step)
    for build, f in zip(builds, full):
        for z0 in (1, -1):
            assert series_equal(build(N, z_value=z0), qs_collapse_z(f, z0)), (build, z0)


@pytest.mark.parametrize("N", [0, 1, 7, 16, 30])
def test_z_value_matches_collapse_on_composite_builders(N):
    # these two run qs_invert or qs_product on the evaluated series, and
    # qs_product packs rows at any z_value, so they are outside the guard above
    for build in (build_g_cleared, build_S_formula):
        f = build(N)
        for z0 in (1, -1):
            assert series_equal(build(N, z_value=z0), qs_collapse_z(f, z0)), (build, z0)


def termwise_g_cleared(N: int, z_value=None):
    """sum_{n<=isqrt(N)} q^{n^2} / ((xq;q)_n (x^{-1}q;q)_n), each term's
    denominator inverted by itself: the oracle for build_g_cleared."""
    acc = qs_zero(N)
    for n in range(isqrt(N) + 1):
        den = evaluate(Product((Factors(-1, 1, 1, 1, n), Factors(-1, -1, 1, 1, n))), N, z_value)
        acc = qs_add(acc, qs_mul_monomial(qs_invert(den), 1, 0, n * n))
    return acc


def test_g_cleared_matches_termwise_inverses():
    for N in [*range(61), 100]:
        for z_value in (None, 1, -1):
            assert build_g_cleared(N, z_value) == termwise_g_cleared(N, z_value), (N, z_value)


def test_g_cleared_runs_no_factor_division(monkeypatch):
    # build_R divides factor by factor; the lhs of gR must not, so that
    # the gR record compares two independent constructions
    factor = qseries._factor

    def multiply_only(f, c, z_exp, q_exp, z_value, divide):
        if divide:
            raise AssertionError("build_g_cleared ran a factor division")
        return factor(f, c, z_exp, q_exp, z_value, divide)

    monkeypatch.setattr(qseries, "_factor", multiply_only)
    for z_value in (None, 1, -1):
        assert build_g_cleared(40, z_value) == termwise_g_cleared(40, z_value)
    # the patch is live: the other side of gR does divide
    with pytest.raises(AssertionError):
        build_R(40)


def test_s_definition_matches_formula():
    assert series_equal(build_S_def(20), build_S_formula(20))
    # z = 1 diagonal gives the smallest-parts counts
    f = build_S_def(ORACLE_N, z_value=1)
    for n in range(1, ORACLE_N + 1):
        assert f.coeff(n).coeff(0) == spt_oracle(n)


def test_s2_at_z1_counts_m2spt():
    f = build_S2_def(12, z_value=1)
    for n in range(1, 13):
        assert f.coeff(n).coeff(0) == m2spt_oracle(n, cap=14)


def test_crank_products():
    plain = build_crank_style(1, 8)
    assert plain.coeff(0).terms == {0: 1}
    assert plain.coeff(1).terms == {1: 1, 0: -1, -1: 1}
    over = build_crank_style(1, 8, overline=True)
    assert over.coeff(0).terms == {0: 1}
    m2 = build_crank_style(2, 20, overline=True, z_value=1)
    # at z = 1 the M2 product collapses to the q -> -q image of K(1, q)
    expect = qs_substitute_neg_q(build_K(20, z_value=1))
    assert series_equal(m2, expect)


def test_partial_theta():
    f = build_partial_theta(10)
    assert f.coeff(0).terms == {0: 1}
    assert f.coeff(1).terms == {1: -1}
    assert f.coeff(3).terms == {2: 1}
    assert f.coeff(6).terms == {3: -1}
    assert f.coeff(2).is_zero()


def test_false_theta_side_examples():
    rhs = build_false_theta_sides("falseT1a.rhs", 10)
    assert rhs.coeff(0).terms == {0: 1}
    assert rhs.coeff(1).terms == {2: -2}
    lhs = build_false_theta_sides("falseT2.lhs", 10)
    rhs2 = build_false_theta_sides("falseT2.rhs", 10)
    assert series_equal(qs_collapse_z(lhs, 1), qs_collapse_z(rhs2, 1))


def test_mock_theta_expansions():
    # rebuild both sums with a different operation order as a cross-check
    N = 30
    term = qs_one(N)
    acc = qs_one(N)
    n = 1
    while n * n <= N:
        term = qs_mul_monomial(term, 1, 0, n * n - (n - 1) * (n - 1))
        term = div_factor(div_factor(term, 1, 0, n), 1, 0, n)
        acc = qs_add(acc, term)
        n += 1
    assert series_equal(build_f_mock3(N), acc)
    # hand expansion: 1/(1+q)^2 and q^4/((1+q)(1+q^2))^2 through q^5
    assert [build_f_mock3(8).coeff(k).coeff(0) for k in range(6)] == [
        1,
        1,
        -2,
        3,
        -3,
        3,
    ]
    term = qs_one(N)
    acc = qs_one(N)
    n = 1
    while n * n <= N:
        term = qs_mul_monomial(term, -1, 0, n * n - (n - 1) * (n - 1))
        term = mul_factor(term, -1, 0, 2 * n - 1)
        term = div_factor(div_factor(term, 1, 0, 2 * n), 1, 0, 2 * n)
        acc = qs_add(acc, term)
        n += 1
    assert series_equal(build_mu_mock2(N), acc)


def test_build_series_dispatch():
    for name in SeriesName:
        assert build_series(name, 4).order == 4
    assert series_equal(build_series("r", 8), build_R(8))
    assert series_equal(build_series("R", 8, z_value=-1), build_R(8, z_value=-1))
    assert series_equal(
        build_series("falseT1a.rhs", 8), build_false_theta_sides("falseT1a.rhs", 8)
    )


def test_build_series_errors():
    with pytest.raises(UnknownSeriesId):
        build_series("no_such_series", 4)
    with pytest.raises(UnknownSeriesId):
        build_series("bogus.lhs", 4)
    with pytest.raises(ValueError):
        build_series("F_MOCK3", 4, z_value=1)
    with pytest.raises(ValueError):
        build_series("falseT1a.rhs", 4, z_value=1)
    with pytest.raises(ValueError):
        build_R(4, z_value=2)
