from __future__ import annotations

from math import isqrt

import pytest

import qhecke.qseries as qseries
import qhecke.specfun as specfun
import qhecke.suite as suite

from qhecke.errors import NonTerminating, UnknownSeriesId
from qhecke.polyring import LaurentPoly
from qhecke.qseries import (
    INFINITY,
    Factors,
    HyperSum,
    Monomial,
    Product,
    at_z,
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
    qs_scale_poly,
    qs_substitute_neg_q,
    qs_zero,
)
from qhecke.specfun import (
    H_SUM,
    K_SUM,
    R_SUM,
    S2_SUM,
    S_SUM,
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
from dict_series import dict_qs_product, qs_monomial, qs_one
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
    assert series_equal(evaluate(at_z(R_SUM, 1), N), qs_invert(euler))
    # over-rank gf at z=1 is (-q)_oo/(q)_oo
    over = qs_mul(pochhammer(Monomial(-1, 0, 1), INFINITY, N), qs_invert(euler))
    assert series_equal(evaluate(at_z(H_SUM, 1), N), over)
    # M2 gf at z=1 is (q;q^2)_oo/(q^2;q^2)_oo
    k1 = qs_mul(
        pochhammer(Monomial(1, 0, 1), INFINITY, N, step=2),
        qs_invert(pochhammer(Monomial(1, 0, 2), INFINITY, N, step=2)),
    )
    assert series_equal(evaluate(at_z(K_SUM, 1), N), k1)
    # and with q -> -q the odd factors flip sign
    k1b = qs_mul(
        pochhammer(Monomial(-1, 0, 1), INFINITY, N, step=2),
        qs_invert(pochhammer(Monomial(1, 0, 2), INFINITY, N, step=2)),
    )
    assert series_equal(qs_substitute_neg_q(evaluate(at_z(K_SUM, 1), N)), k1b)


def test_z_value_matches_collapse(monkeypatch):
    # Specialising the spec equals specialising the series: for every spec,
    # at z0 = +-1, evaluate(at_z(spec, z0)) is the series with z kept
    # collapsed at z0, and it never reaches packed rows. The two windowed
    # false theta sums have no value at z = +-1
    # (test_windowed_false_theta_sums_do_not_terminate_at_z_pm1).
    N = 16
    specs = [
        v for module in (specfun, suite) for v in vars(module).values()
        if isinstance(v, (HyperSum, Product)) and v not in (specfun._FALSE_T1A_SUM, specfun._FALSE_T2_SUM)
    ]
    assert suite._RANK_PRODUCT in specs and specfun._LERCH_SUM in specs
    specs += [spec for n in range(4) for side in suite._finite_pair_sums(n) for spec in side]
    # the crank-style products, as build_crank_style passes them to evaluate
    with monkeypatch.context() as mp:
        mp.setattr(specfun, "evaluate", lambda spec, N: specs.append(spec))
        for base in (1, 2):
            for overline in (False, True):
                build_crank_style(base, N, overline=overline)
    full = [evaluate(spec, N) for spec in specs]

    def packed_step(*args):
        raise AssertionError("the z-free route ran on packed rows")

    monkeypatch.setattr(qseries, "_add_rows", packed_step)
    for spec, f in zip(specs, full):
        for z0 in (1, -1):
            assert series_equal(evaluate(at_z(spec, z0), N), qs_collapse_z(f, z0)), (spec, z0)


@pytest.mark.parametrize("N", [0, 1, 7, 16, 30])
def test_z_value_matches_collapse_on_composite_builders(N):
    # build_g_cleared and build_S_formula form their tuples of specs
    # inside, so neither has a spec of its own to specialise: their series
    # collapsed at z0 = +-1 equals the specialised spec of the record side
    # they equal (gR and Szqid2)
    for build, spec in ((build_g_cleared, R_SUM), (build_S_formula, S_SUM)):
        f = build(N)
        for z0 in (1, -1):
            assert series_equal(qs_collapse_z(f, z0), evaluate(at_z(spec, z0), N)), (build, z0)


def test_windowed_false_theta_sums_do_not_terminate_at_z_pm1(monkeypatch):
    # Their weight has no q, so with z kept the term bound comes from the
    # z-valuation, and the sum is kept to z^0..z^N. At z = +-1 no bound is
    # left: evaluate raises before any term rather than sum a z-window.
    def refuse(*args):
        raise AssertionError("a term was formed")

    monkeypatch.setattr(qseries, "_times", refuse)
    monkeypatch.setattr(qseries, "_factor", refuse)
    for spec in (specfun._FALSE_T1A_SUM, specfun._FALSE_T2_SUM):
        for N in (0, 1, 7, 40):
            for z0 in (1, -1):
                with pytest.raises(NonTerminating):
                    evaluate(at_z(spec, z0), N)


def termwise_g_cleared(N: int):
    """sum_{n<=isqrt(N)} q^{n^2} / ((xq;q)_n (x^{-1}q;q)_n), each term
    divided by its own denominator, factor by factor on dict rows: the
    oracle for build_g_cleared."""
    acc = qs_zero(N)
    for n in range(isqrt(N) + 1):
        den = Product(den=(Factors(-1, 1, 1, 1, n), Factors(-1, -1, 1, 1, n)))
        acc = qs_add(acc, dict_qs_product(qs_monomial(1, 0, n * n, N), den))
    return acc


def test_g_cleared_matches_termwise_inverses():
    for N in [*range(61), 100]:
        assert build_g_cleared(N) == termwise_g_cleared(N), N


def quotient_g_cleared(N: int):
    """S_J / D_J by the recurrence S_0 = 1,
    S_m = (1 - xq^m)(1 - x^{-1}q^m) S_{m-1} + q^{m^2}, and then D_J divided
    out factor by factor, all on dict rows: the oracle for build_g_cleared's
    common-denominator route."""
    J = isqrt(N)
    num = qs_one(N)
    for m in range(1, J + 1):
        num = dict_qs_product(num, Product((Factors(-1, 1, m, 1, 1), Factors(-1, -1, m, 1, 1))))
        num = qs_add(num, qs_monomial(1, 0, m * m, N))
    return dict_qs_product(num, Product(den=(Factors(-1, 1, 1, 1, J), Factors(-1, -1, 1, 1, J))))


@pytest.mark.parametrize("N", [*range(61), 100, 200])
def test_g_cleared_matches_quotient_oracle(N):
    assert build_g_cleared(N) == quotient_g_cleared(N)


def factor_steps(monkeypatch, build, N: int):
    """The series build(N) and, in order, the factor and monomial steps it
    ran on packed rows (the majorant's pass is left out): ('mul' or 'div',
    c, z_exp, q_exp) for a factor 1 + c z^a q^e, one per exponent of a
    run, and ('times', 1, 0, q_exp) for a shift by q^e, which is all a
    monomial step is now that the monomials are carried."""
    steps = []
    factor, times = qseries._factor, qseries._times

    def record_factor(f, c, z_exp, exps, divide):
        if isinstance(f, qseries._Rows):
            steps.extend(("div" if divide else "mul", c, z_exp, e) for e in exps)
        return factor(f, c, z_exp, exps, divide)

    def record_times(f, q_exp):
        if isinstance(f, qseries._Rows):
            steps.append(("times", 1, 0, q_exp))
        return times(f, q_exp)

    with monkeypatch.context() as patch:
        patch.setattr(qseries, "_factor", record_factor)
        patch.setattr(qseries, "_times", record_times)
        return build(N), steps


def from_first_division(steps: list) -> list:
    first = next((i for i, s in enumerate(steps) if s[0] == "div"), len(steps))
    return steps[first:]


@pytest.mark.parametrize("N", [0, 1, 4, 40, 100])
def test_g_cleared_divides_by_the_common_denominator_last(monkeypatch, N):
    # the lhs of gR forms every term by multiplications, then divides
    # once by D_J = (xq;q)_J (x^{-1}q;q)_J, factor by factor: the steps
    # from its first division on are the 2J divisions and nothing else
    J = isqrt(N)
    denominator = sorted(("div", -1, a, m) for m in range(1, J + 1) for a in (1, -1))
    f, steps = factor_steps(monkeypatch, build_g_cleared, N)
    assert f == quotient_g_cleared(N)
    assert sorted(from_first_division(steps)) == denominator
    assert any(s[0] == "mul" for s in steps) == (J > 0)
    # the patch is live: build_R divides by the same factors, but each
    # between two of its terms
    _, steps = factor_steps(monkeypatch, build_R, N)
    assert sorted(s for s in steps if s[0] == "div") == denominator
    assert (len(from_first_division(steps)) > len(denominator)) == (J > 0)


def loop_S_formula(N: int):
    """The closed alternating sum of build_S_formula term by term,
    n = 1 .. tri_index(N), each term's factor 1 + z + ... + z^{n-1}
    multiplied in as a Laurent polynomial: the oracle for build_S_formula."""
    acc = qs_zero(N)
    base = qs_one(N)
    for n in range(1, specfun.tri_index(N) + 1):
        base = dict_qs_product(qs_mul_monomial(base, 1, 0, n), Product(den=(Factors(-1, 0, n, 1, 1),)))
        term = base if n % 2 == 1 else qs_mul_monomial(base, -1)
        term = dict_qs_product(term, Product(den=(Factors(-1, -1, n, 1, 1),)))
        acc = qs_add(acc, qs_scale_poly(term, LaurentPoly._raw(dict.fromkeys(range(n), 1))))
    return dict_qs_product(acc, Product(den=(Factors(-1, 1, 1),)))


@pytest.mark.parametrize("N", [*range(61), 100, 200])
def test_S_formula_matches_loop_oracle(N):
    assert build_S_formula(N) == loop_S_formula(N)


def test_s_definition_matches_formula():
    assert series_equal(build_S_def(20), build_S_formula(20))
    # z = 1 diagonal gives the smallest-parts counts
    f = evaluate(at_z(S_SUM, 1), ORACLE_N)
    for n in range(1, ORACLE_N + 1):
        assert f.coeff(n).coeff(0) == spt_oracle(n)


def test_s2_at_z1_counts_m2spt():
    f = evaluate(at_z(S2_SUM, 1), 12)
    for n in range(1, 13):
        assert f.coeff(n).coeff(0) == m2spt_oracle(n, cap=14)


def test_crank_products():
    plain = build_crank_style(1, 8)
    assert plain.coeff(0).terms == {0: 1}
    assert plain.coeff(1).terms == {1: 1, 0: -1, -1: 1}
    over = build_crank_style(1, 8, overline=True)
    assert over.coeff(0).terms == {0: 1}
    m2 = qs_collapse_z(build_crank_style(2, 20, overline=True), 1)
    # at z = 1 the M2 product collapses to the q -> -q image of K(1, q)
    expect = qs_substitute_neg_q(evaluate(at_z(K_SUM, 1), 20))
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
    assert series_equal(
        build_series("falseT1a.rhs", 8), build_false_theta_sides("falseT1a.rhs", 8)
    )


def test_build_series_errors():
    with pytest.raises(UnknownSeriesId):
        build_series("no_such_series", 4)
    with pytest.raises(UnknownSeriesId):
        build_series("bogus.lhs", 4)
    with pytest.raises(ValueError):
        at_z(R_SUM, 2)
