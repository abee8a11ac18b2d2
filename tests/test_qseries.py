from __future__ import annotations

import random
from array import array
from collections import Counter
from functools import partial
from itertools import repeat
from math import isqrt

import pytest

from qhecke.errors import InexactDivision, NonTerminating, NonUnitConstantTerm, SupportOverflow
from qhecke.polyring import LP_ZERO, LaurentPoly, lp_monomial, lp_scale
from qhecke.qseries import (
    INFINITY,
    Factors,
    HyperSum,
    Monomial,
    Power,
    Product,
    QSeries,
    at_z,
    div_factor,
    evaluate,
    gauss_binomial,
    mul_factor,
    pochhammer,
    qs_add,
    qs_collapse_z,
    qs_first_mismatch,
    qs_invert,
    qs_mul,
    qs_mul_monomial,
    qs_neg,
    qs_sub,
    qs_substitute_neg_q,
    qs_truncate_z,
    qs_zero,
    span_cap,
    zf_add_into,
    zf_div_factor,
    zf_div_sparse,
    zf_mul,
    zf_mul_factor,
    zf_mul_sparse,
    zf_one,
    zf_pochhammer_inf,
    zf_product,
    zf_shift,
    zf_theta_terms,
    zf_to_qseries,
)
from qhecke.qseries import (
    _SIGNED_CODES,
    _FACTOR_Z,
    _MONOMIAL_Z,
    _NO_Z,
    _Rows,
    _digits,
    _machine_bytes,
    _pack_list,
    _slot_bytes,
    _slots,
    _sparse_plan,
    _sparse_rows,
    _unpack,
    _widened,
    _z_place,
)
from qhecke.specfun import _FALSE_T1A_SUM, _FALSE_T2_SUM, tri_index
from qhecke.suite import sequence_values
import qhecke.qseries as qseries
from dict_series import at, dict_div_factor, dict_evaluate, dict_mul_factor, dict_qs_product, qs_monomial, qs_one
from three_field_rows import add_rows3, sparse_rows3
from eager_steps import applied_terms, counter_factor_counts, counter_quotient, expanded_counts, factor_multiset
from test_polyring import lp_eval_int

PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]
DISTINCT = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22]


def rand_series(rng: random.Random, order: int, z_spread: int = 3) -> QSeries:
    coeffs = []
    for _ in range(order + 1):
        terms = {}
        for _ in range(rng.randrange(4)):
            terms[rng.randrange(-z_spread, z_spread + 1)] = rng.randrange(-5, 6)
        coeffs.append(LaurentPoly(terms))
    return QSeries(order, coeffs)


def rand_unit_series(rng: random.Random, order: int) -> QSeries:
    f = rand_series(rng, order, z_spread=2)
    coeffs = list(f.coeffs)
    coeffs[0] = LaurentPoly({0: rng.choice((1, -1))})
    return QSeries(order, coeffs)


def series_equal(f: QSeries, g: QSeries) -> bool:
    return qs_first_mismatch(f, g) is None


# Schoolbook dict-of-dict kernels: the differential oracles for qs_mul and
# qs_invert.


def schoolbook_mul(f: QSeries, g: QSeries) -> QSeries:
    n = min(f.order, g.order)
    cap = span_cap(n)
    fc = f.coeffs
    gc = g.coeffs
    out: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for i in range(n + 1):
        fi = fc[i].terms
        if not fi:
            continue
        for j in range(n + 1 - i):
            gj = gc[j].terms
            if not gj:
                continue
            acc = out[i + j]
            for ef, vf in fi.items():
                for eg, vg in gj.items():
                    e = ef + eg
                    s = acc.get(e, 0) + vf * vg
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
    coeffs: list[LaurentPoly] = []
    for acc in out:
        if acc and max(acc) - min(acc) > cap:
            raise SupportOverflow(
                f"series product span {max(acc) - min(acc)} exceeds cap {cap}"
            )
        coeffs.append(LaurentPoly._raw(acc))
    return QSeries(n, coeffs)


def schoolbook_divide(u: QSeries, f: QSeries) -> QSeries:
    head = f.coeffs[0].terms
    if len(head) != 1:
        raise NonUnitConstantTerm("constant term is not a single monomial")
    (k0, c0), = head.items()
    if c0 not in (1, -1):
        raise NonUnitConstantTerm("constant coefficient is not +1 or -1")
    n = min(u.order, f.order)
    out: list[LaurentPoly] = [LaurentPoly()] * (n + 1)
    for m in range(n + 1):
        # u_m - sum_{j>=1} f_j g_{m-j}, then times 1/f_0 = c0 z^{-k0}
        acc: dict[int, int] = dict(u.coeffs[m].terms)
        for j in range(1, m + 1):
            fj = f.coeffs[j].terms
            gj = out[m - j].terms
            if not fj or not gj:
                continue
            for ef, vf in fj.items():
                for eg, vg in gj.items():
                    e = ef + eg
                    s = acc.get(e, 0) - vf * vg
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
        out[m] = lp_scale(LaurentPoly._raw(acc), c0, -k0)
    return QSeries(n, out)


def schoolbook_invert(f: QSeries) -> QSeries:
    return schoolbook_divide(qs_one(f.order), f)


# Element-by-element loops: the differential oracles for the slice-op
# zf_* kernels.


def loop_mul_factor(f: list[int], c: int, e: int) -> None:
    for k in range(len(f) - 1, e - 1, -1):
        v = f[k - e]
        if v:
            f[k] += c * v


def loop_div_factor(f: list[int], c: int, e: int) -> None:
    for k in range(e, len(f)):
        v = f[k - e]
        if v:
            f[k] -= c * v


def loop_add_into(dst: list[int], src: list[int], scale: int = 1, shift: int = 0) -> None:
    for k in range(shift, len(dst)):
        v = src[k - shift] if 0 <= k - shift < len(src) else 0
        if v:
            dst[k] += scale * v


def add_scaled(dst: list[int], src: list[int], scale: int, shift: int) -> None:
    """In place: dst += scale * q^shift * src, truncated to len(dst), with
    shift >= 0."""
    zf_add_into(dst, [scale * v for v in src], shift=shift)


def loop_mul(f: list[int], g: list[int]) -> list[int]:
    n = min(len(f), len(g))
    out = [0] * n
    for i, vf in enumerate(f[:n]):
        if vf:
            lim = n - i
            for j, vg in enumerate(g[:lim]):
                if vg:
                    out[i + j] += vf * vg
    return out


# The loops pochhammer and gauss_binomial ran before they were routed
# through evaluate and the zf_* kernels: their differential oracles.


def loop_pochhammer(a: Monomial, n, N: int, step: int = 1) -> QSeries:
    out = qs_one(N)
    k = 0
    while n is INFINITY or k < n:
        q_e = a.q_exp + step * k
        if q_e > N:
            break
        out = dict_mul_factor(out, -a.sign, a.z_exp, q_e)
        k += 1
    return out


def poly_mul_one_minus(f: list[int], i: int) -> list[int]:
    """f(Q) * (1 - Q^i) over dense int lists."""
    out = f + [0] * i
    for j, v in enumerate(f):
        out[j + i] -= v
    return out


def poly_div_one_minus(f: list[int], i: int) -> list[int]:
    """f(Q) / (1 - Q^i), raising InexactDivision on a nonzero remainder."""
    g = [0] * len(f)
    for j, v in enumerate(f):
        g[j] = v + (g[j - i] if j >= i else 0)
    for j in range(len(f) - i, len(f)):
        if j >= 0 and g[j]:
            raise InexactDivision("gaussian binomial division left a remainder")
    new_len = len(f) - i
    return g[:new_len] if new_len > 0 else [0]


def loop_gauss_binomial(n: int, k: int, step: int = 1, order: int | None = None) -> QSeries:
    if k < 0 or k > n:
        return qs_zero(order if order is not None else 0)
    num = [1]
    for i in range(n - k + 1, n + 1):
        num = poly_mul_one_minus(num, i)
    for i in range(1, k + 1):
        num = poly_div_one_minus(num, i)
    target = order if order is not None else step * k * (n - k)
    coeffs = [LP_ZERO] * (target + 1)
    for j, v in enumerate(num):
        if v and step * j <= target:
            coeffs[step * j] = lp_monomial(v, 0)
    return QSeries(target, coeffs)


def has_z(x) -> bool:
    """Whether some Power or Factors of x, at any depth, carries z."""
    if isinstance(x, (Power, Factors)):
        return x.z_exp != 0
    return isinstance(x, tuple) and any(map(has_z, x))


def as_tuple(spec) -> tuple:
    return (spec,) if isinstance(spec, (HyperSum, Product)) else tuple(spec)


def graded(spec) -> bool:
    """Whether z sits only in the heads and weights of spec's sums: each
    factor free of z, and some head or weight in z. Worked out apart from
    qseries._z_place."""
    specs = as_tuple(spec)
    monomials = [(s.head, s.weight) for s in specs if isinstance(s, HyperSum)]
    rest = [s._replace(head=Power(1, 0, 0, 0), weight=Power(1, 0, 0, 0)) if isinstance(s, HyperSum) else s
            for s in specs]
    return has_z(tuple(monomials)) and not has_z(tuple(rest))


def packed_evaluate(spec, N: int) -> QSeries:
    """spec on packed rows, whichever route evaluate would take."""
    return qseries._packed(qseries._runs(spec, N), N)


def times_spec(f: QSeries, product: Product) -> tuple[HyperSum, ...]:
    """f times product as a spec for evaluate: one one-term sum per term
    c z^e q^k of f, with head c z^e q^k and times product (the numerator
    factor 1 - q^0 ends each sum at its head). The sums share their
    product, so the tuple applies it once, to the sum of the heads, and
    the majorant it proves the slot width from is the row norms of f times
    the majorant of product."""
    return tuple(
        HyperSum(Power(1, 0, 0, 0), num=(Power(-1, 0, 0, 0),), head=Power(c, e, 0, k), times=product)
        for k, row in enumerate(f.coeffs) for e, c in sorted(row.terms.items())
    )


def evaluate_times(f: QSeries, product: Product) -> QSeries:
    """f times product by evaluate, to the order of f."""
    return evaluate(times_spec(f, product), f.order)


def rand_zf(rng: random.Random, n: int) -> list[int]:
    """A dense list with some zero runs and entries up to 2^100."""
    out = []
    for _ in range(n):
        bits = rng.choice((1, 3, 33, 64, 100))
        out.append(0 if rng.random() < 0.3 else rng.randrange(-(2**bits), 2**bits + 1))
    return out


ZF_SCALES = (1, -1, 2, -2, -3)


def outcome(kernel, *args):
    """The kernel's result, or the type of the exception it raised."""
    try:
        return kernel(*args)
    except (SupportOverflow, NonUnitConstantTerm) as exc:
        return type(exc)


def rand_wide_series(rng: random.Random, order: int, z_lo: int, z_hi: int) -> QSeries:
    """Sparse rows over z_lo .. z_hi, some empty, coefficients up to 2^100."""
    coeffs = []
    for _ in range(order + 1):
        bits = rng.choice((1, 3, 8, 33, 64, 65, 100))
        terms = {}
        if rng.random() < 0.8:
            for _ in range(rng.randrange(1, 7)):
                e = rng.randrange(z_lo, z_hi + 1)
                terms[e] = rng.randrange(-(2**bits), 2**bits + 1)
        coeffs.append(LaurentPoly(terms))
    return QSeries(order, coeffs)


def test_zero_one_monomial():
    z = qs_zero(5)
    assert all(c.is_zero() for c in z.coeffs)
    one = qs_one(5)
    assert one.coeff(0).terms == {0: 1}
    assert all(one.coeff(k).is_zero() for k in range(1, 6))
    m = qs_monomial(-3, 2, 4, 5)
    assert m.coeff(4).terms == {2: -3}


def test_additive_group_ops():
    rng = random.Random(11)
    f = rand_series(rng, 8)
    g = rand_series(rng, 8)
    assert series_equal(qs_sub(f, g), qs_add(f, qs_neg(g)))
    assert series_equal(qs_add(f, qs_neg(f)), qs_zero(8))


def test_mul_monomial_matches_full_mul():
    rng = random.Random(12)
    for _ in range(50):
        f = rand_series(rng, 8)
        c = rng.randrange(-4, 5) or 1
        ze = rng.randrange(-2, 3)
        qe = rng.randrange(0, 3)
        assert series_equal(
            qs_mul_monomial(f, c, ze, qe), qs_mul(f, qs_monomial(c, ze, qe, 8))
        )


def test_euler_products():
    # (q;q)_oo: pentagonal number signs
    f = pochhammer(Monomial(1, 0, 1), INFINITY, 14)
    expect = [0] * 15
    k = 1
    while True:
        done = True
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= 14:
                expect[e] = (-1) ** k
                done = False
        if done:
            break
        k += 1
    expect[0] = 1
    assert [f.coeff(n).coeff(0) for n in range(15)] == expect
    # 1/(q;q)_oo counts partitions
    inv = qs_invert(f)
    assert [inv.coeff(n).coeff(0) for n in range(15)] == PARTITIONS
    # (-q;q)_oo counts partitions into distinct parts
    g = pochhammer(Monomial(-1, 0, 1), INFINITY, 14)
    assert [g.coeff(n).coeff(0) for n in range(15)] == DISTINCT


def test_pochhammer_finite_recurrence():
    a = Monomial(1, 1, 1)
    for step in (1, 2):
        for n in range(5):
            lhs = pochhammer(a, n + 1, 12, step)
            rhs = mul_factor(
                pochhammer(a, n, 12, step), -1, a.z_exp, a.q_exp + n * step
            )
            assert series_equal(lhs, rhs)


def test_pochhammer_matches_factor_loop():
    for sign in (1, -1):
        for z_exp in (-1, 0, 1, 2):
            for q_exp in (0, 1, 2):
                a = Monomial(sign, z_exp, q_exp)
                for step in (1, 2, 3):
                    for n in (0, 1, 2, 3, 4, INFINITY):
                        for N in (0, 1, 12):
                            got = pochhammer(a, n, N, step)
                            assert got == loop_pochhammer(a, n, N, step), (a, step, n, N)
    with pytest.raises(ValueError):
        pochhammer(Monomial(1, 0, 1), 3, 5, 0)


def test_gauss_binomial_matches_polynomial_loop():
    for n in range(15):
        for k in range(-2, n + 3):
            for step in (1, 2, 3):
                for order in (None, 0, 7, 60):
                    got = gauss_binomial(n, k, step, order)
                    assert got == loop_gauss_binomial(n, k, step, order), (n, k, step, order)
    with pytest.raises(ValueError):
        gauss_binomial(-1, 0)


@pytest.mark.parametrize("step", [0, -1])
def test_gauss_binomial_rejects_nonpositive_step(step):
    with pytest.raises(ValueError):
        gauss_binomial(4, 2, step, 5)


def test_gauss_binomial_values():
    g = gauss_binomial(4, 2, 1, 8)
    assert [g.coeff(k).coeff(0) for k in range(5)] == [1, 1, 2, 1, 1]
    # symmetry and degree
    for n in range(7):
        for k in range(n + 1):
            a = gauss_binomial(n, k, 1, 30)
            b = gauss_binomial(n, n - k, 1, 30)
            assert series_equal(a, b)
            deg = k * (n - k)
            assert a.coeff(deg).coeff(0) == 1
            assert all(a.coeff(e).is_zero() for e in range(deg + 1, 31))
    assert all(gauss_binomial(4, 7, 1, 6).coeff(k).is_zero() for k in range(7))


def test_gauss_binomial_pascal():
    # q-Pascal rule: [n k] = q^k [n-1 k] + [n-1 k-1]
    for n in range(2, 8):
        for k in range(1, n):
            lhs = gauss_binomial(n, k, 1, 30)
            rhs = qs_add(
                qs_mul_monomial(gauss_binomial(n - 1, k, 1, 30), 1, 0, k),
                gauss_binomial(n - 1, k - 1, 1, 30),
            )
            assert series_equal(lhs, rhs)


def test_mul_div_factor_roundtrip():
    rng = random.Random(13)
    for _ in range(200):
        f = rand_series(rng, 8)
        c = rng.choice((1, -1, 2, -3))
        ze = rng.randrange(-2, 3)
        qe = rng.randrange(1, 4)
        g = div_factor(mul_factor(f, c, ze, qe), c, ze, qe)
        assert series_equal(f, g)
        h = mul_factor(div_factor(f, c, ze, qe), c, ze, qe)
        assert series_equal(f, h)


def test_div_factor_rejects_constant_factor():
    with pytest.raises(NonUnitConstantTerm):
        div_factor(qs_one(5), 1, 1, 0)


def test_factor_kernels_reject_negative_q_exponent():
    f = qs_monomial(3, -2, 1, 6)
    for kernel in (mul_factor, div_factor):
        with pytest.raises(NonTerminating):
            kernel(f, 1, 0, -1)


def test_mul_monomial_rejects_negative_q_exponent():
    with pytest.raises(ValueError):
        qs_mul_monomial(qs_one(4), 1, 0, -1)


def test_evaluate_rejects_constant_denominator_on_both_routes():
    # 1 - z q^0 in a term ratio, and as a product family, alone and as the
    # times of a sum: with z kept evaluate runs packed rows, at z = +-1 the
    # dense kernels
    in_ratio = HyperSum(Power(1, 0, 0, 1), den=(Power(-1, 1, 0, 0),))
    in_product = Product(den=(Factors(-1, 1, 0, 1, 1),))
    in_times = times_spec(qs_monomial(3, -2, 1, 6), in_product)
    for spec in (in_ratio, in_product, in_times):
        for z in (None, 1, -1):
            with pytest.raises(NonUnitConstantTerm):
                evaluate(at(spec, z), 6)


def test_evaluate_rejects_negative_q_exponent_on_both_routes():
    # the weight q^{-1} would move q^3 down to q^2 and q^1; z kept in the
    # head runs packed rows, the rest the dense kernels
    for head in (Power(1, 0, 0, 3), Power(1, 1, 0, 3)):
        spec = HyperSum(Power(1, 0, 0, -1), head=head)
        for z in (None, 1, -1):
            with pytest.raises(NonTerminating):
                evaluate(at(spec, z), 6)
    # a numerator factor 1 + q^{-1}, and a product family that starts at q^{-1}
    in_ratio = HyperSum(Power(1, 1, 0, 1), num=(Power(1, 0, 0, -1),))
    in_product = Product((Factors(1, 1, -1, 1, 2),))
    in_times = times_spec(qs_monomial(3, -2, 1, 6), in_product)
    for spec in (in_ratio, in_product, in_times):
        for z in (None, 1, -1):
            with pytest.raises(NonTerminating):
                evaluate(at(spec, z), 6)
    with pytest.raises(ValueError):
        zf_shift(zf_one(6), -1)


def test_a_family_step_below_one_raises_at_the_entry(monkeypatch):
    # a family whose q-exponents do not increase never passes the order:
    # evaluate and zf_product name it before any factor runs, on every
    # route, as a product, head_factors, times and in a tuple
    def refuse(*args):
        raise AssertionError("a factor step ran")

    monkeypatch.setattr(qseries, "_factor", refuse)
    monkeypatch.setattr(qseries, "_sparse_step", refuse)
    dense = HyperSum(Power(1, 0, 1, 0), den=(Power(-1, 0, 1, 0),))
    graded = dense._replace(weight=Power(1, 1, 1, 0))
    packed = dense._replace(num=(Power(-1, 1, 1, 0),))
    for bad in (Factors(-1, 0, 1, 0), Factors(-1, 0, 1, -1), Factors(-1, 0, 1, 0, 3), Factors(1, 0, 5, -1, 3)):
        for product in (Product((bad,)), Product(den=(bad,)), Product((Factors(-1, 0, 1),), (Factors(1, 0, 2), bad))):
            specs = [(product,), (dense, product), (product, packed)]
            specs += [(s._replace(head_factors=product),) for s in (dense, graded, packed)]
            specs += [(s._replace(times=product),) for s in (dense, graded, packed)]
            assert set(map(_z_place, specs)) == {_NO_Z, _MONOMIAL_Z, _FACTOR_Z}
            for spec in specs + [product]:
                with pytest.raises(NonTerminating, match="step"):
                    evaluate(spec, 5)
            with pytest.raises(NonTerminating, match="step"):
                zf_product(zf_one(5), product)


# The sums bounded in z (HAND_BOUNDS), which do not terminate at z = +-1.
WINDOWED = (_FALSE_T1A_SUM, _FALSE_T2_SUM)


@pytest.fixture(scope="module")
def record_specs() -> list:
    """Every spec in specfun, suite and bailey: the module-level specs,
    those built inside functions, and those the registry specialises at
    z = +-1 (before and after), recorded while the registry is built and
    every side runs at order 7."""
    import qhecke.bailey as bailey
    import qhecke.specfun as specfun
    import qhecke.suite as suite

    modules = (specfun, suite, bailey)
    specs = {id(v): v for m in modules for v in vars(m).values() if isinstance(v, (HyperSum, Product))}

    def record_evaluate(spec, N):
        specs[id(spec)] = spec
        return evaluate(spec, N)

    def record_at_z(spec, z):
        specs[id(spec)] = spec
        return at_z(spec, z)

    with pytest.MonkeyPatch.context() as mp:
        for m in modules:
            mp.setattr(m, "evaluate", record_evaluate)
        mp.setattr(suite, "at_z", record_at_z)
        for record in suite._build_registry().values():
            record.lhs_builder(7)
            record.rhs_builder(7)
    return list(specs.values())


@pytest.mark.parametrize("N", [0, 1, 7, 40, 100])
def test_packed_evaluate_matches_dict_route_on_every_spec(record_specs, N):
    specs = [s for s in record_specs if has_z(s)]
    assert len(specs) > 150
    for spec in specs:
        want = dict_evaluate(spec, N)
        assert packed_evaluate(spec, N) == want, spec
        assert evaluate(spec, N) == want, spec


@pytest.mark.parametrize("N", [0, 1, 7, 40])
def test_dense_evaluate_matches_dict_route_on_every_spec(record_specs, N):
    # every spec at z = +-1 (at_z) against the oracle that folds z step by
    # step, and the z-free specs as they are: the dense route, where the
    # Euler, Jacobi and Gauss series stand for product families. The two
    # windowed false theta sums are bounded in z, so their terms up to z^N
    # are not their value at z = +-1, and evaluate refuses them there.
    specs = record_specs
    z_free = [s for s in specs if not has_z(s)]
    assert len(specs) > 170 and len(z_free) > 20
    refused = 0
    for spec in specs:
        for z in (1, -1):
            if spec in WINDOWED:
                refused += 1
                with pytest.raises(NonTerminating):
                    evaluate(at_z(spec, z), N)
            else:
                assert evaluate(at_z(spec, z), N) == dict_evaluate(spec, N, z), (spec, z)
    assert refused == 4
    for spec in z_free:
        assert evaluate(spec, N) == dict_evaluate(spec, N), spec


def test_at_z_leaves_no_z_and_keeps_z_free_specs(record_specs):
    specs = record_specs
    z_free = [s for s in specs if not has_z(s)]
    assert len(z_free) > 20 and len(specs) - len(z_free) > 150
    for spec in specs:
        for z in (1, -1):
            special = at_z(spec, z)
            assert type(special) is type(spec) and not has_z(special), (spec, z)
    for spec in z_free:
        for z in (1, -1):
            assert at_z(spec, z) == spec
    # each c z^e becomes its value at z, in every Power and Factors at every depth
    spec = HyperSum(
        Power(3, 2, 1, 0), num=(Power(-1, -1, 1, 0),), den=(Power(2, 3, 1, 1),), head=Power(-1, 1, 0, 2),
        head_factors=Product((Factors(-1, 1, 0, 1, 1),), (Factors(1, -3, 1),)), times=Product((Factors(5, 2, 1),)),
    )
    assert at_z(spec, 1) == HyperSum(
        Power(3, 0, 1, 0), num=(Power(-1, 0, 1, 0),), den=(Power(2, 0, 1, 1),), head=Power(-1, 0, 0, 2),
        head_factors=Product((Factors(-1, 0, 0, 1, 1),), (Factors(1, 0, 1),)), times=Product((Factors(5, 0, 1),)),
    )
    assert at_z((spec, spec.times), -1) == (HyperSum(
        Power(3, 0, 1, 0), num=(Power(1, 0, 1, 0),), den=(Power(-2, 0, 1, 1),), head=Power(1, 0, 0, 2),
        head_factors=Product((Factors(1, 0, 0, 1, 1),), (Factors(-1, 0, 1),)), times=Product((Factors(5, 0, 1),)),
    ), Product((Factors(5, 0, 1),)))
    for z in (0, 2, -2, None):
        with pytest.raises(ValueError):
            at_z(spec, z)


# Term bounds argued by hand, each from the valuation of term n: the
# witnesses for the derived bounds. The windowed false theta sums are
# bounded in z, the rest in q.


def finite_witness(count: int, valuation):
    """The last n <= count with valuation(n) <= N (0 when there is none)."""

    def last(N: int) -> int:
        n = 0
        while n < count and valuation(n + 1) <= N:
            n += 1
        return n

    return last


HAND_BOUNDS = {
    "specfun.R_SUM": isqrt,
    "specfun.H_SUM": tri_index,
    "specfun.K_SUM": isqrt,
    "specfun.N2_SUM": isqrt,
    "specfun.F_MOCK3_SUM": isqrt,
    "specfun.MU_MOCK2_SUM": isqrt,
    "specfun.S_SUM": lambda N: N - 1,
    "specfun.SBAR_SUM": lambda N: N - 1,
    "specfun.S2_SUM": lambda N: N // 2 - 1,
    "specfun.PARTIAL_THETA_SUM": tri_index,
    "specfun._FALSE_T1A_SUM": lambda N: N,
    "specfun._FALSE_T2_SUM": lambda N: N,
    "specfun._LERCH_SUM": lambda N: N,
    "specfun._ALT_PAIR_SUM": lambda N: N,
    "specfun._ODD_EVEN_RATIO_SUM": lambda N: N,
    "suite._RANK_PRODUCT": isqrt,
    "suite._OVER_RANK_CROSS": tri_index,
    "suite._OVER_RANK_PRODUCT": tri_index,
    "suite._M2_RANK_PRODUCT": isqrt,
    "suite._SPT_PRODUCT": lambda N: N - 1,
    "suite._OVER_SPT_PRODUCT": lambda N: N - 1,
    "suite._S2_NEG_Q_SUM": lambda N: N // 2 - 1,
    "suite._M2_SPT_PRODUCT": lambda N: N // 2 - 1,
    "suite._F_PRODUCT": isqrt,
    "suite._MU_PRODUCT": isqrt,
    "suite._HALF_POCHHAMMER_RATIO_SUM": lambda N: tri_index(N) - 1,
    "suite._THETA_TRI2": lambda N: tri_index(N // 2),
    "suite._DESCENDING_SUM": tri_index,
    "suite._ODD_EVEN_MOCK_SUM": lambda N: N // 2,
    "suite._QUARTER_THETA_MOCK_SUM": lambda N: N // 2,
    "suite._MIXED_BASE_MOCK_SUM": lambda N: N - 1,
    "suite._MIXED_BASE_MOCK_CORRECTED_SUM": lambda N: N,
    "suite._EVEN_BASE_RATIO": lambda N: N,
    "suite._ODD_BASE_RATIO": lambda N: N,
}


def witnessed_sums(N: int) -> list:
    """(name, sum, hand bound) for the module-level sums, and for the finite
    sums the registry builds at order N."""
    import qhecke.bailey as bailey
    import qhecke.specfun as specfun
    import qhecke.suite as suite

    modules = {"specfun": specfun, "suite": suite}
    out = [(name, getattr(modules[name.split(".")[0]], name.split(".")[1]), last)
           for name, last in HAND_BOUNDS.items()]
    for n in range(11):
        for s, a, A, B, C, z, z0 in ((1, 1, 2 * n, n, n + 1, 1, 0), (1, 1, 2 * n, n, n + 1, -1, 1),
                                     (1, 0, 2 * n, n, n, 1, 0), (2, 1, 2 * n, n, n, 1, 0)):
            up_down = (finite_witness(C, lambda j, s=s, a=a: s * j * (j - 1) // 2 + a * j),
                       finite_witness(B - 1, lambda m, s=s, a=a: s * (m + 1) * (m + 2) // 2 - a * (m + 1)))
            for half, spec, last in zip(("up", "down"), suite._binomial_sum(s, a, A, B, C, z, z0), up_down):
                out.append((f"_binomial_sum.{half}", spec, last))
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bailey, "evaluate", lambda spec, N: built.append(spec))
        for n in range(13):
            bailey.a1_lhs(n, N)
            bailey.a1_rhs(n, N)
            a1_lhs, a1_rhs = built[-2:]
            out.append(("a1_lhs", a1_lhs, finite_witness(n, lambda j: j * j + j)))
            out.append(("a1_rhs", a1_rhs, finite_witness(n, lambda j: j * (j + 1) // 2)))
        for n in range(9):
            bailey.slater_lhs(n, N)
            u, a_u = built[-1]
            out.append(("slater_lhs.u", u, finite_witness(n, lambda r: r * r - r)))
            out.append(("slater_lhs.a_u", a_u, finite_witness(n, lambda r: r * r - r)))
        for k in range(11):
            bailey.niceid_lhs(k, N)
            for j, inner in enumerate(built[-1]):
                valuation = lambda n, j=j, k=k: j * j + j * k + n * (n + 1) // 2 + n * k  # noqa: E731
                out.append(("niceid_lhs", inner, finite_witness(j, valuation)))
    return out


def test_derived_bounds_match_the_hand_witnesses(monkeypatch):
    # term 0 is always formed, so a hand bound of -1 meant 0; a derived
    # bound below the hand one must give the same series
    smaller = set()
    for N in range(101):
        for name, spec, witness in witnessed_sums(N):
            derived, hand = qseries._last(spec, N), max(witness(N), 0)
            if derived == hand:
                continue
            assert derived < hand, (name, N)
            smaller.add(name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qseries, "_last", lambda spec, N: hand)
                by_hand = evaluate(spec, N)
            assert evaluate(spec, N) == by_hand, (name, N)
    # a_u kept u's bound, from valuation r^2 - r, but its own is r^2 + r
    assert smaller == {"slater_lhs.a_u"}


@pytest.mark.parametrize("N", [0, 1, 7, 40])
def test_sums_run_past_the_bound_give_the_same_series(record_specs, N):
    # three more terms, but never past the end of a finite sum; the sums
    # bounded in z are compared in the z-window their callers keep
    specs = record_specs
    sums = [s for spec in specs for s in ((spec,) if isinstance(spec, HyperSum) else spec)
            if isinstance(s, HyperSum)]
    assert len(sums) > 150
    for spec in sums:
        got = evaluate(spec, N)
        past = dict_evaluate(spec, N, last=lambda spec, N: qseries._last(spec, N) + 3)
        if not (spec.weight.s or spec.weight.t):
            got, past = qs_truncate_z(got, 0, N), qs_truncate_z(past, 0, N)
        assert got == past, spec


def test_sums_run_nested_on_shortening_series(monkeypatch):
    # one sum adds no term to an accumulator: from its last term down, the
    # factor steps of term n run on N - v(n) + 1 rows, v(n) the valuation
    # bound, so the innermost series has one row when v(last) = N
    import qhecke.specfun as specfun

    def refuse(*args):
        raise AssertionError("a term was added to an accumulator")

    def record_factor(f, c, z_exp, exps, divide):
        lengths.extend(repeat(len(f.rows if isinstance(f, qseries._Rows) else f), len(exps)))
        return factor(f, c, z_exp, exps, divide)

    factor = qseries._factor
    monkeypatch.setattr(qseries, "_add_into", refuse)
    monkeypatch.setattr(qseries, "_factor", record_factor)
    finite = HyperSum(Power(-1, 1, 1, 1), num=(Power(-1, 0, -1, 4), Power(2, -1, 0, 0)),
                      den=(Power(1, 1, 1, 1),), head=Power(3, -2, 0, 1))
    specs = [specfun.R_SUM, specfun.H_SUM, specfun.S_SUM, specfun._FALSE_T1A_SUM, finite]
    innermost = set()
    for spec in specs:
        spec = spec._replace(head_factors=Product(), times=Product())
        w = spec.weight
        for N in (0, 1, 2, 3, 4, 9, 16, 30):
            last = qseries._last(spec, N)
            v = [spec.head.t + sum(w.s * k + w.t for k in range(1, n + 1)) for n in range(last + 1)]
            want = [N - v[n] + 1 for n in range(last, 0, -1) for _ in spec.num + spec.den]
            innermost.update(want[:1])
            # z kept runs the dense majorant, then the packed rows; the sum
            # bounded in z does not terminate at z = +-1
            for z, runs in ((None, 2), (1, 1), (-1, 1)):
                lengths = []
                if z is not None and not (w.s or w.t):
                    with pytest.raises(NonTerminating):
                        evaluate(at_z(spec, z), N)
                    continue
                assert evaluate(at(spec, z), N) == dict_evaluate(spec, N, z), (spec, N)
                assert lengths == want * runs, (spec, N, z)
    assert 1 in innermost


def test_sums_that_grow_in_neither_q_nor_z_raise_before_any_term(monkeypatch):
    def refuse(*args):
        raise AssertionError("a term was formed")

    monkeypatch.setattr(qseries, "_times", refuse)
    monkeypatch.setattr(qseries, "_factor", refuse)
    # the weight 1, the weight z^{-1}, and the weight z against a factor in z^{-1}
    for spec in (HyperSum(Power(1, 0, 0, 0)), HyperSum(Power(1, -1, 0, 0)),
                 HyperSum(Power(1, 1, 0, 0), num=(Power(1, -1, 1, 0),))):
        for z in (None, 1, -1):
            with pytest.raises(NonTerminating):
                evaluate(at(spec, z), 6)


COEFFS = (1, -1, 2, -2, -3)


def rand_power(rng: random.Random, q_min: int) -> Power:
    """A Power whose q-exponent s*n + t is at least q_min for n >= 1."""
    s = rng.randrange(0, 3)
    return Power(rng.choice(COEFFS), rng.randrange(-3, 4), s, rng.randrange(q_min - s, 3))


def rand_family(rng: random.Random, q_min: int) -> Factors:
    count = rng.choice((0, 1, 2, 3, INFINITY))
    first = rng.randrange(q_min, 4)
    return Factors(rng.choice(COEFFS), rng.randrange(-3, 4), first, rng.randrange(1, 3), count)


def rand_product(rng: random.Random) -> Product:
    return Product(
        tuple(rand_family(rng, 0) for _ in range(rng.randrange(3))),
        tuple(rand_family(rng, 1) for _ in range(rng.randrange(3))),
    )


def rand_spec(rng: random.Random) -> HyperSum:
    """z in the weight, head, numerator and denominator, negative
    z-exponents, and numerator factors with q-exponent 0. The numerator
    factor 1 - q^{count + 1 - n} ends the sum at n = count, so a weight
    with no q or z is finite too."""
    count = rng.randrange(0, 6)
    return HyperSum(
        rand_power(rng, 0),
        num=tuple(rand_power(rng, 0) for _ in range(rng.randrange(3))) + (Power(-1, 0, -1, count + 1),),
        den=tuple(rand_power(rng, 1) for _ in range(rng.randrange(3))),
        head=Power(rng.choice(COEFFS), rng.randrange(-3, 4), 0, rng.randrange(3)),
        head_factors=rand_product(rng),
        times=rand_product(rng),
    )


def rand_graded_spec(rng: random.Random) -> HyperSum:
    """rand_spec with z left only in its head and weight, each given a
    nonzero z-exponent, and, in one of three, no products."""
    spec = rand_spec(rng)
    head, weight = (p._replace(z_exp=p.z_exp or rng.choice((-2, -1, 1, 2))) for p in (spec.head, spec.weight))
    spec = at_z(spec, 1)._replace(head=head, weight=weight)
    return spec._replace(head_factors=Product(), times=Product()) if rng.randrange(3) == 0 else spec


def test_packed_evaluate_matches_dict_route_on_random_specs():
    # and at N = v(last) at order 12, where the innermost nested series
    # has one row
    rng = random.Random(20261018)
    packed = one_row = 0
    for _ in range(400):
        spec = rand_spec(rng)
        packed += has_z(spec)
        w = spec.weight
        last = qseries._last(spec, 12)
        edge = spec.head.t + sum(w.s * n + w.t for n in range(1, last + 1))
        one_row += last > 0 and edge > 2
        for N in sorted({0, 1, 2, 5, 12, edge}):
            want = dict_evaluate(spec, N)
            assert evaluate(spec, N) == want, (spec, N)
            if graded(spec):
                assert packed_evaluate(spec, N) == want, (spec, N)
    assert packed > 350 and one_row > 200


def rand_shared_spec(rng: random.Random) -> HyperSum:
    """rand_spec with 1 to 3 families, finite and infinite, from q^1 up,
    added to a denominator of one of head_factors and times and to a
    numerator of the other, each at a random place."""
    spec = rand_spec(rng)
    sides = [list(side) for side in (*spec.head_factors, *spec.times)]
    for _ in range(rng.randrange(1, 4)):
        fam = rand_family(rng, 1)
        if rng.randrange(2):
            fam = fam._replace(count=rng.choice((1, 2, 3, INFINITY)))
        den, num = rng.choice(((1, 2), (3, 0)))
        for i in (den, num):
            sides[i].insert(rng.randrange(len(sides[i]) + 1), fam)
    h_num, h_den, t_num, t_den = map(tuple, sides)
    return spec._replace(head_factors=Product(h_num, h_den), times=Product(t_num, t_den))


def test_shared_product_families_cancel_and_match_dict_route():
    # a family that head_factors divides by and times multiplies by (or the
    # other way round) is taken out of both; the dict route, which runs every
    # factor, is the oracle, on all three routes and on packed rows
    rng = random.Random(20261024)
    seen = Counter()
    for _ in range(150):
        spec = rand_shared_spec(rng)
        run = qseries._cancelled(spec)
        assert run == cancel_shared(spec) != spec
        gone = Counter(spec.times.num + spec.times.den) - Counter(run.times.num + run.times.den)
        seen.update("infinite" if f.count == INFINITY else "finite" for f in gone.elements())
        seen.update("in z" for f in gone.elements() if f.z_exp)
        for N in (0, 1, 5, 12):
            for z in (None, 1, -1):
                want = dict_evaluate(spec, N, z)
                assert evaluate(at(spec, z), N) == want, (spec, N, z)
                if z is None:
                    assert packed_evaluate(spec, N) == want, (spec, N)
    assert min(seen.values()) > 50 and len(seen) == 3, seen
    # the spt sides divide out and multiply back (zq;q)_oo (z^{-1}q;q)_oo
    import qhecke.suite as suite

    for spec in (suite._SPT_PRODUCT, suite._OVER_SPT_PRODUCT):
        run = qseries._cancelled(spec)
        assert run.head_factors.den == () and len(run.times.num) == len(spec.times.num) - 2
        for N in (0, 7, 30):
            assert evaluate(spec, N) == dict_evaluate(spec, N), (spec, N)


def test_shared_q0_denominator_still_raises():
    # a family at q^0 is never cancelled, so dividing by it raises whether
    # or not the other product multiplies by it
    plain = HyperSum(Power(1, 1, 1, 0), num=(Power(-1, -1, 1, 0),))
    for fam in (Factors(-1, 0, 0, 1, 1), Factors(-1, 1, 0, 1, 1), Factors(2, 0, 0, 1, INFINITY)):
        for spec in (
            plain._replace(head_factors=Product(den=(fam,)), times=Product((fam,))),
            plain._replace(head_factors=Product((fam,)), times=Product(den=(fam,))),
        ):
            assert qseries._cancelled(spec) == spec
            for N in (0, 4, 12):
                for z in (None, 1, -1):
                    with pytest.raises(NonUnitConstantTerm):
                        evaluate(at(spec, z), N)
                with pytest.raises(NonUnitConstantTerm):
                    packed_evaluate(spec, N)


def test_cancelled_family_still_bounds_rule_c():
    # rule (c) reads the z-exponents of the spec as given: a weight z^1 with
    # no q bounds the sum by z^N, until a factor with a negative z-exponent
    # enters, even one that head_factors and times cancel
    plain = HyperSum(Power(1, 1, 0, 0))
    fam = Factors(-1, -1, 1)
    spec = plain._replace(head_factors=Product(den=(fam,)), times=Product((fam,)))
    assert qseries._cancelled(spec) == plain
    for N in (0, 3, 10):
        assert evaluate(plain, N) == dict_evaluate(plain, N)
        for route in (evaluate, packed_evaluate):
            with pytest.raises(NonTerminating):
                route(spec, N)


def test_evaluate_of_no_specs_is_the_zero_series():
    # on the dense route, which evaluate takes for (), and on packed rows
    for N in (0, 1, 5):
        assert evaluate((), N) == qs_zero(N)
        assert qseries._unpacked(qseries._sum([], _Rows(8, [(0, 1)] + [None] * N), N)) == qs_zero(N)


def rand_tuple(rng: random.Random) -> tuple:
    """1 to 5 specs, sums (rand_spec) and products, each of whose products
    is the one before it (shared), that one with a family left out or
    added (partly shared), or a new one (unshared). Some gain a numerator
    factor 1 + c z^a q^0 of their own, and some heads lie far above the
    orders the tests run."""
    before = rand_product(rng)
    times = rand_product(rng)
    specs = []
    for _ in range(rng.randrange(1, 6)):
        share = rng.randrange(3)
        if share == 0:
            product = before
        elif share == 1:
            num, den = list(before.num), list(before.den)
            side, q_min = rng.choice(((num, 0), (den, 1)))
            if side and rng.randrange(2):
                del side[rng.randrange(len(side))]
            else:
                side.insert(rng.randrange(len(side) + 1), rand_family(rng, q_min))
            product = Product(tuple(num), tuple(den))
        else:
            product = rand_product(rng)
        before = product
        if rng.randrange(4) == 0:
            at_q0 = Factors(rng.choice(COEFFS), rng.randrange(-2, 3), 0, 1, 1)
            product = product._replace(num=product.num + (at_q0,))
        if rng.randrange(4) == 0:
            specs.append(product)
            continue
        spec = rand_spec(rng)
        if rng.randrange(5) == 0:
            spec = spec._replace(head=spec.head._replace(t=rng.choice((6, 13, 31, 45))))
        specs.append(spec._replace(head_factors=product, times=times if rng.randrange(2) else spec.times))
    return tuple(specs)


def q0_factors(spec) -> Counter:
    """The factors at q^0 of the products of spec, as (divide, c, z_exp)
    for the factor at q^0 of a finite family, and (divide, c, z_exp, step)
    for an infinite family that starts there."""
    products = (spec,) if isinstance(spec, Product) else (spec.head_factors, spec.times)
    return Counter(
        (divide, c, z_exp) + ((step,) if count == INFINITY else ())
        for p in products
        for divide, families in ((False, p.num), (True, p.den))
        for c, z_exp, first, step, count in families
        if first == 0 and count > 0
    )


def divides_at_q0(specs) -> bool:
    """Whether some D_i = P_i / P_{i-1} of the tuple divides by a factor
    at q^0: a denominator one that spec i has and spec i - 1 lacks, or a
    numerator one that spec i - 1 has and spec i lacks."""
    factors = [q0_factors(s) for s in specs]
    return any(
        any(divide for divide, *_ in up - down) or any(not divide for divide, *_ in down - up)
        for down, up in zip(factors, factors[1:])
    )


def test_tuples_match_dict_route_on_random_specs(monkeypatch):
    # the quotients D_i between neighbours: nested, or raising where D_i
    # would divide by a numerator factor at q^0 of spec i - 1; a tuple
    # raises exactly when one of its quotients does
    quotients = Counter()

    def record_quotient(upper, lower):
        at_q0 = any(
            not divide and first == 0
            for divide, _, _, first, _, _ in expanded_counts(lower) - expanded_counts(upper)
        )
        quotients["at q^0" if at_q0 else "nested"] += 1
        try:
            delta = quotient(upper, lower)
        except NonUnitConstantTerm:
            assert at_q0
            raise
        assert not at_q0
        return delta

    quotient = qseries._quotient
    monkeypatch.setattr(qseries, "_quotient", record_quotient)
    rng = random.Random(20261019)
    lengths, above = set(), 0
    for _ in range(70):
        specs = rand_tuple(rng)
        lengths.add(len(specs))
        for N in (0, 1, 2, 5, 12, 30):
            above += any(isinstance(s, HyperSum) and s.head.t > N for s in specs)
            for z in (None, 1, -1):
                if divides_at_q0(at(specs, z)):
                    with pytest.raises(NonUnitConstantTerm):
                        evaluate(at(specs, z), N)
                else:
                    assert evaluate(at(specs, z), N) == dict_evaluate(specs, N, z), (specs, N, z)
    assert lengths == {1, 2, 3, 4, 5}
    assert min(quotients.values()) > 300 and len(quotients) == 2 and above > 100, (quotients, above)


def test_tuple_rejects_a_quotient_that_divides_at_q0():
    # one rule, whatever the heads: a D_i that divides by a factor at q^0
    # raises, whether spec i has it in a denominator or spec i - 1 in a
    # numerator; the old SRids order divides by (1 - z)(1 - z^{-1})
    import qhecke.suite as suite

    q0 = (Factors(1, 0, 0, 1, 1), Factors(1, 1, 0, 1, 1), Factors(-1, 1, 0, 1, INFINITY))
    for N in (0, 3, 10, 40):
        cases = [(suite._SPT_PRODUCT, suite._Q_INF_SQ)]
        for head in (1, N + 5):
            plain = HyperSum(Power(1, 0, 0, 1), head=Power(1, 0, 0, head))
            for factor in q0:
                cases.append((plain, plain._replace(head_factors=Product(den=(factor,)))))
                cases.append((plain._replace(head_factors=Product((factor,))), plain))
                cases.append((Product((factor,)), plain))
        for specs in cases:
            for z in (None, 1, -1):
                assert divides_at_q0(at(specs, z))
                with pytest.raises(NonUnitConstantTerm):
                    evaluate(at(specs, z), N)


def nested_product_steps(specs, N: int) -> int:
    """|P_1| + sum |D_i| for a tuple of sums whose products are finite,
    z kept: the factors of P_1 below q^{N+1}, and those of each
    D_i = P_i / P_{i-1} below q^{N - o_i + 1}, o_i the smallest head
    q-exponent of specs i..k. Checks first that no D_i divides by a factor
    at q^0, so that no group closes."""

    def factors(spec):
        return Counter(
            (divide, c, z_exp, e)
            for p in (spec.head_factors, spec.times)
            for divide, families in ((False, p.num), (True, p.den))
            for c, z_exp, first, step, count in families
            for e in range(first, min(N + 1, first + step * count), step)
        )

    assert all(f.count < INFINITY for s in specs for p in (s.head_factors, s.times) for f in p.num + p.den)
    products = [factors(s) for s in specs]
    steps = products[0].total()
    for i in range(1, len(specs)):
        up, down = products[i] - products[i - 1], products[i - 1] - products[i]
        den = [e for divide, _, _, e in up.elements() if divide]
        den += [e for divide, _, _, e in down.elements() if not divide]
        assert min(den, default=1) >= 1
        o = min(s.head.t for s in specs[i:])
        steps += sum(n for (_, _, _, e), n in (up + down).items() if e <= N - o)
    return steps


def test_tuple_products_run_nested_over_shared_factors(monkeypatch):
    # every factor step of a product pass, on the dense route for the
    # z-free niceid sums and on packed rows for the others (their dense
    # majorant runs the majorant specs' own quotients); fJTP2's z sits only
    # in its heads and weights, so evaluate runs it one z-grade at a time,
    # and its packed case runs through the packed helper
    import qhecke.bailey as bailey
    import qhecke.suite as suite

    def in_product(*args):
        depth.append(None)
        try:
            return apply_product(*args)
        finally:
            depth.pop()

    def record_factor(f, c, z_exp, exps, divide):
        if depth:
            steps.extend(repeat(isinstance(f, qseries._Rows), len(exps)))
        return factor(f, c, z_exp, exps, divide)

    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bailey, "evaluate", lambda spec, N: built.append(spec))
        bailey.niceid_lhs(0, 200)
        bailey.slater_lhs(8, 40)
    niceid, slater = built
    record = suite._build_registry()["fJTP2-n10"]
    fjtp2 = record.rhs_builder.args[0]
    depth, apply_product, factor = [], qseries._apply_product, qseries._factor
    monkeypatch.setattr(qseries, "_apply_product", in_product)
    monkeypatch.setattr(qseries, "_factor", record_factor)
    for run, specs, N, packed in (
        (lambda: bailey.niceid_lhs(0, 200), niceid, 200, False),
        (lambda: packed_evaluate(fjtp2, record.default_order), fjtp2, record.default_order, True),
        (lambda: bailey.slater_lhs(8, 40), slater, 40, True),
    ):
        steps = []
        run()
        assert steps.count(packed) == nested_product_steps(specs, N), specs
    # niceid's P_j = 1 / ((q)_j (q)_j), j = 0..14, ran 210 factor steps one
    # spec at a time; nested, D_j is the two factors 1 - q^j, and those of
    # D_14 lie above q^4, the order left under the head q^196
    assert nested_product_steps(niceid, 200) == 2 * 13


# The driver of evaluate against its eager oracles (tests/eager_steps.py):
# the Horner loop with its monomials applied at every level, and the
# quotient of two specs' products counted factor by factor.


def rand_carried_spec(rng: random.Random, z: bool) -> HyperSum:
    """A sum with no products: a weight +-1, in z^a when z, or, one in
    four, another coefficient; a head -2, +-1 or 3, in z^k when z, at
    q^0 .. q^3; numerator and denominator factors as rand_spec gives them,
    free of z unless z."""
    zw = rng.choice((-2, -1, 1, 2, 0)) if z else 0
    c = rng.choice((1, -1)) if rng.randrange(4) else rng.choice((2, -2, -3))
    weight = Power(c, zw, rng.randrange(0, 3), rng.randrange(0, 2))
    head = Power(rng.choice((-2, -2, 1, -1, 3)), rng.randrange(-2, 3) if z else 0, 0, rng.randrange(0, 4))
    num = tuple(rand_power(rng, 0) for _ in range(rng.randrange(3)))
    den = tuple(rand_power(rng, 1) for _ in range(rng.randrange(3)))
    spec = HyperSum(weight, num=num + (Power(-1, 0, -1, rng.randrange(1, 7)),), den=den, head=head)
    return spec if z else spec._replace(num=tuple(p._replace(z_exp=0) for p in spec.num),
                                        den=tuple(p._replace(z_exp=0) for p in spec.den))


def test_carried_terms_match_applied_terms_on_random_specs():
    # qseries._terms carries h w^n instead of applying w at every level
    # and h at the end: the same series m U / q^offset on both
    # representations, for every last up to the bound, with the innermost
    # series on no row (head above the order) or on one
    rng = random.Random(20261030)
    seen = Counter()
    for _ in range(600):
        z = rng.random() < 0.6
        spec = rand_carried_spec(rng, z)
        h, w = spec.head, spec.weight
        for N in (0, 1, 2, 3, 5, 9):
            bound = qseries._last(spec, N)
            last = min(rng.choice((0, 1, bound)), bound)
            offset = rng.choice((0, min(h.t, N + 1)))
            v = [h.t + sum(w.s * k + w.t for k in range(1, n + 1)) for n in range(last + 1)]
            n = last
            while n and v[n] > N:
                n -= 1
            size = max(N - v[n] + 1, 0)
            width = _machine_bytes(_slot_bytes(max(qseries._sum([(qseries._majorant(spec), last)], zf_one(N), N))))
            ones = [_Rows(8 * width, [(0, 1)] + [None] * N)] + ([] if z else [zf_one(N)])
            for one in ones:
                got = qseries._terms(spec, last, one, N, offset)
                want = applied_terms(spec, last, one, N, offset)
                if isinstance(one, _Rows):
                    assert qseries._unpacked(got) == qseries._unpacked(want), (spec, last, N, offset)
                    assert one.rows == [(0, 1)] + [None] * N
                    seen["rows"] += 1
                else:
                    assert got == want, (spec, last, N, offset)
                    assert one == zf_one(N)
                    seen["dense"] += 1
                seen["size 0" if size == 0 else "size 1" if size == 1 else "size >1"] += 1
                seen[f"last {min(n, 2)}"] += 1
                seen["weight in z" if w.z_exp else f"weight {w.c:+d}" if abs(w.c) == 1 else "weight other"] += 1
                seen["head -2"] += h.c == -2
                seen["head in z"] += h.z_exp != 0
    assert min(seen.values()) > 50 and len(seen) == 14, seen


def rand_quotient_products(rng: random.Random) -> tuple[Product, Product, bool]:
    """Two products, in random order, that share some families, overlap in
    others (one moved by a step, or with another count) and differ in the
    rest: every finite family of one step, or, one in three, of mixed
    steps (the third value). Numerators start at q^0 .. q^6, denominators
    at q^1 .. q^6 or, one in six, from q^-1, and a moved family one step
    lower still; some families have count 1, some are infinite."""
    mixed = rng.randrange(3) == 0
    step = rng.choice((1, 2, 3))

    def family(q_min: int) -> Factors:
        return Factors(rng.choice((1, -1)), rng.choice((0, 0, 1)), rng.randrange(q_min, 7),
                       rng.choice((1, 2, 3)) if mixed else step, rng.choice((1, 1, 2, 3, 5, 8, INFINITY)))

    def changed(fam: Factors) -> list[Factors]:
        pick = rng.randrange(5)
        if pick == 0:
            return []
        if pick == 1:
            return [fam._replace(first=fam.first + fam.step * rng.randrange(-1, 3))]
        if pick == 2 and fam.count < INFINITY:
            return [fam._replace(count=max(fam.count + rng.randrange(-2, 4), 1))]
        if pick == 3:
            return [fam, fam]
        return [fam]

    lower = ([family(0) for _ in range(rng.randrange(4))],
             [family(1 if rng.randrange(6) else -1) for _ in range(rng.randrange(4))])
    upper = tuple([g for f in side for g in changed(f)] + [family(0) for _ in range(rng.randrange(2))]
                  for side in lower)
    products = [Product(tuple(num), tuple(den)) for num, den in (lower, upper)]
    rng.shuffle(products)
    return products[0], products[1], mixed


def net_factors(product: Product, N: int) -> dict:
    """The multiplicity of each factor below q^{N+1} in product, numerators
    less denominators, each infinite family whole."""
    out = Counter()
    for sign, families in ((1, product.num), (-1, product.den)):
        for c, z_exp, first, step, count in families:
            if count == INFINITY:
                out[c, z_exp, first, step] += sign
            else:
                for e in range(first, min(N + 1, first + step * count), step):
                    out[c, z_exp, e] += sign
    return {key: n for key, n in out.items() if n}


def test_interval_quotients_match_counter_quotients():
    # qseries._quotient sweeps runs of factors as intervals; counting each
    # factor gives the same factors, and raises NonUnitConstantTerm for
    # the same pairs. Runs of different steps that share an exponent stay
    # on both sides, so there only the product is the same.
    rng = random.Random(20261031)
    seen = Counter()
    for _ in range(2000):
        upper, lower, mixed = rand_quotient_products(rng)
        for N in (0, 1, 4, 9):
            up, down = qseries._factor_counts(upper, N), qseries._factor_counts(lower, N)
            assert expanded_counts(up) == counter_factor_counts(upper, N)
            assert expanded_counts(down) == counter_factor_counts(lower, N)
            outcome = []
            for quotient, counts in ((qseries._quotient, (up, down)),
                                     (counter_quotient, (counter_factor_counts(upper, N), counter_factor_counts(lower, N)))):
                try:
                    outcome.append(quotient(*counts))
                except NonUnitConstantTerm:
                    outcome.append(NonUnitConstantTerm)
            got, want = outcome
            if want is NonUnitConstantTerm:
                assert got is NonUnitConstantTerm, (upper, lower, N)
                seen["raises"] += 1
                continue
            assert got is not NonUnitConstantTerm, (upper, lower, N)
            assert net_factors(got, N) == net_factors(want, N), (upper, lower, N)
            same = factor_multiset(got, N) == factor_multiset(want, N)
            assert same or mixed, (upper, lower, N)
            seen["mixed steps, more factors" if not same else "mixed steps" if mixed else "one step"] += 1
            seen["runs"] += any(f.count < INFINITY and min(N + 1, f.first + f.step * f.count) - f.first > f.step
                                for f in got.num + got.den)
            seen["q^0 numerator"] += any(f.first == 0 for f in got.num)
            seen["infinite"] += any(f.count == INFINITY for f in got.num + got.den)
            seen["cancelled"] += factor_multiset(got, N).total() < (factor_multiset(upper, N) + factor_multiset(lower, N)).total()
    assert min(seen.values()) > 20 and len(seen) == 8, seen


def cancel_shared(spec):
    """spec with each family from q^1 up that head_factors divides by and
    times multiplies by, or the other way round, taken out of both, one
    pair per match, the first of each; worked out apart from
    qseries._cancelled."""
    if not isinstance(spec, HyperSum):
        return spec
    h_num, h_den, t_num, t_den = (list(side) for side in (*spec.head_factors, *spec.times))
    for den, num in ((h_den, t_num), (t_den, h_num)):
        for fam in [f for f in den if f.first >= 1]:
            if fam in num:
                den.remove(fam)
                num.remove(fam)
    return spec._replace(
        head_factors=Product(tuple(h_num), tuple(h_den)), times=Product(tuple(t_num), tuple(t_den))
    )


def one_spec_steps(spec, N: int, route: str) -> list[tuple]:
    """The factor steps (c, z_exp, q_exp, divide, rows) of spec alone, its
    term bound read from the spec as given and its products with the
    families they share cancelled (cancel_shared). On the dense and
    packed routes: its terms from the last down, each on N - v(n) + 1
    rows, then each of its products on N + 1 rows, family by family in the
    order _sparse_plan leaves them. On the graded route: its products
    first, on N - head.t + 1 rows (one row for a head above N), then its
    terms from the first up, each on the rows its support can reach below
    N - v(n) + 1: one row for 1, e more after a numerator factor with q^e,
    all of them after a product or a denominator factor."""
    terms = []
    M = N
    if isinstance(spec, HyperSum):
        w, last = spec.weight, qseries._last(spec, N)
        spec = cancel_shared(spec)
        v = [spec.head.t + sum(w.s * k + w.t for k in range(1, n + 1)) for n in range(last + 1)]
        if route == "graded":
            M = max(N - spec.head.t, 0)
            reach = 1 if all(p == Product() for p in (spec.head_factors, spec.times)) else M + 1
            for n in range(1, last + 1) if spec.head.t <= N else ():
                size = N - v[n] + 1
                reach = min(reach, size)
                for p in spec.num:
                    reach = min(reach + max(p.s * n + p.t, 0), size)
                    terms.append((p.c, p.z_exp, p.s * n + p.t, False, reach))
                for p in spec.den:
                    reach = size
                    terms.append((p.c, p.z_exp, p.s * n + p.t, True, reach))
        for n in range(last, 0, -1) if route != "graded" else ():
            if v[n] <= N:
                terms += [(p.c, p.z_exp, p.s * n + p.t, divide, N - v[n] + 1)
                          for divide, powers in ((False, spec.num), (True, spec.den)) for p in powers]
    products = []
    for product in (spec,) if isinstance(spec, Product) else (spec.head_factors, spec.times):
        if product.num or product.den:
            rest = _sparse_plan(product, M, route == "packed")[1]
            products += [(c, z_exp, e, divide, M + 1)
                         for divide, families in ((False, rest.num), (True, rest.den))
                         for c, z_exp, first, step, count in families
                         for e in range(first, min(M + 1, first + step * count), step)]
    return products + terms if route == "graded" else terms + products


def test_one_spec_runs_its_terms_then_its_products(record_specs, monkeypatch):
    # a spec alone forms no quotient of products: its term steps from the
    # last term down, then its products on N + 1 rows (on the packed route
    # the dense majorant's steps are left out), or, where z sits only in
    # its head and weight, its products and then its terms from the first up
    def record_factor(f, c, z_exp, exps, divide):
        rows = f.rows if isinstance(f, qseries._Rows) else f
        steps.extend((isinstance(f, qseries._Rows), (c, z_exp, e, divide, len(rows))) for e in exps)
        return factor(f, c, z_exp, exps, divide)

    def refuse(*args):
        raise AssertionError("a spec alone formed a quotient of products")

    factor = qseries._factor
    monkeypatch.setattr(qseries, "_factor", record_factor)
    monkeypatch.setattr(qseries, "_quotient", refuse)
    rng = random.Random(20261021)
    specs = [s for s in record_specs if isinstance(s, (HyperSum, Product))]
    specs += [s for t in record_specs if not isinstance(t, (HyperSum, Product)) and graded(t) for s in t]
    cases = [(s, 40) for s in specs] + [(rand_spec(rng), N) for _ in range(150) for N in (0, 5, 12)]
    cases += [(rand_graded_spec(rng), N) for _ in range(30) for N in (0, 5, 12)]
    cases += [(rand_shared_spec(rng), N) for _ in range(30) for N in (0, 5, 12)]
    routes = Counter()
    for spec, N in cases:
        for z in (None, 1, -1):
            if z is not None and spec in WINDOWED:
                continue
            run = cancel_shared(spec)
            route = "dense" if z is not None or not has_z(run) else "graded" if graded(run) else "packed"
            routes[route] += 1
            steps = []
            evaluate(at(spec, z), N)
            ran = [step for on_rows, step in steps if on_rows == (route == "packed")]
            assert ran == one_spec_steps(at(spec, z), N, route), (spec, N, z)
    assert min(routes.values()) > 30, routes


@pytest.mark.parametrize("N", [7, 40, 100])
def test_nested_majorant_is_no_wider_than_the_sum_of_majorants(record_specs, N, monkeypatch):
    # the slot width of every tuple of specs with z, against the width
    # from the sum of the specs' majorants, each run alone
    def record_unpacked(f):
        widths.append(f.bits // 8)
        return unpacked(f)

    unpacked, widths = qseries._unpacked, []
    monkeypatch.setattr(qseries, "_unpacked", record_unpacked)
    tuples = [t for t in record_specs if not isinstance(t, (HyperSum, Product)) and has_z(t)]
    assert len(tuples) > 40
    for specs in tuples:
        packed_evaluate(specs, N)
        alone = [qseries._sum([(qseries._majorant(s), qseries._last(s, N) if isinstance(s, HyperSum) else 0)],
                              zf_one(N), N) for s in specs]
        bound = max(map(sum, zip(*alone)))
        assert widths[-1] <= _machine_bytes(_slot_bytes(bound)), specs


def test_z_place_picks_the_route_in_one_walk(record_specs):
    # against the recursive walk: no z, z only in the heads and weights of
    # the sums, or z in some factor
    rng = random.Random(20261022)
    specs = list(record_specs) + [rand_spec(rng) for _ in range(200)] + [rand_graded_spec(rng) for _ in range(200)]
    specs += [rand_tuple(rng) for _ in range(100)] + [()]
    places = Counter()
    for spec in specs:
        want = _NO_Z if not has_z(spec) else _MONOMIAL_Z if graded(spec) else _FACTOR_Z
        assert _z_place(as_tuple(spec)) == want, spec
        places[want] += 1
    assert min(places.values()) > 30, places


def graded_record_specs(record_specs) -> list:
    return [s for s in record_specs if graded(s)]


@pytest.mark.parametrize("N", [0, 1, 2, 3, 5, 8, 40, 100])
def test_graded_evaluate_matches_dict_and_packed_routes_on_every_spec(record_specs, N):
    # the fJTP sums, the partial and square theta sides: every recorded
    # spec whose z sits only in its heads and weights
    specs = graded_record_specs(record_specs)
    assert len(specs) > 35 and sum(not isinstance(s, (HyperSum, Product)) for s in specs) > 30
    for spec in specs:
        want = dict_evaluate(spec, N)
        assert evaluate(spec, N) == want, spec
        assert packed_evaluate(spec, N) == want, spec


def rand_graded_tuple(rng: random.Random) -> tuple:
    """1 to 4 specs whose z sits only in their heads and weights, with small
    z-exponents, so that grades meet across specs and fall below zero;
    some specs are z-free products (grade 0), some have a head far above
    the orders run, and some a weight in z with no q (bounded by rule (c))."""
    specs = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(6)
        if kind == 0:
            specs.append(at_z(rand_product(rng), 1))
            continue
        spec = rand_graded_spec(rng)
        if kind == 1:
            spec = spec._replace(head=spec.head._replace(t=rng.choice((6, 13, 31))))
        elif kind == 2:
            # z^{a n} with no q: every factor at q^1 or above, so that the
            # sum is bounded by z^N only
            spec = spec._replace(
                weight=Power(rng.choice(COEFFS), rng.randrange(1, 3), 0, 0),
                num=tuple(p._replace(t=max(p.t, 1 - p.s)) for p in spec.num[:-1]),
            )
        specs.append(spec)
    return tuple(specs)


def grades(spec, N: int) -> set:
    """The z-exponents of the terms of a sum to order N, that is its grades."""
    last = qseries._last(spec, N)
    return {spec.head.z_exp + n * spec.weight.z_exp for n in range(last + 1)}


def test_graded_evaluate_matches_dict_and_packed_routes_on_random_tuples():
    rng = random.Random(20261023)
    seen = Counter()
    for _ in range(150):
        specs = rand_graded_tuple(rng)
        assert _z_place(specs) == _MONOMIAL_Z or not has_z(specs)
        for N in (0, 1, 2, 5, 12, 30):
            sums = [s for s in specs if isinstance(s, HyperSum)]
            seen["above N"] += any(s.head.t > N for s in sums)
            seen["rule (c)"] += any(not (s.weight.s or s.weight.t) for s in sums)
            seen["negative grade"] += any(min(grades(s, N)) < 0 for s in sums)
            each = [grades(s, N) for s in sums]
            seen["grades meet"] += any(a & b for i, a in enumerate(each) for b in each[i + 1 :])
            if divides_at_q0(specs):
                seen["q^0 quotient"] += 1
                for route in (evaluate, packed_evaluate):
                    with pytest.raises(NonUnitConstantTerm):
                        route(specs, N)
                continue
            want = dict_evaluate(specs, N)
            assert evaluate(specs, N) == want, (specs, N)
            assert packed_evaluate(specs, N) == want, (specs, N)
    assert min(seen.values()) > 40 and len(seen) == 5, seen
    # a grade that cancels across the specs of a tuple: z^1 q^2 (q)_oo
    # against its negation leaves only the grade of the third spec
    spec = HyperSum(Power(-1, 1, 1, 0), head=Power(1, 1, 0, 2), times=Product((Factors(-1, 0, 1),)))
    other = HyperSum(Power(1, -1, 2, 0), head=Power(3, -2, 0, 1))
    for N in (0, 3, 20):
        specs = (spec, spec._replace(head=spec.head._replace(c=-1)), other)
        got = evaluate(specs, N)
        assert got == dict_evaluate(specs, N) == evaluate(other, N)
        assert got == packed_evaluate(specs, N)
        assert all(c.terms.keys() <= grades(other, N) for c in got.coeffs)


def error_type(route, spec, N: int):
    try:
        route(spec, N)
    except (NonTerminating, NonUnitConstantTerm) as exc:
        return type(exc)
    return None


def test_graded_route_raises_as_packed_rows_do():
    # the three failures a spec in z only in its heads and weights can
    # meet, each as the packed rows raise it, with heads below and above N
    plain = HyperSum(Power(-1, 1, 1, 0))
    q0_den = Product(den=(Factors(-1, 0, 0, 1, 1),))
    cases = []
    for N in (0, 3, 10):
        for head in (Power(1, 0, 0, 1), Power(1, 0, 0, N + 40)):
            spec = plain._replace(head=head)
            for factor in (Factors(1, 0, 0, 1, 1), Factors(2, 0, 0, 1, INFINITY)):
                # the tuple rule of _sum: a quotient that divides at q^0
                cases.append(((spec, spec._replace(head_factors=Product(den=(factor,)))), N, NonUnitConstantTerm))
                cases.append(((spec._replace(head_factors=Product((factor,))), spec), N, NonUnitConstantTerm))
            # a head_factors or times family with a q^0 denominator
            cases.append((spec._replace(head_factors=q0_den), N, NonUnitConstantTerm))
            cases.append((spec._replace(times=q0_den), N, NonUnitConstantTerm))
            cases.append(((spec, spec._replace(times=q0_den)), N, NonUnitConstantTerm))
            # negative q-exponents: a product family, the weight, a numerator
            cases.append((spec._replace(head_factors=Product((Factors(1, 0, -1, 1, 2),))), N, NonTerminating))
            cases.append((spec._replace(weight=Power(1, 1, 0, -1)), N, NonTerminating))
            cases.append((spec._replace(num=(Power(2, 0, 0, -1),)), N, NonTerminating))
        cases.append((plain._replace(head=Power(1, 1, 0, -1)), N, NonTerminating))
    # a head far above the order, whose products must still run
    cases.append((HyperSum(Power(1, 1, 1, 0), head=Power(1, 0, 0, 50),
                           head_factors=Product(den=(Factors(-1, 0, 0, 1, 1),))), 10, NonUnitConstantTerm))
    for spec, N, error in cases:
        assert _z_place(as_tuple(spec)) == _MONOMIAL_Z, spec
        assert error_type(evaluate, spec, N) is error_type(packed_evaluate, spec, N) is error, (spec, N)


def test_graded_sides_run_no_packed_kernel(monkeypatch):
    # the fJTP right sides, and the partial and square theta right sides of
    # RAML1, RAML1A, Entry931, falseT1a and falseT2, never reach packed rows
    import qhecke.specfun as specfun
    import qhecke.suite as suite

    def refuse(*args):
        raise AssertionError("a graded side reached a packed kernel")

    fjtp = [r for r in suite._build_registry().values() if r.id.startswith("fJTP")]
    assert len(fjtp) == 33
    sides = [(r.rhs_builder, max(r.default_order, 100)) for r in fjtp]
    sides += [(partial(specfun.build_false_theta_sides, f"{id}.rhs"), 100)
              for id in ("RAML1", "RAML1A", "Entry931", "falseT1a", "falseT2")]
    want = [build(N) for build, N in sides]
    for name in ("_add_rows", "_majorant", "_unpacked"):
        monkeypatch.setattr(qseries, name, refuse)
    assert [build(N) for build, N in sides] == want


def test_packed_product_matches_dict_route_on_random_series():
    rng = random.Random(20261019)
    for _ in range(300):
        f = rand_wide_series(rng, rng.randrange(0, 13), -rng.randrange(0, 8), rng.randrange(0, 8))
        spec = rand_product(rng)
        for z in (None, 1, -1):
            assert evaluate_times(f, at(spec, z)) == dict_qs_product(f, spec, z), (spec, z)
        # the dict-row one-factor steps, q-exponents past the order included
        c, z_exp = rng.choice(COEFFS + (0,)), rng.randrange(-3, 4)
        q_exp = rng.randrange(0, f.order + 3)
        assert mul_factor(f, c, z_exp, q_exp) == dict_mul_factor(f, c, z_exp, q_exp)
        q_exp = max(q_exp, 1)
        assert div_factor(f, c, z_exp, q_exp) == dict_div_factor(f, c, z_exp, q_exp)


# The product families _sparse_plan rewrites, as (c, z_exp) per family of
# one step: (x;x)_oo, (-x;x)_oo, the triple (zx;x)_oo (z^{-1}x;x)_oo (x;x)_oo,
# the pair without (x;x)_oo, and a half without its partner.
PATTERNS = (((-1, 0),), ((1, 0),), ((-1, 1), (-1, -1), (-1, 0)), ((-1, 1), (-1, -1)), ((-1, 1),))


def rand_pattern_product(rng: random.Random) -> Product:
    """Patterns at steps 1..3, each family from its own first = k*step
    (k >= 1 in the denominator, where q^0 cannot be divided by), shuffled
    among families that must stay on the factor loop: c = +-2, a finite
    count, z_exp = +-2."""

    def side(k_min: int) -> tuple[Factors, ...]:
        families = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(1, 4)
            for c, z_exp in rng.choice(PATTERNS):
                families.append(Factors(c, z_exp, b * rng.randrange(k_min, 4), b))
        for _ in range(rng.randrange(3)):
            b = rng.randrange(1, 4)
            c, z_exp, count = rng.choice(
                ((2, 0, INFINITY), (-2, 1, INFINITY), (-1, 0, rng.randrange(1, 5)),
                 (-1, 1, rng.randrange(1, 5)), (-1, 2, INFINITY), (1, -2, INFINITY))
            )
            families.append(Factors(c, z_exp, b * rng.randrange(k_min, 3), b, count))
        rng.shuffle(families)
        return tuple(families)

    return Product(side(0), side(1))


def test_sparse_product_patterns_match_dict_route():
    rng = random.Random(20261020)
    planned = 0
    for _ in range(80):
        spec = rand_pattern_product(rng)
        planned += bool(_sparse_plan(spec, 30, True)[0])
        for N in (0, 1, 4, 13, 30):
            for z in (None, 1, -1):
                assert evaluate(at(spec, z), N) == dict_evaluate(spec, N, z), (spec, N, z)
        f = rand_wide_series(rng, rng.randrange(0, 25), -rng.randrange(0, 8), rng.randrange(0, 8))
        for z in (None, 1, -1):
            assert evaluate_times(f, at(spec, z)) == dict_qs_product(f, spec, z), (spec, z)
        # the head factors and the closing product of a sum
        total = HyperSum(
            Power(1, 1, 1, 0), num=(Power(-1, -1, 1, 0),), den=(Power(-1, 0, 1, 1),),
            head_factors=spec, times=rand_pattern_product(rng),
        )
        for z in (None, 1, -1):
            assert evaluate(at(total, z), 20) == dict_evaluate(total, 20, z), (total, z)
    assert planned > 70


def test_sparse_patterns_run_no_factor_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rewritten family ran the factor loop")

    monkeypatch.setattr(qseries, "_factor", refuse)
    f = rand_wide_series(random.Random(5), 30, -4, 4)
    for b in (1, 2, 3):
        E, plus = Factors(-1, 0, b, b), Factors(1, 0, b, b)
        pair = (Factors(-1, 1, b, b), Factors(-1, -1, b, b))
        for spec in (Product(pair + (E,)), Product(den=pair + (E,)), Product(pair, (E, plus)),
                     Product((plus,) * 3, pair)):
            for z in (None, 1, -1):
                assert evaluate(at(spec, z), 30) == dict_evaluate(spec, 30, z)
                assert evaluate_times(f, at(spec, z)) == dict_qs_product(f, spec, z)
        # the triple is one series: over 1 - z on packed rows, Jacobi's cube
        # at z = 1, Gauss's series at z = -1
        triple = Product(pair + (E,))
        assert [(over, divide) for _, over, divide in _sparse_plan(triple, 30, True)[0]] == [(True, False)]
        for z, series in ((1, [(-1) ** j * (2 * j + 1) for j in range(8)]), (-1, [1] * 8)):
            (terms, over, divide), = _sparse_plan(at_z(triple, z), 30, False)[0]
            assert not over and not divide
            assert [c for e, c, _ in terms] == series[: len(terms)]
            assert [e for e, _, _ in terms] == [b * j * (j + 1) // 2 for j in range(len(terms))]
    # the loop is live for the other families
    with pytest.raises(AssertionError):
        evaluate(Product((Factors(-2, 0, 1),)), 5)


def test_other_families_keep_the_factor_loop():
    # c = +-2, a finite count, z_exp = +-2, a first exponent off the step,
    # q^0 in a denominator, a half without its partner, and (x;x)_oo
    # in z, which only the packed route would keep as a half
    others = (
        Factors(2, 0, 1), Factors(-2, 0, 2, 2), Factors(-1, 0, 1, 1, 7), Factors(-1, 2, 1),
        Factors(-1, -2, 3, 3), Factors(-1, 0, 1, 2), Factors(1, 0, 3, 2), Factors(-1, 1, 1),
        Factors(1, 1, 1),
    )
    for spec in (Product(others), Product(den=others), Product(others, others)):
        for packed in (True, False):
            assert _sparse_plan(spec, 30, packed) == ([], spec)
    assert _sparse_plan(Product(den=(Factors(-1, 0, 0, 2),)), 30, True)[0] == []


def test_sparse_rows_raise_on_a_row_that_is_not_a_multiple_of_one_minus_z():
    # (1 - z) + q over 1 - z: row 1 sums 1 - z + 1, which 1 - z does not divide
    rows = _Rows(8, [(0, 1), (0, 1)])
    with pytest.raises(InexactDivision):
        _sparse_rows(rows, [(0, 1, 0), (0, -1, 1), (1, 1, 0)], True, False)
    # and the pair (1 - z) - (1 - z) z q divides exactly
    rows = _Rows(8, [(0, 1), (0, 1)])
    _sparse_rows(rows, [(0, 1, 0), (0, -1, 1), (1, -1, 1), (1, 1, 2)], True, False)
    assert rows.rows == [(0, 1), (0, 1 - (1 << 8))]


def test_packed_rows_hold_digits_that_fill_the_slot():
    # every final digit equals the majorant, at each bit length L around
    # the byte boundaries: slots of fewer than L + 1 bits lose the digit
    for L in range(1, 50):
        for A in (2**L - 1, -(2**L - 1), 2 ** (L - 1)):
            # sum_n A z^n q^n: row n is the single digit A at z^n
            spec = HyperSum(Power(1, 1, 0, 1), head=Power(A, -2, 0, 0))
            got = evaluate(spec, 4)
            assert [c.terms for c in got.coeffs] == [{n - 2: A} for n in range(5)], (L, A)
            assert got == dict_evaluate(spec, 4)
            f = QSeries(3, [LaurentPoly({-1: A, 2: A}), LP_ZERO, LaurentPoly({0: -A}), LP_ZERO])
            # (1 + z q^2) moves row 0 to row 2 one slot up, where it meets -A z^0
            spec = Product((Factors(1, 1, 2, 1, 1),))
            assert evaluate_times(f, spec) == dict_qs_product(f, spec), (L, A)


def pack_row(terms: dict[int, int], width: int) -> tuple[int, int]:
    """A nonzero row as _Rows holds it: (lowest exponent, the dense row
    from there to the highest exponent packed by _pack_list)."""
    lo, hi = min(terms), max(terms)
    return lo, _pack_list([terms.get(e, 0) for e in range(lo, hi + 1)], width)


def loop_pack_list(values: list[int], width: int) -> int:
    """The slot-by-slot packer: each value plus 2^(b-1) is one unsigned
    little-endian slot, and the joined slots are the sum plus the bias."""
    half = 1 << (8 * width - 1)
    data = b"".join(map(int.to_bytes, map(half.__add__, values), repeat(width), repeat("little")))
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * len(values), "little")
    return int.from_bytes(data, "little") - bias


def loop_unpack(x: int, lo: int, hi: int, width: int) -> dict[int, int]:
    """The slot-by-slot reader: add the bias, read each unsigned slot and
    subtract 2^(b-1)."""
    slots = hi - lo + 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    data = (x + bias).to_bytes(slots * width, "little")
    read = int.from_bytes
    return {
        e: v
        for e, at in enumerate(range(0, slots * width, width), lo)
        if (v := read(data[at : at + width], "little") - half)
    }


def test_signed_codes_cover_the_machine_widths():
    assert {1, 2, 4, 8} <= set(_SIGNED_CODES)
    for size, code in _SIGNED_CODES.items():
        top = 1 << (8 * size - 1)
        assert array(code, [-top, top - 1]).itemsize == size
    assert [_machine_bytes(w) for w in range(1, 13)] == [1, 2, 4, 4, 8, 8, 8, 8, 9, 10, 11, 12]


def test_pack_and_unpack_match_the_byte_loop_at_every_width():
    # widths 1, 2, 4 and 8 take the cast route, the others the byte loop
    rng = random.Random(20261019)
    for width in range(1, 13):
        top = 1 << (8 * width - 1)
        digits = (-top, top - 1, -1, 0, 1, -top + 1, top - 2)
        for _ in range(60):
            slots = rng.choice((1, 1, 2, 3, rng.randrange(4, 40)))
            shape = rng.randrange(4)
            if shape == 0:
                values = [0] * slots
            elif shape == 1:
                values = [rng.choice(digits) for _ in range(slots)]
            else:
                values = [
                    rng.choice((rng.randrange(-top, top), rng.choice(digits), 0)) for _ in range(slots)
                ]
            x = _pack_list(values, width)
            assert x == loop_pack_list(values, width)
            assert x == sum(v << (8 * width * i) for i, v in enumerate(values))
            lo = rng.randrange(-50, 20)
            hi = lo + slots - 1
            row = {lo + i: v for i, v in enumerate(values) if v}
            assert _unpack(x, lo, width) == loop_unpack(x, lo, hi, width) == row
            if row:
                inner = values[min(row) - lo : max(row) - lo + 1]
                assert pack_row(row, width) == (min(row), loop_pack_list(inner, width))


def test_digits_outside_the_slot_raise_on_both_routes():
    for width in range(1, 13):
        top = 1 << (8 * width - 1)
        for bad in (top, -top - 1, 4 * top):
            for values in ([bad], [0, bad, 1], [1] * 5 + [bad]):
                with pytest.raises(OverflowError):
                    _pack_list(values, width)
                with pytest.raises(OverflowError):
                    loop_pack_list(values, width)
        # a packed value outside the whole range of three slots cannot be
        # read over three slots either
        bias = sum(top << (8 * width * i) for i in range(3))
        for x in (-bias - 1, (1 << (24 * width)) - bias):
            with pytest.raises(OverflowError):
                _digits(x, 3, width)


def test_unpack_reads_every_slot_of_boundary_digits():
    # rows whose digits sit at and next to both ends of the slot range:
    # _unpack reads the top nonzero slot m from x.bit_length() alone, and
    # at most one zero slot above it; _widened re-spaces them exactly
    rng = random.Random(20261027)
    for width in (1, 2, 4, 8, 9):
        b = 8 * width
        top = 1 << (b - 1)
        edge = (-top, -top + 1, top - 1, top - 2, -1, 0, 1)
        rows = [[d0, d1, d] for d0 in edge for d1 in edge for d in edge if d]
        rows += [[-top] * n + [1] for n in range(1, 6)]
        rows += [[rng.choice(edge) for _ in range(rng.randrange(1, 12))] + [rng.choice(edge[:4])]
                 for _ in range(300)]
        short = 0
        for values in rows:
            x = _pack_list(values, width)
            m = len(values) - 1
            assert _slots(x, width) in (m + 1, m + 2), (width, values)
            lo = rng.randrange(-5, 5)
            want = {lo + i: v for i, v in enumerate(values) if v}
            assert _unpack(x, lo, width) == want == loop_unpack(x, lo, lo + m, width)
            short += x.bit_length() // b + 1 < m + 1
            for wide in (w for w in (2, 4, 8, 9) if w > width):
                assert _widened([(lo, x), None], width, wide) == [(lo, _pack_list(values, wide)), None]
        assert short, width
    # the count L // b + 1 falls one slot short here
    x = _pack_list([-128, -128, 1], 1)
    assert x == 32640 and x.bit_length() == 15 and _unpack(x, 0, 1) == {0: -128, 1: -128, 2: 1}


def row_pair(rng: random.Random, width: int):
    """A random packed row in both forms, (lo, x) and (lo, hi, x) with hi
    its top slot, or (None, None); digits reach both ends of the range."""
    if rng.random() < 0.2:
        return None, None
    top = 1 << (8 * width - 1)
    values = [rng.choice((-top, top - 1, -1, 0, 1, rng.randrange(-top, top))) for _ in range(rng.randrange(1, 7))]
    values[-1] = values[-1] or 1
    lo = rng.randrange(-6, 4)
    x = _pack_list(values, width)
    return (lo, x), (lo, lo + len(values) - 1, x)


def assert_rows_agree(two: list, three: list, bits: int) -> None:
    """Each (lo, x), aligned to the three-field row's lo, is its integer."""
    assert len(two) == len(three)
    for r, s in zip(two, three):
        if r is None or s is None:
            assert r is s
            continue
        assert r[0] >= s[0]
        assert r[1] << (bits * (r[0] - s[0])) == s[2]


def test_add_rows_match_the_three_field_loop():
    rng = random.Random(20261028)
    seen = Counter()
    for _ in range(1500):
        width = rng.randrange(1, 10)
        bits = 8 * width
        n = rng.randrange(1, 9)
        c, z_exp, q_exp = rng.choice((1, -1, 2, -2, -3)), rng.randrange(-2, 3), rng.randrange(0, 4)
        src2, src3 = map(list, zip(*(row_pair(rng, width) for _ in range(n))))
        if rng.random() < 0.5:
            # in place on one list, upward as a division runs or downward
            # as a multiplication does
            ks = range(q_exp, n) if rng.random() < 0.5 else range(n - 1, q_exp - 1, -1)
            dst2, dst3 = src2, src3
        else:
            ks = range(q_exp, n + q_exp)
            dst2, dst3 = map(list, zip(*(row_pair(rng, width) for _ in range(n + q_exp))))
            for k in ks:
                # a row that the add cancels to zero
                if src2[k - q_exp] is not None and rng.random() < 0.3:
                    (lo, x), (_, hi, _) = src2[k - q_exp], src3[k - q_exp]
                    dst2[k] = lo + z_exp, -c * x
                    dst3[k] = lo + z_exp, hi + z_exp, -c * x
        before = sum(r is None for r in dst2)
        add_rows3(dst3, src3, c, z_exp, q_exp, ks, bits)
        qseries._add_rows(dst2, src2, c, z_exp, q_exp, ks, bits)
        assert_rows_agree(dst2, dst3, bits)
        seen["cancelled"] += sum(r is None for r in dst2) > before
        seen["negative lo"] += any(r is not None and r[0] < 0 for r in dst2)
    assert min(seen.values()) > 100, seen


def sparse_terms(rng: random.Random, n: int, over: bool) -> list[tuple[int, int, int]]:
    """Monomials (e, c, a) whose q^0 terms sum to 1 - z when over, else to
    1; over 1 - z every other term comes in a pair c z^a (1 - z)."""
    pick = rng.randrange(3)
    if pick == 0:
        b = rng.randrange(1, 3)
        if over:
            return qseries._triple_times_one_minus_z(b, n)
        return rng.choice((qseries._euler, qseries._jacobi_cube, qseries._gauss))(b, n)
    terms = [(0, 1, 0), (0, -1, 1)] if over else [(0, 1, 0)]
    for _ in range(rng.randrange(1, 5)):
        e, c, a = rng.randrange(1, n + 1), rng.choice((1, -1, 2, -2, -3)), rng.randrange(-2, 3)
        terms += [(e, c, a), (e, -c, a + 1)] if over else [(e, c, a)]
    if over and pick == 2:
        # a single monomial: 1 - z need not divide the rows it reaches
        terms.append((rng.randrange(1, n + 1), 1, 0))
    return terms


def test_sparse_rows_match_the_three_field_loop():
    rng = random.Random(20261029)
    seen = Counter()
    for _ in range(1200):
        width = rng.randrange(1, 10)
        bits = 8 * width
        n = rng.randrange(2, 10)
        over, divide = rng.random() < 0.5, rng.random() < 0.5
        terms = sparse_terms(rng, n, over)
        rows2, rows3 = map(list, zip(*(row_pair(rng, width) for _ in range(n))))
        if rng.random() < 0.1:
            # equal rows times 1 - q: every row above 0 cancels to zero
            rows2, rows3 = [(-2, 5)] * n, [(-2, 0, 5)] * n
            terms, over, divide = [(0, 1, 0), (1, -1, 0)], False, False
        outcome = []
        for run in (lambda: sparse_rows3(rows3, bits, terms, over, divide),
                    lambda: _sparse_rows(_Rows(bits, rows2), terms, over, divide)):
            try:
                run()
                outcome.append(None)
            except InexactDivision:
                outcome.append(InexactDivision)
        assert outcome[0] == outcome[1]
        if outcome[0]:
            seen["inexact"] += 1
            continue
        assert_rows_agree(rows2, rows3, bits)
        seen["over" if over else "plain", "divide" if divide else "times"] += 1
        seen["cancelled"] += any(r is None for r in rows2[1:])
        seen["negative lo"] += any(r is not None and r[0] < 0 for r in rows2)
    assert min(seen.values()) > 30, seen


def test_evaluate_packs_at_machine_widths(record_specs, monkeypatch):
    # the widths the packed rows of evaluate (once their coeffs are read),
    # and the classes zf_mul_sparse packs (for the dense majorant, and on
    # inputs whose slots need 1 to 13 bytes), reach _unpack with
    rows, widths = [], []

    def record_unpacked(f):
        rows.append(f.bits // 8)
        return unpacked(f)

    def record_unpack(x, lo, width):
        widths.append(width)
        return unpack(x, lo, width)

    unpacked, unpack = qseries._unpacked, qseries._unpack
    monkeypatch.setattr(qseries, "_unpacked", record_unpacked)
    monkeypatch.setattr(qseries, "_unpack", record_unpack)
    for spec in record_specs:
        if has_z(spec):
            packed_evaluate(spec, 100).coeffs
    assert set(widths) >= {1, 2, 4, 8}
    # NEWSBid's spec run as given, its shared pair (zq;q)_oo (z^{-1}q;q)_oo
    # not cancelled as _runs would, still needs 9-byte slots at order 100
    import qhecke.suite as suite

    spec = suite._OVER_SPT_PRODUCT
    qseries._packed([(spec, qseries._last(spec, 100))], 100)
    assert rows[-1] == 9
    assert set(rows) >= {1, 2, 4, 8, 9}
    for bits in range(1, 90):
        f = [2**bits - 1] * 40
        assert zf_mul_sparse(f, jacobi_terms(1, 40)) == loop_mul_sparse(f, jacobi_terms(1, 40))
    assert set(widths) >= {1, 2, 4, 8, 9, 10, 11, 12}
    assert all(w in (1, 2, 4, 8) or w > 8 for w in widths), sorted(set(widths))


def test_empty_products_are_skipped(monkeypatch):
    def refuse(*args):
        raise AssertionError("an empty product reached the planner")

    monkeypatch.setattr(qseries, "_sparse_plan", refuse)
    spec = HyperSum(Power(1, 1, 1, 0), head=Power(1, 0, 0, 0), num=(Power(-1, 0, 1, 0),))
    f = rand_wide_series(random.Random(6), 12, -3, 3)
    assert evaluate_times(f, Product()) == f
    assert evaluate(spec, 12) == dict_evaluate(spec, 12)
    assert evaluate(at_z(spec, -1), 12) == dict_evaluate(spec, 12, -1)


def test_invert_contract_randomized():
    rng = random.Random(20260814)
    for _ in range(1000):
        order = rng.randrange(1, 7)
        f = rand_unit_series(rng, order)
        g = qs_invert(f)
        assert series_equal(qs_mul(f, g), qs_one(order))


def test_invert_rejects_bad_constant():
    with pytest.raises(NonUnitConstantTerm):
        qs_invert(qs_monomial(2, 0, 0, 4))
    with pytest.raises(NonUnitConstantTerm):
        qs_invert(qs_add(qs_one(4), qs_monomial(1, 1, 0, 4)))
    with pytest.raises(NonUnitConstantTerm):
        qs_invert(qs_zero(4))
    for head in ({3: -2}, {-2: -1, 5: 1}, {0: 2**70}, {}):
        for order in (0, 4):
            f = QSeries(order, [LaurentPoly(head)] + [LaurentPoly({1: 1})] * order)
            with pytest.raises(NonUnitConstantTerm):
                qs_invert(f)


def test_ring_axioms_randomized():
    rng = random.Random(99)
    for _ in range(1000):
        order = rng.randrange(1, 6)
        f = rand_series(rng, order, 2)
        g = rand_series(rng, order, 2)
        h = rand_series(rng, order, 2)
        assert series_equal(qs_mul(f, g), qs_mul(g, f))
        assert series_equal(qs_mul(f, qs_add(g, h)), qs_add(qs_mul(f, g), qs_mul(f, h)))
        assert series_equal(qs_mul(qs_mul(f, g), h), qs_mul(f, qs_mul(g, h)))
        assert series_equal(qs_mul(f, qs_one(order)), f)


def test_packed_mul_matches_schoolbook():
    rng = random.Random(20261018)
    for _ in range(400):
        f_lo = rng.randrange(-12, 1)
        f_hi = f_lo + rng.randrange(0, 14)
        f = rand_wide_series(rng, rng.randrange(0, 9), f_lo, f_hi)
        g = rand_wide_series(rng, rng.randrange(0, 9), -rng.randrange(0, 12), rng.randrange(0, 6))
        assert outcome(qs_mul, f, g) == outcome(schoolbook_mul, f, g)
    # rows wider than the order-1 span cap: the overflow check runs on
    # the summed rows, after cancellation, as in the schoolbook kernel
    overflows = 0
    for _ in range(200):
        f = rand_wide_series(rng, rng.randrange(0, 3), -12, 12)
        g = rand_wide_series(rng, rng.randrange(0, 3), -12, 12)
        expected = outcome(schoolbook_mul, f, g)
        assert outcome(qs_mul, f, g) == expected
        overflows += expected is SupportOverflow
    assert 0 < overflows < 200
    # coefficients up to 2^40 on every row
    for n in range(41):
        signs = [rng.choice((1, -1)) for _ in range(n + 1)]
        f = QSeries(n, [LaurentPoly({-1: signs[i] * 2**i}) for i in range(n + 1)])
        g = QSeries(n, [LaurentPoly({2: 2**j}) for j in range(n + 1)])
        assert qs_mul(f, g) == schoolbook_mul(f, g)
        assert qs_mul(g, f) == schoolbook_mul(g, f)
    # coefficients of 2^200 and 2^300 on rows that pair only with zero rows
    # within the order
    huge = QSeries(3, [LaurentPoly({0: 1}), LP_ZERO, LP_ZERO, LaurentPoly({4: 2**200})])
    shifted = QSeries(3, [LP_ZERO, LaurentPoly({-1: 3}), LP_ZERO, LaurentPoly({0: -(2**300)})])
    assert qs_mul(huge, shifted) == schoolbook_mul(huge, shifted)
    assert qs_mul(shifted, huge) == schoolbook_mul(shifted, huge)


def test_packed_mul_edge_orders_and_zero_series():
    rng = random.Random(7)
    f = rand_wide_series(rng, 5, -3, 3)
    for g in (qs_zero(5), qs_zero(0), qs_one(0), qs_monomial(-(2**70), -4, 0, 2)):
        assert outcome(qs_mul, f, g) == outcome(schoolbook_mul, f, g)
        assert outcome(qs_mul, g, f) == outcome(schoolbook_mul, g, f)
    assert qs_mul(qs_zero(3), f).order == 3


def test_packed_invert_matches_schoolbook():
    rng = random.Random(20261019)
    for _ in range(400):
        order = rng.randrange(0, 10)
        f = rand_wide_series(rng, order, -rng.randrange(0, 6), rng.randrange(0, 6))
        coeffs = list(f.coeffs)
        coeffs[0] = lp_monomial(rng.choice((1, -1)), rng.randrange(-5, 6))
        f = QSeries(order, coeffs)
        g = qs_invert(f)
        assert g == schoolbook_invert(f)
        if order <= 5:
            assert series_equal(qs_mul(f, g), qs_one(order))


def test_packed_invert_widens_slots_as_rows_grow():
    # f = -z^2 + (1 - z) q + z^3 q^2 + (2^90 + 1) z^-7 q^120: the inverse's
    # coefficients grow like Fibonacci numbers, and the last row of f adds
    # a 2^90 coefficient to the last row of the inverse.
    order = 120
    rows = [LaurentPoly({2: -1}), LaurentPoly({0: 1, 1: -1}), LaurentPoly({3: 1})]
    rows += [LaurentPoly()] * (order - 3) + [LaurentPoly({-7: 2**90 + 1})]
    f = QSeries(order, rows)
    assert qs_invert(f) == schoolbook_invert(f)


def test_substitute_neg_q_is_involution_and_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        f = rand_series(rng, 7, 2)
        g = rand_series(rng, 7, 2)
        assert series_equal(qs_substitute_neg_q(qs_substitute_neg_q(f)), f)
        assert series_equal(
            qs_substitute_neg_q(qs_mul(f, g)),
            qs_mul(qs_substitute_neg_q(f), qs_substitute_neg_q(g)),
        )


def test_collapse_z_evaluates_coefficients():
    rng = random.Random(6)
    for _ in range(100):
        f = rand_series(rng, 6)
        z0 = rng.choice((1, -1))
        g = qs_collapse_z(f, z0)
        for k in range(7):
            assert g.coeff(k).coeff(0) == lp_eval_int(f.coeff(k), z0)
            assert set(g.coeff(k).terms) <= {0}


def test_truncate_z_window():
    f = qs_add(qs_monomial(2, -3, 1, 4), qs_monomial(5, 2, 1, 4))
    g = qs_truncate_z(f, -3, 1)
    assert g.coeff(1).terms == {-3: 2}
    h = qs_truncate_z(f, 0, 4)
    assert h.coeff(1).terms == {2: 5}


def test_first_mismatch_scan_order():
    a = qs_add(qs_one(4), qs_monomial(2, 1, 2, 4))
    b = qs_add(qs_one(4), qs_monomial(-1, -1, 2, 4))
    # both differ at q^2; the z scan is ascending so z=-1 reports first
    assert qs_first_mismatch(a, b) == (2, -1, 0, -1)
    assert qs_first_mismatch(a, a) is None


def test_support_overflow_guard():
    wide = LaurentPoly({e: 1 for e in range(0, span_cap(3) + 2)})
    f = QSeries(3, [wide, LaurentPoly(), LaurentPoly(), LaurentPoly()])
    with pytest.raises(SupportOverflow):
        qs_mul(f, f)


def test_zf_kernel_matches_qseries_ops():
    rng = random.Random(21)
    for _ in range(60):
        N = rng.randrange(4, 12)
        f = zf_one(N)
        g = qs_one(N)
        for _ in range(rng.randrange(5)):
            c = rng.choice((1, -1))
            e = rng.randrange(1, N + 1)
            if rng.random() < 0.5:
                zf_mul_factor(f, c, e)
                g = mul_factor(g, c, 0, e)
            else:
                zf_div_factor(f, c, e)
                g = div_factor(g, c, 0, e)
        assert series_equal(zf_to_qseries(f), g)


def test_zf_shift_and_mul():
    N = 10
    f = zf_one(N)
    zf_mul_factor(f, 1, 1)
    g = zf_shift(f, 2)
    assert g[:5] == [0, 0, 1, 1, 0]
    h = zf_mul(f, f)
    assert h[:3] == [1, 2, 1]


def test_zf_pochhammer_inf():
    N = 14
    f = zf_one(N)
    zf_pochhammer_inf(1, 1, -1, f)
    assert f == DISTINCT
    g = zf_one(N)
    zf_pochhammer_inf(1, 1, 1, g)
    h = zf_one(N)
    for e in range(1, N + 1):
        zf_div_factor(h, -1, e)
    assert zf_mul(g, h)[: N + 1] == [1] + [0] * N


def test_zf_factor_kernels_match_loops():
    rng = random.Random(33)
    for n in range(61):
        for c in ZF_SCALES:
            for e in range(1, n + 3):
                f = rand_zf(rng, n)
                for kernel, oracle in (
                    (zf_mul_factor, loop_mul_factor),
                    (zf_div_factor, loop_div_factor),
                ):
                    got, want = list(f), list(f)
                    kernel(got, c, e)
                    oracle(want, c, e)
                    assert got == want, (kernel.__name__, n, c, e)


def test_zf_add_into_matches_loop():
    rng = random.Random(34)
    for n in range(61):
        for _ in range(8):
            dst = rand_zf(rng, n)
            src = rand_zf(rng, rng.randrange(n + 5))
            got, want = list(dst), list(dst)
            zf_add_into(got, src)
            loop_add_into(want, src)
            assert got == want, (n, len(src))
            # shifted, up to past the end of dst
            shift = rng.randrange(n + 3)
            got, want = list(dst), list(dst)
            zf_add_into(got, src, shift=shift)
            loop_add_into(want, src, 1, shift)
            assert got == want, (n, len(src), shift)
            # scaled and shifted, by zf_add_into and by the add the oracles
            # below build on
            scale = rng.choice(ZF_SCALES + (0, 2**70))
            shift = rng.randrange(n + 3)
            want, got, built = list(dst), list(dst), list(dst)
            loop_add_into(want, src, scale, shift)
            zf_add_into(got, src, shift=shift, c=scale)
            add_scaled(built, src, scale, shift)
            assert got == built == want, (n, len(src), scale, shift)


def test_zf_mul_matches_loop():
    rng = random.Random(35)
    for n in range(61):
        for _ in range(3):
            f, g = rand_zf(rng, n), rand_zf(rng, n + rng.randrange(3))
            assert zf_mul(f, g) == loop_mul(f, g)
            assert zf_mul(g, f) == loop_mul(g, f)


@pytest.mark.parametrize("e0, step", [(0, 1), (-2, 3), (7, 0), (8, -1)])
def test_zf_pochhammer_inf_rejects_nonpositive_exponents(e0, step):
    # A zero factor exponent used to be skipped silently; a step <= 0 never
    # reached the order. The step <= 0 cases start beyond the order, so
    # the test ends even if the check is missing: the raise must come
    # before any factor is applied.
    f = zf_one(6)
    with pytest.raises(ValueError):
        zf_pochhammer_inf(e0, step, 1, f)
    assert f == zf_one(6)


# The theta series the sequence engines divide by, each as its exponent
# sum_{k != 0} (-1)^k q^{exponent(k)} and as a product: the factors
# (1 - q^e) it has, and the factors (1 + q^e) it is divided by.
THETA_PRODUCTS = {
    "(q;q)_oo": (lambda k: k * (3 * k - 1) // 2, lambda e: True, lambda e: False),
    "phi(-q) = (q;q)_oo/(-q;q)_oo": (lambda k: k * k, lambda e: True, lambda e: True),
    "(q;q^2)_oo (q^4;q^4)_oo": (lambda k: 2 * k * k - k, lambda e: e % 2 or e % 4 == 0, lambda e: False),
}


def theta_by_factors(N: int, minus, plus, divide: bool) -> list[int]:
    """The product (or, with divide, the inverse) of theta to q^N, one
    factor at a time."""
    f = zf_one(N)
    for e in range(1, N + 1):
        if minus(e):
            (zf_div_factor if divide else zf_mul_factor)(f, -1, e)
        if plus(e):
            (zf_mul_factor if divide else zf_div_factor)(f, 1, e)
    return f


@pytest.mark.parametrize("name", sorted(THETA_PRODUCTS))
def test_theta_terms_match_product_forms(name):
    exponent, minus, plus = THETA_PRODUCTS[name]
    for N in list(range(41)) + [200]:
        dense = zf_one(N)
        for e, c in zf_theta_terms(exponent, N + 1).items():
            dense[e] += c
        assert dense == theta_by_factors(N, minus, plus, False), (name, N)


@pytest.mark.parametrize("name", sorted(THETA_PRODUCTS))
def test_zf_div_sparse_matches_factor_chain(name):
    exponent, minus, plus = THETA_PRODUCTS[name]
    rng = random.Random(36)
    for N in list(range(41)) + [97, 200]:
        inverse = theta_by_factors(N, minus, plus, True)
        terms = zf_theta_terms(exponent, N + 1)
        assert zf_div_sparse(zf_one(N), terms) == inverse, (name, N)
        f = rand_zf(rng, N + 1)
        assert zf_div_sparse(f, terms) == zf_mul(f, inverse), (name, N)
    # terms at or above the order are ignored, and so are zero coefficients
    f = rand_zf(rng, 30)
    terms = zf_theta_terms(exponent, 30)
    assert zf_div_sparse(f, {**terms, 30: 5, 31: -1, 7: terms.get(7, 0)}) == zf_div_sparse(f, terms)


@pytest.mark.parametrize("step", [0, -1])
def test_sparse_theta_kernels_reject_nonpositive_steps(step):
    # The Euler and Jacobi kernels used to loop forever here: their term
    # loops run while step * (term exponent) < len(f). The planner builds
    # those series only for steps of at least 1, so such families stay
    # on the factor loop.
    for spec in (Product((Factors(-1, 0, step, step),) * 3), Product(den=(Factors(-1, 0, step, step),))):
        assert _sparse_plan(spec, 2, False) == ([], spec)
    with pytest.raises(ValueError):
        zf_div_sparse([1, 2, 3], {step: 1})
    with pytest.raises(ValueError):
        zf_theta_terms(lambda k: step * k * k, 3)
    with pytest.raises(ValueError):
        zf_mul_sparse([1, 2, 3], {step - 1: 1})


# The slice-add Jacobi product, one scaled zf_add_into per term, and a loop over
# any terms: the differential oracles of the packed product zf_mul_sparse.


def loop_jacobi_cube(f: list[int], step: int) -> list[int]:
    out = [0] * len(f)
    k = 0
    while step * (k * (k + 1) // 2) < len(f):
        add_scaled(out, f, -(2 * k + 1) if k % 2 else 2 * k + 1, step * (k * (k + 1) // 2))
        k += 1
    return out


def loop_mul_sparse(f: list[int], terms: dict[int, int]) -> list[int]:
    out = [0] * len(f)
    for e, c in terms.items():
        loop_add_into(out, f, c, e)
    return out


def jacobi_terms(step: int, n: int) -> dict[int, int]:
    terms = {}
    k = 0
    while step * (k * (k + 1) // 2) < n:
        terms[step * (k * (k + 1) // 2)] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    return terms


def cube_inputs(rng: random.Random, n: int) -> list[list[int]]:
    """Rows the Jacobi product meets: dense with zeros and entries up to
    2^200, all negative, all zero, and the sparse 12m+1 row of alpha and
    the signed 8m+1 row of beta."""
    dense = [0 if rng.random() < 0.2 else rng.randrange(-(2**200), 2**200 + 1) for _ in range(n)]
    negative = [-rng.randrange(1, 2 ** rng.choice((1, 40, 200))) for _ in range(n)]
    alpha = [0] * n
    alpha[1::12] = [rng.randrange(2**150) for _ in alpha[1::12]]
    beta = [0] * n
    beta[1::8] = [(-1) ** m * rng.randrange(2**150) for m, _ in enumerate(beta[1::8])]
    return [dense, negative, [0] * n, alpha, beta]


def cube(step: int) -> Product:
    """(q^step;q^step)_oo^3, which the planner runs as Jacobi's series."""
    return Product((Factors(-1, 0, step, step),) * 3)


def test_zf_product_matches_dict_route_and_leaves_its_input():
    rng = random.Random(40)
    for _ in range(150):
        spec = rng.choice((rand_product, rand_pattern_product))(rng)
        f = rand_zf(rng, rng.randrange(1, 30))
        before = list(f)
        for z in (1, -1):
            got = zf_product(f, at_z(spec, z))
            assert zf_to_qseries(got) == dict_qs_product(zf_to_qseries(f), spec, z), (spec, z)
        assert f == before


def test_eta_products_plan_one_pass_per_series():
    # the products the weighted sequence tables multiply by, E(q)^2,
    # E(q) E(q^2) and E(q^12)^3 with E(x) = (x;x)_oo: two Euler passes,
    # one Euler pass per step, and one Jacobi pass, nothing on the loop
    N = 200
    one, two = Factors(-1, 0, 1), Factors(-1, 0, 2, 2)
    euler = [(qseries._euler(b, N), False, False) for b in (1, 2)]
    assert _sparse_plan(Product((one, one)), N, False) == ([euler[0]] * 2, Product())
    assert _sparse_plan(Product((one, two)), N, False) == (euler, Product())
    assert _sparse_plan(cube(12), N, False) == ([(qseries._jacobi_cube(12, N), False, False)], Product())


def test_zf_mul_jacobi_cube_matches_slice_add_loop():
    rng = random.Random(37)
    for n in range(301):
        for step in range(1, 21) if n < 30 or n % 10 == 0 else rng.sample(range(1, 21), 3):
            f = rng.choice(cube_inputs(rng, n))
            want = loop_jacobi_cube(f, step)
            assert zf_product(f, cube(step)) == want, (n, step)
            assert zf_mul_sparse(f, jacobi_terms(step, n)) == want, (n, step)
    for n in (0, 1, 13, 97, 300):
        for step in (1, 2, 12, 16):
            for f in cube_inputs(rng, n):
                assert zf_product(f, cube(step)) == loop_jacobi_cube(f, step), (n, step)


def test_zf_mul_jacobi_cube_on_the_spt_row():
    spt = sequence_values("spt", 2000)
    for step in (1, 12, 16):
        assert zf_product(spt, cube(step)) == loop_jacobi_cube(spt, step), step


def test_zf_mul_sparse_matches_loop_on_random_terms():
    rng = random.Random(38)
    for n in range(0, 121):
        for _ in range(4):
            f = rand_zf(rng, n)
            g = rng.choice((1, 1, 2, 3, 7))
            terms = {
                g * rng.randrange(n // g + 3): rng.choice((0, 1, -1, 5, -(2**70), 2**130))
                for _ in range(rng.randrange(6))
            }
            if rng.random() < 0.3:
                terms[rng.randrange(n + 2)] = rng.choice((1, -3))
            before = list(f)
            assert zf_mul_sparse(f, terms) == loop_mul_sparse(f, terms), (n, terms)
            assert f == before


def test_zf_mul_sparse_digits_at_the_bound():
    # Output q^(n-1) meets every term at a digit of magnitude v with the
    # term's sign, so it equals B = v * sum |c_e|, the bound the slot width
    # is proven from; bit lengths 1..64 put B at every offset in its byte.
    rng = random.Random(39)
    for terms in (jacobi_terms(1, 29), {0: 3, 4: -(2**20 + 1), 9: 2**33, 17: -5}):
        n = max(terms) + 4
        norm = sum(map(abs, terms.values()))
        for bits in range(1, 65):
            v = 2**bits - 1
            for sign in (1, -1):
                f = [rng.choice((v, -v, 0)) for _ in range(n)]
                for e, c in terms.items():
                    f[n - 1 - e] = v if sign * c > 0 else -v
                got = zf_mul_sparse(f, terms)
                assert got[n - 1] == sign * v * norm, (bits, sign)
                assert got == loop_mul_sparse(f, terms), (bits, sign)


def test_zf_theta_terms_rejects_exponents_that_do_not_grow():
    with pytest.raises(ValueError):
        zf_theta_terms(lambda k: 2, 10)
    with pytest.raises(ValueError):
        zf_theta_terms(lambda k: k, 10)


# Two packed series compared on their rows (qseries._packed_equal).


def dict_first_mismatch(f: QSeries, g: QSeries):
    """The dict scan: the oracle for qs_first_mismatch on packed series."""
    for k in range(min(f.order, g.order) + 1):
        a, b = f.coeffs[k].terms, g.coeffs[k].terms
        for e in sorted(set(a) | set(b)):
            if a.get(e, 0) != b.get(e, 0):
                return k, e, a.get(e, 0), b.get(e, 0)
    return None


def eager(f: QSeries) -> QSeries:
    """f as a plain QSeries, its coeffs unpacked."""
    return QSeries(f.order, list(f.coeffs))


def unread(*series) -> bool:
    """Every series is packed and its coeffs have not been read."""
    return all(isinstance(f, qseries._PackedSeries) and f.packed is not None for f in series)


def slot_width(f) -> int:
    return f.packed.bits // 8


def packed_series(rows: list[dict], width: int, rng: random.Random) -> QSeries:
    """The rows as a packed series at width bytes, each nonzero row packed
    over its support with up to two zero slots of slack on either side."""
    packed = []
    for terms in rows:
        if not terms:
            packed.append(None)
            continue
        lo, hi = min(terms) - rng.randrange(3), max(terms) + rng.randrange(3)
        packed.append((lo, _pack_list([terms.get(e, 0) for e in range(lo, hi + 1)], width)))
    return qseries._unpacked(_Rows(8 * width, packed))


def rand_rows(rng: random.Random, order: int, top: int) -> list[dict]:
    """order + 1 rows, some zero, digits in [-top, top) at the extremes too."""
    digits = (-top, top - 1, -1, 1)
    rows = []
    for _ in range(order + 1):
        terms = {}
        if rng.random() < 0.8:
            for _ in range(rng.randrange(1, 6)):
                terms[rng.randrange(-6, 7)] = rng.choice(digits + (rng.randrange(-top, top),))
        rows.append({e: v for e, v in terms.items() if v})
    return rows


def as_series(rows: list[dict]) -> QSeries:
    return QSeries(len(rows) - 1, [LaurentPoly(t) for t in rows])


@pytest.mark.parametrize("order", [None, 100])
def test_packed_compare_matches_dict_scan_on_registry_records(order):
    # every record whose two sides are packed, at its default order and at
    # order 100, is proven equal on its rows, neither side unpacked
    import qhecke.suite as suite

    widths = set()
    for record in suite._build_registry().values():
        N = record.default_order if order is None else order
        lhs, rhs = record.lhs_builder(N), record.rhs_builder(N)
        if not unread(lhs, rhs):
            continue
        widths.add((slot_width(lhs), slot_width(rhs)))
        assert qs_first_mismatch(lhs, rhs) is None and unread(lhs, rhs), record.id
        want = dict_first_mismatch(
            eager(record.lhs_builder(N)), eager(record.rhs_builder(N))
        )
        assert want is None, record.id
        assert dict_first_mismatch(lhs, rhs) is None
    assert len(widths) > 3 and any(a != b for a, b in widths), widths


def test_packed_compare_across_slot_widths():
    import qhecke.suite as suite

    for id, widths in (("gR", (8, 4)), ("slaterid-n3", (8, 4)), ("slaterid-n2", (4, 2))):
        record = suite.lookup(id)
        lhs, rhs = record.lhs_builder(100), record.rhs_builder(100)
        assert (slot_width(lhs), slot_width(rhs)) == widths
        assert qs_first_mismatch(lhs, rhs) is None and qs_first_mismatch(rhs, lhs) is None
        assert unread(lhs, rhs)
        assert dict_first_mismatch(eager(lhs), eager(rhs)) is None


def test_packed_compare_names_a_true_mismatch_as_the_dict_scan_does():
    # the left sides of two different records, at equal and at unequal widths
    import qhecke.suite as suite

    for a, b, widths in (("A1-n10", "A1-n11", (8, 8)), ("A1-n3", "A1-n2", (8, 4))):
        f, g = suite.lookup(a).lhs_builder(100), suite.lookup(b).lhs_builder(100)
        assert (slot_width(f), slot_width(g)) == widths
        want = dict_first_mismatch(eager(suite.lookup(a).lhs_builder(100)), eager(suite.lookup(b).lhs_builder(100)))
        assert want is not None
        assert qs_first_mismatch(f, g) == want


def test_packed_compare_aligns_slack_and_sees_a_zero_row():
    p = {-1: 3, 0: -2, 2: 5}
    for width in (1, 2, 4, 8):
        tight = qseries._unpacked(_Rows(8 * width, [pack_row(p, width)]))
        loose = qseries._unpacked(_Rows(8 * width, [(-4, _pack_list([p.get(e, 0) for e in range(-4, 7)], width))]))
        wide = qseries._unpacked(_Rows(64, [(-2, _pack_list([p.get(e, 0) for e in range(-2, 4)], 8))]))
        for f, g in ((tight, loose), (loose, tight), (tight, wide), (wide, loose)):
            assert qseries._packed_equal(f, g)
            assert qs_first_mismatch(f, g) is None and unread(f, g)
    # a zero row on one side only: the dict scan names it
    for width in (1, 8):
        f = qseries._unpacked(_Rows(8 * width, [(0, 1), None, (1, -1)]))
        g = qseries._unpacked(_Rows(8 * width, [(0, 1), pack_row({3: -1}, width), (1, -1)]))
        assert not qseries._packed_equal(f, g)
        assert qs_first_mismatch(f, g) == (1, 3, 0, -1)
        assert qs_first_mismatch(g, f) == (1, 3, -1, 0)


def test_packed_compare_matches_dict_scan_on_random_rows():
    rng = random.Random(20261025)
    kinds = Counter()
    for _ in range(600):
        wf, wg = rng.choice((1, 2, 4, 8, 9)), rng.choice((1, 2, 4, 8, 9))
        top = 1 << (8 * min(wf, wg) - 1)
        order = rng.randrange(0, 8)
        base = rand_rows(rng, order, top)
        other = [dict(t) for t in base]
        change = rng.randrange(5)
        k = rng.randrange(order + 1)
        if change == 1:
            other[k][rng.randrange(-6, 7)] = rng.choice((-1, 1, top - 1))
        elif change == 2:
            other[k] = {}
        elif change == 3:
            other += rand_rows(rng, rng.randrange(3), top)
        other = [{e: v for e, v in t.items() if v} for t in other]
        f, g = packed_series(base, wf, rng), packed_series(other, wg, rng)
        want = dict_first_mismatch(as_series(base), as_series(other))
        proven = qseries._packed_equal(f, g)
        assert proven == (want is None)
        assert qs_first_mismatch(f, g) == want
        assert unread(f, g) == proven
        kinds["mismatch" if want else "proven, wide" if max(wf, wg) > 8 else "proven"] += 1
    assert min(kinds.values()) > 50 and len(kinds) == 3, kinds


def test_packed_compare_proves_wide_slots_and_leaves_read_series_to_the_dict_scan():
    # gR's sides at order 200 pack at 10 and 8 bytes: the 8-byte rows are
    # packed again at 10 and compared as integers, with neither unpacked,
    # and the dict scan of the unpacked rows agrees
    import qhecke.suite as suite

    record = suite.lookup("gR")
    lhs, rhs = record.lhs_builder(200), record.rhs_builder(200)
    assert (slot_width(lhs), slot_width(rhs)) == (10, 8)
    assert qseries._packed_equal(lhs, rhs) and qseries._packed_equal(rhs, lhs)
    assert qs_first_mismatch(lhs, rhs) is None
    assert unread(lhs, rhs)
    assert dict_first_mismatch(eager(lhs), eager(rhs)) is None
    # a series whose coeffs were read has no rows left to compare
    lhs, rhs = record.lhs_builder(100), record.rhs_builder(100)
    lhs.coeffs
    assert not qseries._packed_equal(lhs, rhs) and not qseries._packed_equal(rhs, lhs)
    assert qs_first_mismatch(lhs, rhs) is None and rhs.packed is None


def test_dense_series_compare_as_lists_and_build_coeffs_when_read():
    # evaluate's dense route and zf_to_qseries keep the list: two such
    # series compare as lists, with the dict scan's answer and no coeffs
    # built, and the coeffs, once read, are the list's
    import qhecke.suite as suite

    rng = random.Random(20261032)
    kinds = Counter()
    for _ in range(400):
        a = [rng.choice((0, 0, 1, -1, rng.randrange(-2**70, 2**70))) for _ in range(rng.randrange(1, 9))]
        b = list(a) + [rng.randrange(-3, 4) for _ in range(rng.randrange(3))]
        if rng.randrange(3):
            k = rng.randrange(len(a))
            b[k] = rng.choice((0, b[k] + 1, -b[k] or 5))
        f, g = zf_to_qseries(list(a)), zf_to_qseries(b)
        want = dict_first_mismatch(eager(zf_to_qseries(list(a))), eager(zf_to_qseries(b)))
        assert qs_first_mismatch(f, g) == want and qs_first_mismatch(g, f) == (want and (*want[:2], want[3], want[2]))
        assert isinstance(f, qseries._DenseSeries) and f.dense == a
        with pytest.raises(AttributeError):
            # the coeffs slot, read past __getattr__, is still unset
            object.__getattribute__(f, "coeffs")
        assert suite._zf(f) is f.dense
        assert [c.terms for c in f.coeffs] == [{0: v} if v else {} for v in a] and f.dense == a
        kinds["mismatch" if want else "equal"] += 1
    assert min(kinds.values()) > 100, kinds
    # sum q^n / (q;q)_n = 1 / (q;q)_oo
    series = evaluate(HyperSum(Power(1, 0, 0, 1), den=(Power(-1, 0, 1, 0),)), len(PARTITIONS) - 1)
    assert isinstance(series, qseries._DenseSeries) and series.dense == PARTITIONS


def test_packed_series_unpacks_its_coeffs_once_when_read():
    rng = random.Random(20261026)
    for _ in range(200):
        width = rng.choice((1, 2, 4, 8, 9, 12))
        rows = rand_rows(rng, rng.randrange(0, 8), 1 << (8 * width - 1))
        f = packed_series(rows, width, rng)
        packed = f.packed
        want = [{} if r is None else _unpack(r[1], r[0], width) for r in packed.rows]
        assert f.order == len(rows) - 1 and f.packed is packed
        coeffs = f.coeffs
        assert [c.terms for c in coeffs] == want == rows
        assert f.packed is None and f.coeffs is coeffs
        assert f == as_series(rows)
    with pytest.raises(AttributeError):
        f.other


def test_sparse_plan_builds_only_the_series_it_passes(monkeypatch):
    built = []
    for name in ("_gauss", "_jacobi_cube", "_euler", "_triple_times_one_minus_z"):
        def record(b, N, build=getattr(qseries, name)):
            built.append(build(b, N))
            return built[-1]

        monkeypatch.setattr(qseries, name, record)
    rng = random.Random(20261027)
    for _ in range(200):
        spec = rand_pattern_product(rng)
        for N in (0, 1, 5, 30):
            for packed in (True, False):
                built.clear()
                passes = _sparse_plan(spec, N, packed)[0]
                assert sorted(map(id, built)) == sorted({id(terms) for terms, _, _ in passes})


def test_cancelled_builds_no_counter_when_no_family_can_cancel(monkeypatch):
    # a family cancels only between head_factors.den and times.num, or
    # times.den and head_factors.num
    rng = random.Random(20261028)
    specs = [rand_spec(rng) for _ in range(300)] + [rand_shared_spec(rng) for _ in range(100)]
    plain = []
    for spec in specs:
        h, t = spec.head_factors, spec.times
        if not (h.den and t.num) and not (t.den and h.num):
            plain.append((spec, qseries._cancelled(spec)))
    assert len(plain) > 50

    def refuse(*args):
        raise AssertionError("a Counter was built")

    monkeypatch.setattr(qseries, "Counter", refuse)
    for spec, want in plain:
        assert qseries._cancelled(spec) is spec and want == spec
