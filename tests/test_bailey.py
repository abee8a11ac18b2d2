from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import isqrt
from typing import Callable

import pytest

from qhecke.bailey import (
    _aq,
    _q,
    a1_lhs,
    a1_rhs,
    niceid_lhs,
    niceid_rhs,
    slater_lhs,
    slater_rhs,
)
import qhecke.bailey as bailey
import qhecke.suite as suite
from qhecke.errors import VerificationFailed
from qhecke.qseries import (
    INFINITY,
    HyperSum,
    Monomial,
    Power,
    Product,
    QSeries,
    evaluate,
    pochhammer,
    qs_add,
    qs_first_mismatch,
    qs_invert,
    qs_monomial,
    qs_mul,
    qs_mul_monomial,
    qs_one,
    qs_product,
    qs_sub,
    qs_zero,
    zf_add_into,
    zf_div_factor,
    zf_mul,
    zf_one,
    zf_to_qseries,
    zf_zero,
)
from qhecke.qseries import _last
from qhecke.suite import lookup
from test_qseries import dict_evaluate


# The Bailey-pair checks behind the registry's A1, Slater and niceid
# families. The auxiliary parameter a is carried in the Laurent slot of
# QSeries, so alpha_n and beta_n are series in q whose coefficients are
# integer Laurent polynomials in a. A check either returns a small report
# dict or raises VerificationFailed at the first bad coefficient.


@dataclass(frozen=True)
class BaileyPair:
    """Families alpha_n(a, q), beta_n(a, q) tied by the triangular relation

        beta_n = sum_{r=0}^{n} alpha_r / ((q;q)_{n-r} (aq;q)_{n+r}).

    Both callables take (n, order) and return a QSeries.
    """

    alpha: Callable[[int, int], QSeries]
    beta: Callable[[int, int], QSeries]


def pair1() -> BaileyPair:
    """The unit-beta seed pair:

    alpha_0 = 1 and alpha_n = a^n q^{n^2+n} - a^{n-1} q^{n^2-n} for n >= 1,
    with beta_n = q^n / ((q;q)_n (aq;q)_n).
    """

    def alpha(n: int, N: int) -> QSeries:
        if n == 0:
            return qs_one(N)
        return qs_sub(
            qs_monomial(1, n, n * n + n, N),
            qs_monomial(1, n - 1, n * n - n, N),
        )

    def beta(n: int, N: int) -> QSeries:
        return qs_mul_monomial(evaluate(Product(den=(_q(n), _aq(n))), N), 1, 0, n)

    return BaileyPair(alpha=alpha, beta=beta)


def verify_pair(p: BaileyPair, n_max: int, N: int) -> dict:
    """Check the defining triangular relation for every n <= n_max."""
    alphas = [p.alpha(r, N) for r in range(n_max + 1)]
    for n in range(n_max + 1):
        rhs = qs_zero(N)
        for r in range(n + 1):
            rhs = qs_add(rhs, qs_product(alphas[r], Product(den=(_q(n - r), _aq(n + r)))))
        bad = qs_first_mismatch(p.beta(n, N), rhs)
        if bad is not None:
            k, e, lv, rv = bad
            raise VerificationFailed(
                f"pair relation fails at n={n}",
                n=n, q_exp=k, a_exp=e, beta=lv, triangular_sum=rv,
            )
    return {"ok": True, "pairs_checked": n_max + 1, "order": N}


def limit_transform(p: BaileyPair) -> BaileyPair:
    """One iteration step: alpha_n picks up a^n q^{n^2} and beta_n becomes
    sum_{j<=n} a^j q^{j^2} beta_j / (q;q)_{n-j}. The output satisfies the
    same triangular relation whenever the input does."""

    def alpha(n: int, N: int) -> QSeries:
        return qs_mul_monomial(p.alpha(n, N), 1, n, n * n)

    def beta(n: int, N: int) -> QSeries:
        acc = qs_zero(N)
        for j in range(n + 1):
            t = qs_product(p.beta(j, N), Product(den=(_q(n - j),)))
            acc = qs_add(acc, qs_mul_monomial(t, 1, j, j * j))
        return acc

    return BaileyPair(alpha=alpha, beta=beta)


def verify_limit_sum(p: BaileyPair, N: int) -> dict:
    """Check the order-infinity form of the triangular relation,

        sum_j a^j q^{j^2} beta_j = (1/(aq;q)_oo) sum_r a^r q^{r^2} alpha_r,

    to order N. Only j, r <= floor(sqrt(N)) can contribute."""
    lhs = qs_zero(N)
    rhs_sum = qs_zero(N)
    for j in range(isqrt(N) + 1):
        lhs = qs_add(lhs, qs_mul_monomial(p.beta(j, N), 1, j, j * j))
        rhs_sum = qs_add(rhs_sum, qs_mul_monomial(p.alpha(j, N), 1, j, j * j))
    rhs = qs_product(rhs_sum, Product(den=(_aq(INFINITY),)))
    bad = qs_first_mismatch(lhs, rhs)
    if bad is not None:
        k, e, lv, rv = bad
        raise VerificationFailed(
            "limiting sum fails", q_exp=k, a_exp=e, lhs=lv, rhs=rv
        )
    return {"ok": True, "order": N}


def series_equal(f, g) -> bool:
    return qs_first_mismatch(f, g) is None


def pair_relation_direct(p, n: int, N: int) -> bool:
    """beta_n = sum_j alpha_j / ((q)_{n-j} (aq)_{n+j}) checked head-on,
    with the pair's a = z convention carried by the alpha/beta series."""
    total = qs_zero(N)
    for j in range(n + 1):
        term = p.alpha(j, N)
        denom_a = pochhammer(Monomial(1, 0, 1), n - j, N)
        denom_b = pochhammer(Monomial(1, 1, 1), n + j, N)
        inv = qs_mul(denom_a, denom_b)
        # clear by multiplying beta instead of inverting: collect both sides
        total = qs_add(total, qs_mul(term, _invert_unit(inv)))
    return series_equal(total, p.beta(n, N))


def _invert_unit(f: QSeries) -> QSeries:
    from qhecke.qseries import qs_invert

    return qs_invert(f)


def test_pair1_relation_small_n():
    p = pair1()
    for n in range(5):
        assert pair_relation_direct(p, n, 24), n


def test_verify_pair_reports():
    p = pair1()
    r = verify_pair(p, 8, 40)
    assert r == {"ok": True, "pairs_checked": 9, "order": 40}


def test_limit_transform_is_again_a_pair():
    p = limit_transform(pair1())
    r = verify_pair(p, 8, 40)
    assert r["ok"] is True
    for n in range(4):
        assert pair_relation_direct(p, n, 20), n


def test_limit_sum():
    assert verify_limit_sum(pair1(), 40)["ok"] is True


def test_broken_pair_is_caught():
    p = pair1()

    def bad_alpha(n: int, N: int) -> QSeries:
        f = p.alpha(n, N)
        if n == 2:
            f = qs_add(f, qs_mul_monomial(f, 1, 0, 1))
        return f

    broken = type(p)(alpha=bad_alpha, beta=p.beta)
    with pytest.raises(VerificationFailed) as exc:
        verify_pair(broken, 4, 24)
    assert exc.value.where.get("n") == 2


def test_a1_sides_match():
    for n in range(13):
        assert series_equal(a1_lhs(n, 30), a1_rhs(n, 30)), n


def test_slater_sides_match():
    for n in range(9):
        assert series_equal(slater_lhs(n, 30), slater_rhs(n, 30)), n


def add_shifted(dst: list[int], src: list[int], scale: int, shift: int) -> None:
    """In place: dst += scale * q^shift * src, truncated to len(dst)."""
    zf_add_into(dst, [scale * v for v in src], shift=shift)


def loop_niceid_lhs(k: int, N: int) -> list[int]:
    """The dense loop niceid_lhs ran before its inner sums became specs:
    a table of 1/(q)_i, the inner sums added as shifted rows, and one
    zf_mul by 1/(q)_{j+k} per j. Its differential oracle."""
    inv_q: list[list[int]] = [zf_one(N)]
    j_max = isqrt(N) + 1
    for i in range(1, j_max + k + 1):
        nxt = list(inv_q[-1])
        zf_div_factor(nxt, -1, i)
        inv_q.append(nxt)
    acc = zf_zero(N)
    for j in range(j_max + 1):
        if j * j + j * k > N:
            break
        inner = zf_zero(N)
        for n in range(j + 1):
            shift = n * (n + 1) // 2 + n * k
            if shift > N:
                break
            add_shifted(inner, inv_q[j - n], -1 if n % 2 else 1, shift)
        add_shifted(acc, zf_mul(inner, inv_q[j + k]), 1, j * j + j * k)
    return acc


def test_niceid_lhs_matches_loop():
    for k in range(11):
        for N in (0, 1, 7, lookup(f"niceid-k{k}").default_order):
            assert niceid_lhs(k, N) == zf_to_qseries(loop_niceid_lhs(k, N)), (k, N)


def test_niceid_lists_match():
    for k in range(11):
        lhs = niceid_lhs(k, 60)
        rhs = niceid_rhs(k, 60)
        assert lhs == rhs, k
        assert lhs.order == 60


def test_niceid_rhs_independent_route():
    # rebuild the theta difference over 1/(q)_oo with QSeries arithmetic
    # instead of the dense integer-list kernel
    N = 40
    for k in range(4):
        acc = qs_zero(N)
        r = 0
        while 3 * r * r + 3 * r * k + r <= N:
            acc = qs_add(acc, qs_monomial(1, 0, 3 * r * r + 3 * r * k + r, N))
            r += 1
        r = 1
        while 3 * r * r + 3 * r * k - r - k <= N:
            acc = qs_add(
                acc, qs_monomial(-1, 0, 3 * r * r + 3 * r * k - r - k, N)
            )
            r += 1
        f = qs_mul(acc, qs_invert(pochhammer(Monomial(1, 0, 1), INFINITY, N)))
        assert series_equal(f, niceid_rhs(k, N)), k


def test_a1_hand_case_n1():
    # n = 1: lhs = 1/(q)_1 + a q^2/((q)_1 (aq)_1),
    #        rhs = (1/(q)_1 - a q) / (aq)_1
    N = 16
    inv_q1 = qs_invert(pochhammer(Monomial(1, 0, 1), 1, N))
    inv_aq1 = qs_invert(pochhammer(Monomial(1, 1, 1), 1, N))
    lhs = qs_add(inv_q1, qs_mul_monomial(qs_mul(inv_q1, inv_aq1), 1, 1, 2))
    rhs = qs_mul(qs_add(inv_q1, qs_monomial(-1, 1, 1, N)), inv_aq1)
    assert series_equal(a1_lhs(1, N), lhs)
    assert series_equal(a1_rhs(1, N), rhs)
    assert series_equal(lhs, rhs)


def test_finite_sums_stop_at_the_order(monkeypatch):
    # n = 0..5 over q^{n^2}: the sum ends at 5, and before it at the order
    squares = HyperSum(Power(1, 0, 2, -1), num=(Power(-1, 0, -1, 6),))
    assert [_last(squares, N) for N in (0, 1, 3, 4, 24, 25, 100)] == [0, 1, 1, 2, 4, 5, 5]
    # at order 7, fJTP-n10 forms 5 of its 11 upward terms and 3 of its 10
    # downward ones
    up, down = suite._binomial_sum(1, 0, 20, 10, 10)
    assert (_last(up, 7), _last(down, 7)) == (4, 2)

    # every term past the bound has q-valuation above N: run to its end
    # on the dict kernels in its place, each finite sum is the same series
    def sums(N):
        out = [bailey.evaluate(spec, N) for n in range(5) for specs in suite._finite_pair_sums(n) for spec in specs]
        out += [side(n, N) for n in range(5) for side in (a1_lhs, a1_rhs, slater_lhs)]
        return out + [niceid_lhs(k, N) for k in range(5)]

    bounded = [sums(N) for N in range(41)]
    monkeypatch.setattr(bailey, "evaluate", partial(dict_evaluate, last=lambda spec, N: 10**9))
    assert [sums(N) for N in range(41)] == bounded
