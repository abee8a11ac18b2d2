"""Bailey pair machinery over an exact series ring.

The auxiliary parameter a is carried in the Laurent slot of QSeries, so
alpha_n and beta_n are series in q whose coefficients are integer Laurent
polynomials in a. Everything here either returns a small report dict on
success or raises VerificationFailed pointing at the first bad
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable

from .errors import VerificationFailed
from .qseries import (
    INFINITY,
    Factors,
    HyperSum,
    Power,
    Product,
    QSeries,
    evaluate,
    qs_add,
    qs_first_mismatch,
    qs_monomial,
    qs_mul_monomial,
    qs_one,
    qs_product,
    qs_sub,
    qs_zero,
    zf_div_euler,
    zf_to_qseries,
    zf_zero,
)


@dataclass(frozen=True)
class BaileyPair:
    """Families alpha_n(a, q), beta_n(a, q) tied by the triangular relation

        beta_n = sum_{r=0}^{n} alpha_r / ((q;q)_{n-r} (aq;q)_{n+r}).

    Both callables take (n, order) and return a QSeries.
    """

    alpha: Callable[[int, int], QSeries]
    beta: Callable[[int, int], QSeries]


def _q(n: int) -> Factors:
    """(q;q)_n."""
    return Factors(-1, 0, 1, 1, n)


def _aq(n: int) -> Factors:
    """(aq;q)_n with a in the Laurent slot."""
    return Factors(-1, 1, 1, 1, n)


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


# The finite sums below run over j = 0..n; the factor 1/(q)_{n-j} grows by
# (1 - q^{n-j+1}) from one term to the next, which is 0 at j = n + 1.


def a1_lhs(n: int, N: int) -> QSeries:
    """sum_{j=0}^{n} a^j q^{j^2+j} / ((q)_{n-j} (q)_j (aq)_j)."""
    spec = HyperSum(
        Power(1, 1, 2, 0),
        num=(Power(-1, 0, -1, n + 1),), den=(Power(-1, 0, 1, 0), Power(-1, 1, 1, 0)),
        head_factors=Product(den=(_q(n),)),
    )
    return evaluate(spec, N)


def a1_rhs(n: int, N: int) -> QSeries:
    """sum_{j=0}^{n} (-1)^j a^j q^{j(j+1)/2} / ((q)_{n-j} (aq)_n)."""
    spec = HyperSum(
        Power(-1, 1, 1, 0), num=(Power(-1, 0, -1, n + 1),),
        head_factors=Product(den=(_q(n),)), times=Product(den=(_aq(n),)),
    )
    return evaluate(spec, N)


def slater_lhs(n: int, N: int) -> QSeries:
    """Pole-cleared unit-pair sum
    sum_{r=0}^{n} (1 - a q^{2r}) q^{r^2-r} a^r / ((aq)_{n+r} (q)_{n-r}).

    This is the defining sum with one factor (1 - a) cleared from every
    (a;q)_{n+r+1}, keeping all constant terms invertible.
    """
    # u_r = q^{r^2-r} a^r / ((aq)_{n+r} (q)_{n-r}), and the sum splits as
    # sum u_r - sum a q^{2r} u_r into two sums of the same ratio up to q^2
    u = HyperSum(
        Power(1, 1, 2, -2), num=(Power(-1, 0, -1, n + 1),), den=(Power(-1, 1, 1, n),),
        head_factors=Product(den=(_aq(n), _q(n))),
    )
    a_u = u._replace(weight=Power(1, 1, 2, 0), head=Power(-1, 1, 0, 0))
    return evaluate((u, a_u), N)


def slater_rhs(n: int, N: int) -> QSeries:
    """The matching cleared right side: (1 - a) for n = 0, and
    1 / ((q)_n (aq)_{n-1}) for n >= 1."""
    if n == 0:
        return qs_sub(qs_one(N), qs_monomial(1, 1, 0, N))
    return evaluate(Product(den=(_q(n), _aq(n - 1))), N)


def niceid_lhs(k: int, N: int) -> QSeries:
    """Left side at a = q^k: the double sum

        sum_{j>=0} q^{j^2+jk} / (q)_{j+k} *
            sum_{n=0}^{j} (-1)^n q^{n(n+1)/2 + nk} / (q)_{j-n}.

    Only j with j^2 + jk <= N contribute; the inner sum's term ratio is
    -q^{n+k} (1 - q^{j-n+1})."""
    inners = []
    j = 0
    while j * j + j * k <= N:
        inners.append(HyperSum(
            Power(-1, 0, 1, k), num=(Power(-1, 0, -1, j + 1),),
            head=Power(1, 0, 0, j * j + j * k), head_factors=Product(den=(_q(j),)),
            times=Product(den=(_q(j + k),)),
        ))
        j += 1
    return evaluate(tuple(inners), N)


def niceid_rhs(k: int, N: int) -> QSeries:
    """Right side at a = q^k: a theta-style difference over 1/(q;q)_oo,

        (sum_{r>=0} q^{3r^2+3rk+r} - sum_{r>=1} q^{3r^2+3rk-r-k}) / (q)_oo.
    """
    acc = zf_zero(N)
    r = 0
    while 3 * r * r + 3 * r * k + r <= N:
        acc[3 * r * r + 3 * r * k + r] += 1
        r += 1
    r = 1
    while 3 * r * r + 3 * r * k - r - k <= N:
        acc[3 * r * r + 3 * r * k - r - k] -= 1
        r += 1
    return zf_to_qseries(zf_div_euler(acc, 1))
