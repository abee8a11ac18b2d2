"""The Bailey-lemma finite-sum identities as sum specs.

Each function builds one side of a registry record (the A1, Slater and
niceid families) at a given order. Where a side keeps the auxiliary
parameter a, it is carried in the Laurent slot of QSeries, so the side is
a series in q whose coefficients are integer Laurent polynomials in a.
The Bailey-pair checks behind these identities (the unit pair, the
triangular relation and the limit transform) are in tests/test_bailey.py.
"""

from __future__ import annotations

from .qseries import Factors, HyperSum, Power, Product, QSeries, evaluate


def _q(n: int) -> Factors:
    """(q;q)_n."""
    return Factors(-1, 0, 1, 1, n)


def _aq(n: int) -> Factors:
    """(aq;q)_n with a in the Laurent slot."""
    return Factors(-1, 1, 1, 1, n)


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
        return evaluate(Product((Factors(-1, 1, 0, 1, 1),)), N)
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

        (sum_{r>=0} q^{3r^2+3rk+r} - sum_{r>=1} q^{3r^2+3rk-r-k}) / (q)_oo,

    as two theta sums, the term ratios q^{6n+3k-2} from q^0 and
    q^{6n+3k+2} from -q^{2k+2} (r = n + 1)."""
    over = Product(den=(Factors(-1, 0, 1),))  # 1 / (q;q)_oo
    return evaluate((
        HyperSum(Power(1, 0, 6, 3 * k - 2), times=over),
        HyperSum(Power(1, 0, 6, 3 * k + 2), head=Power(-1, 0, 0, 2 * k + 2), times=over),
    ), N)
