"""Builders for the named q-series the verification suite compares.

Every builder returns an exact :class:`~qhecke.qseries.QSeries`. Sums with
poles at z = 0 or divergent z = +-1 limits are never evaluated naively;
the pole-cleared or windowed form is documented on each builder. A
builder takes the order N only; a series at z = 1 or z = -1 is its spec
specialised first (qseries.at_z), which then runs on the dense z-free
kernels.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from math import isqrt
from typing import Callable

from .errors import UnknownSeriesId
from .qseries import Factors, HyperSum, Power, Product, QSeries, evaluate, qs_truncate_z


def tri_index(N: int) -> int:
    """The largest n with n(n+1)/2 <= N."""
    return (isqrt(8 * N + 1) - 1) // 2


# 1 + sum_{n>=1} q^{n^2} / ((zq;q)_n (z^{-1}q;q)_n)
R_SUM = HyperSum(Power(1, 0, 2, -1), den=(Power(-1, 1, 1, 0), Power(-1, -1, 1, 0)))

# sum_{n>=0} (-1;q)_n q^{n(n+1)/2} / ((zq;q)_n (z^{-1}q;q)_n)
H_SUM = HyperSum(
    Power(1, 0, 1, 0), num=(Power(1, 0, 1, -1),), den=(Power(-1, 1, 1, 0), Power(-1, -1, 1, 0)),
)

# sum_{n>=0} (-1)^n (q;q^2)_n q^{n^2} / ((zq^2;q^2)_n (z^{-1}q^2;q^2)_n)
K_SUM = HyperSum(
    Power(-1, 0, 2, -1), num=(Power(-1, 0, 2, -1),), den=(Power(-1, 1, 2, 0), Power(-1, -1, 2, 0)),
)

# K with q -> -q: sum (-q;q^2)_n q^{n^2} / ((zq^2;q^2)_n (z^{-1}q^2;q^2)_n)
N2_SUM = K_SUM._replace(weight=Power(1, 0, 2, -1), num=(Power(1, 0, 2, -1),))

# f(q) = sum q^{n^2} / (-q;q)_n^2
F_MOCK3_SUM = HyperSum(Power(1, 0, 2, -1), den=(Power(1, 0, 1, 0),) * 2)

# mu(q) = sum (-1)^n (q;q^2)_n q^{n^2} / (-q^2;q^2)_n^2
MU_MOCK2_SUM = HyperSum(
    Power(-1, 0, 2, -1), num=(Power(-1, 0, 2, -1),), den=(Power(1, 0, 2, 0),) * 2
)

# The smallest-parts sums below are indexed from n = 0 for the summand
# n + 1 of their definitions.
_ZQ_PAIR = (Factors(-1, 1, 1), Factors(-1, -1, 1))

# sum_{n>=1} q^n (q^{n+1};q)_oo / ((zq^n;q)_oo (z^{-1}q^n;q)_oo)
S_SUM = HyperSum(
    Power(1, 0, 0, 1), num=(Power(-1, 1, 1, 0), Power(-1, -1, 1, 0)), den=(Power(-1, 0, 1, 1),),
    head=Power(1, 0, 0, 1), head_factors=Product((Factors(-1, 0, 2),), _ZQ_PAIR),
)

# sum_{n>=1} q^n (q^{2n+2};q^2)_oo / ((zq^n;q)_oo (z^{-1}q^n;q)_oo)
SBAR_SUM = S_SUM._replace(
    den=(Power(-1, 0, 2, 2),), head_factors=Product((Factors(-1, 0, 4, 2),), _ZQ_PAIR)
)

# sum_{n>=1} q^{2n} (q^{2n+2};q^2)_oo (-q^{2n+1};q^2)_oo
#     / ((zq^{2n};q^2)_oo (z^{-1}q^{2n};q^2)_oo)
S2_SUM = HyperSum(
    Power(1, 0, 0, 2), num=(Power(-1, 1, 2, 0), Power(-1, -1, 2, 0)),
    den=(Power(-1, 0, 2, 2), Power(1, 0, 2, 1)),
    head=Power(1, 0, 0, 2),
    head_factors=Product(
        (Factors(-1, 0, 4, 2), Factors(1, 0, 3, 2)), (Factors(-1, 1, 2, 2), Factors(-1, -1, 2, 2))
    ),
)

# sum_{n>=0} (-1)^n z^n q^{n(n+1)/2}
PARTIAL_THETA_SUM = HyperSum(Power(-1, 1, 1, 0))


def build_R(N: int) -> QSeries:
    """Rank generating sum 1 + sum_{n>=1} q^{n^2} / ((zq;q)_n (z^{-1}q;q)_n)."""
    return evaluate(R_SUM, N)


def build_H(N: int) -> QSeries:
    """Overline-rank generating sum.

    sum_{n>=0} (-1;q)_n q^{n(n+1)/2} / ((zq;q)_n (z^{-1}q;q)_n), which also
    collects overpartitions by rank and weight.
    """
    return evaluate(H_SUM, N)


def build_K(N: int) -> QSeries:
    """Alternating base q^2 sum
    sum_{n>=0} (-1)^n (q;q^2)_n q^{n^2} / ((zq^2;q^2)_n (z^{-1}q^2;q^2)_n)."""
    return evaluate(K_SUM, N)


def build_N2_rank(N: int) -> QSeries:
    """M2-rank generating sum
    sum_{n>=0} (-q;q^2)_n q^{n^2} / ((zq^2;q^2)_n (z^{-1}q^2;q^2)_n).

    Equals the alternating base q^2 sum with q replaced by -q.
    """
    return evaluate(N2_SUM, N)


def build_g_cleared(N: int) -> QSeries:
    """Pole-cleared universal sum (1 - x)(x g(x, q) + 1).

    This is sum_{n>=0} q^{n^2} / D_n with D_n = (xq;q)_n (x^{-1}q;q)_n,
    built over the common denominator D_J, J = isqrt(N): every term with
    n > J lies above q^N, and term n is q^{n^2} (xq^{n+1};q)_{J-n}
    (x^{-1}q^{n+1};q)_{J-n} / D_J, one spec of a tuple that runs from
    n = J down to n = 0, each spec ended after its term 0 by a numerator
    factor 1 - q^0 at index 1. The tuple nests over the specs' products
    (evaluate): the products of spec n - 1 are those of spec n times
    (1 - xq^n)(1 - x^{-1}q^n), so the nesting is S_0 = 1,
    S_m = (1 - xq^m)(1 - x^{-1}q^m) S_{m-1} + q^{m^2}, by multiplications
    only, and D_J divides S_J once, at the end.

    build_R, the other side of gR, runs the same sum as nested levels
    that divide by (1 - xq^n)(1 - x^{-1}q^n) at every term. The two sides
    share only the factor and row-add kernels (_factor, _add_rows), which
    the tests check against the dict oracle and against the three-field
    row loops that _add_rows replaced, so the rank-sum comparison still
    sets two algebraic routes against each other: one division by
    a common denominator on this side, a division per term on the other.
    """
    J = isqrt(N)
    den = (Factors(-1, 1, 1, 1, J), Factors(-1, -1, 1, 1, J))
    return evaluate(tuple(
        HyperSum(
            Power(1, 0, 0, 0), num=(Power(-1, 0, -1, 1),), head=Power(1, 0, 0, n * n),
            head_factors=Product(
                (Factors(-1, 1, n + 1, 1, J - n), Factors(-1, -1, n + 1, 1, J - n)), den
            ),
        )
        for n in range(J, -1, -1)
    ), N)


def build_f_mock3(N: int) -> QSeries:
    """Third order mock theta function f(q) = sum q^{n^2} / (-q;q)_n^2."""
    return evaluate(F_MOCK3_SUM, N)


def build_mu_mock2(N: int) -> QSeries:
    """Second order mock theta function
    mu(q) = sum (-1)^n (q;q^2)_n q^{n^2} / (-q^2;q^2)_n^2."""
    return evaluate(MU_MOCK2_SUM, N)


def build_S_def(N: int) -> QSeries:
    """Smallest-parts weighted sum
    sum_{n>=1} q^n (q^{n+1};q)_oo / ((zq^n;q)_oo (z^{-1}q^n;q)_oo).

    At z = 1 the coefficient of q^n counts parts-below-repeats weighted
    partitions, the spt numbers.
    """
    return evaluate(S_SUM, N)


def build_S_formula(N: int) -> QSeries:
    """Closed alternating single sum for the smallest-parts weighted sum:

        (1/(zq;q)_oo) sum_{n>=1} (-1)^{n-1} q^{n(n+1)/2}
            (1 + z + ... + z^{n-1}) / ((q;q)_n (1 - z^{-1}q^n))

    The geometric factor is the pole-free form of (z^n - 1)/(z - 1).
    Written as sum_{j<n} z^j, the two sums swap: this is the sum over
    j >= 0 of z^j times the sum over n >= j + 1, one spec per j, from
    j = 0 to tri_index(N) - 1 (a term with n > tri_index(N) lies above
    q^N). Term k of spec j is the term n = j + 1 + k of that sum: term 0
    is (-1)^j z^j q^{(j+1)(j+2)/2} / ((q;q)_{j+1} (1 - z^{-1}q^{j+1})),
    and term k is term k - 1 times
    -q^{k+j+1} (1 - z^{-1}q^{k+j}) / ((1 - q^{k+j+1}) (1 - z^{-1}q^{k+j+1})).
    The specs share (zq;q)_oo and all but three factors of their neighbours.
    """
    return evaluate(tuple(
        HyperSum(
            Power(-1, 0, 1, j + 1), num=(Power(-1, -1, 1, j),),
            den=(Power(-1, 0, 1, j + 1), Power(-1, -1, 1, j + 1)),
            head=Power(-1 if j % 2 else 1, j, 0, (j + 1) * (j + 2) // 2),
            head_factors=Product(den=(Factors(-1, 0, 1, 1, j + 1), Factors(-1, -1, j + 1, 1, 1))),
            times=Product(den=(Factors(-1, 1, 1),)),
        )
        for j in range(tri_index(N))
    ), N)


def build_SBar_def(N: int) -> QSeries:
    """Overpartition smallest-parts weighted sum
    sum_{n>=1} q^n (q^{2n+2};q^2)_oo / ((zq^n;q)_oo (z^{-1}q^n;q)_oo)."""
    return evaluate(SBAR_SUM, N)


def build_S2_def(N: int) -> QSeries:
    """Even-smallest-part weighted sum over n >= 1 of
    q^{2n} (q^{2n+2};q^2)_oo (-q^{2n+1};q^2)_oo
        / ((zq^{2n};q^2)_oo (z^{-1}q^{2n};q^2)_oo)."""
    return evaluate(S2_SUM, N)


def crank_product(num_base: int, overline: bool = False) -> Product:
    """Crank-style infinite product in base q^{num_base}, as data.

    With num_base = 1 and no overline factor this is
    (q;q)_oo / ((zq;q)_oo (z^{-1}q;q)_oo). The overline flag multiplies in
    (-q;q^{num_base})_oo, giving the overpartition crank product for base 1
    and the even-parts crank product for base 2.
    """
    if num_base not in (1, 2):
        raise ValueError("num_base must be 1 or 2")
    b = num_base
    num = (Factors(-1, 0, b, b),) + ((Factors(1, 0, 1, b),) if overline else ())
    return Product(num, (Factors(-1, 1, b, b), Factors(-1, -1, b, b)))


def build_crank_style(num_base: int, N: int, overline: bool = False) -> QSeries:
    """The crank-style product of crank_product to order N."""
    return evaluate(crank_product(num_base, overline), N)


def build_partial_theta(N: int) -> QSeries:
    """Partial theta sum sum_{n>=0} (-1)^n z^n q^{n(n+1)/2}."""
    return evaluate(PARTIAL_THETA_SUM, N)


# ---------------------------------------------------------------------------
# False theta identities, one builder per side.
# ---------------------------------------------------------------------------


def square_theta(z_step: int) -> tuple[Product, HyperSum]:
    """1 + 2 sum_{n>=1} (-1)^n z^{z_step*n} q^{n^2} as data: the product 1 and
    the sum from n = 1, whose term n + 1 is term n times -z^{z_step} q^{2n+1}."""
    return Product(), HyperSum(Power(-1, z_step, 2, 1), head=Power(-2, z_step, 0, 1))


# The first two sums are kept to z-exponents [0, N]: their weight has no
# q, so their term bound comes from the z-valuation n of their n-th term.

# sum_n (-z;q)_{n+1} (-z)^n / (zq;q)_n
_FALSE_T1A_SUM = HyperSum(
    Power(-1, 1, 0, 0), num=(Power(1, 1, 1, 0),), den=(Power(-1, 1, 1, 0),),
    head_factors=Product((Factors(1, 1, 0, 1, 1),)),
)

# sum_n (z;q^2)_{n+1} (q;q^2)_n z^n / (-zq;q)_{2n+1}
_FALSE_T2_SUM = HyperSum(
    Power(1, 1, 0, 0),
    num=(Power(-1, 1, 2, 0), Power(-1, 0, 2, -1)), den=(Power(1, 1, 2, 0), Power(1, 1, 2, 1)),
    head_factors=Product((Factors(-1, 1, 0, 1, 1),), (Factors(1, 1, 1, 1, 1),)),
)

# (q;q)_oo (zq;q^2)_oo sum_n (z;q^2)_n q^n / ((zq;q)_n (q;q)_n)
_LERCH_SUM = HyperSum(
    Power(1, 0, 0, 1), num=(Power(-1, 1, 2, -2),), den=(Power(-1, 1, 1, 0), Power(-1, 0, 1, 0)),
    times=Product((Factors(-1, 0, 1), Factors(-1, 1, 1, 2))),
)

# ((zq;q)_oo / (-q;q)_oo) sum_n (-zq;q)_{2n} q^n / ((z^2 q^2;q^2)_n (q^2;q^2)_n)
# The weight is q^n, not (-zq)^n: this is the Heine transform of the
# odd/even ratio sum with argument q, and only the q^n weight matches
# the partial theta expansion 1 - zq + ... (checked by hand to q^2).
_ALT_PAIR_SUM = HyperSum(
    Power(1, 0, 0, 1),
    num=(Power(1, 1, 2, -1), Power(1, 1, 2, 0)), den=(Power(-1, 2, 2, 0), Power(-1, 0, 2, 0)),
    times=Product((Factors(-1, 1, 1),), (Factors(1, 0, 1),)),
)

# sum_n (-zq;q^2)_n (-zq)^n / (-zq^2;q^2)_n
_ODD_EVEN_RATIO_SUM = HyperSum(Power(-1, 1, 0, 1), num=(Power(1, 1, 2, -1),), den=(Power(1, 1, 2, 0),))


def evaluate_windowed(spec, N: int) -> QSeries:
    """spec, as evaluate takes it, to order N and cut to z-exponents [0, N]."""
    return qs_truncate_z(evaluate(spec, N), 0, N)


# Every false theta side as data. Equal sides are equal specs, so records
# that share a side can share its series (suite.verify_all).
FALSE_THETA_SPECS = {
    "falseT1a.lhs": _FALSE_T1A_SUM,
    "falseT1a.rhs": square_theta(2),
    "falseT2.lhs": _FALSE_T2_SUM,
    "falseT2.rhs": square_theta(1),
    "falseT2a.lhs": _FALSE_T2_SUM,
    "falseT2a.rhs": _LERCH_SUM,
    "RAML1.lhs": _LERCH_SUM,
    "RAML1.rhs": square_theta(1),
    "RAML1A.lhs": _ALT_PAIR_SUM,
    "RAML1A.rhs": PARTIAL_THETA_SUM,
    "RAML1B.lhs": _ALT_PAIR_SUM,
    "RAML1B.rhs": _ODD_EVEN_RATIO_SUM,
    "Entry931.lhs": _ODD_EVEN_RATIO_SUM,
    "Entry931.rhs": PARTIAL_THETA_SUM,
}

_FALSE_SIDES: dict[str, Callable[[int], QSeries]] = {
    id: partial(evaluate_windowed if spec in (_FALSE_T1A_SUM, _FALSE_T2_SUM) else evaluate, spec)
    for id, spec in FALSE_THETA_SPECS.items()
}


def build_false_theta_sides(id: str, N: int) -> QSeries:
    """One side of a false theta identity, picked by a dotted id such as
    'falseT2.lhs'.

    Sides whose partial sums only stabilize inside a z-window are returned
    already truncated to z-exponents [0, N]; their records compare both
    sides inside that window. Unknown ids raise UnknownSeriesId.
    """
    try:
        fn = _FALSE_SIDES[id]
    except KeyError:
        raise UnknownSeriesId(f"unknown series id: {id!r}") from None
    return fn(N)


class SeriesName(str, Enum):
    """Names accepted by :func:`build_series` and the coeff subcommand."""

    R = "R"
    H = "H"
    K = "K"
    G_CLEARED = "G_CLEARED"
    F_MOCK3 = "F_MOCK3"
    MU_MOCK2 = "MU_MOCK2"
    S_DEF = "S_DEF"
    S_FORMULA = "S_FORMULA"
    SBAR_DEF = "SBAR_DEF"
    S2_DEF = "S2_DEF"
    CRANK_STYLE = "CRANK_STYLE"
    NBAR_RANK = "NBAR_RANK"
    MBAR_CRANK = "MBAR_CRANK"
    N2_RANK = "N2_RANK"
    M2_CRANK = "M2_CRANK"
    PARTIAL_THETA = "PARTIAL_THETA"


_BUILDERS: dict[SeriesName, Callable[[int], QSeries]] = {
    SeriesName.R: build_R,
    SeriesName.H: build_H,
    SeriesName.K: build_K,
    SeriesName.G_CLEARED: build_g_cleared,
    SeriesName.F_MOCK3: lambda N: build_f_mock3(N),
    SeriesName.MU_MOCK2: lambda N: build_mu_mock2(N),
    SeriesName.S_DEF: build_S_def,
    SeriesName.S_FORMULA: build_S_formula,
    SeriesName.SBAR_DEF: build_SBar_def,
    SeriesName.S2_DEF: build_S2_def,
    SeriesName.CRANK_STYLE: lambda N: build_crank_style(1, N),
    SeriesName.NBAR_RANK: build_H,
    SeriesName.MBAR_CRANK: lambda N: build_crank_style(1, N, overline=True),
    SeriesName.N2_RANK: build_N2_rank,
    SeriesName.M2_CRANK: lambda N: build_crank_style(2, N, overline=True),
    SeriesName.PARTIAL_THETA: build_partial_theta,
}


def build_series(name: SeriesName | str, N: int) -> QSeries:
    """Build a named series at order N.

    Accepts a SeriesName, its value as a string (case-insensitive), or a
    dotted false-theta side id. Raises UnknownSeriesId for anything else.
    """
    if isinstance(name, str) and not isinstance(name, SeriesName):
        if "." in name:
            return build_false_theta_sides(name, N)
        try:
            name = SeriesName(name.upper())
        except ValueError:
            raise UnknownSeriesId(f"unknown series id: {name!r}") from None
    return _BUILDERS[name](N)
