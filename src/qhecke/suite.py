"""Identity registry, verification drivers, sequences, and congruence checks.

Every entry in the registry pairs two independently constructed series
under a stable string id. One side is usually an infinite-product or
basic hypergeometric build, the other an indefinite quadratic-form double
sum, so agreement of truncations is a genuine machine check rather than
a tautology. verify_identity expands both sides to a q-order and reports
the first mismatched coefficient if there is one.

The same module hosts the exact integer sequence engines (spt, sptBar,
m2spt and their eta-multiplied companions, one row of data each) and the
congruence rules that consume them, because both reuse the dense z-free
kernel.
"""

from __future__ import annotations

import fnmatch
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, partial
from itertools import count, repeat
from math import isqrt
from operator import add, neg
from typing import Callable, Iterable, NamedTuple, Sequence

from .bailey import a1_lhs, a1_rhs, niceid_lhs, niceid_rhs, slater_lhs, slater_rhs
from .errors import QheckeError, UnknownIdentity, UnknownSeriesId, UsageError, VerificationFailed
from .hecke import eval_template, template_catalog
from .qseries import (
    Factors,
    HyperSum,
    Power,
    Product,
    QSeries,
    _DenseSeries,
    at_z,
    evaluate,
    qs_first_mismatch,
    qs_mul_monomial,
    qs_sub,
    qs_substitute_neg_q,
    qs_truncate_z,
    zf_div_factor,
    zf_div_sparse,
    zf_mul,
    zf_product,
    zf_theta_terms,
    zf_to_qseries,
    zf_zero,
)
from .specfun import (
    F_MOCK3_SUM,
    H_SUM,
    K_SUM,
    MU_MOCK2_SUM,
    PARTIAL_THETA_SUM,
    R_SUM,
    S2_SUM,
    SBAR_SUM,
    S_SUM,
    _square_theta_rhs,
    build_H,
    build_K,
    build_N2_rank,
    build_R,
    build_S_def,
    build_S_formula,
    build_crank_style,
    build_f_mock3,
    build_false_theta_sides,
    build_g_cleared,
    build_mu_mock2,
)


class Variables(Enum):
    """Which formal variables a record's series carry."""

    Z_AND_Q = "z,q"
    Q_ONLY = "q"


Builder = Callable[[int], QSeries]


@dataclass(frozen=True)
class IdentityRecord:
    """A verifiable identity: two builders that must agree to any order.

    cleared_note documents any pole clearing or window truncation baked
    into the builders so the comparison stays polynomial. group ties
    together variants of a source statement that is suspected of a
    misprint; the suite treats the group as settled if any variant holds.
    """

    id: str
    lhs_builder: Builder
    rhs_builder: Builder
    default_order: int
    variables: Variables
    cleared_note: str | None = None
    group: str | None = None


# ---------------------------------------------------------------------------
# Product factors shared by the record sides.
# ---------------------------------------------------------------------------

_Q_INF = Factors(-1, 0, 1)  # (q;q)_oo
_ONE_PLUS_Z = Factors(1, 1, 0, 1, 1)
_ONE_PLUS_ZINV = Factors(1, -1, 0, 1, 1)
_CLEAR_Z_POLES = (Factors(-1, 1, 0, 1, 1), Factors(-1, -1, 0, 1, 1))  # (1 - z)(1 - z^{-1})
_Q_INF_SQ = Product((_Q_INF, _Q_INF))
_Q_Q2_INF = Product((_Q_INF, Factors(-1, 0, 2, 2)))  # (q;q)_oo (q^2;q^2)_oo


def _cross(b: int) -> tuple[Factors, ...]:
    """(z q^b;q^b)_oo (z^{-1} q^b;q^b)_oo (q^b;q^b)_oo."""
    return (Factors(-1, 1, b, b), Factors(-1, -1, b, b), Factors(-1, 0, b, b))


def _times(spec: HyperSum, *num: Factors) -> HyperSum:
    """The sum spec multiplied by the product of the families num."""
    return spec._replace(times=Product(num))


def _zf(f: QSeries) -> list[int]:
    """The z^0 coefficients of a z-free series as a dense list: the list a
    dense series keeps, else read off its coeffs."""
    if isinstance(f, _DenseSeries):
        return f.dense
    return [c.coeff(0) for c in f.coeffs]


def _theta_times(theta: QSeries, f: QSeries) -> QSeries:
    """The product of two z-free series."""
    return zf_to_qseries(zf_mul(_zf(theta), _zf(f)))


# ---------------------------------------------------------------------------
# Sides that are specific to single records.
# ---------------------------------------------------------------------------


def _template_series(id: str, N: int) -> QSeries:
    return eval_template(template_catalog(id), N)


_RANK_PRODUCT = _times(R_SUM, *_cross(1))
_OVER_RANK_CROSS = _times(H_SUM, *_cross(1))
_OVER_RANK_PRODUCT = _times(H_SUM, *_cross(1), _ONE_PLUS_Z)
_M2_RANK_PRODUCT = _times(K_SUM, *_cross(2))
_SPT_PRODUCT = _times(S_SUM, *_cross(1), *_CLEAR_Z_POLES)
_OVER_SPT_PRODUCT = _times(SBAR_SUM, *_cross(1), *_CLEAR_Z_POLES, _ONE_PLUS_Z)

# f(q) (-q;q)_oo^2 (q;q)_oo
_F_PRODUCT = _times(F_MOCK3_SUM, Factors(1, 0, 1), Factors(1, 0, 1), _Q_INF)

# mu(q) (-q^2;q^2)_oo^2 (q^2;q^2)_oo
_MU_PRODUCT = _times(MU_MOCK2_SUM, Factors(1, 0, 2, 2), Factors(1, 0, 2, 2), Factors(-1, 0, 2, 2))

# sum_{n>=1} q^{n(n+1)/2} / ((-q;q)_n (1 + q^n)), from n = 1
_HALF_POCHHAMMER_RATIO_SUM = HyperSum(
    Power(1, 0, 1, 1), num=(Power(1, 0, 1, 0),), den=(Power(1, 0, 1, 1),) * 2,
    head=Power(1, 0, 0, 1), head_factors=Product(den=(Factors(1, 0, 1, 1, 1),) * 2),
)

# sum_{k>=0} q^{k(k+1)}
_THETA_TRI2 = HyperSum(Power(1, 0, 2, 0))

# (q;q)_oo / (z^{-1}q;q)_oo
_DESCENDING_PRODUCT = Product((_Q_INF,), (Factors(-1, -1, 1),))

# 1 + sum_{n>=1} (-1)^n q^{n(n+1)/2} (1 - z^{-1}) / ((1 - z^{-1}q^n)(q;q)_n)
_DESCENDING_SUM = HyperSum(
    Power(-1, 0, 1, 0), num=(Power(-1, -1, 1, -1),), den=(Power(-1, -1, 1, 0), Power(-1, 0, 1, 0)),
)


def _over_spt_rank_crank_rhs(N: int) -> QSeries:
    return qs_sub(build_H(N), build_crank_style(1, N, overline=True))


def _m2_spt_rank_crank_rhs(N: int) -> QSeries:
    return qs_sub(build_N2_rank(N), build_crank_style(2, N, overline=True))


# S2(z;-q), specfun.S2_SUM at -q: only the families with odd q-exponents,
# 1 + q^{2n+1} and (-q^3;q^2)_oo, change sign
_S2_NEG_Q_SUM = HyperSum(
    Power(1, 0, 0, 2), num=(Power(-1, 1, 2, 0), Power(-1, -1, 2, 0)),
    den=(Power(-1, 0, 2, 2), Power(-1, 0, 2, 1)),
    head=Power(1, 0, 0, 2),
    head_factors=Product(
        (Factors(-1, 0, 4, 2), Factors(-1, 0, 3, 2)), (Factors(-1, 1, 2, 2), Factors(-1, -1, 2, 2))
    ),
)

# (z;q^2)_oo (z^{-1};q^2)_oo (q^2;q^2)_oo S2(z;-q), with (z;q^2)_oo (z^{-1};q^2)_oo
# as (1 - z)(1 - z^{-1}) (zq^2;q^2)_oo (z^{-1}q^2;q^2)_oo, a pair the head
# factors divide by
_M2_SPT_PRODUCT = _times(_S2_NEG_Q_SUM, *_cross(2), *_CLEAR_Z_POLES)


def _m2_spt_product_rhs(N: int) -> QSeries:
    return qs_sub(evaluate(_M2_RANK_PRODUCT, N), evaluate(_Q_Q2_INF, N))


# (q;q)_oo^2 / ((zq;q)_oo (z^{-1}q;q)_oo)
_PARTITION_PAIR_PRODUCT = Product((_Q_INF, _Q_INF), (Factors(-1, 1, 1), Factors(-1, -1, 1)))


def _windowed_pair_sum_rhs(N: int) -> QSeries:
    f = eval_template(template_catalog("ANDID"), N)
    return qs_truncate_z(qs_sub(f, qs_mul_monomial(f, 1, -1)), -N, N)


# sum (-zq;q^2)_n (-z^{-1}q;q^2)_n q^{2n} / (q;q^2)_{n+1}
_ODD_EVEN_MOCK_SUM = HyperSum(
    Power(1, 0, 0, 2), num=(Power(1, 1, 2, -1), Power(1, -1, 2, -1)), den=(Power(-1, 0, 2, 1),),
    head_factors=Product(den=(Factors(-1, 0, 1, 1, 1),)),
)

# sum (zq;q^2)_n (z^{-1}q;q^2)_n q^{2n} / (-q;q)_{2n+1}.
# The denominator base is (-q;q)_{2n+1}, not (q;q)_{2n+1}: the plus
# sign is what makes the z -> -1 limit reduce termwise to the
# one-variable companion sum, and the identity fails at q^1 otherwise.
_QUARTER_THETA_MOCK_SUM = HyperSum(
    Power(1, 0, 0, 2),
    num=(Power(-1, 1, 2, -1), Power(-1, -1, 2, -1)), den=(Power(1, 0, 2, 0), Power(1, 0, 2, 1)),
    head_factors=Product(den=(Factors(1, 0, 1, 1, 1),)),
)

# sum (-zq;q)_n (-z^{-1}q;q^2)_n q^{n+1} / (q;q^2)_n, as printed
_MIXED_BASE_MOCK_SUM = HyperSum(
    Power(1, 0, 0, 1), num=(Power(1, 1, 1, 0), Power(1, -1, 2, -1)), den=(Power(-1, 0, 2, -1),),
    head=Power(1, 0, 0, 1),
)

# sum (-zq;q)_n (-z^{-1}q;q)_n q^n / (q;q^2)_{n+1}.
# Both numerator factors run in base q, the weight is q^n, and the
# denominator index is n + 1. That is the unique nearby reading whose
# z -> -1 limit reduces termwise to the one-variable sum
# (q;q)_n^2 q^n / (q;q^2)_{n+1}, and it restores the constant term the
# mixed-base form is missing.
_MIXED_BASE_MOCK_CORRECTED_SUM = HyperSum(
    Power(1, 0, 0, 1), num=(Power(1, 1, 1, 0), Power(1, -1, 1, 0)), den=(Power(-1, 0, 2, 1),),
    head_factors=Product(den=(Factors(-1, 0, 1, 1, 1),)),
)

# (-q;q^4)_oo (-q^3;q^4)_oo (q^4;q^4)_oo (1 + z^{-1})
_QUARTER_PREFACTOR = (Factors(1, 0, 1, 4), Factors(1, 0, 3, 4), Factors(-1, 0, 4, 4), _ONE_PLUS_ZINV)

# (q;q^2)_oo (q;q)_oo (1 + z^{-1})
_MIXED_BASE_PREFACTOR = (Factors(-1, 0, 1, 2), _Q_INF, _ONE_PLUS_ZINV)

# (1 + z)(q^2;q^2)_oo (q;q)_oo sum (z;q)_n (z^{-1};q)_n q^n / (q^2;q^2)_n
_EVEN_BASE_RATIO = HyperSum(
    Power(1, 0, 0, 1), num=(Power(-1, 1, 1, -1), Power(-1, -1, 1, -1)), den=(Power(-1, 0, 2, 0),),
    times=Product((Factors(-1, 0, 2, 2), _Q_INF, _ONE_PLUS_Z)),
)

# ((q;q)_oo / (-q;q)_oo) sum (zq;q^2)_n (z^{-1}q;q^2)_n q^n / ((q;q^2)_n (q^2;q^2)_n)
_ODD_BASE_RATIO = HyperSum(
    Power(1, 0, 0, 1),
    num=(Power(-1, 1, 2, -1), Power(-1, -1, 2, -1)), den=(Power(-1, 0, 2, -1), Power(-1, 0, 2, 0)),
    times=Product((_Q_INF,), (Factors(1, 0, 1),)),
)


def _binomial_sum(s: int, a: int, A: int, B: int, C: int, z: int = 1, z0: int = 0) -> tuple[HyperSum, ...]:
    """sum_{j=-B}^{C} (-1)^j z^{z0 + z j} q^{s j(j-1)/2 + a j}
    (q^s;q^s)_A / ((q^s;q^s)_{B+j} (q^s;q^s)_{C-j}), with z = +-1, a >= 0
    and A >= B.

    Split at j = 0 so that every exponent stays nonnegative: j = 0..C,
    then j = -1..-B, empty for B = 0. Upward the term ratio is
    -z q^{s(j-1)+a} (1 - q^{s(C-j+1)}) / (1 - q^{s(B+j)}); downward, at
    j = -1 - m, it is -z^{-1} q^{s(m+1)-a} (1 - q^{s(B-m)}) / (1 - q^{s(C+m+1)}).
    Each head cancels (q^s;q^s)_{B+j} against (q^s;q^s)_A. a > s makes
    the downward head q^{s-a} raise NonTerminating.
    """

    def q(first: int, count: int) -> Factors:
        """(q^{s first}; q^s)_count."""
        return Factors(-1, 0, s * first, s, count)

    up = HyperSum(
        Power(-1, z, s, a - s), num=(Power(-1, 0, -s, s * (C + 1)),), den=(Power(-1, 0, s, s * B),),
        head=Power(1, z0, 0, 0), head_factors=Product((q(B + 1, A - B),), (q(1, C),)),
    )
    if not B:
        return (up,)
    down = HyperSum(
        Power(-1, -z, s, s - a),
        num=(Power(-1, 0, -s, s * B),), den=(Power(-1, 0, s, s * (C + 1)),),
        head=Power(-1, z0 - z, 0, s - a), head_factors=Product((q(B, A - B + 1),), (q(1, C + 1),)),
    )
    return up, down


def _finite_pair_sums(n: int) -> tuple[tuple[HyperSum, ...], ...]:
    """The sum sides of fJTPv1, fJTP and fJTP2 at degree n:

        sum_{j=-n}^{n+1} (-1)^j (z^j + z^{1-j}) q^{j(j+1)/2} (q)_{2n} / ((q)_{n+j} (q)_{n+1-j}),
        sum_{j=-n}^{n} (-1)^j z^j q^{j(j-1)/2} [2n, n+j]_q,
        sum_{j=-n}^{n} (-1)^j z^j q^{j^2} [2n, n+j]_{q^2}.
    """
    v1 = _binomial_sum(1, 1, 2 * n, n, n + 1) + _binomial_sum(1, 1, 2 * n, n, n + 1, -1, 1)
    return v1, _binomial_sum(1, 0, 2 * n, n, n), _binomial_sum(2, 1, 2 * n, n, n)


def _false_side(id: str, N: int) -> QSeries:
    return qs_truncate_z(build_false_theta_sides(id, N), 0, N)


# ---------------------------------------------------------------------------
# Registry assembly.
# ---------------------------------------------------------------------------

_FALSE_THETA_IDS = (
    "falseT1a",
    "falseT2",
    "falseT2a",
    "RAML1",
    "RAML1A",
    "RAML1B",
    "Entry931",
)

_WINDOW_NOTE = "both sides are truncated to nonnegative z powers before comparison"


def _build_registry() -> dict[str, IdentityRecord]:
    records: list[IdentityRecord] = []

    def add(
        id: str,
        lhs: Builder | HyperSum | Product | tuple[HyperSum | Product, ...],
        rhs: Builder | HyperSum | Product | tuple[HyperSum | Product, ...],
        order: int,
        variables: Variables,
        cleared_note: str | None = None,
        group: str | None = None,
    ) -> None:
        # a spec, or a tuple of specs to add up; HyperSum and Product are tuples too
        lhs, rhs = (partial(evaluate, b) if isinstance(b, tuple) else b for b in (lhs, rhs))
        records.append(IdentityRecord(id, lhs, rhs, order, variables, cleared_note, group))

    # The z = +-1 sides are their specs specialised once, here, and then
    # run on the dense z-free kernels.
    k_at_1 = at_z(K_SUM, 1)
    over_rank_at_1 = at_z(_OVER_RANK_CROSS, 1)
    theta_at_m1 = at_z(PARTIAL_THETA_SUM, -1)
    odd_even_at_m1 = at_z(_times(_ODD_EVEN_MOCK_SUM, _Q_INF), -1)
    quarter_at_m1 = at_z(_QUARTER_THETA_MOCK_SUM, -1)
    mixed_at_m1 = at_z(_MIXED_BASE_MOCK_CORRECTED_SUM, -1)

    # Product evaluations of the three universal sums at z = 1 and q -> -q.
    add("R1", at_z(R_SUM, 1), Product(den=(_Q_INF,)), 200, Variables.Q_ONLY)
    add(
        "H1",
        at_z(H_SUM, 1),
        Product((Factors(1, 0, 1),), (_Q_INF,)),
        200,
        Variables.Q_ONLY,
    )
    add(
        "K1",
        k_at_1,
        Product((Factors(-1, 0, 1, 2),), (Factors(-1, 0, 2, 2),)),
        200,
        Variables.Q_ONLY,
    )
    add(
        "K1b",
        lambda N: qs_substitute_neg_q(evaluate(k_at_1, N)),
        Product((Factors(1, 0, 1, 2),), (Factors(-1, 0, 2, 2),)),
        200,
        Variables.Q_ONLY,
    )
    add(
        "N2Kid",
        lambda N: qs_substitute_neg_q(build_K(N)),
        build_N2_rank,
        40,
        Variables.Z_AND_Q,
    )
    add("gR", build_g_cleared, build_R, 30, Variables.Z_AND_Q)

    # Single-variable double-sum expansions of weight 1 eta quotients.
    add("HR1", _Q_INF_SQ, partial(_template_series, "HR1"), 200, Variables.Q_ONLY)
    for hid in ("HR2", "HR3", "HR4"):
        add(hid, _Q_Q2_INF, partial(_template_series, hid), 200, Variables.Q_ONLY)

    # Two-variable rank expansions.
    add("NEWrankid", _RANK_PRODUCT, partial(_template_series, "NEWrankid"), 50, Variables.Z_AND_Q)
    add("CONJ1a", _OVER_RANK_PRODUCT, partial(_template_series, "CONJ1a"), 50, Variables.Z_AND_Q)
    add("CONJ1b", _OVER_RANK_PRODUCT, partial(_template_series, "CONJ1b"), 50, Variables.Z_AND_Q)
    add("CONJ2", _M2_RANK_PRODUCT, partial(_template_series, "CONJ2"), 50, Variables.Z_AND_Q)

    # Their z = +-1 specializations against the single-variable sums.
    add(
        "NEWrankid-z1",
        at_z(_RANK_PRODUCT, 1),
        partial(_template_series, "HR1"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "NEWrankid-zm1",
        at_z(_RANK_PRODUCT, -1),
        partial(_template_series, "HRf"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "CONJ1a-z1",
        over_rank_at_1,
        partial(_template_series, "HR2"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "CONJ1b-z1",
        over_rank_at_1,
        partial(_template_series, "HR3"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "CONJ2-z1",
        at_z(_M2_RANK_PRODUCT, 1),
        partial(_template_series, "HR4"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "CONJ2-zm1",
        at_z(_M2_RANK_PRODUCT, -1),
        partial(_template_series, "HRmu"),
        200,
        Variables.Q_ONLY,
    )

    # Mock theta double sums.
    add("HRf", _F_PRODUCT, partial(_template_series, "HRf"), 200, Variables.Q_ONLY)
    add(
        "HRfv2",
        lambda N: _theta_times(evaluate(theta_at_m1, N), build_f_mock3(N)),
        partial(_template_series, "HRf"),
        200,
        Variables.Q_ONLY,
    )
    add("HRmu", _MU_PRODUCT, partial(_template_series, "HRmu"), 200, Variables.Q_ONLY)
    add(
        "HRmuv2",
        lambda N: _theta_times(evaluate(_THETA_TRI2, N), build_mu_mock2(N)),
        partial(_template_series, "HRmu"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "HRnewv2",
        lambda N: _theta_times(evaluate(theta_at_m1, N), evaluate(_HALF_POCHHAMMER_RATIO_SUM, N)),
        partial(_template_series, "HRnewv2"),
        200,
        Variables.Q_ONLY,
    )

    # Smallest-part weighted sums.
    add("Szqid2", build_S_def, build_S_formula, 30, Variables.Z_AND_Q)
    add("FFWid", _DESCENDING_PRODUCT, _DESCENDING_SUM, 50, Variables.Z_AND_Q)
    add("SRids", _RANK_PRODUCT, (_Q_INF_SQ, _SPT_PRODUCT), 40, Variables.Z_AND_Q)
    add(
        "NEWSid",
        _SPT_PRODUCT,
        partial(_template_series, "NEWSid"),
        50,
        Variables.Z_AND_Q,
        cleared_note="the z = 1 double pole is cleared by the (1-z)(1-1/z) prefactor",
    )
    add(
        "EQNEWSid",
        _SPT_PRODUCT,
        partial(_template_series, "EQNEWSid"),
        50,
        Variables.Z_AND_Q,
        cleared_note="the z = 1 double pole is cleared by the (1-z)(1-1/z) prefactor",
    )
    # (q;q)_oo^3 sum spt(n) q^n
    add(
        "NEWSPTid",
        lambda N: zf_to_qseries(_spt_weighted(_SPT_ROW, N)),
        partial(_template_series, "NEWSPTid"),
        300,
        Variables.Q_ONLY,
    )
    add("cor1", _Q_INF_SQ, partial(_template_series, "cor1"), 200, Variables.Q_ONLY)
    add(
        "SPHR1",
        partial(_template_series, "SPHR1.lhs"),
        partial(_template_series, "SPHR1.rhs"),
        60,
        Variables.Z_AND_Q,
    )
    add(
        "SPHR2",
        partial(_template_series, "SPHR2.lhs"),
        partial(_template_series, "SPHR2.rhs"),
        60,
        Variables.Z_AND_Q,
    )

    # False theta and partial theta comparisons.
    for fid in _FALSE_THETA_IDS:
        add(
            fid,
            partial(_false_side, fid + ".lhs"),
            partial(_false_side, fid + ".rhs"),
            40,
            Variables.Z_AND_Q,
            cleared_note=_WINDOW_NOTE,
        )

    # Alternate single-sum expansions of the two-variable products.
    add("CONJ1s1", _OVER_RANK_PRODUCT, _EVEN_BASE_RATIO, 40, Variables.Z_AND_Q)
    add("CONJ2s1", _M2_RANK_PRODUCT, _ODD_BASE_RATIO, 40, Variables.Z_AND_Q)
    add(
        "MILid",
        partial(_template_series, "HR2"),
        partial(_template_series, "HR3"),
        300,
        Variables.Q_ONLY,
    )

    # Overpartition and even-part analogues.
    add(
        "SBid",
        _times(SBAR_SUM, *_CLEAR_Z_POLES),
        _over_spt_rank_crank_rhs,
        40,
        Variables.Z_AND_Q,
        cleared_note="compared with the (1-z)(1-1/z) pole factors multiplied through",
    )
    add("NEWSBid", _OVER_SPT_PRODUCT, partial(_template_series, "NEWSBid"), 40, Variables.Z_AND_Q)
    # (q;q)_oo^3 sum sptBar(n) q^n
    add(
        "SBcorid",
        lambda N: zf_to_qseries(_spt_weighted(_SPTBAR_ROW, N)),
        partial(_template_series, "SBcorid"),
        300,
        Variables.Q_ONLY,
    )
    add(
        "S2id",
        _times(S2_SUM, *_CLEAR_Z_POLES),
        _m2_spt_rank_crank_rhs,
        40,
        Variables.Z_AND_Q,
        cleared_note="compared with the (1-z)(1-1/z) pole factors multiplied through",
    )
    add("NEWS2id", _M2_SPT_PRODUCT, partial(_template_series, "NEWS2id"), 40, Variables.Z_AND_Q)
    add("NEWS2id2", _M2_SPT_PRODUCT, _m2_spt_product_rhs, 40, Variables.Z_AND_Q)
    # (q^2;q^2)_oo^3 sum (-1)^n m2spt(n) q^n
    add(
        "NEWM2SPTid",
        lambda N: zf_to_qseries(_spt_weighted(_M2SPT_ROW, N)),
        partial(_template_series, "NEWM2SPTid"),
        300,
        Variables.Q_ONLY,
    )

    add(
        "ANDID",
        _PARTITION_PAIR_PRODUCT,
        _windowed_pair_sum_rhs,
        50,
        Variables.Z_AND_Q,
        cleared_note=(
            "the double sum is multiplied by (1-1/z) and cut to the z-window"
            " [-order, order]; the product side is polynomial there already"
        ),
    )

    # Mixed mock theta expansions with theta-quotient prefactors.
    add(
        "MORTID1",
        _times(_ODD_EVEN_MOCK_SUM, _Q_INF, _ONE_PLUS_ZINV),
        partial(_template_series, "MORTID1"),
        40,
        Variables.Z_AND_Q,
    )
    add(
        "MORTID1B-printed",
        odd_even_at_m1,
        partial(_template_series, "MORTID1B-printed"),
        200,
        Variables.Q_ONLY,
        group="MORTID1B",
    )
    add(
        "MORTID1B-corrected",
        odd_even_at_m1,
        partial(_template_series, "MORTID1B-corrected"),
        200,
        Variables.Q_ONLY,
        group="MORTID1B",
    )
    add(
        "MORTID2",
        _times(_QUARTER_THETA_MOCK_SUM, *_QUARTER_PREFACTOR),
        partial(_template_series, "MORTID2"),
        40,
        Variables.Z_AND_Q,
    )
    add(
        "MORTID2B",
        lambda N: _theta_times(evaluate(theta_at_m1, N), evaluate(quarter_at_m1, N)),
        partial(_template_series, "MORTID2B"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "MORTID3-printed",
        _times(_MIXED_BASE_MOCK_SUM, *_MIXED_BASE_PREFACTOR),
        partial(_template_series, "MORTID3"),
        40,
        Variables.Z_AND_Q,
        group="MORTID3",
    )
    add(
        "MORTID3-corrected",
        _times(_MIXED_BASE_MOCK_CORRECTED_SUM, *_MIXED_BASE_PREFACTOR),
        partial(_template_series, "MORTID3"),
        40,
        Variables.Z_AND_Q,
        group="MORTID3",
    )
    add(
        "MORTID3B",
        lambda N: _theta_times(_square_theta_rhs(N, 0), evaluate(mixed_at_m1, N)),
        partial(_template_series, "MORTID3B"),
        200,
        Variables.Q_ONLY,
    )

    # Finite Jacobi triple product analogues, one record per degree, with the
    # products (1 + z)(z;q)_n (z^{-1};q)_n, (z;q)_n (z^{-1}q;q)_n and
    # (zq;q^2)_n (z^{-1}q;q^2)_n.
    for n in range(11):
        v1, pair, pair_sq = _finite_pair_sums(n)
        order, order_sq = max(30, n * n + 3 * n + 2), max(30, 2 * n * n + 4 * n + 2)
        for family, factors, sums, default in (
            ("fJTPv1", (_ONE_PLUS_Z, Factors(-1, 1, 0, 1, n), Factors(-1, -1, 0, 1, n)), v1, order),
            ("fJTP", (Factors(-1, 1, 0, 1, n), Factors(-1, -1, 1, 1, n)), pair, order),
            ("fJTP2", (Factors(-1, 1, 1, 2, n), Factors(-1, -1, 1, 2, n)), pair_sq, order_sq),
        ):
            add(f"{family}-n{n}", Product(factors), sums, default, Variables.Z_AND_Q)

    # Finite rank-sum rearrangement, one record per degree.
    for n in range(13):
        add(f"A1-n{n}", partial(a1_lhs, n), partial(a1_rhs, n), 40, Variables.Z_AND_Q)
    for n in range(9):
        add(
            f"slaterid-n{n}",
            partial(slater_lhs, n),
            partial(slater_rhs, n),
            40,
            Variables.Z_AND_Q,
            cleared_note="the shifted product pole is cleared; the n = 0 side keeps its (1-a) factor",
        )
    for k in range(11):
        add(f"niceid-k{k}", partial(niceid_lhs, k), partial(niceid_rhs, k), 200, Variables.Q_ONLY)

    return {r.id: r for r in records}


_REGISTRY = _build_registry()


def _variant_groups(records: Iterable[IdentityRecord]) -> dict[str, tuple[str, ...]]:
    """Each group name with its member ids, in registration order."""
    groups: dict[str, tuple[str, ...]] = {}
    for r in records:
        if r.group:
            groups[r.group] = groups.get(r.group, ()) + (r.id,)
    return groups


DISCREPANCY_GROUPS = _variant_groups(_REGISTRY.values())


def registry_catalog() -> list[IdentityRecord]:
    """All registered identity records, ordered by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def lookup(id: str) -> IdentityRecord:
    """Fetch one record by id; demo records resolve here too."""
    try:
        return _REGISTRY[id]
    except KeyError:
        extra = _extra_records()
        if id in extra:
            return extra[id]
        raise UnknownIdentity(f"no identity registered under {id!r}") from None


# ---------------------------------------------------------------------------
# Deliberately broken demo record, kept out of the main catalog.
# ---------------------------------------------------------------------------


def mutated_demo_record() -> IdentityRecord:
    """A sign-mutated copy of the rank expansion that must fail at q^1.

    The odd rows of the double sum have their signs flipped, and the halving
    is dropped, so the record compares twice the product side against the
    corrupted sum. It exists to demonstrate mismatch reporting.
    """
    base = template_catalog("NEWrankid")
    pieces = tuple(replace(p, sign=(p.sign[0] + 1,) + p.sign[1:]) for p in base.pieces)
    mutant = replace(base, id="NEWrankid-mutated", pieces=pieces, halve=False)
    return IdentityRecord(
        id="NEWrankid-mutated",
        lhs_builder=lambda N: qs_mul_monomial(evaluate(_RANK_PRODUCT, N), 2),
        rhs_builder=lambda N: eval_template(mutant, N),
        default_order=50,
        variables=Variables.Z_AND_Q,
        cleared_note="demonstration record, not part of the verified catalog",
    )


def _extra_records() -> dict[str, IdentityRecord]:
    return {"NEWrankid-mutated": mutated_demo_record()}


# ---------------------------------------------------------------------------
# Verification drivers.
# ---------------------------------------------------------------------------


def verify_identity(id: str, order: int | None = None) -> dict:
    """Expand both sides of one record and report the first mismatch.

    Returns a plain dict so reports serialize directly: keys are id, ok,
    order, first_mismatch (None or a dict with q_power, z_power, lhs, rhs)
    and elapsed_ms. An engine error raised by a side is re-raised with the
    record id in front of its message.
    """
    record = lookup(id)
    n = record.default_order if order is None else order
    if n < 0:
        raise UsageError("order must be nonnegative")
    start = time.perf_counter()
    try:
        lhs = record.lhs_builder(n)
        rhs = record.rhs_builder(n)
    except QheckeError as exc:
        # same exception, so its type and VerificationFailed.where stay
        exc.args = (f"record {record.id}: {exc}",)
        raise
    hit = _mismatch_dict(lhs, rhs)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "id": record.id,
        "ok": hit is None,
        "order": n,
        "first_mismatch": hit,
        "elapsed_ms": elapsed_ms,
    }


def _mismatch_dict(lhs: QSeries, rhs: QSeries) -> dict | None:
    hit = qs_first_mismatch(lhs, rhs)
    if hit is None:
        return None
    q_power, z_power, a, b = hit
    return {"q_power": q_power, "z_power": z_power, "lhs": a, "rhs": b}


def _expand_patterns(ids: Iterable[str] | None) -> list[str]:
    """Sorted ids matching any of the glob patterns (all catalog ids for
    None). A pattern that matches no catalog id must be an exact id that
    lookup resolves, such as a demo record; otherwise lookup raises."""
    names = sorted(_REGISTRY)
    if ids is None:
        return names
    chosen: set[str] = set()
    for pattern in ids:
        chosen.update(fnmatch.filter(names, pattern) or [lookup(pattern).id])
    return sorted(chosen)


def verify_all(ids: Iterable[str] | None = None, order: int | None = None) -> list[dict]:
    """Verify a set of records (glob patterns allowed), sorted by id."""
    return [verify_identity(n, order) for n in _expand_patterns(ids)]


def group_verdicts(results: Sequence[dict]) -> dict[str, dict]:
    """Roll up variant groups: a group passes when any variant passes.

    A group verdict is only rendered when every variant of the group is
    present in the given results.
    """
    by_id = {r["id"]: r for r in results}
    out: dict[str, dict] = {}
    for name, members in sorted(DISCREPANCY_GROUPS.items()):
        if not all(m in by_id for m in members):
            continue
        oks = {m: by_id[m]["ok"] for m in members}
        out[name] = {
            "members": dict(sorted(oks.items())),
            "ok": any(oks.values()),
            "unresolved": not any(oks.values()),
        }
    return out


def overall_ok(results: Sequence[dict]) -> bool:
    """True when every record passes, after group rollup.

    A failing record whose whole variant group is present is forgiven if
    some sibling variant passes; every other failure counts.
    """
    groups = group_verdicts(results)
    settled: set[str] = set()
    for name, verdict in groups.items():
        if verdict["ok"]:
            settled.update(DISCREPANCY_GROUPS[name])
    for r in results:
        if not r["ok"] and r["id"] not in settled:
            return False
    return True


# ---------------------------------------------------------------------------
# Integer sequences.
# ---------------------------------------------------------------------------

_DIRECT_SUM_CAP = 300


class _SptRow(NamedTuple):
    """One smallest-parts series as data: the quotient N / theta to q^n_max
    (_spt_quotient), with

        N(q) = sum_{m>=1} sigma(m) q^{sm} + c sum_{k>=1} (-1)^k q^{b(k)} (1 + eps q^{sk})/(1 - q^{sk})^2,
        theta(q) = 1 + sum_{k != 0} (-1)^k q^{theta(k)},

    and its eta-weighted series (_spt_weighted): (q^w;q^w)_oo^3 times the
    series at sign q, for the w of each row. The cube contains
    theta(sign q), and what is left of it is the product of the
    (q^e;q^e)_oo over e in euler, so the weighted series is
    N(sign q) prod_{e in euler} (q^e;q^e)_oo, with no division.

    Each row is (M_2 - N_2)/2, half the crank minus the rank second moment,
    whose generating functions are, with P = 1/theta and x_n = q^{sn},
        crank: P prod_{n>=1} (1 - x_n)^2 / ((1 - z x_n)(1 - x_n/z)),
        rank:  P [1 + c sum_{k>=1} (-1)^k q^{b(k)} (1 + eps x_k)
                        (1 - z)(1 - 1/z) / ((1 - z x_k)(1 - x_k/z))].
    At z = e^t, (1 - z)(1 - 1/z) = -t^2 + O(t^4) and a crank factor is
    1 + t^2 x_n/(1 - x_n)^2 + O(t^4), so the t^2 coefficients (the halved
    moments) are P sum_n x_n/(1 - x_n)^2 = P sum_m sigma(m) q^{sm} and -c P
    times the Lambert sum.
    """

    s: int
    b: Callable[[int], int]
    eps: int
    c: int
    theta: Callable[[int], int]
    sign: int
    euler: tuple[int, ...]


# spt: theta = (q;q)_oo (Euler's series), w = 1, so the weight leaves
# (q;q)_oo^2. Andrews' spt(n) = n p(n) - N_2(n)/2 (J. reine angew. Math.
# 624 (2008)) is (M_2 - N_2)/2, and specfun.build_R is the rank form of
# this row (Atkin and Garvan, Ramanujan J. 7 (2003), give N_2 in this form).
_SPT_ROW = _SptRow(1, lambda k: k * (3 * k + 1) // 2, 1, 1, lambda k: k * (3 * k - 1) // 2, 1, (1, 1))

# sptBar: theta = phi(-q) = (q;q)_oo/(-q;q)_oo = (q;q)_oo^2/(q^2;q^2)_oo, w = 1,
# so the weight leaves (q;q)_oo (q^2;q^2)_oo. sptBar = (Mbar_2 - Nbar_2)/2
# (Bringmann, Lovejoy and Osburn, J. Number Theory 129 (2009)); the
# overpartition crank product (-q;q)_oo (q;q)_oo/((zq;q)_oo (q/z;q)_oo) is
# the crank form with P = 1/phi(-q), and Lovejoy's overpartition rank
# generating function, specfun.build_H, is the rank form of this row.
_SPTBAR_ROW = _SptRow(1, lambda k: k * k + k, 0, 2, lambda k: k * k, 1, (1, 2))

# m2spt: theta = (q;q^2)_oo (q^4;q^4)_oo = (q^2;q^2)_oo/(-q;q^2)_oo (Jacobi's
# triple product in base q^4 at z = -1/q). The weighted series reads m2spt
# at -q, where theta(-q) = (q^2;q^2)_oo/(q;q^2)_oo, and w = 2, so the weight
# leaves (q;q^2)_oo (q^2;q^2)_oo^2 = (q;q)_oo (q^2;q^2)_oo.
# The registry identity S2id, (1 - z)(1 - 1/z) S2(z;q) = N2(z;q) - C2(z;q),
# has the M2spt series S2(1;q) on the left, so at z = e^t, t -> 0, it
# gives M2spt = (M2_2 - N2_2)/2. C2 = (-q;q^2)_oo (q^2;q^2)_oo
# /((zq^2;q^2)_oo (q^2/z;q^2)_oo) is the crank form with
# P = (-q;q^2)_oo/(q^2;q^2)_oo. The M2-rank sum N2 (specfun.build_N2_rank)
# is the rank form of this row, (1 - z) P sum_{k in Z} (-1)^k q^{2k^2+k}
# /(1 - zq^{2k}): this Lambert form is not proven here, and
# tests/test_suite.py checks it in z and q, with the other rows' rank forms.
_M2SPT_ROW = _SptRow(2, lambda k: 2 * k * k + k, 1, 1, lambda k: 2 * k * k - k, -1, (1, 2))


def _spt_numerator(row: _SptRow, n_max: int) -> list[int]:
    """The numerator N of a row to q^n_max. Term bounds: sm <= n_max, and
    the last k with b(k) <= n_max (b grows with k). By
    (1 + eps x)/(1 - x)^2 = sum_j ((1 + eps) j + 1) x^j each Lambert term
    is one slice add."""
    acc = _divisor_sums(n_max, row.s)
    k = 1
    while (e := row.b(k)) <= n_max:
        first = -row.c if k % 2 else row.c
        acc[e :: row.s * k] = map(add, acc[e :: row.s * k], count(first, (1 + row.eps) * first))
        k += 1
    return acc


def _spt_quotient(row: _SptRow, n_max: int) -> list[int]:
    """The smallest-parts series of a row to q^n_max, N / theta: one sparse
    recurrence over theta's terms below q^(n_max+1)."""
    return zf_div_sparse(_spt_numerator(row, n_max), zf_theta_terms(row.theta, n_max + 1))


def _spt_weighted(row: _SptRow, n_max: int) -> list[int]:
    """The eta-weighted series of a row to q^n_max, N(sign q) times the
    Euler series that the weight leaves (_SptRow): sparse products on
    small integers, where the quotient route divides by theta and
    multiplies it back."""
    f = _spt_numerator(row, n_max)
    if row.sign < 0:
        f[1::2] = map(neg, f[1::2])
    return zf_product(f, Product(tuple(Factors(-1, 0, e, e) for e in row.euler)))


def _divisor_sums(n_max: int, s: int) -> list[int]:
    """sum_{m>=1} sigma(m) q^{sm} to q^n_max, as sum over d, k >= 1 of d q^{sdk}.

    With M = n_max // s and r = isqrt(M), a pair (d, k) with dk <= M has
    d <= r or k <= r (else dk >= (r+1)^2 > M). The pairs with d <= r are
    one slice add per d (every k); the rest, d > r, are one slice add per
    k <= r, adding d = r+1, r+2, ... at q^{sk(r+1)}, q^{sk(r+2)}, ...: about
    2 sqrt(M) slice adds where one per d took M.
    """
    acc = zf_zero(n_max)
    r = isqrt(n_max // s)
    for d in range(1, r + 1):
        acc[s * d :: s * d] = map(add, acc[s * d :: s * d], repeat(d))
    for k in range(1, r + 1):
        at = s * k * (r + 1)
        acc[at :: s * k] = map(add, acc[at :: s * k], count(r + 1))
    return acc


def _spt_series(n_max: int) -> list[int]:
    return _spt_quotient(_SPT_ROW, n_max)


@cache
def _spt_series_direct(n_max: int) -> list[int]:
    """spt summed over the smallest part n, in nested form, on no kernel
    that _spt_series uses but zf_zero. Cached, so each size runs once per
    process; callers only read the list.

    spt = sum_{n>=1} a_n T_n with a_n = q^n/(1-q^n)^2 = sum_{k>=1} k q^{kn} and
    T_n = 1/(q^{n+1};q)_oo = T_{n-1} (1-q^n), so U_1 = a_1 and
    U_n = U_{n-1}/(1-q^n) + a_n give sum_{n<=N} a_n T_n = T_N U_N. Term bound:
    a_n has q-valuation n, and T_N = 1 modulo q^{N+1}, so the series is U_N.
    """
    acc = zf_zero(n_max)
    for n in range(1, n_max + 1):
        zf_div_factor(acc, -1, n)
        acc[n::n] = map(add, acc[n::n], count(1))
    return acc


def _spt_series_checked(n_max: int) -> list[int]:
    vals = _spt_series(n_max)
    cap = min(n_max, _DIRECT_SUM_CAP)
    if vals[: cap + 1] != _spt_series_direct(cap):
        raise VerificationFailed(
            "smallest-part count routes disagree", n_max=n_max, checked_to=cap
        )
    return vals


def _a_series(n_max: int) -> list[int]:
    """(q;q)_oo^3 sum spt(n) q^n, the weighted spt row, after the spt
    values up to the direct-sum cap pass their check."""
    _spt_series_checked(min(n_max, _DIRECT_SUM_CAP))
    return _spt_weighted(_SPT_ROW, n_max)


def _alpha_series(n_max: int) -> list[int]:
    m_cap = max((n_max - 1) // 12, 0)
    spt = _spt_series_checked(m_cap)
    acc = zf_zero(n_max)
    for m in range(1, m_cap + 1):
        acc[12 * m + 1] = spt[m]
    return zf_product(acc, Product((Factors(-1, 0, 12, 12),) * 3))  # (q^12;q^12)_oo^3


def _beta_series(n_max: int) -> list[int]:
    """sum_{m>=1} (-1)^m m2spt(m) q^{8m+1} (q^16;q^16)_oo^3, that is q times
    the weighted m2spt row at x = q^8, whose weight (x^2;x^2)_oo^3 is that
    cube; m2spt(0) = 0."""
    acc = zf_zero(n_max)
    if n_max >= 1:
        acc[1::8] = _spt_weighted(_M2SPT_ROW, (n_max - 1) // 8)
    return acc


_SEQUENCES: dict[str, Callable[[int], list[int]]] = {
    "spt": _spt_series_checked,
    "sptBar": partial(_spt_quotient, _SPTBAR_ROW),
    "m2spt": partial(_spt_quotient, _M2SPT_ROW),
    "a": _a_series,
    "alpha": _alpha_series,
    "beta": _beta_series,
}


def sequence_values(name: str, n_max: int) -> list[int]:
    """Exact values of a named sequence, indexed 0..n_max inclusive.

    spt, sptBar and m2spt are each a divisor sum plus a sparse Lambert
    sum, divided by a theta series (_spt_quotient), O(n_max^1.5) in all.
    a and beta are a cube of (q^s;q^s)_oo times spt or m2spt, and the cube
    contains the theta series, so each is the numerator times the Euler
    series left over (_spt_weighted), with no division; alpha multiplies
    spt at q^12 by the cube. Every spt value up to an internal cap is
    checked against the nested sum over the smallest part, for a and
    alpha too, and drift raises VerificationFailed.
    """
    if n_max < 0:
        raise UsageError("n_max must be nonnegative")
    try:
        engine = _SEQUENCES[name]
    except KeyError:
        known = ", ".join(sorted(_SEQUENCES))
        raise UnknownSeriesId(f"unknown sequence {name!r}; expected one of {known}") from None
    return engine(n_max)


# ---------------------------------------------------------------------------
# Congruences.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CongruenceRule:
    """An exact linear relation on one sequence, checked index by index.

    For the shifted rule the residual at n is seq(5n+2) + 25 seq(n/5);
    for an eigenvalue rule it is seq(ell n) + eps ell^2 seq(n/ell). Terms
    at fractional indices read as zero.
    """

    id: str
    sequence: str
    default_n_max: int
    ell: int | None = None
    eps: int | None = None

    def order_needed(self, n_max: int) -> int:
        if self.ell is None:
            return 5 * n_max + 2
        return self.ell * n_max

    def residual(self, vals: Sequence[int], n: int) -> int:
        if self.ell is None:
            back = vals[n // 5] if n % 5 == 0 else 0
            return vals[5 * n + 2] + 25 * back
        back = vals[n // self.ell] if n % self.ell == 0 else 0
        return vals[self.ell * n] + self.eps * self.ell * self.ell * back


def _hecke_rule(prefix: str, sequence: str, ell: int, modulus: int, plus: int) -> CongruenceRule:
    eps = 1 if ell % modulus == plus else -1
    return CongruenceRule(
        id=f"{prefix}-l{ell}",
        sequence=sequence,
        default_n_max=2000 // ell,
        ell=ell,
        eps=eps,
    )


CONGRUENCE_RULES: dict[str, CongruenceRule] = {
    rule.id: rule
    for rule in (
        CongruenceRule(id="congs35", sequence="a", default_n_max=199),
        _hecke_rule("heckecong", "alpha", 5, 12, 5),
        _hecke_rule("heckecong", "alpha", 7, 12, 5),
        _hecke_rule("heckecong", "alpha", 17, 12, 5),
        _hecke_rule("m2heckecong", "beta", 3, 8, 3),
        _hecke_rule("m2heckecong", "beta", 5, 8, 3),
        _hecke_rule("m2heckecong", "beta", 11, 8, 3),
    )
}


def check_congruence(rule: CongruenceRule | str, n_max: int | None = None) -> dict:
    """Check one congruence rule for every index up to n_max.

    Returns a report dict with the rule id, the range checked, and the
    list of violating indices with their nonzero residuals.
    """
    if isinstance(rule, str):
        try:
            rule = CONGRUENCE_RULES[rule]
        except KeyError:
            known = ", ".join(sorted(CONGRUENCE_RULES))
            raise UnknownIdentity(
                f"unknown congruence {rule!r}; expected one of {known}"
            ) from None
    bound = rule.default_n_max if n_max is None else n_max
    if bound < 0:
        raise UsageError("n_max must be nonnegative")
    start = time.perf_counter()
    vals = sequence_values(rule.sequence, rule.order_needed(bound))
    violations = []
    for n in range(bound + 1):
        r = rule.residual(vals, n)
        if r != 0:
            violations.append({"n": n, "residual": r})
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "id": rule.id,
        "sequence": rule.sequence,
        "n_max": bound,
        "ok": not violations,
        "violations": violations,
        "elapsed_ms": elapsed_ms,
    }
