"""Identity registry, verification drivers, sequences, and congruence checks.

Every entry in the registry pairs two independently constructed series
under a stable string id. One side is usually an infinite-product or
basic hypergeometric build, the other an indefinite quadratic-form double
sum, so agreement of truncations is a genuine machine check rather than
a tautology. verify_identity expands both sides to a q-order and reports
the first mismatched coefficient if there is one.

The same module hosts the exact integer sequence engines (spt, sptBar,
m2spt and their eta-multiplied companions) and the congruence rules that
consume them, because both reuse the dense z-free kernel.
"""

from __future__ import annotations

import fnmatch
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import count, islice, repeat
from operator import add
from typing import Callable, Iterable, Sequence

from .bailey import a1_lhs, a1_rhs, niceid_lhs, niceid_rhs, slater_lhs, slater_rhs
from .errors import UnknownIdentity, UnknownSeriesId, VerificationFailed
from .hecke import eval_template, template_catalog
from .qseries import (
    QSeries,
    div_factor,
    gauss_binomial,
    mul_factor,
    qs_add,
    qs_first_mismatch,
    qs_monomial,
    qs_mul,
    qs_mul_monomial,
    qs_one,
    qs_sub,
    qs_substitute_neg_q,
    qs_truncate_z,
    qs_zero,
    zf_add_into,
    zf_div_factor,
    zf_mul,
    zf_mul_factor,
    zf_one,
    zf_pochhammer_inf,
    zf_shift,
    zf_to_qseries,
    zf_zero,
)
from .specfun import (
    build_H,
    build_K,
    build_N2_rank,
    build_R,
    build_S2_def,
    build_SBar_def,
    build_S_def,
    build_S_formula,
    build_crank_style,
    build_f_mock3,
    build_false_theta_sides,
    build_g_cleared,
    build_mu_mock2,
)

__all__ = [
    "Variables",
    "IdentityRecord",
    "CongruenceRule",
    "DISCREPANCY_GROUPS",
    "CONGRUENCE_RULES",
    "registry_catalog",
    "lookup",
    "mutated_demo_record",
    "verify_identity",
    "verify_all",
    "group_verdicts",
    "overall_ok",
    "sequence_values",
    "check_congruence",
]


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
# Product helpers.
# ---------------------------------------------------------------------------


def _mul_inf(f: QSeries, c: int, z_exp: int, q_start: int, step: int = 1) -> QSeries:
    """f times prod_{j>=0} (1 + c z^{z_exp} q^{q_start + j step}), truncated."""
    e = q_start
    while e <= f.order:
        f = mul_factor(f, c, z_exp, e)
        e += step
    return f


def _div_inf(f: QSeries, c: int, z_exp: int, q_start: int, step: int = 1) -> QSeries:
    """f divided by prod_{j>=0} (1 + c z^{z_exp} q^{q_start + j step})."""
    e = q_start
    while e <= f.order:
        f = div_factor(f, c, z_exp, e)
        e += step
    return f


def _q_inf(N: int) -> QSeries:
    return _mul_inf(qs_one(N), -1, 0, 1)


def _q_inf_sq(N: int) -> QSeries:
    return _mul_inf(_q_inf(N), -1, 0, 1)


def _q_q2_inf(N: int) -> QSeries:
    """(q;q)_oo (q^2;q^2)_oo."""
    return _mul_inf(_q_inf(N), -1, 0, 2, 2)


def _cross_product(f: QSeries, base: int) -> QSeries:
    """f times (z q^b;q^b)_oo (z^{-1} q^b;q^b)_oo (q^b;q^b)_oo."""
    f = _mul_inf(f, -1, 1, base, base)
    f = _mul_inf(f, -1, -1, base, base)
    return _mul_inf(f, -1, 0, base, base)


def _cross_product_at(f: QSeries, base: int, z0: int) -> QSeries:
    """The same triple product with z already specialized to +-1."""
    f = _mul_inf(f, -z0, 0, base, base)
    f = _mul_inf(f, -z0, 0, base, base)
    return _mul_inf(f, -1, 0, base, base)


def _clear_z_poles(f: QSeries) -> QSeries:
    """f times (1 - z)(1 - z^{-1})."""
    return mul_factor(mul_factor(f, -1, 1, 0), -1, -1, 0)


# ---------------------------------------------------------------------------
# Dense theta lists for the z-free records.
# ---------------------------------------------------------------------------


def _theta_tri(N: int) -> list[int]:
    """sum_{k>=0} q^{k(k+1)/2} as a dense list."""
    out = zf_zero(N)
    k = 0
    while k * (k + 1) // 2 <= N:
        out[k * (k + 1) // 2] += 1
        k += 1
    return out


def _theta_tri2(N: int) -> list[int]:
    """sum_{k>=0} q^{k(k+1)} as a dense list."""
    out = zf_zero(N)
    k = 0
    while k * (k + 1) <= N:
        out[k * (k + 1)] += 1
        k += 1
    return out


def _theta_sq_alt(N: int) -> list[int]:
    """1 + 2 sum_{k>=1} (-1)^k q^{k^2} as a dense list."""
    out = zf_zero(N)
    out[0] = 1
    k = 1
    while k * k <= N:
        out[k * k] += -2 if k % 2 else 2
        k += 1
    return out


# ---------------------------------------------------------------------------
# Left-hand sides that are specific to single records.
# ---------------------------------------------------------------------------


def _template_series(id: str, N: int) -> QSeries:
    return eval_template(template_catalog(id), N)


def _rank_product_lhs(N: int) -> QSeries:
    return _cross_product(build_R(N), 1)


def _over_rank_product_lhs(N: int) -> QSeries:
    return mul_factor(_cross_product(build_H(N), 1), 1, 1, 0)


def _m2_rank_product_lhs(N: int) -> QSeries:
    return _cross_product(build_K(N), 2)


def _spt_product_lhs(N: int) -> QSeries:
    return _clear_z_poles(_cross_product(build_S_def(N), 1))


def _f_product_lhs(N: int) -> QSeries:
    """f(q) (-q;q)_oo^2 (q;q)_oo."""
    f = build_f_mock3(N)
    f = _mul_inf(f, 1, 0, 1)
    f = _mul_inf(f, 1, 0, 1)
    return _mul_inf(f, -1, 0, 1)


def _f_triangle_lhs(N: int) -> QSeries:
    return qs_mul(zf_to_qseries(_theta_tri(N)), build_f_mock3(N))


def _mu_product_lhs(N: int) -> QSeries:
    """mu(q) (-q^2;q^2)_oo^2 (q^2;q^2)_oo."""
    f = build_mu_mock2(N)
    f = _mul_inf(f, 1, 0, 2, 2)
    f = _mul_inf(f, 1, 0, 2, 2)
    return _mul_inf(f, -1, 0, 2, 2)


def _mu_triangle_lhs(N: int) -> QSeries:
    return qs_mul(zf_to_qseries(_theta_tri2(N)), build_mu_mock2(N))


def _half_pochhammer_ratio_lhs(N: int) -> QSeries:
    """(sum q^{n(n+1)/2}) sum_{n>=1} q^{n(n+1)/2} / ((-q;q)_n (1 + q^n))."""
    acc = zf_zero(N)
    term = zf_shift(zf_one(N), 1)
    zf_div_factor(term, 1, 1)
    zf_div_factor(term, 1, 1)
    zf_add_into(acc, term)
    n = 2
    while n * (n + 1) // 2 <= N:
        term = zf_shift(term, n)
        zf_mul_factor(term, 1, n - 1)
        zf_div_factor(term, 1, n)
        zf_div_factor(term, 1, n)
        zf_add_into(acc, term)
        n += 1
    return zf_to_qseries(zf_mul(_theta_tri(N), acc))


def _descending_product_lhs(N: int) -> QSeries:
    """(q;q)_oo / (z^{-1}q;q)_oo."""
    return _div_inf(_q_inf(N), -1, -1, 1)


def _descending_sum_rhs(N: int) -> QSeries:
    """1 + sum_{n>=1} (-1)^n q^{n(n+1)/2} (1 - z^{-1}) / ((1 - z^{-1}q^n)(q;q)_n)."""
    acc = qs_one(N)
    term = qs_monomial(-1, 0, 1, N)
    term = mul_factor(term, -1, -1, 0)
    term = div_factor(term, -1, -1, 1)
    term = div_factor(term, -1, 0, 1)
    acc = qs_add(acc, term)
    n = 2
    while n * (n + 1) // 2 <= N:
        term = qs_mul_monomial(term, -1, 0, n)
        term = mul_factor(term, -1, -1, n - 1)
        term = div_factor(term, -1, -1, n)
        term = div_factor(term, -1, 0, n)
        acc = qs_add(acc, term)
        n += 1
    return acc


def _rank_minus_crank_rhs(N: int) -> QSeries:
    rhs = _clear_z_poles(_cross_product(build_S_def(N), 1))
    return qs_add(rhs, _q_inf_sq(N))


def _srids_rhs(N: int) -> QSeries:
    return _rank_minus_crank_rhs(N)


def _spt_weighted_lhs(N: int) -> QSeries:
    """(q;q)_oo^3 sum spt(n) q^n."""
    vals = _spt_series(N)
    for _ in range(3):
        zf_pochhammer_inf(1, 1, 1, vals)
    return zf_to_qseries(vals)


def _over_spt_weighted_lhs(N: int) -> QSeries:
    """(q;q)_oo^3 sum sptBar(n) q^n."""
    vals = _sptbar_series(N)
    for _ in range(3):
        zf_pochhammer_inf(1, 1, 1, vals)
    return zf_to_qseries(vals)


def _m2_spt_weighted_lhs(N: int) -> QSeries:
    """(q^2;q^2)_oo^3 sum (-1)^n m2spt(n) q^n."""
    vals = _m2spt_series(N)
    for n in range(1, N + 1, 2):
        vals[n] = -vals[n]
    for _ in range(3):
        zf_pochhammer_inf(2, 2, 1, vals)
    return zf_to_qseries(vals)


def _over_spt_product_lhs(N: int) -> QSeries:
    return mul_factor(_clear_z_poles(_cross_product(build_SBar_def(N), 1)), 1, 1, 0)


def _over_spt_rank_crank_rhs(N: int) -> QSeries:
    return qs_sub(build_H(N), build_crank_style(1, N, overline=True))


def _over_spt_cleared_lhs(N: int) -> QSeries:
    return _clear_z_poles(build_SBar_def(N))


def _m2_spt_cleared_lhs(N: int) -> QSeries:
    return _clear_z_poles(build_S2_def(N))


def _m2_spt_rank_crank_rhs(N: int) -> QSeries:
    return qs_sub(build_N2_rank(N), build_crank_style(2, N, overline=True))


def _m2_spt_product_lhs(N: int) -> QSeries:
    """(z;q^2)_oo (z^{-1};q^2)_oo (q^2;q^2)_oo S2(z, -q)."""
    f = qs_substitute_neg_q(build_S2_def(N))
    f = _mul_inf(f, -1, 1, 0, 2)
    f = _mul_inf(f, -1, -1, 0, 2)
    return _mul_inf(f, -1, 0, 2, 2)


def _m2_spt_product_rhs(N: int) -> QSeries:
    return qs_sub(_cross_product(build_K(N), 2), _q_q2_inf(N))


def _partition_pair_product_lhs(N: int) -> QSeries:
    """(q;q)_oo^2 / ((zq;q)_oo (z^{-1}q;q)_oo)."""
    f = _q_inf_sq(N)
    f = _div_inf(f, -1, 1, 1)
    return _div_inf(f, -1, -1, 1)


def _windowed_pair_sum_rhs(N: int) -> QSeries:
    f = eval_template(template_catalog("ANDID"), N, z_window=N)
    f = mul_factor(f, -1, -1, 0)
    return qs_truncate_z(f, -N, N)


def _odd_even_mock_lhs(N: int) -> QSeries:
    """(q;q)_oo (1 + z^{-1}) sum (-zq;q^2)_n (-z^{-1}q;q^2)_n q^{2n}/(q;q^2)_{n+1}."""
    term = div_factor(qs_one(N), -1, 0, 1)
    acc = term
    n = 1
    while 2 * n <= N:
        term = qs_mul_monomial(term, 1, 0, 2)
        term = mul_factor(term, 1, 1, 2 * n - 1)
        term = mul_factor(term, 1, -1, 2 * n - 1)
        term = div_factor(term, -1, 0, 2 * n + 1)
        acc = qs_add(acc, term)
        n += 1
    acc = _mul_inf(acc, -1, 0, 1)
    return mul_factor(acc, 1, -1, 0)


def _odd_pochhammer_sum_lhs(N: int) -> QSeries:
    """(q;q)_oo sum (q;q^2)_n q^{2n} / (1 - q^{2n+1})."""
    term = zf_one(N)
    zf_div_factor(term, -1, 1)
    acc = list(term)
    n = 1
    while 2 * n <= N:
        term = zf_shift(term, 2)
        zf_mul_factor(term, -1, 2 * n - 1)
        zf_mul_factor(term, -1, 2 * n - 1)
        zf_div_factor(term, -1, 2 * n + 1)
        zf_add_into(acc, term)
        n += 1
    zf_pochhammer_inf(1, 1, 1, acc)
    return zf_to_qseries(acc)


def _quarter_theta_mock_lhs(N: int) -> QSeries:
    """(-q;q^4)_oo (-q^3;q^4)_oo (q^4;q^4)_oo (1 + z^{-1})
    times sum (zq;q^2)_n (z^{-1}q;q^2)_n q^{2n}/(-q;q)_{2n+1}.

    The denominator base is (-q;q)_{2n+1}, not (q;q)_{2n+1}: the plus
    sign is what makes the z -> -1 limit reduce termwise to the
    one-variable companion sum, and the identity fails at q^1 otherwise.
    """
    term = div_factor(qs_one(N), 1, 0, 1)
    acc = term
    n = 1
    while 2 * n <= N:
        term = qs_mul_monomial(term, 1, 0, 2)
        term = mul_factor(term, -1, 1, 2 * n - 1)
        term = mul_factor(term, -1, -1, 2 * n - 1)
        term = div_factor(term, 1, 0, 2 * n)
        term = div_factor(term, 1, 0, 2 * n + 1)
        acc = qs_add(acc, term)
        n += 1
    acc = _mul_inf(acc, 1, 0, 1, 4)
    acc = _mul_inf(acc, 1, 0, 3, 4)
    acc = _mul_inf(acc, -1, 0, 4, 4)
    return mul_factor(acc, 1, -1, 0)


def _neg_odd_ratio_sum_lhs(N: int) -> QSeries:
    """(sum q^{n(n+1)/2}) sum (-q;q^2)_n q^{2n} / ((-q^2;q^2)_n (1 + q^{2n+1}))."""
    term = zf_one(N)
    zf_div_factor(term, 1, 1)
    acc = list(term)
    n = 1
    while 2 * n <= N:
        term = zf_shift(term, 2)
        zf_mul_factor(term, 1, 2 * n - 1)
        zf_mul_factor(term, 1, 2 * n - 1)
        zf_div_factor(term, 1, 2 * n)
        zf_div_factor(term, 1, 2 * n + 1)
        zf_add_into(acc, term)
        n += 1
    return zf_to_qseries(zf_mul(_theta_tri(N), acc))


def _mixed_base_mock_lhs(N: int) -> QSeries:
    """(q;q^2)_oo (q;q)_oo (1 + z^{-1})
    times sum (-zq;q)_n (-z^{-1}q;q^2)_n q^{n+1}/(q;q^2)_n, as printed."""
    term = qs_monomial(1, 0, 1, N)
    acc = term
    n = 1
    while n + 1 <= N:
        term = qs_mul_monomial(term, 1, 0, 1)
        term = mul_factor(term, 1, 1, n)
        term = mul_factor(term, 1, -1, 2 * n - 1)
        term = div_factor(term, -1, 0, 2 * n - 1)
        acc = qs_add(acc, term)
        n += 1
    acc = _mul_inf(acc, -1, 0, 1, 2)
    acc = _mul_inf(acc, -1, 0, 1)
    return mul_factor(acc, 1, -1, 0)


def _mixed_base_mock_corrected_lhs(N: int) -> QSeries:
    """(q;q^2)_oo (q;q)_oo (1 + z^{-1})
    times sum (-zq;q)_n (-z^{-1}q;q)_n q^n / (q;q^2)_{n+1}.

    Both numerator factors run in base q, the weight is q^n, and the
    denominator index is n + 1. That is the unique nearby reading whose
    z -> -1 limit reduces termwise to the one-variable sum
    (q;q)_n^2 q^n / (q;q^2)_{n+1}, and it restores the constant term the
    mixed-base form is missing."""
    term = div_factor(qs_one(N), -1, 0, 1)
    acc = term
    n = 1
    while n <= N:
        term = qs_mul_monomial(term, 1, 0, 1)
        term = mul_factor(term, 1, 1, n)
        term = mul_factor(term, 1, -1, n)
        term = div_factor(term, -1, 0, 2 * n + 1)
        acc = qs_add(acc, term)
        n += 1
    acc = _mul_inf(acc, -1, 0, 1, 2)
    acc = _mul_inf(acc, -1, 0, 1)
    return mul_factor(acc, 1, -1, 0)


def _square_pochhammer_sum_lhs(N: int) -> QSeries:
    """(sum_{n in Z} (-1)^n q^{n^2}) sum (q;q)_n^2 q^n / (q;q^2)_{n+1}."""
    term = zf_one(N)
    zf_div_factor(term, -1, 1)
    acc = list(term)
    n = 1
    while n <= N:
        term = zf_shift(term, 1)
        zf_mul_factor(term, -1, n)
        zf_mul_factor(term, -1, n)
        zf_div_factor(term, -1, 2 * n + 1)
        zf_add_into(acc, term)
        n += 1
    return zf_to_qseries(zf_mul(_theta_sq_alt(N), acc))


def _even_base_ratio_rhs(N: int) -> QSeries:
    """(1 + z)(q^2;q^2)_oo (q;q)_oo sum (z;q)_n (z^{-1};q)_n q^n/(q^2;q^2)_n."""
    term = qs_one(N)
    acc = term
    n = 1
    while n <= N:
        term = qs_mul_monomial(term, 1, 0, 1)
        term = mul_factor(term, -1, 1, n - 1)
        term = mul_factor(term, -1, -1, n - 1)
        term = div_factor(term, -1, 0, 2 * n)
        acc = qs_add(acc, term)
        n += 1
    acc = _mul_inf(acc, -1, 0, 2, 2)
    acc = _mul_inf(acc, -1, 0, 1)
    return mul_factor(acc, 1, 1, 0)


def _odd_base_ratio_rhs(N: int) -> QSeries:
    """((q;q)_oo/(-q;q)_oo) sum (zq;q^2)_n (z^{-1}q;q^2)_n q^n
    / ((q;q^2)_n (q^2;q^2)_n)."""
    term = qs_one(N)
    acc = term
    n = 1
    while n <= N:
        term = qs_mul_monomial(term, 1, 0, 1)
        term = mul_factor(term, -1, 1, 2 * n - 1)
        term = mul_factor(term, -1, -1, 2 * n - 1)
        term = div_factor(term, -1, 0, 2 * n - 1)
        term = div_factor(term, -1, 0, 2 * n)
        acc = qs_add(acc, term)
        n += 1
    acc = _mul_inf(acc, -1, 0, 1)
    return _div_inf(acc, 1, 0, 1)


def _finite_pair_v1_lhs(n: int, N: int) -> QSeries:
    """(1 + z)(z;q)_n (z^{-1};q)_n."""
    f = mul_factor(qs_one(N), 1, 1, 0)
    for k in range(n):
        f = mul_factor(f, -1, 1, k)
        f = mul_factor(f, -1, -1, k)
    return f


def _finite_pair_v1_rhs(n: int, N: int) -> QSeries:
    acc = qs_zero(N)
    for j in range(-n, n + 2):
        b = div_factor(gauss_binomial(2 * n + 1, n + j, 1, N), -1, 0, 2 * n + 1)
        s = 1 if (j + 1) % 2 == 0 else -1
        e1 = (j - 1) * (j - 2) // 2
        e2 = j * (j + 1) // 2
        acc = qs_add(acc, qs_mul_monomial(b, s, j, e1))
        acc = qs_sub(acc, qs_mul_monomial(b, s, j, e2))
    return acc


def _finite_pair_lhs(n: int, N: int) -> QSeries:
    """(z;q)_n (z^{-1}q;q)_n."""
    f = qs_one(N)
    for k in range(n):
        f = mul_factor(f, -1, 1, k)
        f = mul_factor(f, -1, -1, k + 1)
    return f


def _finite_pair_rhs(n: int, N: int) -> QSeries:
    acc = qs_zero(N)
    for j in range(-n, n + 1):
        b = gauss_binomial(2 * n, n + j, 1, N)
        s = 1 if j % 2 == 0 else -1
        acc = qs_add(acc, qs_mul_monomial(b, s, j, j * (j - 1) // 2))
    return acc


def _finite_pair_sq_lhs(n: int, N: int) -> QSeries:
    """(zq;q^2)_n (z^{-1}q;q^2)_n."""
    f = qs_one(N)
    for k in range(1, n + 1):
        f = mul_factor(f, -1, 1, 2 * k - 1)
        f = mul_factor(f, -1, -1, 2 * k - 1)
    return f


def _finite_pair_sq_rhs(n: int, N: int) -> QSeries:
    acc = qs_zero(N)
    for k in range(-n, n + 1):
        b = gauss_binomial(2 * n, n + k, 2, N)
        s = 1 if k % 2 == 0 else -1
        acc = qs_add(acc, qs_mul_monomial(b, s, k, k * k))
    return acc


def _false_side(id: str, N: int) -> QSeries:
    return qs_truncate_z(build_false_theta_sides(id, N), 0, N)


def _nice_lhs(k: int, N: int) -> QSeries:
    return zf_to_qseries(niceid_lhs(k, N))


def _nice_rhs(k: int, N: int) -> QSeries:
    return zf_to_qseries(niceid_rhs(k, N))


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

DISCREPANCY_GROUPS: dict[str, tuple[str, ...]] = {
    "MORTID1B": ("MORTID1B-printed", "MORTID1B-corrected"),
    "MORTID3": ("MORTID3-printed", "MORTID3-corrected"),
}


def _build_registry() -> dict[str, IdentityRecord]:
    records: list[IdentityRecord] = []

    def add(
        id: str,
        lhs: Builder,
        rhs: Builder,
        order: int,
        variables: Variables,
        cleared_note: str | None = None,
        group: str | None = None,
    ) -> None:
        records.append(IdentityRecord(id, lhs, rhs, order, variables, cleared_note, group))

    # Product evaluations of the three universal sums at z = 1 and q -> -q.
    add("R1", lambda N: build_R(N, 1), lambda N: _div_inf(qs_one(N), -1, 0, 1), 200, Variables.Q_ONLY)
    add(
        "H1",
        lambda N: build_H(N, 1),
        lambda N: _div_inf(_mul_inf(qs_one(N), 1, 0, 1), -1, 0, 1),
        200,
        Variables.Q_ONLY,
    )
    add(
        "K1",
        lambda N: build_K(N, 1),
        lambda N: _div_inf(_mul_inf(qs_one(N), -1, 0, 1, 2), -1, 0, 2, 2),
        200,
        Variables.Q_ONLY,
    )
    add(
        "K1b",
        lambda N: qs_substitute_neg_q(build_K(N, 1)),
        lambda N: _div_inf(_mul_inf(qs_one(N), 1, 0, 1, 2), -1, 0, 2, 2),
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
    add("HR1", _q_inf_sq, partial(_template_series, "HR1"), 200, Variables.Q_ONLY)
    for hid in ("HR2", "HR3", "HR4"):
        add(hid, _q_q2_inf, partial(_template_series, hid), 200, Variables.Q_ONLY)

    # Two-variable rank expansions.
    add("NEWrankid", _rank_product_lhs, partial(_template_series, "NEWrankid"), 50, Variables.Z_AND_Q)
    add("CONJ1a", _over_rank_product_lhs, partial(_template_series, "CONJ1a"), 50, Variables.Z_AND_Q)
    add("CONJ1b", _over_rank_product_lhs, partial(_template_series, "CONJ1b"), 50, Variables.Z_AND_Q)
    add("CONJ2", _m2_rank_product_lhs, partial(_template_series, "CONJ2"), 50, Variables.Z_AND_Q)

    # Their z = +-1 specializations against the single-variable sums.
    add(
        "NEWrankid-z1",
        lambda N: _cross_product_at(build_R(N, 1), 1, 1),
        partial(_template_series, "HR1"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "NEWrankid-zm1",
        lambda N: _cross_product_at(build_R(N, -1), 1, -1),
        partial(_template_series, "HRf"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "CONJ1a-z1",
        lambda N: qs_mul_monomial(_cross_product_at(build_H(N, 1), 1, 1), 2),
        lambda N: qs_mul_monomial(_template_series("HR2", N), 2),
        200,
        Variables.Q_ONLY,
    )
    add(
        "CONJ1b-z1",
        lambda N: qs_mul_monomial(_cross_product_at(build_H(N, 1), 1, 1), 2),
        lambda N: qs_mul_monomial(_template_series("HR3", N), 2),
        200,
        Variables.Q_ONLY,
    )
    add(
        "CONJ2-z1",
        lambda N: _cross_product_at(build_K(N, 1), 2, 1),
        partial(_template_series, "HR4"),
        200,
        Variables.Q_ONLY,
    )
    add(
        "CONJ2-zm1",
        lambda N: _cross_product_at(build_K(N, -1), 2, -1),
        partial(_template_series, "HRmu"),
        200,
        Variables.Q_ONLY,
    )

    # Mock theta double sums.
    add("HRf", _f_product_lhs, partial(_template_series, "HRf"), 200, Variables.Q_ONLY)
    add("HRfv2", _f_triangle_lhs, partial(_template_series, "HRf"), 200, Variables.Q_ONLY)
    add("HRmu", _mu_product_lhs, partial(_template_series, "HRmu"), 200, Variables.Q_ONLY)
    add("HRmuv2", _mu_triangle_lhs, partial(_template_series, "HRmu"), 200, Variables.Q_ONLY)
    add(
        "HRnewv2",
        _half_pochhammer_ratio_lhs,
        partial(_template_series, "HRnewv2"),
        200,
        Variables.Q_ONLY,
    )

    # Smallest-part weighted sums.
    add("Szqid2", build_S_def, build_S_formula, 30, Variables.Z_AND_Q)
    add("FFWid", _descending_product_lhs, _descending_sum_rhs, 50, Variables.Z_AND_Q)
    add("SRids", _rank_product_lhs, _srids_rhs, 40, Variables.Z_AND_Q)
    add(
        "NEWSid",
        _spt_product_lhs,
        partial(_template_series, "NEWSid"),
        50,
        Variables.Z_AND_Q,
        cleared_note="the z = 1 double pole is cleared by the (1-z)(1-1/z) prefactor",
    )
    add(
        "EQNEWSid",
        _spt_product_lhs,
        partial(_template_series, "EQNEWSid"),
        50,
        Variables.Z_AND_Q,
        cleared_note="the z = 1 double pole is cleared by the (1-z)(1-1/z) prefactor",
    )
    add("NEWSPTid", _spt_weighted_lhs, partial(_template_series, "NEWSPTid"), 300, Variables.Q_ONLY)
    add("cor1", _q_inf_sq, partial(_template_series, "cor1"), 200, Variables.Q_ONLY)
    add(
        "SPHR1",
        lambda N: eval_template(template_catalog("SPHR1.lhs"), N),
        lambda N: eval_template(template_catalog("SPHR1.rhs"), N),
        60,
        Variables.Z_AND_Q,
    )
    add(
        "SPHR2",
        lambda N: eval_template(template_catalog("SPHR2.lhs"), N),
        lambda N: eval_template(template_catalog("SPHR2.rhs"), N),
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
    add("CONJ1s1", _over_rank_product_lhs, _even_base_ratio_rhs, 40, Variables.Z_AND_Q)
    add("CONJ2s1", _m2_rank_product_lhs, _odd_base_ratio_rhs, 40, Variables.Z_AND_Q)
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
        _over_spt_cleared_lhs,
        _over_spt_rank_crank_rhs,
        40,
        Variables.Z_AND_Q,
        cleared_note="compared with the (1-z)(1-1/z) pole factors multiplied through",
    )
    add("NEWSBid", _over_spt_product_lhs, partial(_template_series, "NEWSBid"), 40, Variables.Z_AND_Q)
    add("SBcorid", _over_spt_weighted_lhs, partial(_template_series, "SBcorid"), 300, Variables.Q_ONLY)
    add(
        "S2id",
        _m2_spt_cleared_lhs,
        _m2_spt_rank_crank_rhs,
        40,
        Variables.Z_AND_Q,
        cleared_note="compared with the (1-z)(1-1/z) pole factors multiplied through",
    )
    add("NEWS2id", _m2_spt_product_lhs, partial(_template_series, "NEWS2id"), 40, Variables.Z_AND_Q)
    add("NEWS2id2", _m2_spt_product_lhs, _m2_spt_product_rhs, 40, Variables.Z_AND_Q)
    add(
        "NEWM2SPTid",
        _m2_spt_weighted_lhs,
        partial(_template_series, "NEWM2SPTid"),
        300,
        Variables.Q_ONLY,
    )

    add(
        "ANDID",
        _partition_pair_product_lhs,
        _windowed_pair_sum_rhs,
        50,
        Variables.Z_AND_Q,
        cleared_note=(
            "the double sum is multiplied by (1-1/z) and cut to the z-window"
            " [-order, order]; the product side is polynomial there already"
        ),
    )

    # Mixed mock theta expansions with theta-quotient prefactors.
    add("MORTID1", _odd_even_mock_lhs, partial(_template_series, "MORTID1"), 40, Variables.Z_AND_Q)
    add(
        "MORTID1B-printed",
        _odd_pochhammer_sum_lhs,
        partial(_template_series, "MORTID1B-printed"),
        200,
        Variables.Q_ONLY,
        group="MORTID1B",
    )
    add(
        "MORTID1B-corrected",
        _odd_pochhammer_sum_lhs,
        partial(_template_series, "MORTID1B-corrected"),
        200,
        Variables.Q_ONLY,
        group="MORTID1B",
    )
    add("MORTID2", _quarter_theta_mock_lhs, partial(_template_series, "MORTID2"), 40, Variables.Z_AND_Q)
    add("MORTID2B", _neg_odd_ratio_sum_lhs, partial(_template_series, "MORTID2B"), 200, Variables.Q_ONLY)
    add(
        "MORTID3-printed",
        _mixed_base_mock_lhs,
        partial(_template_series, "MORTID3"),
        40,
        Variables.Z_AND_Q,
        group="MORTID3",
    )
    add(
        "MORTID3-corrected",
        _mixed_base_mock_corrected_lhs,
        partial(_template_series, "MORTID3"),
        40,
        Variables.Z_AND_Q,
        group="MORTID3",
    )
    add("MORTID3B", _square_pochhammer_sum_lhs, partial(_template_series, "MORTID3B"), 200, Variables.Q_ONLY)

    # Finite Jacobi triple product analogues, one record per degree.
    for n in range(11):
        add(
            f"fJTPv1-n{n}",
            partial(_finite_pair_v1_lhs, n),
            partial(_finite_pair_v1_rhs, n),
            max(30, n * n + 3 * n + 2),
            Variables.Z_AND_Q,
        )
        add(
            f"fJTP-n{n}",
            partial(_finite_pair_lhs, n),
            partial(_finite_pair_rhs, n),
            max(30, n * n + 3 * n + 2),
            Variables.Z_AND_Q,
        )
        add(
            f"fJTP2-n{n}",
            partial(_finite_pair_sq_lhs, n),
            partial(_finite_pair_sq_rhs, n),
            max(30, 2 * n * n + 4 * n + 2),
            Variables.Z_AND_Q,
        )

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
        add(f"niceid-k{k}", partial(_nice_lhs, k), partial(_nice_rhs, k), 200, Variables.Q_ONLY)

    return {r.id: r for r in records}


_REGISTRY = _build_registry()


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


def _mutated_rank_terms(n: int, j: int) -> list[tuple[int, int, int]]:
    base = template_catalog("NEWrankid")
    flip = 1 if n % 2 == 0 else -1
    return [(flip * c, ze, q2) for c, ze, q2 in base.terms(n, j)]


def mutated_demo_record() -> IdentityRecord:
    """A sign-mutated copy of the rank expansion that must fail at q^1.

    The odd rows of the double sum have their signs flipped, and the halving
    is dropped, so the record compares twice the product side against the
    corrupted sum. It exists to demonstrate mismatch reporting.
    """
    base = template_catalog("NEWrankid")
    mutant = replace(base, id="NEWrankid-mutated", terms=_mutated_rank_terms, halve=False)
    return IdentityRecord(
        id="NEWrankid-mutated",
        lhs_builder=lambda N: qs_mul_monomial(_rank_product_lhs(N), 2),
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
    and elapsed_ms.
    """
    record = lookup(id)
    n = record.default_order if order is None else order
    if n < 0:
        raise ValueError("order must be nonnegative")
    start = time.perf_counter()
    lhs = record.lhs_builder(n)
    rhs = record.rhs_builder(n)
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
    names = sorted(_REGISTRY)
    if ids is None:
        return names
    chosen: list[str] = []
    seen: set[str] = set()
    extra = _extra_records()
    for pattern in ids:
        hits = fnmatch.filter(names, pattern)
        if not hits and pattern in extra:
            hits = [pattern]
        if not hits:
            raise UnknownIdentity(f"no identity matches {pattern!r}")
        for h in hits:
            if h not in seen:
                seen.add(h)
                chosen.append(h)
    return sorted(chosen)


def verify_all(
    ids: Iterable[str] | None = None,
    order: int | None = None,
    parallel: int = 1,
) -> list[dict]:
    """Verify a set of records (glob patterns allowed), sorted by id."""
    names = _expand_patterns(ids)
    if parallel <= 1 or len(names) <= 1:
        return [verify_identity(n, order) for n in names]
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        return list(pool.map(lambda n: verify_identity(n, order), names))


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


def _spt_series(n_max: int) -> list[int]:
    """Smallest-part counts via the weighted divisor plus pentagonal route."""
    acc = zf_zero(n_max)
    for n in range(1, n_max + 1):
        acc[n::n] = map(add, acc[n::n], repeat(n))
    n = 1
    while n * (3 * n + 1) // 2 <= n_max:
        base = n * (3 * n + 1) // 2
        sign = -1 if n % 2 else 1
        acc[base::n] = map(add, acc[base::n], count(sign, 2 * sign))
        n += 1
    return _div_euler(acc, 1)


def _spt_series_direct(n_max: int) -> list[int]:
    """Smallest-part counts summed term by term over the smallest part."""
    acc = zf_zero(n_max)
    if n_max < 1:
        return acc
    term = zf_shift(zf_one(n_max), 1)
    zf_div_factor(term, -1, 1)
    for e in range(1, n_max + 1):
        zf_div_factor(term, -1, e)
    zf_add_into(acc, term)
    for n in range(2, n_max + 1):
        term = zf_shift(term, 1)
        zf_mul_factor(term, -1, n - 1)
        zf_mul_factor(term, -1, n - 1)
        zf_div_factor(term, -1, n)
        zf_add_into(acc, term)
    return acc


def _spt_series_checked(n_max: int) -> list[int]:
    vals = _spt_series(n_max)
    cap = min(n_max, _DIRECT_SUM_CAP)
    if vals[: cap + 1] != _spt_series_direct(cap):
        raise VerificationFailed(
            "smallest-part count routes disagree", n_max=n_max, checked_to=cap
        )
    return vals


def _sptbar_series(n_max: int) -> list[int]:
    """Overpartition smallest-part counts, summed in nested (Horner) form.

    sptBar = sum_{n>=1} a_n T_n with a_n = q^n/(1-q^n)^2 = sum_{k>=1} k q^{kn}
    and T_n = (-q^{n+1}; q)_oo/(q^{n+1}; q)_oo. Since T_{n-1} = T_n (1+q^n)/(1-q^n),
    U_1 = a_1 and U_n = U_{n-1} (1+q^n)/(1-q^n) + a_n give
    sum_{n<=N} a_n T_n = T_N U_N. Term bound: a_n has q-valuation n, so the
    terms n > N vanish modulo q^{N+1}, and T_N = 1 modulo q^{N+1}, so the
    series is U_N.
    """
    acc = zf_zero(n_max)
    for n in range(1, n_max + 1):
        zf_mul_factor(acc, 1, n)
        zf_div_factor(acc, -1, n)
        acc[n::n] = map(add, acc[n::n], count(1))
    return acc


def _m2spt_series(n_max: int) -> list[int]:
    """Even-smallest-part counts for partitions without repeated odd parts,
    summed in nested (Horner) form.

    M2spt = sum_{n>=1} a_n T_n with a_n = q^{2n}/(1-q^{2n})^2 = sum_{k>=1} k q^{2kn}
    and T_n = (-q^{2n+1}; q^2)_oo/(q^{2n+2}; q^2)_oo. Since
    T_{n-1} = T_n (1+q^{2n-1})/(1-q^{2n}), U_1 = a_1 and
    U_n = U_{n-1} (1+q^{2n-1})/(1-q^{2n}) + a_n give sum_{n<=M} a_n T_n = T_M U_M.
    Term bound: a_n has q-valuation 2n, so with M = floor(N/2) the terms
    n > M vanish modulo q^{N+1}. The tail T_M is 1 + q^N modulo q^{N+1} for
    odd N and 1 for even N; U_M has no constant term, so the series is U_M
    in both cases.
    """
    acc = zf_zero(n_max)
    for n in range(1, n_max // 2 + 1):
        zf_mul_factor(acc, 1, 2 * n - 1)
        zf_div_factor(acc, -1, 2 * n)
        acc[2 * n :: 2 * n] = map(add, acc[2 * n :: 2 * n], count(1))
    return acc


def _div_euler(f: list[int], step: int) -> list[int]:
    """f / (q^step; q^step)_oo by Euler's pentagonal recurrence.

    (x; x)_oo = sum over all integers k of (-1)^k x^{k(3k-1)/2}, so
    g[m] = f[m] + sum_{k>=1} (-1)^{k+1} (g[m - step k(3k-1)/2] + g[m - step k(3k+1)/2]),
    O(N^1.5) reads in all. While g holds g[0..m-1], g[m - p] is g[-p].
    """
    plus: list[int] = []
    minus: list[int] = []
    k = 1
    while step * (k * (3 * k - 1) // 2) < len(f):
        offsets = plus if k % 2 else minus
        offsets.append(-step * (k * (3 * k - 1) // 2))
        offsets.append(-step * (k * (3 * k + 1) // 2))
        k += 1
    g: list[int] = []
    read = g.__getitem__
    n_plus = n_minus = 0
    for m, v in enumerate(f):
        while n_plus < len(plus) and -plus[n_plus] <= m:
            n_plus += 1
        while n_minus < len(minus) and -minus[n_minus] <= m:
            n_minus += 1
        g.append(
            v
            + sum(map(read, islice(plus, n_plus)))
            - sum(map(read, islice(minus, n_minus)))
        )
    return g


def _mul_jacobi_cube(f: list[int], step: int) -> list[int]:
    """f * (q^step; q^step)_oo^3 by Jacobi's identity
    (x; x)_oo^3 = sum_{k>=0} (-1)^k (2k+1) x^{k(k+1)/2}: one shifted add per
    term, O(N^1.5) in all."""
    out = [0] * len(f)
    k = 0
    while step * (k * (k + 1) // 2) < len(f):
        zf_add_into(out, f, -(2 * k + 1) if k % 2 else 2 * k + 1, step * (k * (k + 1) // 2))
        k += 1
    return out


def _a_series(n_max: int) -> list[int]:
    return _mul_jacobi_cube(_spt_series_checked(n_max), 1)


def _alpha_series(n_max: int) -> list[int]:
    m_cap = max((n_max - 1) // 12, 0)
    spt = _spt_series_checked(m_cap)
    acc = zf_zero(n_max)
    for m in range(1, m_cap + 1):
        acc[12 * m + 1] = spt[m]
    return _mul_jacobi_cube(acc, 12)


def _beta_series(n_max: int) -> list[int]:
    m_cap = max((n_max - 1) // 8, 0)
    m2 = _m2spt_series(m_cap)
    acc = zf_zero(n_max)
    for m in range(1, m_cap + 1):
        acc[8 * m + 1] = -m2[m] if m % 2 else m2[m]
    return _mul_jacobi_cube(acc, 16)


_SEQUENCES: dict[str, Callable[[int], list[int]]] = {
    "spt": _spt_series_checked,
    "sptBar": _sptbar_series,
    "m2spt": _m2spt_series,
    "a": _a_series,
    "alpha": _alpha_series,
    "beta": _beta_series,
}


def sequence_values(name: str, n_max: int) -> list[int]:
    """Exact values of a named sequence, indexed 0..n_max inclusive.

    The plain spt engine cross-checks its fast route against a direct
    summation up to an internal cap and refuses to return on drift.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
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
        raise ValueError("n_max must be nonnegative")
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
