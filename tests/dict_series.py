"""Dict-row oracles for the packed and dense routes of qhecke.qseries.

The route that evaluate ran on before packed rows: every factor step is
one pass over the dict coefficients of a QSeries, and z = +-1 is
substituted step by step (fold_z), apart from qseries.at_z, which
substitutes it in the spec. None of these call the kernels they check:
evaluate, zf_product, mul_factor and div_factor.
"""

from __future__ import annotations

from functools import reduce

from qhecke.errors import NonTerminating, NonUnitConstantTerm
from qhecke.polyring import LP_ONE, LP_ZERO, LaurentPoly, lp_monomial
from qhecke.qseries import HyperSum, Product, QSeries, at_z, qs_add, qs_mul_monomial
import qhecke.qseries as qseries


def qs_one(order: int) -> QSeries:
    """The series 1 at the given order."""
    return QSeries(order, [LP_ONE] + [LP_ZERO] * order)


def qs_monomial(c: int, z_exp: int, q_exp: int, order: int) -> QSeries:
    """The series c * z^{z_exp} * q^{q_exp} at the given order."""
    coeffs = [LP_ZERO] * (order + 1)
    if c and 0 <= q_exp <= order:
        coeffs[q_exp] = lp_monomial(c, z_exp)
    return QSeries(order, coeffs)


def merged(dst: dict[int, int], src: dict[int, int], c: int, shift: int) -> dict[int, int]:
    """dst + c * z^shift * src as a fresh dict (inputs untouched)."""
    out = dict(dst)
    for e, v in src.items():
        key = e + shift
        s = out.get(key, 0) + c * v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def dict_mul_factor(f: QSeries, c: int, z_exp: int, q_exp: int) -> QSeries:
    """f times (1 + c * z^{z_exp} * q^{q_exp}), with q_exp >= 0."""
    n = f.order
    fc = f.coeffs
    coeffs = list(fc)
    if c:
        for k in range(q_exp, n + 1):
            src = fc[k - q_exp].terms
            if src:
                coeffs[k] = LaurentPoly._raw(merged(fc[k].terms, src, c, z_exp))
    return QSeries(n, coeffs)


def dict_div_factor(f: QSeries, c: int, z_exp: int, q_exp: int) -> QSeries:
    """f divided by (1 + c * z^{z_exp} * q^{q_exp}), with q_exp >= 1, by the
    recurrence g[k] = f[k] - c * z^{z_exp} * g[k - q_exp]."""
    if q_exp < 1:
        raise NonUnitConstantTerm("factor division requires a positive q-exponent in the factor")
    coeffs = list(f.coeffs)
    if c:
        for k in range(q_exp, f.order + 1):
            src = coeffs[k - q_exp].terms
            if src:
                coeffs[k] = LaurentPoly._raw(merged(coeffs[k].terms, src, -c, z_exp))
    return QSeries(f.order, coeffs)


def fold_z(c: int, z_exp: int, z: int | None) -> tuple[int, int]:
    """c z^{z_exp} with z in {1, -1} folded into the coefficient; z None
    keeps z."""
    if z is None:
        return c, z_exp
    return (-c if z == -1 and z_exp % 2 else c), 0


def at(spec, z: int | None):
    """spec at z in {1, -1} (at_z), or as it is for z None."""
    return spec if z is None else at_z(spec, z)


def _dict_times(f: QSeries, c: int, z_exp: int, q_exp: int, z) -> QSeries:
    if q_exp < 0:
        raise NonTerminating(f"spec reaches the negative q-exponent {q_exp}")
    c, z_exp = fold_z(c, z_exp, z)
    return qs_mul_monomial(f, c, z_exp, q_exp)


def _dict_factor(f: QSeries, c: int, z_exp: int, q_exp: int, z, divide: bool) -> QSeries:
    if q_exp < 0:
        raise NonTerminating(f"spec reaches the negative q-exponent {q_exp}")
    c, z_exp = fold_z(c, z_exp, z)
    return (dict_div_factor if divide else dict_mul_factor)(f, c, z_exp, q_exp)


def _dict_product(f: QSeries, spec: Product, N: int, z) -> QSeries:
    for families, divide in ((spec.num, False), (spec.den, True)):
        for c, z_exp, first, step, count in families:
            for e in range(first, min(N + 1, first + step * count), step):
                f = _dict_factor(f, c, z_exp, e, z, divide)
    return f


def dict_evaluate(spec, N: int, z=None, last=qseries._last) -> QSeries:
    """spec at z on the dict kernels, each sum over its terms n <= last(sum, N)
    (by default the bound evaluate derives for the spec with z kept) and
    before the first numerator factor that is 1 - q^0, where a finite sum
    ends."""
    if not isinstance(spec, (HyperSum, Product)):
        return reduce(qs_add, (dict_evaluate(s, N, z, last) for s in spec))
    if isinstance(spec, Product):
        return _dict_product(qs_one(N), spec, N, z)
    h, w = spec.head, spec.weight
    term = _dict_times(qs_one(N), h.c, h.z_exp, h.t, z)
    term = acc = _dict_product(term, spec.head_factors, N, z)
    for n in range(1, last(spec, N) + 1):
        if any((p.c, p.z_exp, p.s * n + p.t) == (-1, 0, 0) for p in spec.num):
            break
        term = _dict_times(term, w.c, w.z_exp, w.s * n + w.t, z)
        for p in spec.num:
            term = _dict_factor(term, p.c, p.z_exp, p.s * n + p.t, z, False)
        for p in spec.den:
            term = _dict_factor(term, p.c, p.z_exp, p.s * n + p.t, z, True)
        acc = qs_add(acc, term)
    return _dict_product(acc, spec.times, N, z)


def dict_qs_product(f: QSeries, spec: Product, z=None) -> QSeries:
    """f times the product spec at z, to the order of f."""
    return _dict_product(f, spec, f.order, z)
