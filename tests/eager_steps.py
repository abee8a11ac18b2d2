"""Eager nesting steps: the differential oracle for the driver of
qhecke.qseries.evaluate.

applied_terms is the Horner loop as it ran before the monomials were
carried: U_last = 1, and every level multiplies the whole series by the
weight monomial, rewriting each packed row (or each dense entry), before
it adds 1 at row 0; the head monomial is applied the same way at the end.
counter_factor_counts and counter_quotient form the quotient of two
specs' products as it was formed before factor runs were swept as
intervals: every finite factor is one Counter key (divide, c, z_exp, e,
1, 1), and every factor that does not cancel is one Factors of count 1.
Both share only the factor kernels (qseries._factor, qseries._add_rows)
and the list of a spec's products (qseries._products) with the code they
check.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, repeat

from qhecke.errors import NonTerminating, NonUnitConstantTerm
from qhecke.qseries import INFINITY, Factors, HyperSum, Product, _Rows
import qhecke.qseries as qseries


def applied_times(f, c: int, z_exp: int, q_exp: int):
    """A new series f * c z^{z_exp} q^{q_exp}, q_exp rows longer than f,
    every row or entry multiplied out."""
    if q_exp < 0:
        raise NonTerminating(f"spec reaches the negative q-exponent {q_exp}")
    if isinstance(f, _Rows):
        rows = f.rows if c == 1 and not z_exp else [
            None if r is None or not c else (r[0] + z_exp, c * r[1]) for r in f.rows
        ]
        return _Rows(f.bits, [None] * q_exp + rows)
    out = [0] * q_exp
    out += f if c == 1 else map(c.__mul__, f)
    return out


def applied_terms(spec: HyperSum | Product, last: int, one, N: int, offset: int):
    """m U / q^offset to q-order N on N - offset + 1 rows, as
    qseries._terms gives it, with U_last = 1 and U_{n-1} = 1 + r_n U_n,
    the weight monomial of r_n applied to U_n at every level and the head
    monomial m at the end."""
    if isinstance(spec, Product):
        return applied_times(one, 1, 0, 0)
    h, w = spec.head, spec.weight
    if h.t < 0:
        raise NonTerminating(f"spec reaches the negative q-exponent {h.t}")
    v = list(accumulate((w.s * n + w.t for n in range(1, last + 1)), initial=h.t))
    while last and v[last] > N:
        last -= 1
    size = max(N - v[last] + 1, 0)
    f = _Rows(one.bits, one.rows[:size]) if isinstance(one, _Rows) else one[:size]
    for n in range(last, 0, -1):
        for p in spec.num:
            f = qseries._factor(f, p.c, p.z_exp, (p.s * n + p.t,), False)
        for p in spec.den:
            f = qseries._factor(f, p.c, p.z_exp, (p.s * n + p.t,), True)
        f = applied_times(f, w.c, w.z_exp, w.s * n + w.t)
        if isinstance(f, _Rows):
            qseries._add_rows(f.rows, [(0, 1)], 1, 0, 0, (0,), f.bits)
        else:
            f[0] += 1
    return applied_times(f, h.c, h.z_exp, min(h.t, N + 1) - offset)


def counter_factor_counts(spec: HyperSum | Product, N: int) -> Counter:
    """The products of spec to q-order N as a multiset of families
    (divide, c, z_exp, first, step, count): each infinite family that
    starts below q^{N+1} whole, and each finite family factor by factor
    below q^{N+1}, each factor a family of count 1."""
    keys = []
    for product in qseries._products(spec):
        for divide, families in ((False, product.num), (True, product.den)):
            for c, z_exp, first, step, count in families:
                if count < INFINITY:
                    exps = range(first, min(N + 1, first + step * count), step)
                    keys += [(divide, c, z_exp, e, 1, 1) for e in exps]
                elif first <= N:
                    keys.append((divide, c, z_exp, first, step, count))
    return Counter(keys)


def counter_quotient(upper: Counter, lower: Counter) -> Product:
    """The Product of the factors of upper / lower that do not cancel;
    NonUnitConstantTerm where it would divide by a factor with a
    q-exponent below 1."""
    diff = upper.copy()
    diff.subtract(lower)
    sides: tuple[list, list] = ([], [])
    for (divide, *family), n in diff.items():
        if n:
            # a surplus of lower moves to the other side
            sides[divide != (n < 0)].extend(repeat(Factors(*family), abs(n)))
    num, den = sides
    if any(family.first < 1 for family in den):
        raise NonUnitConstantTerm("a tuple's product quotient divides by a factor at q^0")
    return Product(tuple(num), tuple(den))


def expanded_counts(counts: dict) -> Counter:
    """A result of qseries._factor_counts as the multiset that
    counter_factor_counts gives: every factor of a finite run one key
    (divide, c, z_exp, e, 1, 1), every infinite family whole."""
    out = Counter()
    for key, value in counts.items():
        if len(key) == 6:
            out[key] += value
            continue
        divide, c, z_exp, step, r = key
        m = 0
        for j in range(min(value), max(value)):
            m += value.get(j, 0)
            if m:
                out[divide, c, z_exp, r + j * step, 1, 1] += m
    return +out


def factor_multiset(product: Product, N: int) -> Counter:
    """The factors of a quotient to q-order N: (divide, c, z_exp, e) for
    each factor of a finite family below q^{N+1}, and each infinite
    family whole as (divide, c, z_exp, first, step)."""
    out = Counter()
    for divide, families in ((False, product.num), (True, product.den)):
        for c, z_exp, first, step, count in families:
            if count == INFINITY:
                out[divide, c, z_exp, first, step] += 1
            else:
                out.update((divide, c, z_exp, e) for e in range(first, min(N + 1, first + step * count), step))
    return out
