"""Truncated power series in q with Laurent-polynomial coefficients.

A QSeries of order N stores the exact coefficients of q^0 .. q^N. All
arithmetic is exact over the integers. Division is by factors
1 + c z^a q^e with e >= 1, one recurrence each; qs_invert inverts a
series whose constant term is a unit monomial +-z^k. Identities whose
natural statement divides by (1-z) or (1-a) are handled upstream in
cleared form.

A sum given as data (HyperSum) derives its own term bound before the
first term, from lower bounds on the valuation of term n that its spec
gives (see HyperSum), so every term it leaves out vanishes to the order.
Infinite products terminate because factor q-exponents strictly increase.

The module also provides a plain int-list kernel (zf_* functions) for
z-free series, used by the high-order sequence computations where dict
coefficients would be wasteful. Each zf_* kernel works on whole slices,
so its per-entry work runs in C-level list operations: a factor
(1 + c q^e) is one mapped slice add, an added shifted series is one more,
a product is one per nonzero entry of the first operand, and division by
(1 + c q^e) runs its recurrence along the residue classes mod e (one
accumulate each) or block by block, whichever takes fewer steps.
Division by a sparse series 1 + sum_e c_e q^e, its terms given as data,
is one recurrence (zf_div_sparse) that reads only the O(sqrt N) earlier
entries the terms name; zf_theta_terms gives the terms of the theta
series sum_k (-1)^k q^{Q(k)}. Multiplication by such a series is
zf_mul_sparse: the input is packed once into one integer
(Kronecker substitution q -> 2^b), each term is one shift-add on it, and
the low slots are read back once; b holds B = max|f_i| * sum_e |c_e|,
which bounds every product coefficient.

Basic hypergeometric sums and infinite products are given as data
(HyperSum, Product) and run by evaluate, on one of three routes that the
specs themselves pick (_z_place). Specs with no z run on the zf_*
kernels, alone or as a tuple nested over the factors the specs' products
share, and the list comes back as it is (_DenseSeries). Specs whose z
sits only in the head and weight of each sum run on the zf_* kernels
too, one list of integers per power of z (_graded): each term is one
power of z times a z-free series, so no slot width is needed.
Specs with z in some factor run on packed rows, one integer per
q-coefficient (Kronecker substitution z -> 2^b), nested as the z-free
ones, with b proven before the first term from the spec's l1 majorant
and rounded up to 1, 2, 4 or 8 bytes, so that a row packs and unpacks
with one cast (_pack_list, _unpack). The result keeps its rows and
unpacks its coeffs only when they are first read (_PackedSeries), so
qs_first_mismatch compares two such series as integers, row by row, and
proves them equal without unpacking either (_packed_equal); evaluate
alone makes packed series, so its proof is the only slot-width proof for
packed rows (zf_mul_sparse proves its own for a z-free list).
A sum runs in nested (Horner) form with its head and weight monomials
carried into the monomial each level adds at q^0, so no level rewrites
the series for them (_terms).
A product is always data: evaluate runs it as a spec or as the times of
a sum, and zf_product runs it on a given dense list. So a factor step is
written once per representation: the zf_* kernels and _add_rows, and
each family runs as one call over its run of exponents (_factor), as
does each run of the quotient of two specs' products (_quotient). z = +-1
is substituted in the spec (at_z), which then carries no z. Product
families that form a known sparse series (Euler's pentagonal series,
Jacobi's cube, Gauss's triangular series, Jacobi's triple product over
1 - z) run through it instead of factor by factor, and that choice is
made in one place (_sparse_plan): on the zf_* kernels zf_mul_sparse and
zf_div_sparse, on packed rows _sparse_rows.

The series product and inverse (qs_mul, qs_invert), the factor steps
mul_factor and div_factor, and the row-wise qs_add, qs_sub and
qs_mul_monomial are plain dict-row loops that no command-line path runs:
a record side that is a sum, product or double sum is data that
evaluate or hecke's evaluator runs, and the few sides built otherwise
change a finished series only by substituting q -> -q or cutting a
z-window (qs_substitute_neg_q, qs_truncate_z). They stay because the
benchmark's tracer looks them up by name, and the tests use them as
oracles; tests/test_package.py lists every function that only the tracer
reaches.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, pairwise, repeat
from math import gcd
from operator import add, mul, neg, sub
from typing import Callable, NamedTuple

from .errors import InexactDivision, NonTerminating, NonUnitConstantTerm, SupportOverflow
from .polyring import (
    LP_ZERO,
    LaurentPoly,
    lp_add,
    lp_monomial,
    lp_mul,
    lp_neg,
    lp_scale,
)

INFINITY = float("inf")

#: Exponent-span cap for the coefficients of a series of order N.
#: Every series built in this repository satisfies z-degree <= q-degree
#: plus a small constant, so 4N + 16 is generous; breaching it signals a
#: construction bug.


def span_cap(order: int) -> int:
    return 4 * order + 16


@dataclass(frozen=True)
class Monomial:
    """A signed monomial +-z^{z_exp} q^{q_exp}, the argument of a
    Pochhammer symbol. q_exp must be nonnegative."""

    sign: int
    z_exp: int
    q_exp: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("Monomial sign must be +1 or -1")
        if self.q_exp < 0:
            raise ValueError("Monomial q_exp must be nonnegative")


class QSeries:
    """Exact truncated power series in q over LaurentPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: list[LaurentPoly]) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("coeffs must have exactly order+1 entries")
        self.order = order
        self.coeffs = coeffs

    def coeff(self, k: int) -> LaurentPoly:
        """Coefficient of q^k (zero beyond the truncation order)."""
        if k < 0 or k > self.order:
            return LP_ZERO
        return self.coeffs[k]

    def max_span(self) -> int:
        return max((c.span() for c in self.coeffs), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and all(
            a.terms == b.terms for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        head = ", ".join(repr(c.terms) for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"QSeries(order={self.order}, [{head}{tail}])"


def qs_zero(order: int) -> QSeries:
    return QSeries(order, [LP_ZERO] * (order + 1))


def qs_add(f: QSeries, g: QSeries) -> QSeries:
    n = min(f.order, g.order)
    return QSeries(n, [lp_add(f.coeffs[k], g.coeffs[k]) for k in range(n + 1)])


def qs_neg(f: QSeries) -> QSeries:
    return QSeries(f.order, [lp_neg(c) for c in f.coeffs])


def qs_sub(f: QSeries, g: QSeries) -> QSeries:
    n = min(f.order, g.order)
    return QSeries(
        n, [lp_add(f.coeffs[k], lp_neg(g.coeffs[k])) for k in range(n + 1)]
    )


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for packed digits of absolute value at most bound.

    The slot has bound.bit_length() + 2 bits rounded up to whole bytes,
    so every digit lies strictly inside [-2^(b-1), 2^(b-1)).
    """
    return (bound.bit_length() + 9) // 8


# The signed array type code of each machine item size, from the codes
# themselves: the C sizes of 'i' and 'l' differ between platforms.
_SIGNED_CODES = {array(code).itemsize: code for code in "bhilq"}
# 1 when the native bytes of a packed int start with slot 0, -1 when
# they end with it (big-endian machines).
_SLOT_STEP = 1 if sys.byteorder == "little" else -1


def _machine_bytes(width: int) -> int:
    """width rounded up to 1, 2, 4 or 8 bytes when it is at most 8; a wider
    width as it is. A wider slot holds every digit the narrower one does."""
    return width if width > 8 else 1 << (width - 1).bit_length()


def _bias(slots: int, width: int) -> int:
    """sum_i 2^(b-1) 2^(b*i) over slots i < slots, for b = 8*width."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _pack_list(values: list[int], width: int) -> int:
    """sum_i values[i] 2^(b*i) for b = 8*width, every value in
    [-2^(b-1), 2^(b-1)); a value outside raises OverflowError.

    Each value v is written as one b-bit two's complement slot
    t = v mod 2^b: at 1, 2, 4 or 8 bytes by one cast of the whole list
    (a signed array), at other widths slot by slot (int.to_bytes). Read
    as unsigned slots, t xor 2^(b-1) = v + 2^(b-1) lies in [0, 2^b): for
    v >= 0 the xor sets the top bit, which is clear, and for v < 0 it
    clears the top bit of t = v + 2^b. So xor with the bias
    sum_i 2^(b-1) 2^(b*i) turns the joined slots into the sum plus the
    bias, with no carry between slots, and subtracting the bias leaves
    the sum.
    """
    values = values[::_SLOT_STEP]
    code = _SIGNED_CODES.get(width)
    if code:
        data = array(code, values).tobytes()
    else:
        data = b"".join([v.to_bytes(width, sys.byteorder, signed=True) for v in values])
    bias = _bias(len(values), width)
    return (int.from_bytes(data, sys.byteorder) ^ bias) - bias


def _digits(x: int, slots: int, width: int) -> list[int]:
    """The digits of the packed value x, slot 0 first, over the given
    number of slots.

    Every digit d must lie in [-2^(b-1), 2^(b-1)) for b = 8*width. Then
    adding the bias sum_i 2^(b-1) 2^(b*i) leaves each slot at
    u = d + 2^(b-1) in [0, 2^b) with no carry between slots, and
    u xor 2^(b-1), read as a signed b-bit number, is u - 2^(b-1) = d (the
    identity of _pack_list, read backwards). So after the xor every slot
    is its digit in two's complement: at 1, 2, 4 or 8 bytes the whole row
    is read with one cast (a memoryview of signed items), at other widths
    slot by slot (int.from_bytes). A digit outside the range spills into
    its neighbour, so the widths are proven before the row is built.
    """
    bias = _bias(slots, width)
    data = ((x + bias) ^ bias).to_bytes(slots * width, sys.byteorder)
    code = _SIGNED_CODES.get(width)
    if code:
        vals = memoryview(data).cast(code).tolist()
    else:
        read = int.from_bytes
        order = sys.byteorder
        vals = [read(data[at : at + width], order, signed=True) for at in range(0, len(data), width)]
    if _SLOT_STEP < 0:
        vals.reverse()
    return vals


def _slots(x: int, width: int) -> int:
    """The slot count of _unpack for the packed value x."""
    return (x.bit_length() + 1) // (8 * width) + 1


def _unpack(x: int, lo: int, width: int) -> dict[int, int]:
    """The row whose packed value is x, slot 0 at z^lo, as a dict of its
    nonzero digits, every digit in [-2^(b-1), 2^(b-1)) for b = 8*width
    (_digits).

    It reads s = (L + 1) // b + 1 slots (_slots), L = x.bit_length(), the
    bit length of |x|, and that covers every nonzero digit. Let m be the
    top slot with a nonzero digit d_m, so x = d_m 2^(bm) + r with r the
    slots below. If m >= 1, |r| <= 2^(b-1) (2^(bm) - 1) / (2^b - 1)
    < (2/3) 2^(bm) for b >= 2, so |x| >= 2^(bm) - |r| > 2^(bm) / 3, hence
    L >= bm - 1 and s >= m + 1; if m = 0, s >= 1. It reads at most one
    slot more: |x| <= 2^(b-1) (2^(b(m+1)) - 1) / (2^b - 1) < 2^(b(m+1)),
    so L <= b(m + 1) and s <= m + 2, and that slot's digit is 0. The
    count L // b + 1 falls one slot short when the digits below d_m reach
    -2^(b-1): digits (-128, -128, 1) at b = 8 give x = 32640, L = 15.
    """
    vals = _digits(x, _slots(x, width), width)
    return dict(compress(zip(range(lo, lo + len(vals)), vals), vals))


def qs_mul(f: QSeries, g: QSeries) -> QSeries:
    """Exact truncated product, one lp_mul per pair of nonzero rows;
    enforces the exponent-span cap on every row of the result.

    No command-line path calls it: the benchmark's tracer looks it up by
    name, and the tests use it as an oracle.
    """
    n = min(f.order, g.order)
    cap = span_cap(n)
    coeffs: list[LaurentPoly] = [LP_ZERO] * (n + 1)
    for i, fi in enumerate(f.coeffs[: n + 1]):
        if fi.terms:
            for j, gj in enumerate(g.coeffs[: n + 1 - i]):
                if gj.terms:
                    coeffs[i + j] = lp_add(coeffs[i + j], lp_mul(fi, gj))
    for row in coeffs:
        if row.span() > cap:
            raise SupportOverflow(f"series product span {row.span()} exceeds cap {cap}")
    return QSeries(n, coeffs)


def qs_mul_monomial(f: QSeries, c: int, z_exp: int = 0, q_exp: int = 0) -> QSeries:
    """f times c * z^{z_exp} * q^{q_exp} (cheap, no convolution), with
    q_exp >= 0."""
    if q_exp < 0:
        raise ValueError("qs_mul_monomial needs a nonnegative q-exponent")
    n = f.order
    coeffs = [LP_ZERO] * (n + 1)
    if c:
        for k in range(q_exp, n + 1):
            src = f.coeffs[k - q_exp]
            if src.terms:
                coeffs[k] = lp_scale(src, c, z_exp)
    return QSeries(n, coeffs)


def qs_scale_poly(f: QSeries, p: LaurentPoly) -> QSeries:
    """f times a fixed Laurent polynomial in z (applied coefficient-wise)."""
    cap = span_cap(f.order)
    coeffs = [
        lp_mul(c, p, span_cap=cap) if c.terms else LP_ZERO for c in f.coeffs
    ]
    return QSeries(f.order, coeffs)


def qs_invert(f: QSeries) -> QSeries:
    """Multiplicative inverse to the truncation order, by the recurrence
    g_0 = 1/f_0, g_m = -(1/f_0) sum_{j=1..m} f_j g_{m-j}; no command-line
    path calls it, as for qs_mul.

    f_0 must be a unit monomial +-z^k, so that 1/f_0 = f_0(1) z^{-k};
    otherwise NonUnitConstantTerm is raised (for example for (z;q)_oo,
    whose constant term is 1 - z).
    """
    head = f.coeffs[0].terms
    if len(head) != 1:
        raise NonUnitConstantTerm("constant term is not a single monomial")
    (k0, c0), = head.items()
    if c0 not in (1, -1):
        raise NonUnitConstantTerm("constant coefficient is not +1 or -1")
    fc = f.coeffs
    g = [lp_monomial(c0, -k0)]
    for m in range(1, f.order + 1):
        s = LP_ZERO
        for j in range(1, m + 1):
            if fc[j].terms and g[m - j].terms:
                s = lp_add(s, lp_mul(fc[j], g[m - j]))
        g.append(lp_scale(s, -c0, -k0))
    return QSeries(f.order, g)


# ---------------------------------------------------------------------------
# Basic hypergeometric sums and products as data.
# ---------------------------------------------------------------------------


class Factors(NamedTuple):
    """The factors 1 + c z^{z_exp} q^{first + j*step} for 0 <= j < count.

    With count = INFINITY the family stops at the truncation order, so
    Factors(-1, 1, 1) is (zq;q)_oo, and Factors(1, 1, 0, 1, 1) is 1 + z.
    step must be at least 1: evaluate and zf_product raise NonTerminating
    for a family whose q-exponents do not increase.
    """

    c: int
    z_exp: int
    first: int
    step: int = 1
    count: int | float = INFINITY


class Product(NamedTuple):
    """prod(num) / prod(den) over families of Factors."""

    num: tuple[Factors, ...] = ()
    den: tuple[Factors, ...] = ()


class Power(NamedTuple):
    """The monomial c z^{z_exp} q^{s*n + t} of the summation index n."""

    c: int
    z_exp: int
    s: int
    t: int


class HyperSum(NamedTuple):
    """The basic hypergeometric sum (sum_{n=0}^{last} t_n) * times.

    t_0 = head * head_factors, and for n >= 1
        t_n = t_{n-1} * weight(n) * prod_num (1 + p(n)) / prod_den (1 + p(n)),
    where every Power is read at the index n (head at n = 0). evaluate
    derives the bound last at order N from the spec (_last), one rule for
    every sum:
      (a) a numerator factor that is 1 - q^0 at index k (c = -1, no z,
          s k + t = 0) ends the sum at k - 1;
      (b) otherwise, or before that, last is the last n with v(n) <= N,
          v(n) = head.t + sum_{k<=n} (weight.s k + weight.t);
      (c) a weight with no q bounds the z-valuation head.z_exp + n
          weight.z_exp by N instead, for callers that keep z^0..z^N.
    The rules read the spec as given, so at_z(spec, +-1) gets its bound
    from the specialised spec, and (c) applies only while z is kept: the
    terms up to z^N are not the value at z = +-1, so a sum that only (c)
    bounds raises NonTerminating there.
    Once no q-exponent of the weight or a factor is negative over the
    terms (checked first), v(n) bounds the q-valuation of t_n from below:
    a factor with q-exponent >= 1 has constant term 1, one with q^0 is
    constant in q. (c) needs weight.z_exp >= 1 and every other z-exponent
    >= 0 for the same reason. A sum that meets no rule raises
    NonTerminating before any term, and so does a head with a negative
    q-exponent; a denominator factor 1 + c z^a q^0 raises
    NonUnitConstantTerm. head_factors and times both multiply every term,
    so a family that one divides by and the other multiplies by, as an
    identical Factors from q^1 up, cancels: evaluate takes it out of both
    before the first term (_cancelled), after the rules above have read
    the spec. evaluate runs the terms in nested form, from last
    down, the inner series of term n on N - v(n) + 1 rows (_terms), or,
    when z enters only the head and weight, forward, one list per power of
    z (_graded).
    """

    weight: Power
    num: tuple[Power, ...] = ()
    den: tuple[Power, ...] = ()
    head: Power = Power(1, 0, 0, 0)
    head_factors: Product = Product()
    times: Product = Product()


def _last(spec: HyperSum, N: int) -> int:
    """The index of the last term of spec at order N, by the rules in the
    HyperSum docstring; NonTerminating if none applies."""
    w = spec.weight
    # (a): the first k >= 1 with s k + t = 0 in a numerator factor 1 - q^{s k + t}
    ks = ((-p.t // p.s if p.s else 1, p) for p in spec.num if (p.c, p.z_exp) == (-1, 0))
    end = min((k for k, p in ks if k >= 1 and p.s * k + p.t == 0), default=INFINITY) - 1
    for p in (w,) + spec.num + spec.den:
        # s n + t is linear in n, so it is >= 0 on 1..end if it is at both ends
        if end >= 1 and min(p.s + p.t, p.s if end == INFINITY else p.s * end + p.t) < 0:
            raise NonTerminating(f"spec reaches a negative q-exponent: {p}")
    factors = chain(spec.num, spec.den, *spec.head_factors, *spec.times)
    if end < INFINITY or w.s or w.t:
        v, s, t = spec.head.t, w.s, w.t
    elif w.z_exp >= 1 and all(p.z_exp >= 0 for p in factors):
        v, s, t = spec.head.z_exp, 0, w.z_exp
    else:
        raise NonTerminating(f"spec grows in neither q nor z: {w}")
    n = 0
    while n < end:
        v += s * (n + 1) + t
        if v > N:
            break
        n += 1
    return n


# Where z enters a tuple of specs (_z_place), which picks evaluate's route.
_NO_Z, _MONOMIAL_Z, _FACTOR_Z = range(3)


def _z_place(specs) -> int:
    """_NO_Z when no Power or Factors of the specs carries z, _MONOMIAL_Z
    when only the heads and weights of their sums do, _FACTOR_Z when some
    Factors or numerator or denominator Power does; one walk, which stops
    at the first factor in z."""
    place = _NO_Z
    for spec in specs:
        if isinstance(spec, HyperSum):
            if spec.head.z_exp or spec.weight.z_exp:
                place = _MONOMIAL_Z
            factors = chain(spec.num, spec.den, *spec.head_factors, *spec.times)
        else:
            factors = chain(spec.num, spec.den)
        if any(p.z_exp for p in factors):
            return _FACTOR_Z
    return place


# The steps of evaluate take either representation: a dense list for a
# series with no z, which the zf_* kernels update in place, or _Rows.


class _Rows:
    """A series on packed rows at slot width bits.

    rows[k] is None for a zero coefficient of q^k, else (lo, x) with
    x = sum_{e >= lo} c_e 2^(bits (e - lo)), the row evaluated at
    z = 2^bits over z^lo. Every step keeps x exact as an integer, so a
    digit may leave the slot range until the spec is done; the top slot
    is read off x when the row is unpacked (_unpack).
    """

    __slots__ = ("bits", "rows")

    def __init__(self, bits: int, rows: list) -> None:
        self.bits = bits
        self.rows = rows


def _add_rows(dst: list, src: list, c: int, z_exp: int, q_exp: int, ks, bits: int) -> None:
    """In place: dst[k] += c z^{z_exp} src[k - q_exp] for k in ks, in that
    order, over packed rows with slots aligned.

    dst[k] keeps its lo unless the added row reaches lower; either way
    the alignment shifts left. A row that cancels to zero becomes None.
    """
    for k in ks:
        row = src[k - q_exp]
        if row is None:
            continue
        slo, sx = row
        slo += z_exp
        if c != 1:
            sx *= c
        row = dst[k]
        if row is None:
            dst[k] = slo, sx
            continue
        lo, x = row
        if slo == lo:
            x += sx
        elif slo < lo:
            x = (x << (bits * (lo - slo))) + sx
            lo = slo
        else:
            x += sx << (bits * (slo - lo))
        dst[k] = (lo, x) if x else None


def _nonnegative(q_exp: int) -> None:
    if q_exp < 0:
        raise NonTerminating(f"spec reaches the negative q-exponent {q_exp}")


def _increasing(spec: Product) -> None:
    """NonTerminating for a family of spec whose step is below 1, so that
    its q-exponents do not increase; checked once per family, before any
    factor runs."""
    for family in chain(spec.num, spec.den):
        if family.step < 1:
            raise NonTerminating(f"product family {family} has step {family.step}, below 1")


def _times(f, q_exp: int):
    """A new series q^{q_exp} f, q_exp rows longer than f, so exact to the
    q-order of f plus q_exp."""
    _nonnegative(q_exp)
    if isinstance(f, _Rows):
        return _Rows(f.bits, [None] * q_exp + f.rows)
    out = [0] * q_exp
    out += f
    return out


def _monomial(one, size: int, c: int, z_exp: int):
    """A new series c z^{z_exp} on size rows, of the representation of the
    series one; size 0 gives no rows, and c = 0 the zero series."""
    if isinstance(one, _Rows):
        rows = [None] * size
        if size and c:
            rows[0] = (z_exp, c)
        return _Rows(one.bits, rows)
    f = [0] * size
    if size:
        f[0] = c
    return f


def _plus_monomial(f, c: int, z_exp: int) -> None:
    """In place: f += c z^{z_exp} at q^0, f with at least one row."""
    if not isinstance(f, _Rows):
        f[0] += c
    elif c:
        _add_rows(f.rows, ((z_exp, c),), 1, 0, 0, (0,), f.bits)


def _factor(f, c: int, z_exp: int, exps, divide: bool):
    """f times, or divided by, 1 + c z^{z_exp} q^e for every e of the
    increasing run exps (a range or a tuple), one factor after another.
    The first, smallest exponent is checked once for the whole run: a
    negative one raises NonTerminating, and a division by q^0
    NonUnitConstantTerm, before any factor runs."""
    if exps[0] < 1:
        _nonnegative(exps[0])
        if divide:
            raise NonUnitConstantTerm("factor division requires a positive q-exponent in the factor")
    if isinstance(f, _Rows):
        # division runs g_k = f_k - c z^a g_{k-e} upward over finished
        # rows; multiplication runs downward, so row k - e is still old
        rows, bits, n = f.rows, f.bits, len(f.rows)
        for e in exps:
            if divide:
                _add_rows(rows, rows, -c, z_exp, e, range(e, n), bits)
            else:
                _add_rows(rows, rows, c, z_exp, e, range(n - 1, e - 1, -1), bits)
        return f
    step = zf_div_factor if divide else zf_mul_factor
    for e in exps:
        if e:
            step(f, c, e)
        else:
            f = [(1 + c) * v for v in f]
    return f


def _add_into(f, g, shift: int) -> None:
    """In place: f += q^shift g, on either representation, where f has
    shift rows more than g."""
    if isinstance(f, _Rows):
        _add_rows(f.rows, g.rows, 1, 0, shift, range(shift, len(f.rows)), f.bits)
    else:
        zf_add_into(f, g, shift=shift)


def _apply_product(f, spec: Product, N: int):
    """f times the product spec to q-order N: the families that form a
    known sparse series through it (_sparse_plan), every other family one
    family at a time, one _factor call for its run of exponents below
    q^{N+1}. Every series is exact, so the order of the steps does not
    change the result."""
    if not (spec.num or spec.den):
        return f
    passes, rest = _sparse_plan(spec, N, isinstance(f, _Rows))
    for terms, over, divide in passes:
        f = _sparse_step(f, terms, over, divide)
    for families, divide in ((rest.num, False), (rest.den, True)):
        for c, z_exp, first, step, count in families:
            exps = range(first, min(N + 1, first + step * count), step)
            if exps:
                f = _factor(f, c, z_exp, exps, divide)
    return f


# Sparse series of infinite products (Andrews, The Theory of Partitions,
# 1976, ch. 1-2), each a list of monomials (e, c, a), meaning c z^a q^e,
# up to q^N. With x = q^b and E(x) = (x;x)_oo:
#   E(x)    = sum_k (-1)^k x^{k(3k-1)/2}, k over all integers (Euler);
#   E(x)^3  = sum_{j>=0} (-1)^j (2j+1) x^{j(j+1)/2}              (Jacobi);
#   E(x^2)^2 / E(x) = (-x;x)_oo^2 (x;x)_oo = sum_{j>=0} x^{j(j+1)/2} (Gauss);
#   (1 - z) (zx;x)_oo (z^{-1}x;x)_oo (x;x)_oo
#           = sum_n (-1)^n z^n x^{n(n-1)/2}, n over all integers (Jacobi's
#             triple product); n = j + 1 and n = -j share x^{j(j+1)/2}.


def _triangular(b: int, N: int, monomials) -> list[tuple[int, int, int]]:
    """The monomials (c, a) of each x^{j(j+1)/2}, x = q^b, j >= 0, up to q^N."""
    out = []
    j = 0
    while (e := b * (j * (j + 1) // 2)) <= N:
        out += [(e, c, a) for c, a in monomials(j)]
        j += 1
    return out


def _euler(b: int, N: int) -> list[tuple[int, int, int]]:
    theta = zf_theta_terms(lambda k: b * (k * (3 * k - 1) // 2), N + 1)
    return [(0, 1, 0)] + [(e, c, 0) for e, c in theta.items()]


def _jacobi_cube(b: int, N: int) -> list[tuple[int, int, int]]:
    return _triangular(b, N, lambda j: (((-1 if j % 2 else 1) * (2 * j + 1), 0),))


def _gauss(b: int, N: int) -> list[tuple[int, int, int]]:
    return _triangular(b, N, lambda j: ((1, 0),))


def _triple_times_one_minus_z(b: int, N: int) -> list[tuple[int, int, int]]:
    return _triangular(b, N, lambda j: ((1, -j), (-1, j + 1)) if j % 2 == 0 else ((-1, -j), (1, j + 1)))


def _passes_cost(r: int) -> int:
    """Passes for E^r: |r| // 3 Jacobi cubes and |r| % 3 Euler series."""
    return abs(r) // 3 + abs(r) % 3


def _sparse_plan(spec: Product, N: int, packed: bool):
    """(passes, rest) for the product spec: the sparse series steps
    (terms, over, divide) for its families that form one (_sparse_step),
    and the Product of its other families, in their order, followed by
    the finite corrections.

    With x = q^b, a family is taken when its count is infinite and it is
    the factors 1 + c z^a x^j for j >= k, with step b >= 1, first = kb <= N,
    and (c, a) one of
      (-1, 0): E(x) = (x;x)_oo;
      (1, 0): (-x;x)_oo = E(x^2)/E(x);
      (-1, +-1), on packed rows only: a half of the pair
        (zx;x)_oo (z^{-1}x;x)_oo = T(x)/E(x), T(x) the triple.
    A half without a partner of the same step on the same side stays a
    family, as does every family of another form. A product with no
    infinite family comes back as it is, with no passes.

    The series count from j = 1. For k >= 2 the factors j = 1..k-1 are
    taken out again (a finite family on the other side); for k = 0 the
    factor j = 0 is put in (a finite family on the same side). k = 0 is
    taken in the numerator only: in the denominator the loop raises
    NonUnitConstantTerm for it.

    Each pair is one T pass: the triple-product terms over 1 - z. The
    exponents r_b of E(q^b) take few passes: from the smallest b up, g
    Gauss series E(q^{2b})^2/E(q^b), with g in -2..2 chosen for the
    fewest passes over r_b and r_2b, then |r_b| // 3 Jacobi cubes and
    |r_b| % 3 Euler series. So the triple at z = 1 (at_z) is one Jacobi
    cube, and at z = -1 one Gauss series. Series that are 1 to q-order N
    (b > N) are left out.
    """
    if all(family.count < INFINITY for family in chain(spec.num, spec.den)):
        return [], spec
    power: dict[int, int] = {}
    pairs: dict[int, int] = {}
    # a family is named (sign, index): sign 1 in the numerator, -1 in the denominator
    halves: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    taken: list[tuple[int, int]] = []
    sides = ((1, spec.num), (-1, spec.den))
    for sign, families in sides:
        for i, (c, a, first, b, count) in enumerate(families):
            if not (
                count == INFINITY and b >= 1 and 0 <= first <= N and first % b == 0 and (first or sign == 1)
                and ((a == 0 and c in (1, -1)) or (packed and c == -1 and a in (1, -1)))
            ):
                continue
            if a:
                halves.setdefault((b, sign, a), []).append((sign, i))
                continue
            taken.append((sign, i))
            power[b] = power.get(b, 0) - sign * c
            if c == 1:
                power[2 * b] = power.get(2 * b, 0) + sign
    for (b, sign, a), plus in halves.items():
        if a == 1:
            minus = halves.get((b, sign, -1), [])
            n = min(len(plus), len(minus))
            taken += plus[:n] + minus[:n]
            pairs[b] = pairs.get(b, 0) + sign * n
            power[b] = power.get(b, 0) - sign * n
    # every other family keeps its place; the corrections follow
    rest = tuple([fam for i, fam in enumerate(families) if (sign, i) not in taken] for sign, families in sides)
    for sign, i in taken:
        fam = (spec.num if sign > 0 else spec.den)[i]
        k = fam.first // fam.step
        if k == 0:
            rest[sign < 0].append(fam._replace(count=1))
        elif k > 1:
            rest[sign > 0].append(fam._replace(first=fam.step, count=k - 1))
    passes = []
    for b, t in pairs.items():
        if b <= N and t:
            passes += [(_triple_times_one_minus_z(b, N), True, t < 0)] * abs(t)
    while power:
        b = min(power)
        r = power.pop(b)
        r2 = power.pop(2 * b, 0)
        if b > N:
            continue
        g = min(range(-2, 3), key=lambda g: (abs(g) + _passes_cost(r + g) + _passes_cost(r2 - 2 * g), abs(g)))
        if r2 - 2 * g:
            power[2 * b] = r2 - 2 * g
        r += g
        # a series is built only when some pass takes it
        for series, count, divide in ((_gauss, abs(g), g < 0), (_jacobi_cube, abs(r) // 3, r < 0),
                                      (_euler, abs(r) % 3, r < 0)):
            if count:
                passes += [(series(b, N), False, divide)] * count
    return passes, Product(tuple(rest[0]), tuple(rest[1]))


def _sparse_step(f, terms: list[tuple[int, int, int]], over: bool, divide: bool):
    """f times, or divided by, A = (sum of the terms) / D, where D = 1 - z
    when over and D = 1 otherwise, and the terms at q^0 sum to D.

    Dense lists run zf_mul_sparse or zf_div_sparse (no z, so D = 1).
    Packed rows change in place (_sparse_rows)."""
    if isinstance(f, _Rows):
        _sparse_rows(f, terms, over, divide)
        return f
    series = {e: c for e, c, _ in terms}
    if divide:
        del series[0]
        return zf_div_sparse(f, series)
    return zf_mul_sparse(f, series)


def _sparse_rows(f: _Rows, terms: list[tuple[int, int, int]], over: bool, divide: bool) -> None:
    """In place on packed rows: f times, or divided by, A = S / D, where
    S = sum c z^a q^e over the terms, D = 1 - z when over and D = 1
    otherwise, and the terms with e = 0 sum to D.

    Multiplying, g_k = D^{-1} sum c z^a f_{k-e}, for k downward, so that
    every f_{k-e} with e >= 1 is still f's row. Dividing, g S = f D gives
    g_k = D^{-1} (D f_k - sum_{e>=1} c z^a g_{k-e}), for k upward over
    finished rows. Either way row k is one sum of shifted rows, one per
    monomial, each aligned to the lowest lo so far as it arrives, as
    _add_rows aligns them. Dividing a row by 1 - z is dividing its integer
    by 1 - 2^b: evaluation at z = 2^b is a ring homomorphism, so a row
    p(z) = (1 - z) q(z) with p's lowest exponent at least lo gives
    x = (1 - 2^b) Q(2^b) exactly, whatever its digits, with
    Q = z^{-lo} q a polynomial, as 1 - z has constant term 1. Each such
    sum is a multiple of 1 - z (every term of the triple product pairs up
    over it), so a remainder is an engine fault and raises InexactDivision.
    """
    rows, bits = f.rows, f.bits
    terms = sorted((e, -c if divide and e else c, a) for e, c, a in terms)
    exps = [e for e, _, _ in terms]
    down = 1 - (1 << bits)
    for k in range(1, len(rows)) if divide else range(len(rows) - 1, 0, -1):
        lo = None
        for e, c, a in terms[: bisect_right(exps, k)]:
            r = rows[k - e]
            if r is None:
                continue
            slo, s = r
            slo += a
            if c != 1:
                s = -s if c == -1 else c * s
            if lo is None:
                lo, x = slo, s
            elif slo == lo:
                x += s
            elif slo < lo:
                x = (x << (bits * (lo - slo))) + s
                lo = slo
            else:
                x += s << (bits * (slo - lo))
        if lo is None:
            continue
        if over:
            x, rem = divmod(x, down)
            if rem:
                raise InexactDivision("a packed row is not a multiple of 1 - z")
        rows[k] = (lo, x) if x else None


def _terms(spec: HyperSum | Product, last: int, one, N: int, offset: int):
    """m U / q^offset to q-order N on N - offset + 1 rows, of the
    representation of the series one (N + 1 rows, which _terms leaves as
    it is), for offset at most the head's q-exponent and N + 1: m the head
    monomial and U the sum over the terms 0..last divided by m and by
    head_factors, or m U = 1 for a product spec (offset 0).

    A sum runs in nested (Horner) form, from its last term down: with
    r_n = t_n / t_{n-1} = w q^{d_n} F_n, w = weight.c z^{weight.z_exp},
    d_n = weight.s n + weight.t and F_n the factors at index n,
        sum_{n<=last} t_n = t_0 (1 + r_1 (1 + r_2 (1 + ... (1 + r_last)))),
    that is U_last = 1, U_{n-1} = 1 + r_n U_n for n = last .. 1, and the
    sum t_0 U_0. The monomials are carried, not applied: with h the head
    monomial, V_n = h w^n U_n runs as
        V_last = h w^last,   V_{n-1} = h w^{n-1} + q^{d_n} F_n V_n,
    since h w^{n-1} U_{n-1} = h w^{n-1} + w q^{d_n} F_n h w^{n-1} U_n, and
    V_0 = h U_0 = m U. So a level runs its factor steps, prepends d_n rows
    and adds one monomial at row 0; no row is rewritten for w or h. Each
    V_n is built on N - v(n) + 1 rows, v(n) the valuation bound of
    HyperSum, and that is exact: F_n has constant term 1 or is constant
    in q, and v(n) = v(n-1) + d_n, so V_{n-1} to q-order N - v(n-1) reads
    V_n only to q-order N - v(n). The prepend of d_n rows gives that
    length; the head's prepends head.t - offset and gives N - offset + 1.
    A term with v(n) > N leaves V_{n-1} = h w^{n-1} to its order, so it is
    skipped, and a head above the order leaves no term.
    """
    if isinstance(spec, Product):
        return _monomial(one, N + 1, 1, 0)
    h, w = spec.head, spec.weight
    _nonnegative(h.t)
    v = list(accumulate((w.s * n + w.t for n in range(1, last + 1)), initial=h.t))
    while last and v[last] > N:
        last -= 1
    # c[n] z^{h.z_exp + n w.z_exp} is h w^n
    c = list(accumulate(repeat(w.c, last), mul, initial=h.c))
    f = _monomial(one, max(N - v[last] + 1, 0), c[last], h.z_exp + last * w.z_exp)
    for n in range(last, 0, -1):
        for p in spec.num:
            f = _factor(f, p.c, p.z_exp, (p.s * n + p.t,), False)
        for p in spec.den:
            f = _factor(f, p.c, p.z_exp, (p.s * n + p.t,), True)
        f = _times(f, w.s * n + w.t)
        _plus_monomial(f, c[n - 1], h.z_exp + (n - 1) * w.z_exp)
    return _times(f, min(h.t, N + 1) - offset)


def _products(spec: HyperSum | Product) -> tuple[Product, ...]:
    """The products P of spec, in the order they apply: head_factors and
    times of a sum, or the product spec itself."""
    return (spec,) if isinstance(spec, Product) else (spec.head_factors, spec.times)


def _factor_counts(spec: HyperSum | Product, N: int) -> dict:
    """The factors of the products of spec to q-order N, keyed for
    _quotient.

    An infinite family that starts below q^{N+1} is one whole key
    (divide, c, z_exp, first, step, count), as _sparse_plan reads it, and
    its value counts it. The factors below q^{N+1} of a finite family are
    the exponents r + j step for j in an interval [j0, j1), r = first mod
    step, under the key (divide, c, z_exp, step, r), and the value holds
    its endpoints as events {j0: +1, j1: -1}, summed over the families of
    that key. Each factor below q^1 is a run of its own with step 1, so
    that a factor at q^0 meets every other one of its (divide, c, z_exp)
    under one key."""
    counts: dict = {}
    for product in _products(spec):
        for divide, families in ((False, product.num), (True, product.den)):
            for c, z_exp, first, step, count in families:
                if count == INFINITY:
                    if first <= N:
                        key = (divide, c, z_exp, first, step, count)
                        counts[key] = counts.get(key, 0) + 1
                    continue
                exps = range(first, min(N + 1, first + step * count), step)
                low = max(-((first - 1) // step), 0)
                for run in [range(e, e + 1) for e in exps[:low]] + [exps[low:]]:
                    if not run:
                        continue
                    j = run[0] // run.step
                    events = counts.setdefault((divide, c, z_exp, run.step, run[0] % run.step), {})
                    events[j] = events.get(j, 0) + 1
                    events[j + len(run)] = events.get(j + len(run), 0) - 1
    return counts


def _quotient(upper: dict, lower: dict) -> Product:
    """The Product of the factors of upper / lower that do not cancel, for
    two results of _factor_counts; NonUnitConstantTerm where it would
    divide by a factor with a q-exponent below 1.

    A whole key keeps its surplus of families. A finite key sweeps the
    events of upper less those of lower in order of j: between two event
    points the running sum m is the surplus of each factor there, so the
    interval is one Factors run, |m| times. A surplus of lower moves to the
    other side. The runs hold the multiset that counting each factor of
    upper less each of lower would give, unless two finite runs of one
    (divide, c, z_exp) but different steps share an exponent above q^0;
    then both stay, and the product is the same."""
    sides: tuple[list, list] = ([], [])
    for key in {**upper, **lower}:
        divide, c, z_exp = key[:3]
        if len(key) == 6:
            runs = [(Factors(c, z_exp, *key[3:]), upper.get(key, 0) - lower.get(key, 0))]
        else:
            step, r = key[3:]
            events = dict(upper.get(key, {}))
            for j, d in lower.get(key, {}).items():
                events[j] = events.get(j, 0) - d
            runs, m = [], 0
            for (j, d), (end, _) in pairwise(sorted(events.items())):
                m += d
                runs.append((Factors(c, z_exp, r + j * step, step, end - j), m))
        for family, n in runs:
            if n:
                sides[divide != (n < 0)].extend(repeat(family, abs(n)))
    num, den = sides
    if any(family.first < 1 for family in den):
        raise NonUnitConstantTerm("a tuple's product quotient divides by a factor at q^0")
    return Product(tuple(num), tuple(den))


def _map_monomials(spec, up: Callable, down: Callable):
    """spec, a sum, a product or a tuple of them, with every Power and
    numerator Factors p made up(p) and every denominator Power and Factors
    made down(p)."""
    if isinstance(spec, Product):
        return Product(tuple(map(up, spec.num)), tuple(map(down, spec.den)))
    if isinstance(spec, HyperSum):
        return spec._replace(
            weight=up(spec.weight), num=tuple(map(up, spec.num)), den=tuple(map(down, spec.den)),
            head=up(spec.head), head_factors=_map_monomials(spec.head_factors, up, down),
            times=_map_monomials(spec.times, up, down),
        )
    return tuple(_map_monomials(s, up, down) for s in spec)


def at_z(spec, z: int):
    """spec, a sum, a product or a tuple of them, at z in {1, -1}: every
    coefficient c z^e replaced by its value at that z, with z-exponent 0.
    A spec with no z comes back equal to itself."""
    if z not in (1, -1):
        raise ValueError("z must be 1 or -1")

    def fold(p):
        return p._replace(c=-p.c if z == -1 and p.z_exp % 2 else p.c, z_exp=0)

    return _map_monomials(spec, fold, fold)


def _majorant(spec):
    """spec at z = 1 with every coefficient c made |c|, and every
    denominator factor 1 + c x made 1 - |c| x."""
    return _map_monomials(
        spec, lambda p: p._replace(c=abs(p.c), z_exp=0), lambda p: p._replace(c=-abs(p.c), z_exp=0)
    )


class _PackedSeries(QSeries):
    """The QSeries of finished packed rows (_Rows), every digit proven to
    lie in its slot range. coeffs is unpacked when first read, and the rows
    are dropped then; until that, qs_first_mismatch can compare two such
    series on their rows (_packed_equal)."""

    __slots__ = ("packed",)

    def __init__(self, packed: _Rows) -> None:
        self.order = len(packed.rows) - 1
        self.packed = packed

    def __getattr__(self, name: str):
        # reached only while the coeffs slot is unset
        if name != "coeffs":
            raise AttributeError(name)
        width = self.packed.bits // 8
        self.coeffs = [
            LP_ZERO if r is None else LaurentPoly._raw(_unpack(r[1], r[0], width))
            for r in self.packed.rows
        ]
        self.packed = None
        return self.coeffs


def _unpacked(f: _Rows) -> QSeries:
    return _PackedSeries(f)


class _DenseSeries(QSeries):
    """The QSeries of a dense list of integers, the coefficients of q^0 ..
    q^N of a series with no z. coeffs is built when first read, as for
    _PackedSeries; dense keeps the list, so qs_first_mismatch compares two
    such series as lists and a caller reads the list back as it is."""

    __slots__ = ("dense",)

    def __init__(self, dense: list[int]) -> None:
        self.order = len(dense) - 1
        self.dense = dense

    def __getattr__(self, name: str):
        # reached only while the coeffs slot is unset
        if name != "coeffs":
            raise AttributeError(name)
        self.coeffs = [lp_monomial(v, 0) for v in self.dense]
        return self.coeffs


def _widened(rows: list, width: int, wide: int) -> list:
    """Packed rows at width bytes packed again at wide >= width bytes.

    Adding the bias sum_i 2^(b-1) 2^(b*i) over the row's slots (_slots)
    leaves each digit d as the unsigned slot u = d + 2^(b-1) in [0, 2^b),
    with no carry between slots (_digits). Each narrow byte j of every
    slot moves to byte j of the wide slot, one strided slice per j, which
    gives sum_i u_i 2^(B*i) for B = 8*wide; less the bias spaced out the
    same way, that is sum_i d_i 2^(B*i), the row at the wide width.
    """
    out = []
    # the bias of one narrow slot, in the bytes of one wide slot
    spread = bytes(width - 1) + b"\x80" + bytes(wide - width)
    for r in rows:
        if r is None:
            out.append(None)
            continue
        lo, x = r
        n = _slots(x, width)
        data = (x + _bias(n, width)).to_bytes(n * width, "little")
        spaced = bytearray(n * wide)
        for j in range(width):
            spaced[j::wide] = data[j::width]
        out.append((lo, int.from_bytes(spaced, "little") - int.from_bytes(spread * n, "little")))
    return out


def _packed_equal(f: QSeries, g: QSeries) -> bool:
    """True when f and g are proven equal up to the smaller order on their
    packed rows: both are _PackedSeries not yet unpacked, at any slot
    width, and every pair of rows is equal as integers. False says only
    that this did not prove them equal.

    Each row (lo, x) is x = sum_e c_e 2^(b (e - lo)), its exact value
    at z = 2^b over z^lo, and evaluate proved every final
    digit c_e to lie in [-2^(b-1), 2^(b-1)). An integer has at most one
    representation with digits in that range, so two rows aligned to the
    lower lo, each shifted by 2^(b j) with j >= 0, are equal integers just
    when their coefficients are equal. A zero row is None. The narrower of
    two widths is first packed again at the wider one (_widened): a digit
    in the narrower range lies in the wider one, as for _machine_bytes, so
    the rows are then exact at the wider b.
    """
    if not (isinstance(f, _PackedSeries) and isinstance(g, _PackedSeries)):
        return False
    if f.packed is None or g.packed is None:
        return False
    fb, gb = f.packed.bits, g.packed.bits
    bits = max(fb, gb)
    n = min(f.order, g.order) + 1
    frows, grows = f.packed.rows[:n], g.packed.rows[:n]
    if fb < bits:
        frows = _widened(frows, fb // 8, bits // 8)
    if gb < bits:
        grows = _widened(grows, gb // 8, bits // 8)
    for r, s in zip(frows, grows):
        if r is None or s is None:
            if r is not s:
                return False
            continue
        lo = min(r[0], s[0])
        if r[1] << (bits * (r[0] - lo)) != s[1] << (bits * (s[0] - lo)):
            return False
    return True


def _sum(runs: list[tuple], one, N: int):
    """The sum of the (spec, last) runs to q-order N, each from the series
    one (which _sum leaves as it is), nested over the specs' products.

    With P_i the products of spec i and m_i U_i its terms (_terms),
        sum_i P_i m_i U_i = P_1 (m_1 U_1 + D_2 (m_2 U_2 + ... + D_k m_k U_k)),
    where D_i = P_i / P_{i-1} is the Product of the factors that do not
    cancel (_quotient, which sweeps the factor runs of _factor_counts as
    intervals, so that D_i comes out as runs, one _factor call each). It
    runs from the last spec down, S_k = m_k U_k and
    S_{i-1} = m_{i-1} U_{i-1} + D_i S_i,
    each S_i as S_i / q^o on N - o + 1 rows, o the smallest head
    q-exponent of the specs from i to the end (0 for spec 1). That is
    exact: a factor of D_i multiplies by 1 + c z^a q^e with e >= 0 (a
    negative e raises, as for a spec alone) or divides by one with e >= 1,
    so D_i S_i to q-order N reads S_i only to q-order N - o. P_1 runs in
    full, on N + 1 rows. One rule holds for every tuple: a D_i that would
    divide by a factor with q-exponent below 1 raises
    NonUnitConstantTerm, on every route and whatever the heads. So the
    specs go in an order where each q^0 factor is multiplied in, not
    divided out: a numerator 1 + z of spec i - 1 only is a denominator of
    D_i, and a numerator of spec i only is a numerator of D_i. A spec
    alone runs its terms and then its products on N + 1 rows, and the sum
    of no specs is the zero series.
    """
    if not runs:
        return _monomial(one, N + 1, 0, 0)
    counts = [_factor_counts(spec, N) for spec, _ in runs] if len(runs) > 1 else ()
    f, offset = None, N + 1
    for i in range(len(runs) - 1, -1, -1):
        spec, last = runs[i]
        head = min(spec.head.t, N + 1) if isinstance(spec, HyperSum) else 0
        inner = 0 if i == 0 else min(head, offset)
        term = _terms(spec, last, one, N, inner)
        if f is not None:
            f = _apply_product(f, _quotient(counts[i + 1], counts[i]), N - offset)
            _add_into(term, f, offset - inner)
        f, offset = term, inner
    for product in _products(runs[0][0]):
        f = _apply_product(f, product, N)
    return f


def _graded(runs: list[tuple], N: int) -> QSeries:
    """The sum of the (spec, last) runs to q-order N, for specs in which z
    sits only in the heads and weights of the sums (_MONOMIAL_Z): one list
    of integers per z-grade, on the zf_* kernels.

    Term n of such a sum is c_n z^{g_n} q^{v(n)} T_n, with c_n = head.c
    weight.c^n, g_n = head.z_exp + n weight.z_exp, v(n) the valuation bound
    of HyperSum, and T_n free of z: T_0 = head_factors * times, which are
    free of z and so commute with the sum, and T_n = T_{n-1} r_n, r_n the
    factors at index n. The terms run forward, T_n on at most N - v(n) + 1
    entries, cut to that length before its factors apply; that is exact for
    the reason _terms gives. Below that length T_n keeps only the entries
    that can be nonzero: 1 has one, a numerator factor with q^e adds e and
    a product or a denominator factor fills the length. Each T_n is added,
    times the running scalar c_n, into the column of grade g_n at row v(n),
    and a product spec is grade 0. Terms of equal grade share a column,
    across the specs too. Row k of the result is read from the nonzero
    entries of the columns, within the rows the terms reached.

    Every spec raises where _sum would: its terms run the same factor steps,
    its products run even when its head lies above N (on one entry, so that
    a q^0 denominator raises), and each pair of neighbours forms the
    quotient of its products (_quotient), in _sum's order.
    """
    # grade -> [column, lo, hi]: rows lo .. hi - 1 of the column are the
    # only ones a term has reached
    columns: dict[int, list] = {}

    def add(grade: int, f: list[int], row: int, c: int) -> None:
        entry = columns.get(grade)
        if entry is None:
            entry = columns[grade] = [[0] * (N + 1), row, row]
        zf_add_into(entry[0], f, shift=row, c=c)
        entry[1] = min(entry[1], row)
        entry[2] = max(entry[2], row + len(f))

    counts = [_factor_counts(spec, N) for spec, _ in runs] if len(runs) > 1 else ()
    for i in range(len(runs) - 1, -1, -1):
        spec, last = runs[i]
        if isinstance(spec, Product):
            add(0, _apply_product(zf_one(N), spec, N), 0, 1)
        else:
            _graded_terms(spec, last, N, add)
        if i + 1 < len(runs):
            _quotient(counts[i + 1], counts[i])
    rows: list = [None] * (N + 1)
    for grade in sorted(columns):
        column, lo, hi = columns[grade]
        for k in compress(range(lo, hi), column[lo:hi]):
            row = rows[k]
            if row is None:
                rows[k] = {grade: column[k]}
            else:
                row[grade] = column[k]
    return QSeries(N, [LP_ZERO if row is None else LaurentPoly._raw(row) for row in rows])


def _graded_terms(spec: HyperSum, last: int, N: int, add: Callable) -> None:
    """add(g_n, T_n, v(n), c_n) for the terms n <= last of spec to q-order
    N, in the notation of _graded."""
    h, w = spec.head, spec.weight
    _nonnegative(h.t)
    f = [1]
    products = [p for p in _products(spec) if p.num or p.den]
    if products:
        f = zf_one(max(N - h.t, 0))
        for product in products:
            f = _apply_product(f, product, len(f) - 1)
    if h.t > N:
        return
    c, grade, v = h.c, h.z_exp, h.t
    add(grade, f, v, c)
    for n in range(1, last + 1):
        v += w.s * n + w.t
        size = N - v + 1
        del f[size:]
        for p in spec.num:
            e = p.s * n + p.t
            f += repeat(0, min(e, size - len(f)))
            f = _factor(f, p.c, p.z_exp, (e,), False)
        for p in spec.den:
            f += repeat(0, size - len(f))
            f = _factor(f, p.c, p.z_exp, (p.s * n + p.t,), True)
        c *= w.c
        grade += w.z_exp
        add(grade, f, v, c)


def _packed(runs: list[tuple], N: int) -> QSeries:
    """The sum of the (spec, last) runs to q-order N on packed rows, at the
    slot width of their majorant (evaluate gives the proof)."""
    width = _machine_bytes(
        _slot_bytes(max(_sum([(_majorant(s), last) for s, last in runs], zf_one(N), N)))
    )
    return _unpacked(_sum(runs, _Rows(8 * width, [(0, 1)] + [None] * N), N))


def _without(families: tuple[Factors, ...], drop: Counter) -> tuple[Factors, ...]:
    """families, in their order, less the multiset drop."""
    drop = drop.copy()
    out = []
    for fam in families:
        if drop[fam]:
            drop[fam] -= 1
        else:
            out.append(fam)
    return tuple(out)


def _cancelled(spec: HyperSum) -> HyperSum:
    """spec less the families that one of head_factors and times divides
    by and the other, as an identical Factors, multiplies by: both apply
    to every term, so they cancel. Only families from q^1 up are taken
    out, so that a q^0 denominator still raises NonUnitConstantTerm."""
    h, t = spec.head_factors, spec.times
    if not (h.den and t.num) and not (t.den and h.num):
        return spec
    up = Counter(f for f in h.den if f.first >= 1) & Counter(t.num)
    down = Counter(f for f in t.den if f.first >= 1) & Counter(h.num)
    if not (up or down):
        return spec
    return spec._replace(
        head_factors=Product(_without(h.num, down), _without(h.den, up)),
        times=Product(_without(t.num, up), _without(t.den, down)),
    )


def _runs(spec, N: int) -> list[tuple]:
    """The (spec, last) pairs of a spec or a tuple of them at order N, each
    sum's term bound derived from the spec as given, before its first term
    (_last), and the sum then run with the product families it divides out
    and multiplies back cancelled (_cancelled); last is 0 for a product.
    Every product family's step is checked first (_increasing)."""
    specs = (spec,) if isinstance(spec, (HyperSum, Product)) else spec
    for s in specs:
        for product in _products(s):
            _increasing(product)
    return [(_cancelled(s), _last(s, N)) if isinstance(s, HyperSum) else (s, 0) for s in specs]


def evaluate(spec: HyperSum | Product | tuple[HyperSum | Product, ...], N: int) -> QSeries:
    """A sum or product spec, or the sum of a tuple of them, to q-order N.

    One walk over the specs picks one of three routes (_z_place), all of
    which give the same series:
      - no z: the dense zf_* kernels, nested as below;
      - z only in the head and weight of each sum, every factor free of z:
        the zf_* kernels, one list of plain integers per power of z
        (_graded). Each term is c z^g q^v times a z-free series, so it
        adds into the list of grade g, and no digit shares an integer with
        another; there is no slot width to prove, no majorant and no
        unpacking;
      - z in some factor: packed rows (_Rows, _packed), nested as below.
    z = +-1 is substituted in the spec beforehand (at_z). Each sum's term
    bound is derived from the spec as given, before its first term
    (HyperSum), so every route forms the same terms, and the graded route
    raises where the packed rows do (_graded). Each sum then runs without
    the product families that its head_factors divide out and its times
    multiply back, or the other way round (_cancelled, from q^1 up), and
    the route is picked from the specs as they run. On the dense and
    packed routes the specs of a tuple run nested over their products
    (_sum): each product applies only the factors it does not share with
    the product of the spec before, on a series shortened by the smallest
    head q-exponent so far, and the result is unpacked once. Where that
    quotient would divide by a factor at q^0, the tuple raises
    NonUnitConstantTerm: a spec with a numerator factor at q^0 goes after
    every spec that lacks it. The sum of no specs is the zero series.

    Packed rows. Each row of the series is one integer, its z-coefficients
    as base-2^b digits (Kronecker substitution z -> 2^b). A
    sum runs in nested form (_terms): a factor step is one aligned
    shift-and-add per row k >= e, and a nesting level prepends rows and
    adds its carried monomial h w^{n-1} to row 0 with one aligned add, so
    no row is rewritten for a monomial; the specs of a tuple add row by row, each into
    the next one down at its head's row offset. The finished rows come back
    as a _PackedSeries: each row is unpacked once, when coeffs is first
    read, and two such series that are only compared (qs_first_mismatch)
    need not be unpacked at all (_packed_equal).

    Slot width, proven before the first term. For a series h write |h|
    for the series sum_k |h_k|_1 q^k, where |h_k|_1 sums the absolute
    values of the z-coefficients of h_k. Then coefficientwise, and after
    truncation at q^N,
        |f + g| <= |f| + |g|,   |c z^a q^e f| = |c| q^e |f|,
        |(1 + c z^a q^e) f| <= (1 + |c| q^e) |f|,
        |f / (1 + c z^a q^e)| <= |f| / (1 - |c| q^e),
    the last as 1/(1 + c z^a q^e) = sum_j (-c z^a q^e)^j. Each right side
    is nondecreasing in |f|, so running the majorant spec (z = 1, every
    coefficient |c|, every denominator factor 1 - |c| x) over the terms of
    the spec itself (a factor 1 - q^0 turns into 1 + q^0 and no longer
    ends it) on the zf_* kernels gives M with M_k >= |h_k|_1 for the
    result h; for a tuple, M is the sum of the specs' majorants, as
    |h_1 + h_2| <= |h_1| + |h_2|.
    Slots of b = 8 * _slot_bytes(max M) >= max(M).bit_length() + 2 bits
    therefore hold every final digit in balanced form. A width of at most
    8 bytes is then rounded up to 1, 2, 4 or 8 bytes (_machine_bytes), so
    that _unpack reads each row with one cast; rounding up only widens
    the slots, so b >= max(M).bit_length() + 2 still holds. Wider slots
    keep their byte width and are read slot by slot. Intermediate digits
    may leave that range: evaluation at z = 2^b is a ring homomorphism,
    and every alignment multiplies by 2^(b j) with j >= 0, so each x
    equals its exact row at z = 2^b over z^lo whatever its digits. No
    step puts a z-exponent below a row's lo: a carried monomial enters as
    an add, and an add aligns to the lower lo of the two, and a row that
    is a multiple of 1 - z, divided by it, keeps its lo, as 1 - z has
    constant term 1. _unpack reads the top slot of a final row off x, so
    it reads every final row exactly. The product
    families that run as sparse series (_sparse_plan) change none of
    this: each such series equals the product of its factors, so the
    majorant spec runs to the same series M, and the result is the same
    series, only computed in fewer steps. Nor does the nested form: the
    majorant spec runs nested too, each inner series exact to its order,
    with its monomials carried as the spec's are (V_0 = m U is the same
    series), so M is the same series, and every step is still a ring
    operation on exact integers. Nor does cancelling the families that a sum's
    head_factors and times share (_cancelled): the majorant runs on the
    reduced spec, which is the same series as the spec given, so the
    proof holds for it as written; the majorant only shrinks, as it no
    longer counts those factors on both sides. Nor does nesting the specs
    of a tuple over their products (_sum): the majorant specs run through
    the same nested form, each quotient D_i taken from their own
    products, and that form is an identity of series, so M = sum_i M_i,
    M_i the majorant of spec i run alone, and |h| <= sum_i |h_i| <= M.
    Step by step this is the rule |P (U + D V)| <= |P| (|U| + |D| |V|) of
    the inequalities above, with the majorant products for P and D.
    """
    runs = _runs(spec, N)
    place = _z_place(s for s, _ in runs)
    if place == _NO_Z:
        return zf_to_qseries(_sum(runs, zf_one(N), N))
    if place == _MONOMIAL_Z:
        return _graded(runs, N)
    return _packed(runs, N)


def mul_factor(f: QSeries, c: int, z_exp: int, q_exp: int) -> QSeries:
    """f times (1 + c * z^{z_exp} * q^{q_exp}), on dict rows.

    A negative q_exp raises NonTerminating.
    """
    _nonnegative(q_exp)
    return qs_add(f, qs_mul_monomial(f, c, z_exp, q_exp))


def div_factor(f: QSeries, c: int, z_exp: int, q_exp: int) -> QSeries:
    """f divided by (1 + c * z^{z_exp} * q^{q_exp}), on dict rows by the
    recurrence g_k = f_k - c z^{z_exp} g_{k - q_exp}, upward.

    q_exp = 0 gives a non-monomial constant term and raises
    NonUnitConstantTerm; a negative q_exp raises NonTerminating.
    """
    _nonnegative(q_exp)
    if q_exp < 1:
        raise NonUnitConstantTerm("factor division requires a positive q-exponent in the factor")
    g = list(f.coeffs)
    for k in range(q_exp, f.order + 1):
        g[k] = lp_add(g[k], lp_scale(g[k - q_exp], -c, z_exp))
    return QSeries(f.order, g)


def pochhammer(a: Monomial, n, N: int, step: int = 1) -> QSeries:
    """The q-Pochhammer product (a; q^step)_n truncated at order N.

    The factors (1 - a * q^{step*k}) for k < n, or for INFINITY until the
    factor's q-power exceeds N; factors congruent to 1 modulo q^{N+1} are
    skipped.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    return evaluate(Product((Factors(-a.sign, a.z_exp, a.q_exp, step, n),)), N)


def gauss_binomial(n: int, k: int, step: int = 1, order: int | None = None) -> QSeries:
    """The Gaussian binomial [n choose k] in base q^step as a QSeries.

    Computed from the product formula in the variable Q = q^step, with
    step >= 1: the product (Q^{n-k+1};Q)_k / (Q;Q)_k runs on the dense
    route to Q-degree D, the degree of its numerator. The quotient is a
    polynomial of degree k(n-k) by theory; the division is exact just
    when every entry above that degree is zero, and InexactDivision is
    raised otherwise. Without an explicit order the series is exactly the
    polynomial, of degree step*k*(n-k).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if step < 1:
        raise ValueError("step must be a positive integer")
    if k < 0 or k > n:
        return qs_zero(order if order is not None else 0)
    D = k * (2 * n - k + 1) // 2
    spec = Product((Factors(-1, 0, n - k + 1, 1, k),), (Factors(-1, 0, 1, 1, k),))
    num = _apply_product(zf_one(D), spec, D)
    deg = k * (n - k)
    if any(num[deg + 1 :]):
        raise InexactDivision("gaussian binomial division left a remainder")
    target = order if order is not None else step * deg
    coeffs = [LP_ZERO] * (target + 1)
    for j, v in enumerate(num[: deg + 1]):
        e = step * j
        if v and e <= target:
            coeffs[e] = lp_monomial(v, 0)
    return QSeries(target, coeffs)


def qs_first_mismatch(
    f: QSeries, g: QSeries
) -> tuple[int, int, int, int] | None:
    """First (q_exp, z_exp, f_val, g_val) where the series differ.

    Scans q-orders ascending, z-exponents ascending, up to the smaller of
    the two orders; returns None when they agree on that range. Two packed
    series that are proven equal on their rows (_packed_equal) return None
    with neither unpacked, and two dense ones (_DenseSeries) are scanned as
    lists; every other pair, and every packed pair that differs, is
    scanned on coeffs.
    """
    if _packed_equal(f, g):
        return None
    n = min(f.order, g.order) + 1
    if isinstance(f, _DenseSeries) and isinstance(g, _DenseSeries):
        # a z-free coefficient is its z^0 digit, and a zero one is no digit
        a, b = f.dense[:n], g.dense[:n]
        if a == b:
            return None
        k = next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
        return k, 0, a[k], b[k]
    for k in range(n):
        a, b = f.coeffs[k].terms, g.coeffs[k].terms
        if a != b:
            for e in sorted(set(a) | set(b)):
                va, vb = a.get(e, 0), b.get(e, 0)
                if va != vb:
                    return k, e, va, vb
    return None


def qs_substitute_neg_q(f: QSeries) -> QSeries:
    """Substitute q -> -q (negate odd-order coefficients)."""
    coeffs = [
        c if k % 2 == 0 else lp_neg(c) for k, c in enumerate(f.coeffs)
    ]
    return QSeries(f.order, coeffs)


def qs_truncate_z(f: QSeries, lo: int, hi: int) -> QSeries:
    """Drop every z-exponent outside [lo, hi] from every coefficient.

    Used by identities that only stabilize inside a z-window; the window
    semantics are documented at the registry records that need it.
    """
    coeffs = []
    for c in f.coeffs:
        kept = {e: v for e, v in c.terms.items() if lo <= e <= hi}
        coeffs.append(LaurentPoly._raw(kept) if len(kept) != len(c.terms) else c)
    return QSeries(f.order, coeffs)


def qs_collapse_z(f: QSeries, z0: int) -> QSeries:
    """Evaluate every coefficient at z0 in {1, -1}, giving a z-free series."""
    if z0 not in (1, -1):
        raise ValueError("collapse point must be +1 or -1")
    coeffs = []
    for c in f.coeffs:
        if z0 == 1:
            v = sum(c.terms.values())
        else:
            v = sum(x if e % 2 == 0 else -x for e, x in c.terms.items())
        coeffs.append(lp_monomial(v, 0))
    return QSeries(f.order, coeffs)


# ---------------------------------------------------------------------------
# z-free fast kernel: dense int lists indexed by q-exponent.
# ---------------------------------------------------------------------------


def zf_one(N: int) -> list[int]:
    out = [0] * (N + 1)
    out[0] = 1
    return out


def zf_zero(N: int) -> list[int]:
    return [0] * (N + 1)


def zf_mul_factor(f: list[int], c: int, e: int) -> None:
    """In place: f *= (1 + c*q^e), with e >= 1.

    Both slices are read before the assignment, so every entry is updated
    from the old entry e places below it.
    """
    if e < 1:
        raise ValueError("zf_mul_factor needs a positive q-exponent")
    f[e:] = _plus_scaled(f[e:], f[: max(len(f) - e, 0)], c)


def zf_div_factor(f: list[int], c: int, e: int) -> None:
    """In place: f /= (1 + c*q^e), with e >= 1.

    The recurrence g[k] = f[k] - c*g[k-e] runs either along each of the e
    residue classes mod e (one accumulate per class) or block by block,
    each block of e entries reading the finished block below it. The
    route with fewer Python-level steps is taken: e classes against
    ceil((n - e)/e) blocks.
    """
    if e < 1:
        raise ValueError("zf_div_factor needs a positive q-exponent")
    n = len(f)
    if e <= -(-(n - e) // e):
        for r in range(e):
            f[r::e] = _recurrence(f[r::e], c)
    else:
        for k in range(e, n, e):
            f[k : k + e] = _plus_scaled(f[k : k + e], f[k - e : k], -c)


def _plus_scaled(a: list[int], b: list[int], c: int):
    """The entries a[i] + c*b[i], as an iterator over the shorter list."""
    if c == 1:
        return map(add, a, b)
    if c == -1:
        return map(sub, a, b)
    return map(add, a, map(c.__mul__, b))


def _recurrence(v: list[int], c: int) -> list[int]:
    """g with g[j] = v[j] - c*g[j-1]: prefix sums for c = -1; for c = 1,
    prefix sums of the sign-alternated entries, alternated back."""
    if c == -1:
        return list(accumulate(v))
    if c == 1:
        v[1::2] = map(neg, v[1::2])
        g = list(accumulate(v))
        g[1::2] = map(neg, g[1::2])
        return g
    return list(accumulate(v, lambda prev, x: x - c * prev))


def zf_shift(f: list[int], e: int) -> list[int]:
    """f * q^e at the same truncation length, with e >= 0."""
    if e < 0:
        raise ValueError("zf_shift needs a nonnegative shift")
    if e == 0:
        return list(f)
    return [0] * min(e, len(f)) + f[: max(len(f) - e, 0)]


def zf_add_into(dst: list[int], src: list[int], shift: int = 0, c: int = 1) -> None:
    """In place: dst += c q^shift src, truncated to len(dst), with shift >= 0."""
    m = max(min(len(dst) - shift, len(src)), 0)
    dst[shift : shift + m] = _plus_scaled(dst[shift : shift + m], src[:m], c)


def zf_mul(f: list[int], g: list[int]) -> list[int]:
    """Truncated product of two int lists of equal length."""
    n = min(len(f), len(g))
    out = [0] * n
    for i, vf in enumerate(f[:n]):
        if vf:
            out[i:] = _plus_scaled(out[i:], g[: n - i], vf)
    return out


def zf_pochhammer_inf(e0: int, step: int, sign: int, f: list[int]) -> None:
    """In place: f *= prod_{j>=0} (1 - sign*q^{e0 + j*step}), with e0, step >= 1."""
    if e0 < 1:
        raise ValueError("zf_pochhammer_inf needs a positive first q-exponent")
    if step < 1:
        raise ValueError("zf_pochhammer_inf needs a positive step")
    f[:] = zf_product(f, Product((Factors(-sign, 0, e0, step),)))


def zf_product(f: list[int], spec: Product) -> list[int]:
    """f times the product spec, truncated to len(f): _apply_product on a
    copy of f, so the families that form a known sparse series (Euler's,
    Jacobi's cube, Gauss's) run as one sparse pass each (_sparse_plan). A
    family with a step below 1 raises NonTerminating."""
    _increasing(spec)
    return _apply_product(list(f), spec, len(f) - 1)


def zf_theta_terms(exponent: Callable[[int], int], n: int) -> dict[int, int]:
    """The terms below q^n of sum_{k != 0} (-1)^k q^{exponent(k)}, as {e: c}.

    The smaller of exponent(k) and exponent(-k) must be at least 1 and
    grow strictly with k, which bounds the loop: it stops at the first k
    where both lie at or above q^n. Equal exponents add up, so
    exponent(k) = k^2 gives the coefficients +-2 of phi(-q) - 1.
    """
    terms: dict[int, int] = {}
    k = low = 0
    while True:
        k += 1
        pair = (exponent(k), exponent(-k))
        if min(pair) <= low:
            raise ValueError("zf_theta_terms needs exponents that grow from 1 with |k|")
        if min(pair) >= n:
            return terms
        low = min(pair)
        for e in pair:
            if e < n:
                terms[e] = terms.get(e, 0) + (-1) ** k


def zf_div_sparse(f: list[int], terms: dict[int, int]) -> list[int]:
    """f / (1 + sum_e terms[e] q^e), with every exponent e >= 1.

    g[m] = f[m] - sum_e terms[e] g[m - e]. The terms are grouped by
    coefficient, each group a list of offsets -e, so that while g holds
    g[0..m-1] the group reads g[m - e] as g[-e], one sum(map(...)) per
    group. Between two consecutive exponents the set of terms with e <= m
    does not change, so the offset lists grow only there. For a theta
    series with O(sqrt N) terms below q^N this is O(N^1.5) reads.
    """
    if any(e < 1 for e in terms):
        raise ValueError("zf_div_sparse needs positive q-exponents")
    n = len(f)
    exps = sorted(e for e in terms if e < n and terms[e])
    groups: dict[int, list[int]] = {}
    g: list[int] = []
    read = g.__getitem__
    for start, stop in zip([0] + exps, exps + [n]):
        if start:
            groups.setdefault(-terms[start], []).append(-start)
        active = tuple(groups.items())
        for v in f[start:stop]:
            for c, offsets in active:
                v += c * sum(map(read, offsets))
            g.append(v)
    return g


def zf_mul_sparse(f: list[int], terms: dict[int, int]) -> list[int]:
    """f * sum_e terms[e] q^e truncated to len(f), with every exponent e >= 0.

    The product twin of zf_div_sparse, by Kronecker substitution q -> 2^b
    (Harvey, J. Symbolic Comput. 44 (2009)). Let g be the gcd of the
    exponents below q^len(f) with a nonzero coefficient. The sum is C(q^g),
    so each residue class h = f[r::g] is multiplied by C on its own, and a
    class of zeros stays zero: alpha and beta feed rows that live on one or
    two classes mod g. When no class is zero, f is one class (g = 1), which
    saves g - 1 packings. A class h of length n is packed once, as
    X = sum_i h_i 2^{bi} with balanced digits (_pack_list), then
    S = sum_e c_e X 2^{be} over the terms c_e q^e of C with e < n is one
    shift-add per term, and the low n slots of S are read back once.

    Slot width. Let B = max_i |h_i| * sum_e |c_e|, over the terms of C
    below q^len(f), and b = 8*_slot_bytes(B), so B < 2^(b-2); rounded up to
    1, 2, 4 or 8 bytes (_machine_bytes), b only grows, so B < 2^(b-2) still
    holds and a row packs and unpacks with one cast. As q -> 2^b
    is a ring homomorphism, S = sum_m p_m 2^{bm} exactly, with
    p_m = sum_{e<=m} c_e h_{m-e}; each p_m, below slot n or above it (the
    untruncated sum), takes at most one h_i per term, so |p_m| <= B.
    Split S = T + 2^{bn} U with T = sum_{m<n} p_m 2^{bm} and U an integer.
    Then |T| <= B (2^{bn} - 1)/(2^b - 1) < 2^(b-2) 2^(bn-b+1) = 2^(bn-1),
    so T is the balanced residue of S modulo 2^{bn},
    ((S + 2^(bn-1)) mod 2^{bn}) - 2^(bn-1), and its digits p_0 .. p_{n-1},
    the truncated product, lie in (-2^(b-1), 2^(b-1)) as _digits requires,
    which reads them off its n slots. The slots at and above n only add the
    multiple 2^{bn} U, which the residue drops.
    """
    if any(e < 0 for e in terms):
        raise ValueError("zf_mul_sparse needs nonnegative q-exponents")
    out = [0] * len(f)
    exps = [e for e in terms if e < len(f) and terms[e]]
    if not exps:
        return out
    g = gcd(*exps) or 1
    live = [r for r in range(g) if any(f[r::g])]
    if len(live) == g:
        g, live = 1, [0]
    scaled = [(e // g, terms[e]) for e in exps]
    norm = sum(abs(c) for _, c in scaled)
    for r in live:
        h = f[r::g]
        n = len(h)
        big = max(map(abs, h))
        width = _machine_bytes(_slot_bytes(big * norm))
        bits = 8 * width
        x = _pack_list(h, width)
        s = sum(c * (x << (bits * e)) for e, c in scaled if e < n)
        top = 1 << (bits * n - 1)
        out[r::g] = _digits(((s + top) & ((top << 1) - 1)) - top, n, width)
    return out


def zf_to_qseries(f: list[int]) -> QSeries:
    """The series of the dense list f, which it keeps (_DenseSeries)."""
    return _DenseSeries(f)
