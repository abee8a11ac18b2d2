"""Hecke-type double sums as data, run by one evaluator.

A HeckeTemplate is a tuple of pieces. A Piece is the sum over the lattice
points (n, m) of a cone, n >= n0 between the lines m >= (p n + r)/d of lo and
m <= (p n + r)/d of hi, of

    (-1)^{s(n, m)} chi(n, m) w(n, m) sum_i c_i z^{e_i(n, m)} q^{Q(n, m)},

with Q and w quadratic and e_i and s linear forms, all with integer
coefficients over a denominator, and chi = 1 or kronecker(a, n)
kronecker(b, m). A windowed template adds the lines |m| <= N + 1 at q-order N.

A piece checks when it is built that every numerator is divisible by its
denominator on each residue class, modulo the lcm of the denominators and
the periods of chi, where chi is nonzero (else HalfIntegerExponent). The
evaluator derives its own bound on n. Past the last crossing of the lines
(with the vertex line m = -(B n + E)/(2C) if Q is convex in m) the active
lower and upper lines stay fixed, and the least Q(n, .) on the cone lies on
one of them or on the vertex line. Q on each is a quadratic in n; once all
exceed the cap, so does every later term. If one never does, the cone has
infinitely many terms below some order: NonTerminating, before any term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm

from .errors import HalfIntegerExponent, InexactDivision, NonTerminating, UnknownIdentity
from .polyring import LP_ZERO, LaurentPoly
from .qseries import Monomial, QSeries


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), completely multiplicative in n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if a < 0:
            out = -out
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        two = 1 if a % 8 in (1, 7) else -1
        while n % 2 == 0:
            n //= 2
            out *= two
    if n == 1:
        return out
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


Quad = tuple[int, int, int, int, int, int, int]  # (n^2, nm, m^2, n, m, 1, denominator)
Line = tuple[int, int, int]  # (p, r, d): the line m = (p n + r) / d


@dataclass(frozen=True)
class Piece:
    """One signed cone of a double sum; see the module docstring."""

    q: Quad
    z: tuple[tuple[int, int, int, int, int], ...] = ((1, 0, 0, 0, 1),)
    sign: tuple[int, int, int] = (0, 0, 0)
    lo: tuple[Line, ...] = ((0, 0, 1),)
    hi: tuple[Line, ...] = ()
    n0: int = 0
    weight: Quad = (0, 0, 0, 0, 0, 1, 1)
    chi: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        a, b = self.chi or (1, 1)
        forms = [self.q, self.weight] + [(0, 0, 0, *t[1:]) for t in self.z]
        period = lcm(*(f[6] for f in forms), abs(a), abs(b))
        for n, m in product(range(period), repeat=2):
            if kronecker(a, n) * kronecker(b, m) and any(_quad(f, n, m) % f[6] for f in forms):
                raise HalfIntegerExponent(f"a form is not integral at n={n}, m={m} mod {period}")


@dataclass(frozen=True)
class HeckeTemplate:
    """A double sum over its pieces, halved exactly if halve; see eval_template."""

    id: str
    pieces: tuple[Piece, ...]
    halve: bool = False
    windowed: bool = False


def _quad(f: Quad, n: int, m: int) -> int:
    a, b, c, d, e, g, _ = f
    return (a * n + b * m + d) * n + (c * m + e) * m + g


def _rows(id: str, p: Piece, cap: int, window: int | None = None) -> list[tuple[int, range]]:
    """Every n with a point of q-exponent at most cap, with the m to visit."""
    A, B, C, D, E, F, den = p.q
    lo, hi = p.lo, p.hi
    if window is not None:
        lo, hi = lo + ((0, -window - 1, 1),), hi + ((0, window + 1, 1),)
    vertex = (-B, -E, 2 * C)
    n_end = p.n0 - 1
    for (pa, ra, da), (pb, rb, db) in combinations(lo + hi + ((vertex,) if C > 0 else ()), 2):
        if pa * db != pb * da:
            n_end = max(n_end, (da * rb - db * ra) // (pa * db - pb * da))

    def at(line: Line) -> Fraction:
        return Fraction(line[0] * (n_end + 1) + line[1], line[2])

    low, up = max(lo, key=at), min(hi, key=at, default=None)
    if C <= 0 and up is None:
        raise NonTerminating(f"{id}: the cone is open in m and the form is not convex in m")
    ends = [low] if up is None else [low, up] if at(low) <= at(up) else []
    if C > 0 and ends and at(low) <= at(vertex) and (up is None or at(vertex) <= at(up)):
        ends.append(vertex)
    for x, r, d in ends:
        # Q on m = (x n + r)/d, times d^2, is a n^2 + b n + c; past its last root it is > cap
        a = A * d * d + B * d * x + C * x * x
        b = B * d * r + 2 * C * x * r + D * d * d + E * d * x
        c = C * r * r + E * d * r + F * d * d - cap * den * d * d
        if a > 0:
            n_end = max(n_end, (isqrt(max(b * b - 4 * a * c, 0)) - b) // (2 * a) + 1)
        elif a == 0 and b > 0:
            n_end = max(n_end, -c // b)
        else:
            raise NonTerminating(f"{id}: the q-exponent does not grow along m = ({x}n+{r})/{d}")
    rows = []
    for n in range(p.n0, n_end + 1):
        m_lo = [-((-(a * n + r)) // d) for a, r, d in lo]
        m_hi = [(a * n + r) // d for a, r, d in hi]
        if C > 0:
            # the m where C m^2 + b m + c <= cap * den lie between the roots
            b = B * n + E
            disc = b * b - 4 * C * (_quad(p.q, n, 0) - cap * den)
            if disc < 0:
                continue
            s = isqrt(disc) + 1
            m_lo.append((-b - s) // (2 * C))
            m_hi.append((s - b) // (2 * C) + 1)
        rows.append((n, range(max(m_lo), min(m_hi) + 1)))
    return rows


def _sum(
    id: str, pieces: tuple[Piece, ...], N: int, window: int | None = None, halve: bool = False
) -> QSeries:
    """The sum of the pieces to order N, divided by 2 if halve."""
    plans = [(p, _rows(id, p, N, window)) for p in pieces]
    acc: list[dict[int, int]] = [{} for _ in range(N + 1)]
    for p, rows in plans:
        A, B, C, D, E, F, q_den = p.q
        wa, wb, wc, wd, we, wf, w_den = p.weight
        sn, sm, s1 = p.sign
        chi, (chi_a, chi_b) = p.chi, p.chi or (1, 1)
        cap = N * q_den
        for n, ms in rows:
            qb, q0 = B * n + E, (A * n + D) * n + F
            wb_n, w0 = wb * n + we, (wa * n + wd) * n + wf
            s_n, chi_n = sn * n + s1, kronecker(chi_a, n)
            zs = [(c, zn * n + zc, zm, zd) for c, zn, zm, zc, zd in p.z]
            for m in ms:
                q = (C * m + qb) * m + q0
                if q > cap:
                    continue
                coeff = ((wc * m + wb_n) * m + w0) // w_den
                if (s_n + sm * m) & 1:
                    coeff = -coeff
                if chi:
                    coeff *= chi_n * kronecker(chi_b, m)
                if not coeff:
                    continue
                if q < 0:
                    raise NonTerminating(f"{id}: negative q-exponent at n={n}, m={m}")
                row = acc[q // q_den]
                for c, zb, zm, zd in zs:
                    e = (zb + zm * m) // zd
                    v = row.get(e, 0) + c * coeff
                    if v:
                        row[e] = v
                    else:
                        del row[e]
    for k, row in enumerate(acc if halve else ()):
        for e, v in row.items():
            if v % 2:
                raise InexactDivision(f"{id}: halving left a remainder at q^{k}")
            row[e] = v // 2
    return QSeries(N, [LaurentPoly._raw(row) if row else LP_ZERO for row in acc])


def eval_template(t: HeckeTemplate, N: int) -> QSeries:
    """Evaluate a template's double sum to q-order N.

    A windowed template's sum covers |m| <= N + 1. Raises InexactDivision
    if halving is inexact.
    """
    return _sum(t.id, t.pieces, N, N if t.windowed else None, t.halve)


def eval_fabc(a: int, b: int, c: int, x: Monomial, y: Monomial, N: int) -> QSeries:
    """The sum over r, s of the same sign (sgn(0) = +1) of
    sgn(r) (-1)^{r+s} x^r y^s q^{a C(r,2) + b r s + c C(s,2)}, for monomials
    x and y, to order N: two pieces, r, s >= 0 and r = -1-n, s = -1-m.
    Requires a, c >= 1 and b >= 0.
    """
    if a < 1 or c < 1 or b < 0:
        raise ValueError("need a, c >= 1 and b >= 0")
    sx, sy = int(x.sign < 0), int(y.sign < 0)
    (zx, qx), (zy, qy) = (x.z_exp, x.q_exp), (y.z_exp, y.q_exp)
    quad = (a, 2 * b, c, 2 * qx - a, 2 * qy - c, 0, 2)
    pos = Piece(quad, ((1, zx, zy, 0, 1),), (1 + sx, 1 + sy, 0))
    neg = Piece(
        quad[:3] + (3 * a + 2 * b - 2 * qx, 3 * c + 2 * b - 2 * qy, 2 * (a + b + c - qx - qy), 2),
        ((1, -zx, -zy, -zx - zy, 1),),
        (1 + sx, 1 + sy, 1 + sx + sy),
    )
    return _sum("f_abc", (pos, neg), N)


# The template catalog, written as formulas in n and m.


def _form(text: str) -> tuple[int, ...]:
    """'(2n^2-m^2+2n-m)/2' as its coefficients (n^2, nm, m^2, n, m, 1, denominator)."""
    num, _, den = text.partition("/")
    coeffs = dict.fromkeys(("n^2", "nm", "m^2", "n", "m", ""), 0)
    for term in num.strip("()").replace("-", "+-").split("+"):
        if term:
            sign, digits, var = re.fullmatch(r"(-?)(\d*)(n\^2|nm|m\^2|n|m|)", term).groups()
            coeffs[var] += int(sign + (digits or "1"))
    return (*coeffs.values(), int(den or 1))


def _piece(q, z=None, sign="0", lo="0", hi=None, n0=0, weight="1", chi=None) -> Piece:
    """A Piece from formulas: z maps each z-exponent to its coefficient, sign
    is the exponent of -1, and lo and hi are the lines m >= lo, m <= hi."""
    def line(text: str | None) -> tuple[Line, ...]:
        f = _form(text or "0")
        return ((f[3], f[5], f[6]),) if text else ()

    z_terms = tuple((c, *_form(e)[3:]) for e, c in (z or {"0": 1}).items())
    return Piece(_form(q), z_terms, _form(sign)[3:6], line(lo), line(hi), n0, _form(weight), chi)


def _t(id: str, *pieces: Piece, halve: bool = False, windowed: bool = False) -> HeckeTemplate:
    return HeckeTemplate(id, pieces, halve, windowed)


_MORT1 = ("n^2-3m^2+2n-m", "n^2-3m^2+6n-5m+6")  # MORTID1: q^{Q1} - q^{Q2} over 0 <= m <= n/3

# A summand in |m| is even in m, so m <= -1 is written as its mirror m >= 1;
# sgn(m) (sgn(0) = 1) splits a sum into m >= 0 and m <= -1 with the sign flipped.
_TEMPLATES = (
    _t("NEWrankid",
       _piece("(n^2-3m^2+n-m)/2", {"n-3m": 1, "3m-n": 1}, "n+m", hi="n/2"),
       _piece("(n^2-3m^2+n+m)/2", {"n-3m+1": 1, "3m-n-1": 1}, "n+m", "1", "n/2"), halve=True),
    _t("CONJ1a", *(
        _piece("(n^2-2m^2+n)/2", {"n-2m+1": 1, "2m-n": 1}, "n+m", lo, "n/2") for lo in "01")),
    _t("CONJ1b", *(
        _piece("(n^2-8m^2+n)/2", {"n-4m+1": 1, "4m-n": 1}, "n", lo, "n/3") for lo in "01")),
    _t("CONJ2",
       _piece("(2n^2-m^2+2n-m)/2", {"m-n": 1}, "n", hi="n"),
       _piece("(2n^2-m^2+2n+m)/2", {"n-m+1": 1}, "n", "1", "n")),
    _t("HR1", _piece("(n^2-3m^2+n+m)/2", sign="n+m", lo="-n/2", hi="n/2")),
    _t("HR2", _piece("(n^2-2m^2+n)/2", sign="n+m", lo="-n/2", hi="n/2")),
    _t("HR3", _piece("(n^2-8m^2+n)/2", sign="n", lo="-n/3", hi="n/3")),
    _t("HR4", _piece("(2n^2-m^2+2n+m)/2", sign="n", lo="-n", hi="n")),
    _t("HRf",
       _piece("(n^2-3m^2+n-m)/2", hi="n/2"),
       _piece("(n^2-3m^2+n-m)/2", sign="1", lo="-n/2", hi="-1")),
    _t("HRmu",
       _piece("(2n^2-m^2+2n-m)/2", sign="m", hi="n"),
       _piece("(2n^2-m^2+2n-m)/2", sign="m+1", lo="-n", hi="-1")),
    _t("HRnewv2",
       _piece("(n^2+n)/2", hi="0", n0=1, weight="n"),
       _piece("(n^2-2m^2+n)/2", sign="m", lo="1", hi="n/2", n0=1, weight="2n-4m+1")),
    _t("cor1",
       _piece("(n^2-3m^2+n-m)/2", {"0": 2}, "n+m", hi="(n-1)/3"),
       _piece("(n^2-3m^2+n+m)/2", {"0": 2}, "n+m", "1", "n/3"),
       _piece("3n^2+n", hi="0"),
       _piece("3n^2-n", {"0": -1}, hi="0", n0=1)),
    _t("SPHR1.lhs", _piece("(n^2-3m^2+n-m)/2", {"n-3m": 1}, "n+m", hi="(n-1)/3")),
    _t("SPHR1.rhs", _piece("(n^2-3m^2+n-m)/2", {"3m-n": 1}, "n+m", "(n+1)/3", "n/2")),
    _t("SPHR2.lhs", _piece("(n^2-3m^2+n+m)/2", {"n-3m+1": 1}, "n+m", "1", "n/3")),
    _t("SPHR2.rhs", _piece("(n^2-3m^2+n+m)/2", {"3m-n-1": 1}, "n+m", "(n+2)/3", "n/2")),
    _t("NEWSid", _piece(
        "(3n^2-m^2-2)/24", {"(n-m)/2": 1, "0": -2, "(m-n)/2": 1}, hi="n", chi=(-4, 12))),
    _t("NEWSPTid", _piece("(3n^2-m^2-2)/24", hi="n", weight="(-n^2+2nm-m^2)/4", chi=(-4, 12))),
    _t("EQNEWSid",
       _piece("(n^2-3m^2+n-m)/2", {"n-3m": 1, "0": -2, "3m-n": 1}, "n+m", hi="n/3"),
       _piece("(n^2-3m^2+n+m)/2", {"n-3m+1": 1, "0": -2, "3m-n-1": 1}, "n+m", "1", "n/3")),
    _t("NEWSBid", *(_piece(
        "(n^2-2m^2+n)/2", {"2m-n": 1, "0": -1, "1": -1, "n-2m+1": 1}, "n+m", lo, "n/2"
    ) for lo in "01")),
    _t("SBcorid", *(_piece(
        "(n^2-2m^2+n)/2", sign="n+m", lo=lo, hi="n/2", weight="(-n^2+4nm-4m^2-n+2m)/2"
    ) for lo in "01")),
    _t("NEWS2id", _piece("(2n^2-m^2+2n-m)/2", {"n-m": 1, "0": -2, "m-n": 1}, "n", hi="n")),
    _t("NEWM2SPTid", _piece("(2n^2-m^2+2n-m)/2", sign="n", hi="n", n0=1, weight="-n^2+2nm-m^2")),
    # ANDID's double sum times (1 - 1/z): each point adds z^m - z^{m-1}
    _t("ANDID", _piece("(n^2-m^2+n+m)/2", {"m": 1, "m-1": -1}, "n+m", "-n", "n"), windowed=True),
    _t("MORTID1", *(
        _piece(q, {"n-3m": c, "3m-n-1": c}, hi="n/3") for c, q in zip((1, -1), _MORT1))),
    _t("MORTID1B-printed", *(
        _piece(q, sign=f"n+m+{k}", hi="n/3", weight="1-4n") for k, q in enumerate(_MORT1))),
    _t("MORTID1B-corrected", *(
        _piece(q, sign=f"n+m+{k}", hi="n/3", weight="2n-6m+1") for k, q in enumerate(_MORT1))),
    _t("MORTID2", _piece("(n^2-2m^2+3n-2m)/2", {"m": 1, "-m-1": 1}, "m", hi="n/2")),
    _t("MORTID2B", _piece("(n^2-2m^2+3n-2m)/2", hi="n/2", weight="2m+1")),
    _t("MORTID3", _piece("(n^2-2m^2+3n-2m)/2", {"n-2m": 1, "2m-n-1": 1}, "m", hi="n/2")),
    _t("MORTID3B", _piece("(n^2-2m^2+3n-2m)/2", sign="n+m", hi="n/2", weight="2n-4m+1")),
)

_CATALOG: dict[str, HeckeTemplate] = {t.id: t for t in _TEMPLATES}


def template_catalog(id: str) -> HeckeTemplate:
    """Look up a double-sum template by id; raises UnknownIdentity."""
    try:
        return _CATALOG[id]
    except KeyError:
        raise UnknownIdentity(f"unknown template id: {id!r}") from None
