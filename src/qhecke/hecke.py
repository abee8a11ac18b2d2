"""Indefinite-theta style double sums.

A HeckeTemplate describes a sum over lattice points (n, m) whose general
term is a signed monomial in z and q. Exponents that are half-integers in
the printed form are carried doubled (q2 = twice the q-exponent) so the
whole evaluation stays in exact integers; the halving happens once, at
the end, and is checked. Every template carries a termination witness
(c2, d2) asserting q2 >= c2 * n^2 - d2 on its support, which both bounds
the enumeration and guards against silently dropping lattice points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable

from .errors import (
    HalfIntegerExponent,
    InexactDivision,
    NonTerminating,
    UnknownIdentity,
)
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


Term = tuple[int, int, int]  # (coefficient, z-exponent, doubled q-exponent)


@dataclass(frozen=True)
class HeckeTemplate:
    """One double sum: ranges, expanded terms, and a termination witness.

    terms(n, m) returns the fully expanded summand (characters and
    weights already folded into the coefficients) as (coeff, z_exp, q2)
    triples. The witness states q2 >= c2 * max(0, n - shift)^2 - d2 for
    every emitted term, where shift is z_window + 2 for windowed
    templates and 0 otherwise. halve divides the final series by 2.
    """

    id: str
    m_range: Callable[[int, int | None], Iterable[int]]
    terms: Callable[[int, int], list[Term]]
    c2: Fraction
    d2: int = 0
    n_start: int = 0
    halve: bool = False
    windowed: bool = False


def eval_template(t: HeckeTemplate, N: int, z_window: int | None = None) -> QSeries:
    """Evaluate a template's double sum to q-order N.

    z_window must be supplied exactly when the template is windowed; the
    enumeration then covers every lattice point that can reach
    z-exponents inside [-(window+1), window+1]. Raises HalfIntegerExponent
    when a doubled exponent is odd, InexactDivision when the final halving
    does not come out even, and NonTerminating when the witness fails.
    """
    if t.windowed != (z_window is not None):
        raise ValueError("z_window is required exactly for windowed templates")
    cnum, cden = t.c2.numerator, t.c2.denominator
    if cnum <= 0:
        raise NonTerminating(f"{t.id}: termination constant must be positive")
    shift = (z_window + 2) if t.windowed else 0
    q2_cap = 2 * N
    n_max = shift + isqrt(max(0, (q2_cap + t.d2) * cden) // cnum) + 1
    acc: list[dict[int, int]] = [{} for _ in range(N + 1)]
    for n in range(t.n_start, n_max + 1):
        u = n - shift
        floor2 = cnum * u * u - t.d2 * cden if u > 0 else -t.d2 * cden
        for m in t.m_range(n, z_window):
            for coeff, z_exp, q2 in t.terms(n, m):
                if coeff == 0:
                    continue
                if q2 * cden < floor2 or q2 < 0:
                    raise NonTerminating(
                        f"{t.id}: termination witness fails at n={n}, m={m}"
                    )
                if q2 > q2_cap:
                    continue
                if q2 % 2:
                    raise HalfIntegerExponent(
                        f"{t.id}: odd doubled exponent {q2} at n={n}, m={m}"
                    )
                row = acc[q2 // 2]
                s = row.get(z_exp, 0) + coeff
                if s:
                    row[z_exp] = s
                else:
                    del row[z_exp]
    if t.halve:
        for k, row in enumerate(acc):
            for e, v in row.items():
                if v % 2:
                    raise InexactDivision(
                        f"{t.id}: halving left a remainder at q^{k}"
                    )
                row[e] = v // 2
    coeffs = [LaurentPoly._raw(row) if row else LP_ZERO for row in acc]
    return QSeries(N, coeffs)


def eval_fabc(
    a: int, b: int, c: int, x: Monomial, y: Monomial, N: int
) -> QSeries:
    """The sign-matched double series

        sum over r, s of the same sign (with sgn(0) = +1) of
        sgn(r) (-1)^{r+s} x^r y^s q^{a C(r,2) + b r s + c C(s,2)}

    with monomials substituted for x and y, truncated at order N.
    Requires a, c >= 1 and b >= 0 so both quadrants terminate; a lattice
    point with negative total q-exponent raises NonTerminating.
    """
    if a < 1 or c < 1 or b < 0:
        raise ValueError("need a, c >= 1 and b >= 0")
    acc: list[dict[int, int]] = [{} for _ in range(N + 1)]

    def put(r: int, s: int) -> None:
        q_exp = (
            a * r * (r - 1) // 2
            + b * r * s
            + c * s * (s - 1) // 2
            + r * x.q_exp
            + s * y.q_exp
        )
        if q_exp < 0:
            raise NonTerminating(
                f"negative exponent at r={r}, s={s} in indefinite sum"
            )
        if q_exp > N:
            return
        coeff = 1 if r >= 0 else -1
        if (r + s) % 2:
            coeff = -coeff
        if x.sign < 0 and r % 2:
            coeff = -coeff
        if y.sign < 0 and s % 2:
            coeff = -coeff
        z_exp = r * x.z_exp + s * y.z_exp
        row = acc[q_exp]
        v = row.get(z_exp, 0) + coeff
        if v:
            row[z_exp] = v
        else:
            del row[z_exp]

    # On matched signs b*r*s >= 0, so the exponent is bounded below by the
    # two separated quadratics a*C(r,2) + r*x.q and c*C(s,2) + s*y.q. In
    # the positive quadrant both are nonnegative; in the negative quadrant
    # each is at worst -lin^2/(2*coef), which fixes rigorous loop caps.
    def neg_slack(coef: int, lin: int) -> int:
        return lin * lin // (2 * coef) + 1

    def neg_cap(coef: int, lin: int, budget: int) -> int:
        return (lin + isqrt(lin * lin + 2 * coef * max(0, budget))) // coef + 2

    pos_r = isqrt(2 * N // a) + 2
    pos_s = isqrt(2 * N // c) + 2
    for i in range(pos_r + 1):
        for j in range(pos_s + 1):
            put(i, j)
    neg_r = neg_cap(a, x.q_exp, N + neg_slack(c, y.q_exp))
    neg_s = neg_cap(c, y.q_exp, N + neg_slack(a, x.q_exp))
    for i in range(1, neg_r + 1):
        for j in range(1, neg_s + 1):
            put(-i, -j)
    coeffs = [LaurentPoly._raw(row) if row else LP_ZERO for row in acc]
    return QSeries(N, coeffs)


# ---------------------------------------------------------------------------
# Template catalog.
# ---------------------------------------------------------------------------


def _sgn(k: int) -> int:
    """Sign with sgn(0) = +1."""
    return -1 if k < 0 else 1


def _pm(k: int) -> int:
    """(-1)^k."""
    return -1 if k % 2 else 1


def _half_range(n: int, w: int | None) -> range:
    return range(-(n // 2), n // 2 + 1)


def _third_range(n: int, w: int | None) -> range:
    return range(-(n // 3), n // 3 + 1)


def _zero_half(n: int, w: int | None) -> range:
    return range(n // 2 + 1)


def _zero_third(n: int, w: int | None) -> range:
    return range(n // 3 + 1)


def _zero_n(n: int, w: int | None) -> range:
    return range(n + 1)


def _full_range(n: int, w: int | None) -> range:
    return range(-n, n + 1)


def _window_range(n: int, w: int | None) -> range:
    assert w is not None
    return range(max(-n, -w - 1), min(n, w + 1) + 1)


def _t_newrankid(n: int, j: int) -> list[Term]:
    s = _pm(n + j)
    q2 = n * n - 3 * j * j + n - j
    out = [(s, n - 3 * j, q2), (s, 3 * j - n, q2)]
    if j >= 1:
        q2b = n * n - 3 * j * j + n + j
        out.append((s, n - 3 * j + 1, q2b))
        out.append((s, 3 * j - n - 1, q2b))
    return out


def _t_conj1a(n: int, m: int) -> list[Term]:
    s = _pm(n + m)
    am = abs(m)
    q2 = n * n - 2 * m * m + n
    return [(s, n - 2 * am + 1, q2), (s, 2 * am - n, q2)]


def _t_conj1b(n: int, m: int) -> list[Term]:
    s = _pm(n)
    am = abs(m)
    q2 = n * n - 8 * m * m + n
    return [(s, n + 1 - 4 * am, q2), (s, 4 * am - n, q2)]


def _t_conj2(n: int, m: int) -> list[Term]:
    s = _pm(n)
    out: list[Term] = [(s, m - n, 2 * n * n - m * m + 2 * n - m)]
    if m >= 1:
        out.append((s, n - m + 1, 2 * n * n - m * m + 2 * n + m))
    return out


def _t_hr1(n: int, m: int) -> list[Term]:
    return [(_pm(n + m), 0, n * n - 3 * m * m + n + m)]


def _t_hr2(n: int, m: int) -> list[Term]:
    return [(_pm(n + m), 0, n * n - 2 * m * m + n)]


def _t_hr3(n: int, m: int) -> list[Term]:
    return [(_pm(n), 0, n * n - 8 * m * m + n)]


def _t_hr4(n: int, m: int) -> list[Term]:
    return [(_pm(n), 0, 2 * n * n - m * m + 2 * n + m)]


def _t_hrf(n: int, m: int) -> list[Term]:
    return [(_sgn(m), 0, n * n - 3 * m * m + n - m)]


def _t_hrmu(n: int, m: int) -> list[Term]:
    return [(_sgn(m) * _pm(m), 0, 2 * n * n - m * m + 2 * n - m)]


def _t_hrnewv2(n: int, m: int) -> list[Term]:
    w = 2 * n - 4 * m + 1
    if m == 0:
        w -= n + 1
    return [(_pm(m) * w, 0, n * n - 2 * m * m + n)]


def _t_cor1(m: int, k: int) -> list[Term]:
    out: list[Term] = []
    if k <= (m - 1) // 3:
        out.append((2 * _pm(m + k), 0, m * m - 3 * k * k + m - k))
    if 1 <= k <= m // 3:
        out.append((2 * _pm(m + k), 0, m * m - 3 * k * k + m + k))
    if k == 0:
        out.append((1, 0, 6 * m * m + 2 * m))
        if m >= 1:
            out.append((-1, 0, 6 * m * m - 2 * m))
    return out


def _t_sphr1_lhs(m: int, k: int) -> list[Term]:
    if 3 * k >= m:
        return []
    return [(_pm(m + k), m - 3 * k, m * m - 3 * k * k + m - k)]


def _t_sphr1_rhs(m: int, k: int) -> list[Term]:
    if 3 * k <= m:
        return []
    return [(_pm(m + k), 3 * k - m, m * m - 3 * k * k + m - k)]


def _t_sphr2_lhs(m: int, k: int) -> list[Term]:
    if k < 1 or 3 * k >= m + 1:
        return []
    return [(_pm(m + k), m - 3 * k + 1, m * m - 3 * k * k + m + k)]


def _t_sphr2_rhs(m: int, k: int) -> list[Term]:
    if 3 * k <= m + 1:
        return []
    return [(_pm(m + k), 3 * k - m - 1, m * m - 3 * k * k + m + k)]


def _newsid_core(n: int, m: int) -> tuple[int, int, int] | None:
    """Shared character-and-exponent core: (character, (n-m)/2, q2)."""
    ch = kronecker(-4, n) * kronecker(12, m)
    if ch == 0:
        return None
    q24 = 3 * n * n - m * m - 2
    if q24 % 24:
        raise HalfIntegerExponent(
            f"exponent {q24}/24 is not integral at n={n}, m={m}"
        )
    return ch, (n - m) // 2, q24 // 12


def _t_newsid(n: int, m: int) -> list[Term]:
    core = _newsid_core(n, m)
    if core is None:
        return []
    ch, k, q2 = core
    return [(ch, k, q2), (-2 * ch, 0, q2), (ch, -k, q2)]


def _t_newsptid(n: int, m: int) -> list[Term]:
    core = _newsid_core(n, m)
    if core is None:
        return []
    ch, k, q2 = core
    return [(-ch * k * k, 0, q2)]


def _t_eqnewsid(n: int, j: int) -> list[Term]:
    s = _pm(n + j)
    q2 = n * n - 3 * j * j + n - j
    out = [(s, n - 3 * j, q2), (-2 * s, 0, q2), (s, 3 * j - n, q2)]
    if j >= 1:
        q2b = n * n - 3 * j * j + n + j
        out.append((s, n - 3 * j + 1, q2b))
        out.append((-2 * s, 0, q2b))
        out.append((s, 3 * j - n - 1, q2b))
    return out


def _t_newsbid(n: int, m: int) -> list[Term]:
    s = _pm(m + n)
    av = n - 2 * abs(m)
    q2 = n * n - 2 * m * m + n
    return [(s, -av, q2), (-s, 0, q2), (-s, 1, q2), (s, av + 1, q2)]


def _t_sbcorid(n: int, m: int) -> list[Term]:
    av = n - 2 * abs(m)
    w = -_pm(m + n) * (av * (av + 1) // 2)
    return [(w, 0, n * n - 2 * m * m + n)]


def _t_news2id(n: int, m: int) -> list[Term]:
    s = _pm(n)
    bv = n - m
    q2 = 2 * n * n - m * m + 2 * n - m
    return [(s, bv, q2), (-2 * s, 0, q2), (s, -bv, q2)]


def _t_newm2sptid(n: int, m: int) -> list[Term]:
    bv = n - m
    return [(-_pm(n) * bv * bv, 0, 2 * n * n - m * m + 2 * n - m)]


def _t_andid(n: int, m: int) -> list[Term]:
    return [(_pm(m + n), m, (n + m) * (n - m + 1))]


def _t_mortid1(n: int, m: int) -> list[Term]:
    q2 = 2 * (n * n - 3 * m * m + 2 * n - m)
    gap = 2 * (4 * n - 4 * m + 6)
    return [
        (1, n - 3 * m, q2),
        (1, 3 * m - n - 1, q2),
        (-1, n - 3 * m, q2 + gap),
        (-1, 3 * m - n - 1, q2 + gap),
    ]


def _mortid1b_terms(weight: Callable[[int, int], int]) -> Callable[[int, int], list[Term]]:
    def terms(n: int, m: int) -> list[Term]:
        q2 = 2 * (n * n - 3 * m * m + 2 * n - m)
        gap = 2 * (4 * n - 4 * m + 6)
        w = _pm(m + n) * weight(n, m)
        return [(w, 0, q2), (-w, 0, q2 + gap)]

    return terms


def _t_mortid2(n: int, m: int) -> list[Term]:
    s = _pm(m)
    q2 = n * n - 2 * m * m + 3 * n - 2 * m
    return [(s, m, q2), (s, -m - 1, q2)]


def _t_mortid2b(n: int, m: int) -> list[Term]:
    return [(2 * m + 1, 0, n * n - 2 * m * m + 3 * n - 2 * m)]


def _t_mortid3(n: int, m: int) -> list[Term]:
    s = _pm(m)
    q2 = n * n - 2 * m * m + 3 * n - 2 * m
    return [(s, n - 2 * m, q2), (s, 2 * m - n - 1, q2)]


def _t_mortid3b(n: int, m: int) -> list[Term]:
    w = _pm(m + n) * (2 * n - 4 * m + 1)
    return [(w, 0, n * n - 2 * m * m + 3 * n - 2 * m)]


_CATALOG: dict[str, HeckeTemplate] = {}

for _t in (
    HeckeTemplate("NEWrankid", _zero_half, _t_newrankid, Fraction(1, 4), halve=True),
    HeckeTemplate("CONJ1a", _half_range, _t_conj1a, Fraction(1, 2)),
    HeckeTemplate("CONJ1b", _third_range, _t_conj1b, Fraction(1, 9)),
    HeckeTemplate("CONJ2", _zero_n, _t_conj2, Fraction(1)),
    HeckeTemplate("HR1", _half_range, _t_hr1, Fraction(1, 4)),
    HeckeTemplate("HR2", _half_range, _t_hr2, Fraction(1, 2)),
    HeckeTemplate("HR3", _third_range, _t_hr3, Fraction(1, 9)),
    HeckeTemplate("HR4", _full_range, _t_hr4, Fraction(1)),
    HeckeTemplate("HRf", _half_range, _t_hrf, Fraction(1, 4)),
    HeckeTemplate("HRmu", _full_range, _t_hrmu, Fraction(1)),
    HeckeTemplate("HRnewv2", _zero_half, _t_hrnewv2, Fraction(1, 2), n_start=1),
    HeckeTemplate("cor1", _zero_third, _t_cor1, Fraction(2, 3)),
    HeckeTemplate("SPHR1.lhs", _zero_half, _t_sphr1_lhs, Fraction(1, 4)),
    HeckeTemplate("SPHR1.rhs", _zero_half, _t_sphr1_rhs, Fraction(1, 4)),
    HeckeTemplate("SPHR2.lhs", _zero_half, _t_sphr2_lhs, Fraction(1, 4)),
    HeckeTemplate("SPHR2.rhs", _zero_half, _t_sphr2_rhs, Fraction(1, 4)),
    HeckeTemplate("NEWSid", _zero_n, _t_newsid, Fraction(1, 6), d2=1),
    HeckeTemplate("NEWSPTid", _zero_n, _t_newsptid, Fraction(1, 6), d2=1),
    HeckeTemplate("EQNEWSid", _zero_third, _t_eqnewsid, Fraction(2, 3)),
    HeckeTemplate("NEWSBid", _half_range, _t_newsbid, Fraction(1, 2)),
    HeckeTemplate("SBcorid", _half_range, _t_sbcorid, Fraction(1, 2)),
    HeckeTemplate("NEWS2id", _zero_n, _t_news2id, Fraction(1)),
    HeckeTemplate("NEWM2SPTid", _zero_n, _t_newm2sptid, Fraction(1), n_start=1),
    HeckeTemplate("ANDID", _window_range, _t_andid, Fraction(1), windowed=True),
    HeckeTemplate("MORTID1", _zero_third, _t_mortid1, Fraction(4, 3)),
    HeckeTemplate(
        "MORTID1B-printed", _zero_third,
        _mortid1b_terms(lambda n, m: 1 - 4 * n), Fraction(4, 3),
    ),
    HeckeTemplate(
        "MORTID1B-corrected", _zero_third,
        _mortid1b_terms(lambda n, m: 2 * n - 6 * m + 1), Fraction(4, 3),
    ),
    HeckeTemplate("MORTID2", _zero_half, _t_mortid2, Fraction(1, 2)),
    HeckeTemplate("MORTID2B", _zero_half, _t_mortid2b, Fraction(1, 2)),
    HeckeTemplate("MORTID3", _zero_half, _t_mortid3, Fraction(1, 2)),
    HeckeTemplate("MORTID3B", _zero_half, _t_mortid3b, Fraction(1, 2)),
):
    _CATALOG[_t.id] = _t

TEMPLATE_IDS: tuple[str, ...] = tuple(sorted(_CATALOG))


def template_catalog(id: str) -> HeckeTemplate:
    """Look up a double-sum template by id; raises UnknownIdentity."""
    try:
        return _CATALOG[id]
    except KeyError:
        raise UnknownIdentity(f"unknown template id: {id!r}") from None
