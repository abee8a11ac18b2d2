"""Three-field packed-row loops: the differential oracle for the row loops
of qhecke.qseries.

A row here is (lo, hi, x) with x = sum_{lo <= e <= hi} c_e 2^(b (e - lo)),
as evaluate held its packed rows before a row became (lo, x): hi bounds
the row from above and moves outward with every add, and down by one
after each division by 1 - z. The loops build every row sum from a list
of parts and two passes for its lowest and highest exponent, so they
share no alignment code with qseries._add_rows and qseries._sparse_rows.
"""

from __future__ import annotations

from bisect import bisect_right

from qhecke.errors import InexactDivision


def add_rows3(dst: list, src: list, c: int, z_exp: int, q_exp: int, ks, bits: int) -> None:
    """In place: dst[k] += c z^{z_exp} src[k - q_exp] for k in ks, in that
    order, over three-field rows; a row that cancels to zero becomes None."""
    for k in ks:
        row = src[k - q_exp]
        if row is None:
            continue
        slo, shi, sx = row
        slo += z_exp
        shi += z_exp
        if c != 1:
            sx *= c
        row = dst[k]
        if row is None:
            dst[k] = slo, shi, sx
            continue
        lo, hi, x = row
        if slo < lo:
            x = (x << (bits * (lo - slo))) + sx
            lo = slo
        else:
            x += sx << (bits * (slo - lo))
        dst[k] = (lo, hi if hi > shi else shi, x) if x else None


def sparse_rows3(rows: list, bits: int, terms: list[tuple[int, int, int]], over: bool, divide: bool) -> None:
    """In place on three-field rows: times, or divided by, S / D for the
    monomials (e, c, a) of S, with D = 1 - z when over and D = 1 otherwise
    (the terms at q^0 sum to D); a row that 1 - z does not divide raises
    InexactDivision."""
    terms = sorted((e, -c if divide and e else c, a) for e, c, a in terms)
    exps = [e for e, _, _ in terms]
    down = 1 - (1 << bits)
    for k in range(1, len(rows)) if divide else range(len(rows) - 1, 0, -1):
        parts = [
            (c, r[0] + a, r[1] + a, r[2])
            for e, c, a in terms[: bisect_right(exps, k)]
            if (r := rows[k - e]) is not None
        ]
        if not parts:
            continue
        lo = min(p[1] for p in parts)
        hi = max(p[2] for p in parts)
        x = 0
        for c, plo, _, s in parts:
            x += c * (s << (bits * (plo - lo)))
        if over:
            x, rem = divmod(x, down)
            if rem:
                raise InexactDivision("a packed row is not a multiple of 1 - z")
            hi -= 1
        rows[k] = (lo, hi, x) if x else None
