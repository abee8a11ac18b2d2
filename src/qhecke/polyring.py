"""Sparse Laurent polynomials over arbitrary-precision integers.

This is the coefficient ring for every truncated q-series in the package.
The single formal variable is written z throughout, but by role reuse it
also stands for the x of the universal-function builders and the Bailey
parameter a. A polynomial is stored as a mapping from integer exponent to
nonzero integer coefficient; the zero polynomial is the empty mapping.

Values are immutable by convention: no operation mutates its inputs, and
callers must not mutate ``terms`` after construction.

Only what the series kernels and the report use is here: the ring
operations, the span cap of lp_mul and the text form. Evaluation at an
integer point and the substitution z -> 1/z are test oracles
(tests/test_polyring.py).
"""

from __future__ import annotations

from typing import Mapping

from .errors import SupportOverflow


class LaurentPoly:
    """A sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None) -> None:
        clean: dict[int, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    clean[int(exp)] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, clean: dict[int, int]) -> "LaurentPoly":
        """Wrap a dict already known to contain no zero coefficients."""
        obj = object.__new__(cls)
        obj.terms = clean
        return obj

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exp: int) -> int:
        return self.terms.get(exp, 0)

    def support(self) -> list[int]:
        return sorted(self.terms)

    def span(self) -> int:
        """Exponent span max - min, or 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(self.terms) - min(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({lp_format(self)})"


LP_ZERO = LaurentPoly._raw({})
LP_ONE = LaurentPoly._raw({0: 1})


def lp_monomial(c: int, exp: int) -> LaurentPoly:
    return LaurentPoly._raw({exp: c}) if c else LP_ZERO


def lp_add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact coefficient-wise sum."""
    if not p.terms:
        return q
    if not q.terms:
        return p
    out = dict(p.terms)
    for exp, coeff in q.terms.items():
        s = out.get(exp, 0) + coeff
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return LaurentPoly._raw(out)


def lp_neg(p: LaurentPoly) -> LaurentPoly:
    return LaurentPoly._raw({e: -c for e, c in p.terms.items()})


def lp_scale(p: LaurentPoly, c: int, shift: int = 0) -> LaurentPoly:
    """c * z**shift * p, the workhorse for monomial multiplication."""
    if c == 0 or not p.terms:
        return LP_ZERO
    if c == 1 and shift == 0:
        return p
    return LaurentPoly._raw({e + shift: c * v for e, v in p.terms.items()})


def lp_mul(p: LaurentPoly, q: LaurentPoly, span_cap: int | None = None) -> LaurentPoly:
    """Exact convolution product.

    When span_cap is given, a result whose exponent span exceeds the cap
    raises SupportOverflow: all series built in this package keep their
    z-support within a small multiple of the q-order, so a breach means
    the construction is corrupted, not that the value is legitimate.
    """
    if not p.terms or not q.terms:
        return LP_ZERO
    if len(p.terms) > len(q.terms):
        p, q = q, p
    out: dict[int, int] = {}
    for ep, cp in p.terms.items():
        for eq, cq in q.terms.items():
            e = ep + eq
            s = out.get(e, 0) + cp * cq
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    if span_cap is not None and out:
        span = max(out) - min(out)
        if span > span_cap:
            raise SupportOverflow(
                f"laurent product span {span} exceeds cap {span_cap}"
            )
    return LaurentPoly._raw(out)


def lp_format(p: LaurentPoly) -> str:
    """Canonical plain-text form: exponents ascending, unit coefficients
    elided, exponent 0 and 1 rendered without a caret.

    Examples: "0", "2", "z^-1 + 2 + z", "1 - 3*z^2".
    """
    if not p.terms:
        return "0"
    pieces: list[str] = []
    for exp in sorted(p.terms):
        coeff = p.terms[exp]
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            zpart = "z" if exp == 1 else f"z^{exp}"
            body = zpart if mag == 1 else f"{mag}*{zpart}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
