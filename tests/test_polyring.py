from __future__ import annotations

import random
from fractions import Fraction

from qhecke.polyring import (
    LaurentPoly,
    lp_add,
    lp_format,
    lp_monomial,
    lp_mul,
    lp_neg,
    lp_scale,
)


def lp_eval_int(p: LaurentPoly, z0: int) -> int | Fraction:
    """Exact evaluation at a nonzero integer point.

    Returns an int whenever the value is integral (always for z0 = +-1),
    otherwise an exact Fraction. The ring-homomorphism oracle for lp_mul
    and for the z folds of the series kernels.
    """
    if z0 == 0:
        raise ValueError("evaluation point must be a nonzero integer")
    if z0 == 1:
        return sum(p.terms.values())
    if z0 == -1:
        return sum(c if e % 2 == 0 else -c for e, c in p.terms.items())
    if not p.terms:
        return 0
    emin = min(p.terms)
    shift = -emin if emin < 0 else 0
    acc = 0
    for e, c in p.terms.items():
        acc += c * z0 ** (e + shift)
    if shift == 0:
        return acc
    value = Fraction(acc, z0**shift)
    return int(value) if value.denominator == 1 else value


def lp_invert_var(p: LaurentPoly) -> LaurentPoly:
    """Substitute z -> 1/z (negate every exponent)."""
    return LaurentPoly({-e: c for e, c in p.terms.items()})


def rand_poly(rng: random.Random, width: int = 4, spread: int = 6) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randrange(width + 1)):
        terms[rng.randrange(-spread, spread + 1)] = rng.randrange(-9, 10)
    return LaurentPoly(terms)


def test_zero_coefficients_are_dropped():
    p = LaurentPoly({0: 1, 2: 0, -3: 0})
    assert p.terms == {0: 1}
    assert LaurentPoly({1: 0}).is_zero()
    assert not LaurentPoly()


def test_coeff_support_span():
    p = LaurentPoly({-2: 3, 5: -1})
    assert p.coeff(-2) == 3
    assert p.coeff(5) == -1
    assert p.coeff(0) == 0
    assert p.support() == [-2, 5]
    assert p.span() == 7
    assert lp_monomial(0, 0).span() == 0


def test_basic_arithmetic():
    p = LaurentPoly({0: 1, 1: 2})
    q = LaurentPoly({-1: 1, 1: -2})
    assert lp_add(p, q).terms == {0: 1, -1: 1}
    assert lp_neg(p).terms == {0: -1, 1: -2}
    assert lp_mul(p, q).terms == {-1: 1, 0: 2, 1: -2, 2: -4}
    assert lp_scale(p, 3, shift=2).terms == {2: 3, 3: 6}
    assert lp_mul(p, lp_monomial(0, 0)).is_zero()


def test_invert_var_swaps_exponent_sign():
    p = LaurentPoly({-2: 5, 0: 1, 3: -4})
    assert lp_invert_var(p).terms == {2: 5, 0: 1, -3: -4}


def test_eval_int():
    p = LaurentPoly({0: 1, 2: 3})
    assert lp_eval_int(p, 2) == 13
    assert lp_eval_int(lp_monomial(1, -1), 2) * 2 == 1


def test_format_examples():
    assert lp_format(lp_monomial(0, 0)) == "0"
    assert lp_format(lp_monomial(2, 0)) == "2"
    assert lp_format(LaurentPoly({-1: 1, 0: 2, 1: 1})) == "z^-1 + 2 + z"
    assert lp_format(LaurentPoly({0: 1, 2: -3})) == "1 - 3*z^2"
    assert lp_format(lp_monomial(-1, 1)) == "-z"
    assert (
        lp_format(LaurentPoly({-3: 1, -1: 1, 0: 1, 1: 1, 3: 1}))
        == "z^-3 + z^-1 + 1 + z + z^3"
    )


def test_ring_axioms_randomized():
    rng = random.Random(20260814)
    for _ in range(1200):
        p = rand_poly(rng)
        q = rand_poly(rng)
        r = rand_poly(rng)
        assert lp_add(p, q) == lp_add(q, p)
        assert lp_mul(p, q) == lp_mul(q, p)
        assert lp_mul(p, lp_add(q, r)) == lp_add(lp_mul(p, q), lp_mul(p, r))
        assert lp_mul(lp_mul(p, q), r) == lp_mul(p, lp_mul(q, r))
        assert lp_add(p, lp_neg(p)).is_zero()
        # evaluation at an integer point is a ring homomorphism
        z0 = rng.choice((1, -1, 2, -2, 3))
        assert lp_eval_int(lp_mul(p, q), z0) == lp_eval_int(p, z0) * lp_eval_int(
            q, z0
        )


def test_invert_var_is_involutive_and_multiplicative():
    rng = random.Random(7)
    for _ in range(400):
        p = rand_poly(rng)
        q = rand_poly(rng)
        assert lp_invert_var(lp_invert_var(p)) == p
        assert lp_invert_var(lp_mul(p, q)) == lp_mul(
            lp_invert_var(p), lp_invert_var(q)
        )
