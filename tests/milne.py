"""An explicit weight-preserving bijection between two lattice cones.

The source cone S1 is {(m, n) : n >= 2|m|} and the target cone S2 is
{(m, n) : n >= 3|m|}. The map fixes the quadratic exponent, flips the two
boundary-distance labels exactly when m is odd, and preserves the sign
exponent parity, which is what makes the two double-sum representations
of the same product interchangeable.
"""

from __future__ import annotations

from math import isqrt

from qhecke.errors import QheckeError, VerificationFailed

Point = tuple[int, int]


class NotInRegion(QheckeError):
    """A lattice point lies outside the domain of the requested map."""


def q1_exponent(p: Point) -> int:
    """Exponent form on the source cone: (n^2 + n)/2 - m^2."""
    m, n = p
    return (n * n + n) // 2 - m * m


def q2_exponent(p: Point) -> int:
    """Exponent form on the target cone: (n^2 + n)/2 - 4m^2."""
    m, n = p
    return (n * n + n) // 2 - 4 * m * m


def labels1(p: Point) -> tuple[int, int]:
    """Boundary-distance pair (n - 2|m| + 1, 2|m| - n) on the source."""
    m, n = p
    return n - 2 * abs(m) + 1, 2 * abs(m) - n


def labels2(p: Point) -> tuple[int, int]:
    """Boundary-distance pair (n - 4|m| + 1, 4|m| - n) on the target."""
    m, n = p
    return n - 4 * abs(m) + 1, 4 * abs(m) - n


def milne_T(p: Point) -> Point:
    """Map a source-cone point to the target cone.

    Even |m| shrinks to (m/2, n); odd |m| reflects through the boundary to
    (n - (3|m| - 1)/2, 3n - 4|m| + 1) with the sign of m carried along.
    Raises NotInRegion when n < 2|m|.
    """
    m, n = p
    am = abs(m)
    if n < 2 * am:
        raise NotInRegion(f"point {p} is outside the source cone")
    if am % 2 == 0:
        return (m // 2 if m >= 0 else -((-m) // 2), n)
    m1 = n - (3 * am - 1) // 2
    n1 = 3 * n - 4 * am + 1
    return (m1, n1) if m > 0 else (-m1, n1)


def _cone_points(q_cap: int, ratio: int) -> set[Point]:
    """All (m, n) with n >= ratio*|m| and quadratic exponent <= q_cap."""
    pts: set[Point] = set()
    # On the cone the exponent is at least n^2/4 (ratio 2) or n^2/18
    # (ratio 3), so n^2 <= 2 * ratio^2 * q_cap covers everything.
    n_hi = isqrt(2 * ratio * ratio * max(q_cap, 0)) + 2 * ratio
    for n in range(n_hi + 1):
        for m in range(-(n // ratio), n // ratio + 1):
            e = (n * n + n) // 2 - (1 if ratio == 2 else 4) * m * m
            if e <= q_cap:
                pts.add((m, n))
    return pts


def verify_milne(n_cap: int) -> dict:
    """Check the bijection on every point with quadratic exponent <= n_cap.

    Verifies region membership of the image, exponent preservation, sign
    parity preservation, the parity-controlled label swap, injectivity,
    and surjectivity onto the target points under the same cap. Raises
    VerificationFailed at the first offending point.
    """
    source = _cone_points(n_cap, 2)
    target = _cone_points(n_cap, 3)
    seen: dict[Point, Point] = {}
    for p in sorted(source):
        m, n = p
        img = milne_T(p)
        m1, n1 = img
        if n1 < 3 * abs(m1):
            raise VerificationFailed("image leaves target cone", point=p, image=img)
        if q2_exponent(img) != q1_exponent(p):
            raise VerificationFailed(
                "exponent not preserved", point=p, image=img,
                source_exp=q1_exponent(p), image_exp=q2_exponent(img),
            )
        if (m + n) % 2 != n1 % 2:
            raise VerificationFailed("sign parity broken", point=p, image=img)
        a1, b1 = labels1(p)
        expected = (a1, b1) if m % 2 == 0 else (b1, a1)
        if labels2(img) != expected:
            raise VerificationFailed(
                "label permutation broken", point=p, image=img,
                got=labels2(img), expected=expected,
            )
        if img in seen:
            raise VerificationFailed(
                "map is not injective", point=p, collides_with=seen[img], image=img
            )
        seen[img] = p
    missing = target - set(seen)
    if missing:
        raise VerificationFailed(
            "map is not surjective", missing=sorted(missing)[:5],
            missing_count=len(missing),
        )
    return {
        "ok": True,
        "q_cap": n_cap,
        "source_points": len(source),
        "target_points": len(target),
    }
