"""Exception taxonomy shared by all qhecke modules.

Every error raised on purpose by this package derives from QheckeError,
so callers can distinguish engine-level failures from programming bugs.
The CLI maps the assertion-style errors (SupportOverflow, InexactDivision,
HalfIntegerExponent) and failed engine self-checks (VerificationFailed) to
exit code 3 because they indicate corrupted construction rather than a
false identity, and UsageError (a bad command-line argument) to exit
code 2.

Only the errors the verifier itself raises live here. The brute-force
oracles under tests/ derive their own (OracleCapExceeded in
tests/combinat.py, NotInRegion in tests/milne.py) from QheckeError.
"""

from __future__ import annotations


class QheckeError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(QheckeError, ValueError):
    """A command-line argument is out of range or inconsistent with another.

    The CLI exits 2 for this error only; any other ValueError escaping a
    command is an engine fault and exits 3.
    """


class SupportOverflow(QheckeError):
    """A Laurent coefficient's exponent span exceeded the configured cap.

    Every series built here keeps its z-support within a small multiple of
    the q-truncation order, so breaching the cap signals a construction bug.
    """


class NonUnitConstantTerm(QheckeError):
    """Series inversion was attempted on a series whose constant term is
    not a single monomial of coefficient +1 or -1."""


class InexactDivision(QheckeError):
    """An exact polynomial division left a nonzero remainder.

    Gaussian binomials are polynomials by theory, and the packed rows that
    a product step divides by 1 - z are multiples of it by the triple
    product identity, so this must never fire.
    """


class HalfIntegerExponent(QheckeError):
    """A double-sum piece has a form that is not integral where its character is nonzero."""


class NonTerminating(QheckeError):
    """A double sum has infinitely many terms below some q-order, or a negative exponent."""


class UnknownIdentity(QheckeError):
    """Requested identity id is not in the registry or template catalog."""


class UnknownSeriesId(QheckeError):
    """Requested named series side is not recognized."""


class VerificationFailed(QheckeError):
    """A machine check of a stated relation found a counterexample.

    Carries enough location data (index, q-power, variable power) to make
    the failure reproducible.
    """

    def __init__(self, message: str, **where: object) -> None:
        super().__init__(message)
        self.where = dict(where)
