"""Exception types shared across the package, and the integer argument
check that raises them.

Library code raises these and stays application-agnostic; the mapping to
process exit codes lives in :mod:`nadescent.cli`.
"""


class NadescentError(Exception):
    """Base class for every error raised by this package."""


class DomainError(NadescentError, ValueError):
    """A caller-supplied argument or input document is invalid."""


def check_int(value, name: str, minimum: int) -> int:
    """``value`` if it is an int (not a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


class PrimeMismatchError(DomainError):
    """Two p-adic operands live over different primes."""


class InvariantError(NadescentError, RuntimeError):
    """An internal consistency check failed; indicates a bug or bad data
    that slipped past validation, never a routine input problem."""


class ParityError(InvariantError):
    """An odd-degree graded piece turned out odd-dimensional, so the
    half-dimension bookkeeping has no integer meaning."""


class PrecisionError(NadescentError):
    """Base class for failures caused by finite p-adic precision."""


class RootCountPrecisionError(PrecisionError):
    """The Strassmann count of roots of valuation >= 1 is not certified: no
    coefficient in scope is known nonzero, or an ``O(p^k)`` could change it."""


class IsolationError(PrecisionError):
    """Zero isolation on a residue disk could not certify every class.

    Carries the disks that *were* certified plus per-class diagnostics so
    callers can aggregate instead of discarding partial progress.
    """

    def __init__(self, message, disks=(), failures=()):
        super().__init__(message)
        self.disks = tuple(disks)
        self.failures = tuple(failures)


class PrecisionExhaustedError(IsolationError):
    """Tracked precision ran out before a class could be decided."""


class MultipleRootSuspectedError(IsolationError):
    """A residue class kept holding >= 2 roots all the way down to the
    depth cap -- consistent with a genuine multiple zero."""


class IrregularFormError(DomainError):
    """A differential form has a coefficient that is not p-integral, so it
    cannot be integrated on the closed unit disk."""


class DigitLimitError(NadescentError):
    """An integer to be printed has more decimal digits than the
    interpreter's int/str conversion limit (``PYTHONINTMAXSTRDIGITS``)."""


class FactorizationTimeoutError(NadescentError):
    """Factoring exceeded its configured work budget."""

    def __init__(self, message, partial=None, cofactor=None):
        super().__init__(message)
        self.partial = dict(partial or {})
        self.cofactor = cofactor


class ContainmentViolatedError(InvariantError):
    """A lower enumeration escaped the upper sieve: the two sequences do
    not describe the same search."""


class MonotonicityError(InvariantError):
    """An enumerator produced a non-monotone level sequence."""
