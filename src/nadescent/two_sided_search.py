"""Two-sided enumeration until a certified lower list meets a sieve.

One side enumerates points it can certify (a nondecreasing chain of finite
sets A_0 <= A_1 <= ...), the other sieves candidates it can exclude (a
nonincreasing chain B_0 >= B_1 >= ...), with A_n <= B_m for every pair of
levels.  The moment some A_n equals some B_m both are exhaustive and the
point set is decided.  The driver alternates single-level advances starting
with the enumeration side, stops advancing a side once it reaches its cap,
and reports the trailing state if both caps are hit before agreement.

Violations of containment or of either side's monotonicity mean a supplied
enumerator is not what it claims to be; those raise immediately instead of
being smoothed over, since every later answer would inherit the lie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Optional, Protocol, Tuple

from .errors import (
    ContainmentViolatedError,
    DomainError,
    MonotonicityError,
    check_int,
)

#: Default cap on the levels each side of the search may advance to.
DEFAULT_SEARCH_CAP = 64


class LevelEnumerator(Protocol):
    """Anything exposing levelwise finite sets."""

    def next_level(self, level: int) -> AbstractSet: ...


@dataclass(frozen=True)
class TableEnumerator:
    """A LevelEnumerator backed by an explicit table of levels.

    Requests beyond the last tabulated level repeat it, modeling an
    enumerator that has stabilized.
    """

    levels: Tuple[FrozenSet, ...]

    def __post_init__(self):
        levels = tuple(frozenset(level) for level in self.levels)
        if not levels:
            raise DomainError("a table enumerator needs at least level 0")
        object.__setattr__(self, "levels", levels)

    def next_level(self, level: int) -> FrozenSet:
        check_int(level, "level", 0)
        return self.levels[min(level, len(self.levels) - 1)]


@dataclass(frozen=True)
class DescentOutcome:
    """Result of a run: either agreement (with the decided point set and the
    levels where the two sides met) or a cap-out (with the trailing sets)."""

    converged: bool
    points: Optional[FrozenSet]
    lower_level: int
    upper_level: int
    last_lower: FrozenSet
    last_upper: FrozenSet
    n_cap: int
    m_cap: int


def _display(values) -> str:
    return "{" + ", ".join(sorted(repr(v) for v in values)) + "}"


def run_descent(
    lower: LevelEnumerator,
    upper: LevelEnumerator,
    *,
    n_cap: int = DEFAULT_SEARCH_CAP,
    m_cap: int = DEFAULT_SEARCH_CAP,
) -> DescentOutcome:
    """Alternate the two sides until some A_n == B_m or both caps are hit.

    The schedule is fixed: both sides are read at level 0, agreement is
    checked, then advances alternate lower, upper, lower, ... with a capped
    side skipped.  Containment A <= B is re-checked after every advance.
    """
    check_int(n_cap, "n_cap", 0)
    check_int(m_cap, "m_cap", 0)

    n = m = 0
    a = frozenset(lower.next_level(0))
    b = frozenset(upper.next_level(0))
    lower_next = True
    while True:
        if not a <= b:
            raise ContainmentViolatedError(
                f"certified points escape the sieve at (n={n}, m={m}): "
                f"extra {_display(a - b)}"
            )
        if a == b or (n >= n_cap and m >= m_cap):
            break
        if (lower_next and n < n_cap) or m >= m_cap:
            n += 1
            grown = frozenset(lower.next_level(n))
            if not grown >= a:
                raise MonotonicityError(
                    f"lower enumeration shrank at level {n}: lost "
                    f"{_display(a - grown)}"
                )
            a = grown
            lower_next = False
        else:
            m += 1
            shrunk = frozenset(upper.next_level(m))
            if not shrunk <= b:
                raise MonotonicityError(
                    f"upper sieve grew at level {m}: gained "
                    f"{_display(shrunk - b)}"
                )
            b = shrunk
            lower_next = True
    converged = a == b
    return DescentOutcome(
        converged=converged,
        points=a if converged else None,
        lower_level=n,
        upper_level=m,
        last_lower=a,
        last_upper=b,
        n_cap=n_cap,
        m_cap=m_cap,
    )
