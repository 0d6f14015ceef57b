"""Upper/lower dimension bound tables and the descent halting level.

Two integer sequences are tracked level by level:

* ``selmer_ub`` -- an upper bound for the dimension of the level-n Selmer
  variety, seeded at level 2 by the Mordell-Weil rank and grown by one
  Galois-cohomology step per level:

      UB(n+1) = UB(n) + minus(r_n) + (|S| + 1) * n * g^n
                      + |S| * C(n, 2) * (2g - 2)^2 * g^(n-2)

  where minus(r_n) is the minus part of the degree-n graded piece (see
  below), n * g^n bounds the local H^2 at the good prime p, and
  n * g^n + C(n, 2) * (2g - 2)^2 * g^(n-2) the one at each bad prime.

* ``derham_lb`` -- a lower bound for the dimension of the de Rham quotient
  U_n / F^0, seeded at level 2 by g and grown by

      LB(n+1) = LB(n) + max(0, r_n - g^n).

The halting level t is the least n with UB(n) < LB(n): from there on a
nonzero algebraic obstruction is guaranteed, which is what the rest of the
pipeline consumes.

Parity modes
------------
The "minus part" of a graded piece is half its dimension in odd degree and
the full dimension in even degree.  ``FAITHFUL`` applies that rule to the
degree n actually consumed by the step (and raises ParityError if an
odd-degree piece is odd-dimensional, which would make "half" meaningless).
``PAPER_VERBATIM`` reproduces a published pair of displayed inequalities
that attach the halving to steps landing on an odd *target* level n+1
instead, i.e. to even n, with a ceiling on the half.  Both modes yield
finite halting levels; they simply bracket an ambiguity in the source
bookkeeping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .arith import check_prime, is_prime  # is_prime: bench/tracing.py wraps it here
from .errors import DomainError, ParityError, check_int
from .lie_dims import DEFAULT_LEVEL_CAP, graded_dims

#: Default largest level the bound recursion examines.
DEFAULT_N_CAP = 64


class ParityMode(enum.Enum):
    FAITHFUL = "faithful"
    PAPER_VERBATIM = "verbatim"

    @classmethod
    def parse(cls, text) -> "ParityMode":
        try:
            return cls(text)  # a member, or the value of one
        except ValueError:
            raise DomainError(
                f"unknown parity mode {text!r}; expected 'faithful' or 'verbatim'"
            ) from None


@dataclass(frozen=True)
class CurveParams:
    """Arithmetic inputs for the bound recursion.

    ``bad_primes`` is optional -- only its cardinality enters the bounds --
    but when present it must be consistent with ``bad_prime_count`` and must
    not contain the working prime p.
    """

    g: int
    bad_prime_count: int
    p: int
    mw_rank: int
    bad_primes: Optional[frozenset[int]] = None

    def __post_init__(self):
        check_int(self.g, "genus", 2)
        check_int(self.bad_prime_count, "|S|", 0)
        check_prime(self.p, "p")
        check_int(self.mw_rank, "Mordell-Weil rank", 0)
        if self.bad_primes is not None:
            object.__setattr__(self, "bad_primes", frozenset(self.bad_primes))
            if len(self.bad_primes) != self.bad_prime_count:
                raise DomainError(
                    f"bad_prime_count={self.bad_prime_count} disagrees with "
                    f"bad_primes of size {len(self.bad_primes)}"
                )
            if self.p in self.bad_primes:
                raise DomainError(f"p={self.p} must be a prime of good reduction")
            for q in self.bad_primes:
                check_prime(q, "bad prime")


class BoundRow(NamedTuple):
    n: int
    selmer_ub: int
    derham_lb: int


@dataclass(frozen=True)
class BoundTable:
    """Rows (n, UB(n), LB(n)) together with the halting level, if found."""

    params: CurveParams
    mode: ParityMode
    rows: tuple[BoundRow, ...]
    halting_level: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "g": self.params.g,
            "bad_prime_count": self.params.bad_prime_count,
            "p": self.params.p,
            "mw_rank": self.params.mw_rank,
            "mode": self.mode.value,
            "rows": [
                {"n": r.n, "selmer_ub": r.selmer_ub, "derham_lb": r.derham_lb}
                for r in self.rows
            ],
            "halting_level": self.halting_level,
        }


def _minus(rn: int, n: int, mode: ParityMode) -> int:
    """The minus part of the degree-n graded piece, of dimension r_n."""
    if mode is ParityMode.FAITHFUL:
        if n % 2 == 0:
            return rn
        if rn % 2:
            raise ParityError(f"r_{n}={rn} is odd in odd degree {n}; cannot halve")
        return rn // 2
    # PAPER_VERBATIM: halve (with ceiling) when the step lands on an odd
    # target level n+1, i.e. when n is even.
    return (rn + 1) // 2 if n % 2 == 0 else rn


def halting_level(
    params: CurveParams,
    n_cap: int = DEFAULT_N_CAP,
    mode: ParityMode = ParityMode.FAITHFUL,
) -> BoundTable:
    """Least n in [2, n_cap] with UB(n) < LB(n).

    Returns a BoundTable whose rows stop at the halting level when one is
    found (``halting_level`` is then that n); when the cap is exhausted the
    rows run through n_cap and ``halting_level`` is None.
    """
    check_int(n_cap, "n_cap", 2)
    if n_cap > DEFAULT_LEVEL_CAP + 1:
        raise DomainError(f"n_cap must be at most {DEFAULT_LEVEL_CAP + 1}, got {n_cap}")
    g, s = params.g, params.bad_prime_count
    ub, lb = params.mw_rank, g
    rows = [BoundRow(2, ub, lb)]
    for n, rn in enumerate(graded_dims(g, n_cap - 1).graded[1:], 2):
        if ub < lb:
            break
        ub += (
            _minus(rn, n, mode)
            + (s + 1) * n * g**n
            + s * (n * (n - 1) // 2) * (2 * g - 2) ** 2 * g ** (n - 2)
        )
        lb += max(0, rn - g**n)
        rows.append(BoundRow(n + 1, ub, lb))
    return BoundTable(params, mode, tuple(rows), rows[-1].n if ub < lb else None)
