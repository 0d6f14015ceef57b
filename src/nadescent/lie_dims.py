"""Graded dimensions for the nilpotent tower over a genus-g surface group.

For a closed orientable surface of genus g >= 2, the graded pieces of the
associated Lie algebra of the lower central series have dimensions r_n
determined by the divisor sum

    sum_{d | n} d * r_d  =  L_n,

where L_n = (g + sqrt(g^2 - 1))^n + (g - sqrt(g^2 - 1))^n is the integer
Lucas-type sequence

    L_0 = 2,   L_1 = 2g,   L_n = 2g * L_{n-1} - L_{n-2}.

Each r_n is solved from its own degree of that sum,

    n * r_n = L_n - sum_{d | n, d < n} d * r_d,

by a multiples sieve: once r_d is known, d * r_d is added to the running
sum of every later multiple of d.  The quotient must be exact and positive
-- anything else means the inputs are corrupt, so it is a hard error rather
than a rounding.  The unipotent quotient U_n below filtration level n has
dim U_n = r_1 + ... + r_{n-1}.

Everything here is arbitrary-precision integer arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .errors import DomainError, InvariantError, check_int

#: Default ceiling on n_max; raise explicitly via the ``cap`` argument if a
#: computation genuinely needs deeper levels.
DEFAULT_LEVEL_CAP = 10_000

#: How many genera the graded-dimension cache keeps.
_CACHE_GENERA = 64
_cache: dict[int, GradedDims] = {}  # genus -> longest prefix computed so far


def _extend_lucas(seq: list[int], g: int, n_max: int) -> list[int]:
    """Extend [L_0, ...] through L_n_max by L_n = 2g L_{n-1} - L_{n-2}."""
    while len(seq) <= n_max:
        seq.append(2 * g * seq[-1] - seq[-2])
    return seq


@dataclass(frozen=True)
class GradedDims:
    """Graded dimension data for one genus, degrees 1..n_max."""

    g: int
    lucas: tuple[int, ...]     # L_0 .. L_n_max
    graded: tuple[int, ...]    # r_1 .. r_n_max

    @cached_property
    def _cumulative(self) -> tuple[int, ...]:
        """dim U_1 .. dim U_(n_max + 1): the prefix sums of ``graded``."""
        return tuple(accumulate(self.graded, initial=0))

    @property
    def n_max(self) -> int:
        return len(self.graded)

    def lucas_value(self, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise DomainError(f"L_{n} not computed (n_max={self.n_max})")
        return self.lucas[n]

    def r(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"r_{n} not computed (n_max={self.n_max})")
        return self.graded[n - 1]


def graded_dims(g: int, n_max: int, cap: int = DEFAULT_LEVEL_CAP) -> GradedDims:
    """Dimensions r_1..r_n_max of the graded pieces, from the divisor sum.

    Cached per genus: a longer request extends the longest prefix computed
    so far, a shorter one is sliced from it."""
    check_int(g, "genus", 2)
    check_int(n_max, "n_max", 1)
    if n_max > cap:
        raise DomainError(
            f"n_max={n_max} exceeds the level cap {cap}; pass a larger cap "
            "explicitly if this is intentional"
        )
    known = _cache.get(g)
    if known is None or known.n_max < n_max:
        known = _extend(g, known, n_max)
        _cache[g] = known
        if len(_cache) > _CACHE_GENERA:
            del _cache[next(iter(_cache))]
    if known.n_max == n_max:
        return known
    return GradedDims(g, known.lucas[: n_max + 1], known.graded[:n_max])


def _extend(g: int, known: GradedDims | None, n_max: int) -> GradedDims:
    """A new GradedDims through n_max that reuses the levels ``known`` has."""
    lucas = _extend_lucas(list(known.lucas) if known else [2, 2 * g], g, n_max)
    graded = list(known.graded) if known else []
    start = len(graded) + 1
    # sums[m] = sum of d * r_d over the d < m that divide m, for m >= start
    sums = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        if n >= start:
            rn, rest = divmod(lucas[n] - sums[n], n)
            if rest:
                raise InvariantError(f"L_{n} less its divisor sum is {rest} mod {n}")
            if rn <= 0:
                raise InvariantError(f"non-positive graded dimension r_{n}={rn}")
            graded.append(rn)
        weight = n * graded[n - 1]  # for the multiples of n past n, from start on
        for m in range(max(2 * n, -(-start // n) * n), n_max + 1, n):
            sums[m] += weight
    return GradedDims(g=g, lucas=tuple(lucas), graded=tuple(graded))


def cumulative_dim(dims: GradedDims, n: int) -> int:
    """dim U_n = r_1 + ... + r_{n-1}, valid for 2 <= n <= n_max + 1."""
    if not 2 <= n <= dims.n_max + 1:
        raise DomainError(
            f"cumulative dimension defined for 2 <= n <= {dims.n_max + 1}, "
            f"got {n}"
        )
    return dims._cumulative[n - 1]
