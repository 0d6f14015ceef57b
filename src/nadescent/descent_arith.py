"""Local Jacobian group orders, the annihilating modulus, and prime-set
enlargement.

Once zero separation has produced a modulus exponent M, the descent endgame
needs the order of the Jacobian's points over Z/p^M.  For good reduction
that order is exactly

    N = #J(F_p) * p^(g (M - 1)),

because each of the M - 1 successive reduction kernels is an elementary
abelian layer of size p^g (formal-group smoothness).  N annihilates the
local group, so multiplication by N collapses the obstruction there; its
prime factors are the only primes that can enter the enlarged set

    T_0 = S union { primes dividing N },

which is where the search for the next stage of descent has to live.

The residue count #J(F_p) is caller-supplied (this package does not count
points on curves); it is sanity-checked against the exact Weil interval
[(sqrt(p) - 1)^(2g), (sqrt(p) + 1)^(2g)] with integer arithmetic in
Z[sqrt(p)], and a count outside it triggers a WeilBoundWarning rather than
an error -- the arithmetic downstream is still well defined, the input is
just not the order of any Jacobian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Tuple

from .arith import DEFAULT_FACTOR_BUDGET, is_prime, prime_factors
from .errors import DomainError, check_int


class WeilBoundWarning(UserWarning):
    """The supplied residue point count violates the Weil interval."""


def _pair_mul(x: Tuple[int, int], y: Tuple[int, int], p: int) -> Tuple[int, int]:
    # (a + b sqrt(p)) (c + d sqrt(p)) in Z[sqrt(p)]
    a, b = x
    c, d = y
    return (a * c + b * d * p, a * d + b * c)


def _pair_pow(base: Tuple[int, int], exp: int, p: int) -> Tuple[int, int]:
    out = (1, 0)
    for _ in range(exp):
        out = _pair_mul(out, base, p)
    return out


def _cmp_with_sqrt(c: int, a: int, b: int, p: int) -> int:
    """Sign of c - (a + b sqrt(p)), exactly."""
    t = c - a
    if b == 0:
        return (t > 0) - (t < 0)
    if b > 0:
        if t <= 0:
            return -1
        d = t * t - b * b * p
        return (d > 0) - (d < 0)
    if t >= 0:
        return 1
    d = b * b * p - t * t
    return (d > 0) - (d < 0)


@dataclass(frozen=True)
class JacobianLocalData:
    """Good-reduction local data at p: dimension g and the count over F_p."""

    p: int
    g: int
    count_fp: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise DomainError(f"p must be prime, got {self.p!r}")
        check_int(self.g, "abelian variety dimension", 1)
        check_int(self.count_fp, "residue point count", 1)
        lo = _pair_pow((self.p + 1, -2), self.g, self.p)
        hi = _pair_pow((self.p + 1, 2), self.g, self.p)
        if (
            _cmp_with_sqrt(self.count_fp, lo[0], lo[1], self.p) < 0
            or _cmp_with_sqrt(self.count_fp, hi[0], hi[1], self.p) > 0
        ):
            warnings.warn(
                WeilBoundWarning(
                    f"count {self.count_fp} outside the Weil interval "
                    f"[(sqrt({self.p})-1)^{2 * self.g}, "
                    f"(sqrt({self.p})+1)^{2 * self.g}] for g={self.g}"
                ),
                stacklevel=3,
            )


def jacobian_order_mod(data: JacobianLocalData, modulus_exponent: int) -> int:
    """#J(Z/p^M) = #J(F_p) * p^(g (M - 1)), exact for good reduction; this
    order is the annihilator N of the local group at level p^M."""
    check_int(modulus_exponent, "modulus exponent", 1)
    return data.count_fp * data.p ** (data.g * (modulus_exponent - 1))


def enlarged_prime_set(
    s_primes: Iterable[int], n: int, budget: int = DEFAULT_FACTOR_BUDGET
) -> FrozenSet[int]:
    """T_0 = S union primes(N).

    Factoring N may be expensive; the shared factorization budget applies,
    and exhaustion raises FactorizationTimeoutError with the partial
    factorization attached.
    """
    s = frozenset(s_primes)
    for q in s:
        if not isinstance(q, int) or isinstance(q, bool) or not is_prime(q):
            raise DomainError(f"S must contain primes, got {q!r}")
    check_int(n, "N", 1)
    if n == 1:
        return s
    return s | prime_factors(n, budget=budget)


def count_from_frobenius_poly(coeffs: Sequence[int]) -> int:
    """Group order over F_p from the Frobenius characteristic polynomial.

    ``coeffs`` are the integer coefficients c_0 .. c_2g (any order of a
    palindromic-up-to-weights polynomial works, since only the value at 1 is
    taken): the count is sum(c_i).  Mainly a convenience for building
    JacobianLocalData from tabulated L-polynomials.
    """
    total = 0
    for i, c in enumerate(coeffs):
        if not isinstance(c, int) or isinstance(c, bool):
            raise DomainError(f"coefficient {i} must be an integer, got {c!r}")
        total += c
    if total < 1:
        raise DomainError(
            f"polynomial value at 1 is {total}; a group order must be >= 1"
        )
    return total
