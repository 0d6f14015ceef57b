"""Small exact number-theory helpers shared across the package.

Everything is plain arbitrary-precision integer arithmetic: primality
(deterministic Miller-Rabin below psi_12, Baillie-PSW above), factorization
(trial division by the primes below 10^4, then Brent's rho under a budget
counted in Brent steps, with each prime found divided out of the cofactor at
once) and p-adic valuations of integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

from .errors import DomainError, FactorizationTimeoutError, check_int

# Strong probable-prime tests to these bases decide primality for every
# n < psi_12 = 318665857834031151167461 (Sorenson & Webster, Math. Comp. 86,
# 2017); psi_12 itself is a strong pseudoprime to all twelve.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461

#: Total Brent-rho work allowed per factorization call before giving up.
DEFAULT_FACTOR_BUDGET = 2_000_000

#: Trial division runs over the primes below this bound.
_TRIAL_LIMIT = 10_000

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic below psi_12; Baillie-PSW (a strong base-2 test and a
    strong Lucas test, Baillie & Wagstaff, Math. Comp. 35, 1980) at and
    above it, which no known composite passes."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < _PSI_12:
        return _strong_probable_prime(n, _MR_BASES)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def check_prime(n, name: str) -> int:
    """``n`` if it is a prime int (not a bool); the one check of every prime
    the package takes as input."""
    if not isinstance(n, int) or isinstance(n, bool) or not is_prime(n):
        raise DomainError(f"{name}: {n!r} is not prime")
    return n


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin to each base, for odd n above all of them."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n free of
    small factors: D is the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1, Q = (1 - D)/4; with n + 1 = d 2^s, n passes when U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some 0 <= r < s."""
    if math.isqrt(n) ** 2 == n:  # no D with (D/n) = -1 exists
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # n shares a factor with D and exceeds it
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # index k -> 2k
        if bit == "1":  # 2k -> 2k + 1, halving mod the odd n
            U, V = U + V, D * U + V
            U, V = (U + n * (U % 2)) // 2 % n, (V + n * (V % 2)) // 2 % n
            Qk = Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def v_p(n: int, p: int) -> int:
    """Exact p-adic valuation of a nonzero integer.

    Four factors p are divided out one at a time and then, up to 64, four
    at a time, which suits the small valuations of series arithmetic.
    Past 64, n is divided by q = p^4, q^2, q^4, ... while they divide and
    then by the same powers from the top down while they still do, so a
    valuation v costs about 2 log2(v) divisions instead of v.
    """
    if n == 0:
        raise DomainError("v_p(0) is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == 4:
            break
    else:
        return v
    q = p**4
    while v < 64:
        m, r = divmod(n, q)
        if r:
            break
        n, v = m, v + 4
    else:
        powers = [q]
        while True:
            m, r = divmod(n, powers[-1])
            if r:
                break
            n, v = m, v + (4 << (len(powers) - 1))
            powers.append(powers[-1] ** 2)
        for k in range(len(powers) - 2, -1, -1):
            m, r = divmod(n, powers[k])
            if not r:
                n, v = m, v + (4 << k)
    while n % p == 0:  # the last three at most
        n //= p
        v += 1
    return v


def _rho_brent(n: int, budget: int) -> tuple[int | None, int]:
    """One Brent-cycle factor hunt; returns (factor or None, work spent)."""
    if n % 2 == 0:
        return 2, 0
    spent = 0
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                block = min(128, r - k)
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # the sign of x - y leaves gcd(q, n) alone
                spent += block
                if spent > budget:
                    return None, spent
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # backtrack
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                spent += 1
                if spent > budget:
                    return None, spent
        if g != n:
            return g, spent
    return None, spent


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    """The primes below _TRIAL_LIMIT, sieved on first use."""
    flags = bytearray([1]) * _TRIAL_LIMIT
    flags[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(_TRIAL_LIMIT - 1) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, _TRIAL_LIMIT, q)))
    return tuple(compress(range(_TRIAL_LIMIT), flags))


def factorize(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by the primes below 10^4 first, then Brent's rho on what
    is left.  Each prime found past trial division is divided out of every
    later cofactor at once, with its full multiplicity, so a large prime
    that divides n many times costs one rho run.  ``budget`` caps the total
    rho work, counted in Brent steps; exceeding it raises
    FactorizationTimeoutError carrying the partial factorization and the
    unfactored cofactor, whose product is n, so the failure is explicit
    rather than silent.  A budget of 0 allows trial division only; a
    negative one is refused.
    """
    if n < 1:
        raise DomainError(f"cannot factor {n}; need a positive integer")
    check_int(budget, "factor budget", 0)
    out: dict[int, int] = {}
    for q in _trial_primes():
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    stack = [n]
    remaining = budget
    while stack:
        m = stack.pop()
        for q in out:  # the trial primes are gone; a prime rho found may recur
            if m % q == 0:
                e = v_p(m, q)
                out[q] += e
                m //= q**e
        if m == 1:
            continue
        if is_prime(m):
            out[m] = 1
            continue
        f, spent = _rho_brent(m, remaining)
        remaining -= spent
        if f is None or f in (1, m):
            cofactor = m * math.prod(stack)
            raise FactorizationTimeoutError(
                f"factorization budget of {budget} Brent steps spent with "
                f"cofactor {cofactor}",
                partial=out,
                cofactor=cofactor,
            )
        stack.append(m // f)
        stack.append(f)
    return out


def prime_factors(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> frozenset[int]:
    return frozenset(factorize(n, budget))
