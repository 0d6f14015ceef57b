"""Independent oracles used by the test suite.

Everything in this module is deliberately written with *different*
mathematics or brute force than the library under test:

* Lucas values come from exact quadratic-integer powering, not the
  three-term recurrence.
* Graded dimensions are cross-checked through the product formula
  for the generating function, not Moebius inversion.
* Shuffle tables come from brute-force interleaving enumeration.
* p-adic root counts come from an exhaustive search modulo p^6 with a
  Hensel-liftability filter (vectorized with numpy).
* Elliptic-curve group orders come from counting affine solutions.
* Two-sided-search outcomes come from directly tabulating both level
  sequences and walking the alternation schedule by hand.
* Primality is checked against published lists of the composites that
  fool each half of the test.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# Quadratic-integer powering: L_n = (g + sqrt(g^2-1))^n + (g - sqrt(g^2-1))^n
# ---------------------------------------------------------------------------


def lucas_power_trace(g: int, n: int) -> int:
    """L_n computed as a trace of powers in Z[sqrt(g^2 - 1)].

    Elements a + b*sqrt(D) are held as (a, b) pairs with exact integer
    arithmetic; the conjugate power has the same a and negated b, so the
    trace is 2a.
    """
    d = g * g - 1
    # square-and-multiply for (g + sqrt(d))^n
    base = (g, 1)
    acc = (1, 0)
    e = n
    while e:
        if e & 1:
            acc = (acc[0] * base[0] + acc[1] * base[1] * d,
                   acc[0] * base[1] + acc[1] * base[0])
        base = (base[0] * base[0] + base[1] * base[1] * d,
                2 * base[0] * base[1])
        e >>= 1
    return 2 * acc[0]


# ---------------------------------------------------------------------------
# Generating-function oracle for the graded dimensions
# ---------------------------------------------------------------------------


def poly_mul_trunc(a: Sequence[int], b: Sequence[int], upto: int) -> List[int]:
    """Product of integer polynomial coefficient lists, truncated at t^upto."""
    out = [0] * (upto + 1)
    for i, ai in enumerate(a):
        if i > upto or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > upto:
                break
            out[i + j] += ai * bj
    return out


def pbw_product_coeffs(r: Sequence[int], upto: int) -> List[int]:
    """Coefficients of prod_n (1 - t^n)^(-r[n-1]) through t^upto.

    (1 - t^n)^(-r) = sum_k C(r+k-1, k) t^(n k), all exact integers.
    """
    acc = [1] + [0] * upto
    for n, rn in enumerate(r, start=1):
        if n > upto:
            break
        factor = [0] * (upto + 1)
        k = 0
        while n * k <= upto:
            factor[n * k] = math.comb(rn + k - 1, k)
            k += 1
        acc = poly_mul_trunc(acc, factor, upto)
    return acc


def rational_target_coeffs(g: int, upto: int) -> List[int]:
    """Coefficients of 1 / (1 - 2g t + t^2) through t^upto via its recurrence."""
    out = [1, 2 * g]
    while len(out) <= upto:
        out.append(2 * g * out[-1] - out[-2])
    return out[: upto + 1]


# ---------------------------------------------------------------------------
# Independent halting-level walk (formulas recoded from scratch)
# ---------------------------------------------------------------------------


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    if n > 1:
        sign = -sign
    return sign


def graded_dim_by_inversion(g: int, n: int) -> int:
    total = sum(
        _mobius(n // d) * lucas_power_trace(g, d)
        for d in range(1, n + 1)
        if n % d == 0
    )
    assert total % n == 0, (g, n)
    return total // n


def oracle_halting_level(
    g: int, s: int, rank: int, mode: str, n_cap: int
) -> Optional[int]:
    """Walk the two bound columns directly from their defining formulas.

    mode is 'faithful' (halve the odd-degree graded piece, exactly) or
    'verbatim' (halve the even-degree piece, rounding up).
    """
    r = [None] + [graded_dim_by_inversion(g, n) for n in range(1, n_cap + 1)]
    ub = rank
    lb = g
    for n in range(2, n_cap + 1):
        if ub < lb:
            return n
        rn = r[n]
        if mode == "faithful":
            minus = rn // 2 if n % 2 == 1 else rn
            assert n % 2 == 0 or rn % 2 == 0
        else:
            minus = (rn + 1) // 2 if n % 2 == 0 else rn
        bad = n * g ** n + n * (n - 1) // 2 * (2 * g - 2) ** 2 * g ** (n - 2)
        good = n * g ** n
        ub = ub + minus + s * bad + good
        lb = lb + max(0, rn - g ** n)
        # the loop head compares at n+1
    return None


# ---------------------------------------------------------------------------
# Brute-force shuffle enumeration
# ---------------------------------------------------------------------------


def brute_shuffle(u: Sequence[int], v: Sequence[int]) -> Dict[Tuple[int, ...], int]:
    """All riffle interleavings of u and v with multiplicity, by recursion."""
    out: Counter = Counter()

    def rec(i: int, j: int, prefix: Tuple[int, ...]) -> None:
        if i == len(u) and j == len(v):
            out[prefix] += 1
            return
        if i < len(u):
            rec(i + 1, j, prefix + (u[i],))
        if j < len(v):
            rec(i, j + 1, prefix + (v[j],))

    rec(0, 0, ())
    return dict(out)


# ---------------------------------------------------------------------------
# Exhaustive mod-p^6 search for Hensel-liftable simple roots in pZ_p
# ---------------------------------------------------------------------------


def hensel_simple_roots_mod_p6(p: int, coeffs: Sequence[int]) -> int:
    """Count the simple roots of f in pZ_p decidable from residues mod p^6.

    A residue r (a multiple of p, scanned exhaustively mod p^6) witnesses a
    root when f(r) = 0 mod p^6 and the derivative value d = f'(r) mod p^6
    has p-valuation v with 2v < 6; Newton iteration then contracts and the
    root is determined mod p^(6-v).  Distinct witnesses of one root share
    the key (v, r mod p^(6-v)), so the count is the number of distinct keys.
    """
    q = p ** 6
    xs = np.arange(0, q, p, dtype=np.int64)
    fv = np.zeros_like(xs)
    for c in reversed(list(coeffs)):
        fv = (fv * xs + (c % q)) % q
    dcoeffs = [(i * c) % q for i, c in enumerate(coeffs)][1:]
    dv = np.zeros_like(xs)
    for c in reversed(dcoeffs):
        dv = (dv * xs + c) % q
    keys: Set[Tuple[int, int]] = set()
    for r, d in zip(xs[fv == 0].tolist(), dv[fv == 0].tolist()):
        if d == 0:
            continue
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        if 2 * v < 6:
            keys.add((v, r % p ** (6 - v)))
    return len(keys)


# ---------------------------------------------------------------------------
# Affine point counts for elliptic curves over Z/q
# ---------------------------------------------------------------------------


def elliptic_affine_count(q: int, a: int, b: int) -> int:
    """Number of (x, y) in (Z/q)^2 with y^2 = x^3 + ax + b mod q."""
    squares: Counter = Counter((y * y) % q for y in range(q))
    return sum(squares[(x * x * x + a * x + b) % q] for x in range(q))


def elliptic_group_orders(p: int, a: int, b: int) -> Tuple[int, int]:
    """(#E(F_p), #E(Z/p^2)) by enumeration.

    Smoothness requires p not dividing the discriminant.  Over F_p the
    projective closure adds one point at infinity; over Z/p^2 the points
    at infinity form a line worth p points (the kernel of reduction on
    that chart), so the order is affine + p.
    """
    disc = (-16 * (4 * a ** 3 + 27 * b ** 2)) % p
    if disc == 0:
        raise ValueError("singular reduction; pick a different curve")
    over_p = elliptic_affine_count(p, a, b) + 1
    over_p2 = elliptic_affine_count(p * p, a, b) + p
    return over_p, over_p2


# ---------------------------------------------------------------------------
# Exhaustive tabulation of the two-sided search
# ---------------------------------------------------------------------------


def tabulate_first_meeting(
    lower_levels: Sequence[Set[str]],
    upper_levels: Sequence[Set[str]],
    n_cap: int,
    m_cap: int,
) -> Optional[Tuple[Set[str], int, int]]:
    """First (n, m) with A_n == B_m along the alternation schedule.

    Levels saturate at the last tabulated entry.  The schedule reads both
    sides at level 0, then alternates lower-side first, skipping a side
    once it reaches its cap.  Returns (set, n, m) or None if the caps are
    reached without a meeting.
    """

    def level(table: Sequence[Set[str]], i: int) -> Set[str]:
        return set(table[min(i, len(table) - 1)])

    n, m = 0, 0
    lower_next = True
    while True:
        if level(lower_levels, n) == level(upper_levels, m):
            return level(lower_levels, n), n, m
        lower_capped = n >= n_cap
        upper_capped = m >= m_cap
        if lower_capped and upper_capped:
            return None
        if lower_next and not lower_capped:
            n += 1
        elif not lower_next and not upper_capped:
            m += 1
        elif lower_capped:
            m += 1
        else:
            n += 1
        lower_next = not lower_next


# ---------------------------------------------------------------------------
# Pseudoprimes: composites that a probable-prime test lets through
# ---------------------------------------------------------------------------

#: psi_k, the least strong pseudoprime to all of the first k prime bases
#: (OEIS A014233), k = 1..13; psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

#: psi_12 = 399165290221 * 798330580441 and its cofactor-checked split.
PSI_12_FACTORS = (399165290221, 798330580441)

#: The strong pseudoprimes to base 2 below 10^5 (OEIS A001262).
STRONG_PSEUDOPRIMES_BASE_2 = (
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281,
    74665, 80581, 85489, 88357, 90751,
)

#: The strong Lucas pseudoprimes (Selfridge parameters) below 2 * 10^5
#: (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027,
    162133, 176399, 176471, 189419, 192509, 197801,
)


def sieve_primes(limit: int) -> List[int]:
    """The primes below ``limit`` by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(limit - 1) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, limit, q)))
    return [n for n in range(limit) if flags[n]]


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is undefined here")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factorial_valuation(m: int, p: int) -> int:
    """v_p(m!) by Legendre's formula."""
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def exact_ratio(a: int, b: int) -> Fraction:
    return Fraction(a, b)
