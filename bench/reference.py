"""Exact arithmetic the benchmark uses to make inputs and to check outputs.

Nothing here imports ``nadescent``: every value the checks compare against
is computed by a different route than the program takes.

* Primes are proved by trial division; Miller-Rabin is used only to pick
  primes while making inputs.
* Lucas values come from powering g + sqrt(g^2 - 1) in Z[sqrt(g^2 - 1)],
  graded dimensions from Moebius inversion over a trial factorization.
* Iterated integrals are exact: coefficient m of a_w is held as the integer
  m! * a_w[m], so no fraction is ever reduced.
* Shuffles come from a plain recursive interleaving.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Word = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------


def is_prime_trial(n: int) -> bool:
    """Primality proved by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2e9."""
    if n >= 3_215_031_751:
        raise ValueError(f"{n} is outside the deterministic range")
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
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


def random_prime(rng, lo: int, hi: int) -> int:
    """The first prime at or after a random start in [lo, hi], wrapping round
    to lo; the range must hold a prime."""
    n = rng.randint(lo, hi)
    while not is_prime_mr(n):
        n = lo if n >= hi else n + 1
    return n


def v_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divides_to(n: int, p: int, k: int) -> bool:
    """True when p^k divides n (always true for k <= 0)."""
    return k <= 0 or n % p**k == 0


def mobius(n: int) -> int:
    out, m, q = 1, n, 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            out = -out
        q += 1
    return -out if m > 1 else out


def weil_interval(p: int, g: int) -> Tuple[int, int]:
    """The integers in [(sqrt(p) - 1)^(2g), (sqrt(p) + 1)^(2g)].

    (sqrt(p) + 1)^(2g) = a + b sqrt(p) with integers a, b > 0, and the lower
    end is a - b sqrt(p); floor(b sqrt(p)) = isqrt(b^2 p) gives both ends.
    """
    a, b = 1, 0
    for _ in range(2 * g):
        a, b = a + b * p, a + b
    reach = math.isqrt(b * b * p)
    return a - reach, a + reach


# ---------------------------------------------------------------------------
# Graded dimensions and the bound walk
# ---------------------------------------------------------------------------


def graded_dims(g: int, n_max: int) -> List[int]:
    """[r_1, ..., r_n_max] from L_n = trace of (g + sqrt(g^2 - 1))^n and
    n r_n = sum over d | n of mu(n/d) L_d."""
    d2 = g * g - 1
    lucas = [2]
    a, b = 1, 0
    for _ in range(n_max):
        a, b = a * g + b * d2, a + b * g
        lucas.append(2 * a)
    out = []
    for n in range(1, n_max + 1):
        total = sum(mobius(n // d) * lucas[d] for d in range(1, n + 1) if n % d == 0)
        if total % n:
            raise ArithmeticError(f"Moebius sum for degree {n} (g={g}) is not divisible")
        out.append(total // n)
    return out


def bound_rows(
    g: int, bad_count: int, rank: int, mode: str, n_cap: int, r: Sequence[int]
) -> Tuple[List[Tuple[int, int, int]], Optional[int]]:
    """Rows (n, UB(n), LB(n)) from n = 2 up to the halting level (or n_cap)
    and the halting level, walked one level at a time.

    UB(2) = rank, LB(2) = g; consuming degree n adds to UB the minus part of
    r_n, n g^n for the good prime and, per bad prime, n g^n plus
    C(n, 2) (2g - 2)^2 g^(n - 2); it adds max(0, r_n - g^n) to LB.
    """
    ub, lb, n = rank, g, 2
    rows = [(2, ub, lb)]
    while ub >= lb and n < n_cap:
        rn = r[n - 1]
        if mode == "faithful":
            minus = rn // 2 if n % 2 else rn
        else:
            minus = (rn + 1) // 2 if n % 2 == 0 else rn
        good = n * g**n
        bad = good + math.comb(n, 2) * (2 * g - 2) ** 2 * g ** (n - 2)
        ub += minus + bad_count * bad + good
        lb += max(0, rn - g**n)
        n += 1
        rows.append((n, ub, lb))
    return rows, (n if ub < lb else None)


# ---------------------------------------------------------------------------
# Shuffles and exact iterated integrals
# ---------------------------------------------------------------------------


def shuffles(u: Word, v: Word) -> Dict[Word, int]:
    """Every riffle shuffle of u and v, with the number of riffles giving it."""
    if not u or not v:
        return {u + v: 1}
    out: Dict[Word, int] = {}
    for w, m in shuffles(u[1:], v).items():
        out[(u[0],) + w] = out.get((u[0],) + w, 0) + m
    for w, m in shuffles(u, v[1:]).items():
        out[(v[0],) + w] = out.get((v[0],) + w, 0) + m
    return out


def shuffle_expand(
    left: Sequence[Tuple[Word, int]], right: Sequence[Tuple[Word, int]]
) -> List[Tuple[Word, int]]:
    """The product of two observables as one linear combination of words,
    sorted by word, zero coefficients dropped."""
    acc: Dict[Word, int] = {}
    for u, cu in left:
        for v, cv in right:
            for w, m in shuffles(tuple(u), tuple(v)).items():
                acc[w] = acc.get(w, 0) + cu * cv * m
    return sorted((w, c) for w, c in acc.items() if c)


class ExactIntegrals:
    """a_w for one form system, held as the integers A_w[m] = m! a_w[m].

    a_() = 1 and a_(i, w') = integral of f_i a_w' from 0, so
    A_w[m] = sum over j + k = m - 1 of f_i[j] (m - 1)! / k! A_w'[k].
    """

    def __init__(self, forms: Sequence[Sequence[int]], trunc: int):
        self.forms = [list(f) for f in forms]
        self.trunc = trunc
        self.memo: Dict[Word, List[int]] = {(): [1] + [0] * trunc}

    def scaled(self, word: Word) -> List[int]:
        got = self.memo.get(word)
        if got is not None:
            return got
        tail = self.scaled(word[1:])
        f = self.forms[word[0] - 1]
        out = [0] * (self.trunc + 1)
        for m in range(1, self.trunc + 1):
            total, falling = 0, 1
            for j in range(m):
                if j:
                    falling *= m - j
                k = m - 1 - j
                if f[j] and tail[k]:
                    total += f[j] * falling * tail[k]
            out[m] = total
        self.memo[word] = out
        return out

    def observable(self, terms: Sequence[Tuple[Word, int]]) -> List[int]:
        """m! times coefficient m of sum c_w a_w, for m = 0..trunc."""
        out = [0] * (self.trunc + 1)
        for word, c in terms:
            for m, x in enumerate(self.scaled(tuple(word))):
                out[m] += c * x
        return out


def scaled_product(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """m! (x y)_m from the scaled sequences m! x_m and m! y_m:
    the binomial convolution sum C(m, i) a_i b_(m - i)."""
    return [
        sum(math.comb(m, i) * a[i] * b[m - i] for i in range(m + 1))
        for m in range(len(a))
    ]


# ---------------------------------------------------------------------------
# The two-sided search schedule
# ---------------------------------------------------------------------------


def search_schedule(n_cap: int, m_cap: int) -> Iterator[Tuple[int, int]]:
    """Level pairs (n, m) in the order the search reads them: (0, 0), then
    single advances alternating lower, upper, ..., a capped side skipped."""
    n = m = 0
    yield n, m
    lower_next = True
    while n < n_cap or m < m_cap:
        if (lower_next and n < n_cap) or m >= m_cap:
            n += 1
            lower_next = False
        else:
            m += 1
            lower_next = True
        yield n, m
