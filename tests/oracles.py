"""Independent oracles used by the test suite.

Everything in this module is deliberately written with *different*
mathematics or brute force than the library under test:

* Lucas values come from exact quadratic-integer powering, not the
  three-term recurrence.
* Graded dimensions come from Moebius inversion of those Lucas values,
  where the library solves the divisor sum level by level with a sieve,
  and are cross-checked through the product formula for the generating
  function.
* Bound tables, row by row, come from the defining formulas, with graded
  dimensions inverted from those quadratic-integer Lucas values.
* Shuffle tables come from brute-force interleaving enumeration.
* p-adic root counts come from an exhaustive search modulo p^6 with a
  Hensel-liftability filter (vectorized with numpy).
* Elliptic-curve group orders come from counting affine solutions, and
  the endpoints of the Weil interval, which the library powers by
  squaring, from one multiplication per unit of the genus.
* Two-sided-search outcomes come from directly tabulating both level
  sequences and walking the alternation schedule by hand.
* Primality is checked against published lists of the composites that
  fool each half of the test.
* The enlarged prime set T0, which the CLI forms from primes(#J(F_p)) and
  p without factoring N, is checked against the primes of N itself found
  by trial division.
* The one-walk canonical emitter is checked against ``json.dumps`` with
  sorted keys and a two-space indent, applied to the document made
  canonical by two separate walks (a bit-length refusal pass, then a
  conversion pass), and ``canonicalize`` against that document.
* Every series operation (sum, scalar and integer multiples,
  antiderivative, the antiderivative of a product, p-rescale, Taylor shift
  and its linear coefficient, evaluation at an integer, product, weighted
  sum), which runs on the stored coefficient integers, is checked against a
  loop that chains one ``PadicNumber`` operation per term, so that every
  intermediate result is rounded by the scalar arithmetic.  A series read
  from integers, which never builds a ``PadicNumber`` per coefficient, is
  checked against the stored form of one built from
  ``PadicNumber.from_int``.  The rationals 1/(i + 1) of the antiderivative
  enter that loop through a ``pow`` inverse written here, not through the
  library.
* The min-plus convolution that gives a product its precisions, which
  packs valuations into one long multiply, is checked against a double
  loop over every pair of entries, and the Kronecker product of the
  coefficient integers against the schoolbook product of the generating
  function oracle.
* The Strassmann count of roots of valuation >= 1 is checked against the
  lower convex hull of the Newton polygon, with the hull's own stricter
  refusal rule, and against the hull's count on every brute-force
  completion of the ``O(p^k)`` coefficients in scope.  The vertex (I, m)
  and every refusal of the scan, which takes only the valuations that can
  reach the vertex, are checked against a scan that takes them all.
* A series' refusal of a Weierstrass bound, whose check takes only the
  valuations it needs, is checked against the rule that takes every
  valuation in scope and beyond.
* The residue-class walk of zero isolation is checked against a plain
  recursion, one call per depth level, in place of the explicit stack,
  that shifts every residue class.  The walk reads Newton's test off the
  class series it counted; the recursion evaluates f and f' at the full
  center of the class, one ``PadicNumber`` operation per term.
* A class the walk skips without a shift (its residue filter works mod p)
  is checked to be rootless by ultrametric dominance of the constant term
  of the class series, rebuilt one ``PadicNumber`` operation at a time.
* The command line that ``cli.main`` reads straight from the command table
  is checked against the Namespace of the argparse parser built from the
  same table, which parses every line that fast reading declines.
"""

from __future__ import annotations

import enum
import io
import itertools
import json
import math
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from nadescent import cli
from nadescent.errors import (
    DigitLimitError,
    DomainError,
    InvariantError,
    RootCountPrecisionError,
)
from nadescent.padic_series import (
    DEFAULT_PRECISION,
    IsolationFailure,
    PadicNumber,
    PadicSeries,
    SeparationStatus,
    ZeroDisk,
    newton_polygon,
)


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
) -> Tuple[List[Tuple[int, int, int]], Optional[int]]:
    """Walk the two bound columns directly from their defining formulas.

    Returns the rows (n, UB(n), LB(n)) from n = 2 through the halting level,
    or through n_cap when there is none, and the level or None.  mode is
    'faithful' (halve the odd-degree graded piece, exactly) or 'verbatim'
    (halve the even-degree piece, rounding up).
    """
    rows = []
    ub = rank
    lb = g
    for n in range(2, n_cap + 1):
        rows.append((n, ub, lb))
        if ub < lb:
            return rows, n
        if n == n_cap:
            break
        rn = graded_dim_by_inversion(g, n)
        if mode == "faithful":
            minus = rn // 2 if n % 2 == 1 else rn
            assert n % 2 == 0 or rn % 2 == 0
        else:
            minus = (rn + 1) // 2 if n % 2 == 0 else rn
        bad = n * g ** n + n * (n - 1) // 2 * (2 * g - 2) ** 2 * g ** (n - 2)
        good = n * g ** n
        ub = ub + minus + s * bad + good
        lb = lb + max(0, rn - g ** n)
    return rows, None


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


def weil_endpoint_by_products(p: int, g: int, sign: int) -> Tuple[int, int]:
    """(a, b) with (sqrt(p) + sign)^(2g) = a + b sqrt(p), by g successive
    multiplications by p + 1 + 2 sign sqrt(p)."""
    a, b = 1, 0
    for _ in range(g):
        a, b = a * (p + 1) + b * 2 * sign * p, a * 2 * sign + b * (p + 1)
    return a, b


def in_weil_interval_by_endpoints(p: int, g: int, count: int) -> bool:
    """True when (sqrt(p) - 1)^(2g) < count < (sqrt(p) + 1)^(2g), each
    endpoint x + y sqrt(p) from :func:`weil_endpoint_by_products` compared
    with count on its own, by sign and then by squares.  For g >= 1 neither
    y is 0 and sqrt(p) is irrational, so no count is an endpoint."""
    (x0, y0), (x1, y1) = (weil_endpoint_by_products(p, g, s) for s in (-1, 1))
    above = count >= x0 or (count - x0) ** 2 < y0 * y0 * p
    below = count <= x1 or (count - x1) ** 2 < y1 * y1 * p
    return above and below


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
# Series kernels as PadicNumber loops
# ---------------------------------------------------------------------------


def series_add_by_objects(f, g):
    """Coefficients of f + g: one + per pair of terms."""
    return [a + b for a, b in zip(f.coeffs, g.coeffs)]


def scale_by_objects(f, c: PadicNumber):
    """Coefficients of c f: one * per term."""
    return [x * c for x in f.coeffs]


def scale_int_by_objects(f, k: int):
    """Coefficients of k f: one scale_int per term."""
    return [x.scale_int(k) for x in f.coeffs]


def derivative_by_objects(f):
    """Coefficients of f': c_i.scale_int(i) for i >= 1."""
    if len(f.coeffs) == 1:
        return [PadicNumber.zero(f.p)]
    return [c.scale_int(i) for i, c in enumerate(f.coeffs) if i]


def antiderivative_by_objects(f):
    """Coefficients of the antiderivative of the series f, or of the series
    whose coefficients are the PadicNumbers f: c_i times the number
    1/(i + 1), carried to at least c_i's own relative precision."""
    coeffs = list(getattr(f, "coeffs", f))
    p = coeffs[0].p
    out = [PadicNumber.zero(p)]
    for i, c in enumerate(coeffs):
        inverse = padic_from_fraction(p, Fraction(1, i + 1), max(c.prec, 1))
        out.append(c * inverse)
    return out


def rescale_p_by_objects(f):
    """Coefficients of f(p z): c_i.scale_int(p^i)."""
    return [c.scale_int(f.p**i) for i, c in enumerate(f.coeffs)]


def shift_center_by_objects(f, c: int):
    """Coefficients of f(c + z): one scale_int and one + per term."""
    if c == 0:
        return list(f.coeffs)
    coeffs = f.coeffs
    n = len(coeffs)
    out = []
    for j in range(n):
        acc = PadicNumber.zero(f.p)
        for m in range(j, n):
            acc = acc + coeffs[m].scale_int(math.comb(m, j) * c ** (m - j))
        out.append(acc)
    return out


def evaluate_by_objects(f, x: int):
    """f(x) at an integer x by Horner's scheme on PadicNumbers."""
    acc = PadicNumber.zero(f.p)
    for c in reversed(f.coeffs):
        acc = acc.scale_int(x) + c
    return acc


def agrees_with_by_objects(f, g) -> bool:
    """True when every shared coefficient agrees: one
    ``PadicNumber.agrees_with`` per pair."""
    return all(a.agrees_with(b) for a, b in zip(f.coeffs, g.coeffs))


def weighted_sum_by_objects(p: int, n: int, terms):
    """Coefficients of the sum of c f over the pairs (c, f): one * and one +
    per coefficient of each term."""
    out = [PadicNumber.zero(p)] * n
    for c, f in terms:
        out = [acc + x * c for acc, x in zip(out, f.coeffs)]
    return out


def bound_refusal_by_valuations(f, bound: int) -> Optional[str]:
    """The message with which a series refuses the Weierstrass bound
    ``bound``, by the rule over every valuation: a unit form c_i with i >
    bound refutes it when v(c_i) is at most the least valuation floor at or
    below the bound (k for ``O(p^k)``, +inf for the exact zero).  None when
    no coefficient refutes it."""
    vals = [
        f.base + valuation_by_bisection(x, f.p) if x else a
        for x, a in zip(f.ints, f.abss)
    ]
    floor = min(vals[: bound + 1])
    for i in range(bound + 1, len(vals)):
        if f.ints[i] and vals[i] <= floor:
            return (
                f"weierstrass bound {bound} is refuted by coefficient {i} "
                f"of valuation {vals[i]}, which no coefficient at or "
                f"below the bound is known to exceed"
            )
    return None


def series_parts_by_numbers(p: int, coeffs) -> Tuple[int, list, list, list]:
    """(base, ints, abss, valuation floors) of the series of the
    PadicNumbers ``coeffs``, read off each number: base the least valuation
    of a unit form, a unit form stored as unit * p^(val - base)."""
    base = min((c.val for c in coeffs if c.unit is not None), default=0)
    ints = [0 if c.unit is None else c.unit * p ** (c.val - base) for c in coeffs]
    abss = [math.inf if c.is_exact_zero() else c.abs_prec() for c in coeffs]
    vals = [math.inf if c.is_exact_zero() else c.val for c in coeffs]
    return base, ints, abss, vals


def series_mul_by_objects(f, g):
    """Coefficients of f g: one * and one + per pair of terms."""
    fc, gc = f.coeffs, g.coeffs
    out = []
    for d in range(min(len(fc), len(gc))):
        acc = PadicNumber.zero(f.p)
        for i in range(d + 1):
            acc = acc + fc[i] * gc[d - i]
        out.append(acc)
    return out


def min_plus_by_pairs(xs: Sequence, ys: Sequence) -> list:
    """Entry d is the least xs[i] + ys[j] over i + j = d, for d below the
    common length, by a double loop over the pairs (+inf for none)."""
    out = [math.inf] * len(xs)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys[: len(xs) - i]):
            out[i + j] = min(out[i + j], x + y)
    return out


# ---------------------------------------------------------------------------
# Root counts by the lower convex hull, and completions of O(p^k)
# ---------------------------------------------------------------------------


def _lower_hull(points: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    hull: List[Tuple[int, int]] = []
    for q in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (q[0] - x1) >= (q[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


def _hull_above(hull: List[Tuple[int, int]], i: int, k: int) -> bool:
    """True when the hull at abscissa i, strictly inside its range, lies
    strictly above level k."""
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= i <= x2:
            # k < y1 + (y2 - y1) (i - x1) / (x2 - x1), cross-multiplied
            return k * (x2 - x1) < y1 * (x2 - x1) + (y2 - y1) * (i - x1)
    raise AssertionError("abscissa outside hull range")


def root_count_by_hull(f) -> int:
    """Roots of valuation >= 1 of f, read off the Newton polygon over the
    indices i <= weierstrass_bound: the lower convex hull of the points
    (i, v(c_i)) of the unit-form coefficients.  The count is the index of
    the first point (one root per leading zero) plus the length of every
    edge of slope <= -1.

    Refuses (RootCountPrecisionError) when no coefficient in scope has unit
    form, and wherever an ``O(p^k)`` could move any part of the hull: left
    of the first point, below the line of slope -1 through it; strictly
    below an edge; or right of the last point, on or below the line of
    slope -1 through the vertex of largest v + i.
    """
    scope = f.coeffs[: f.weierstrass_bound + 1]
    points = [(i, c.val) for i, c in enumerate(scope) if c.unit is not None]
    unknowns = [  # the O(p^k): no unit form, but not the exact zero
        (i, c.val) for i, c in enumerate(scope) if c.unit is None and c.val is not None
    ]
    if not points:
        raise RootCountPrecisionError("no unit-form coefficient in scope")
    hull = _lower_hull(points)
    (i_min, v_min), i_max = hull[0], hull[-1][0]
    peak = max(v + i for i, v in hull)
    for i, k in unknowns:
        if (
            i < i_min and k < v_min + (i_min - i)
            or i_min < i < i_max and _hull_above(hull, i, k)
            or i > i_max and k <= peak - i
        ):
            raise RootCountPrecisionError(f"O(p^{k}) at {i} could move the hull")
    count = i_min
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if y1 - y2 >= x2 - x1:  # slope <= -1, as x2 > x1
            count += x2 - x1
    return count


def strassmann_vertex_by_valuations(f) -> Tuple[int, int]:
    """The vertex (I, m) of ``newton_polygon`` by taking the valuation of
    every nonzero coefficient integer in scope: m the least v(c_i) + i, I the
    largest i attaining it.  Refuses, with the library's messages, when no
    c_i in scope is known nonzero, and when an ``O(p^k)`` at i has k + i < m,
    or k + i = m with i > I."""
    scope = range(f.weierstrass_bound + 1)
    top, m = None, math.inf
    for i in scope:
        if f.ints[i]:
            h = i + valuation_by_bisection(f.ints[i], f.p)
            if h <= m:
                top, m = i, h
    if top is None:
        raise RootCountPrecisionError("no coefficient in scope is known nonzero")
    m += f.base
    for i in scope:
        k = f.abss[i]
        if not f.ints[i] and (k + i < m or k + i == m and i > top):
            raise RootCountPrecisionError(
                f"coefficient {i} known only to O(p^{k}) could change the count"
            )
    return top, m


def completions(f, extra: int = 3):
    """Every fully known series f may stand for, up to valuation k + extra:
    each ``O(p^k)`` at or below the Weierstrass bound becomes the exact zero
    or u p^j for j = k .. k + extra and u among 1, 2 and p - 1.  A
    completion whose own coefficients refute the bound is not a function
    the bound allows, and is left out."""
    p, bound = f.p, f.weierstrass_bound
    units = sorted({u for u in (1, 2, p - 1) if u % p})
    choices = []
    for i, c in enumerate(f.coeffs):
        if i <= bound and c.unit is None and c.val is not None:  # an O(p^k)
            choices.append([PadicNumber.zero(p)] + [
                PadicNumber(p, j, u, 1)
                for j in range(c.val, c.val + extra + 1)
                for u in units
            ])
        else:
            choices.append([c])
    for coeffs in itertools.product(*choices):
        try:
            yield PadicSeries(p, coeffs, bound)
        except DomainError:
            continue


# ---------------------------------------------------------------------------
# Zero isolation by recursion
# ---------------------------------------------------------------------------


def newton_certified_by_evaluation(f):
    """The test v(f(c)) > 2 v(f'(c)) at an integer center c, f(c) and f'(c)
    evaluated at c by :func:`evaluate_by_objects`, with f' from
    :func:`derivative_by_objects`; False when f'(c) is not known to be
    nonzero.  ``PadicSeries.evaluate`` reads the Taylor shift, the code the
    walk is checked against here, so it is not used."""
    f_deriv = PadicSeries(f.p, derivative_by_objects(f))

    def certified(center: int) -> bool:
        b = evaluate_by_objects(f_deriv, center)
        if b.unit is None:
            return False
        a = evaluate_by_objects(f, center)
        if a.is_exact_zero():
            return True
        return a.val > 2 * b.val

    return certified


def isolate_classes_by_recursion(f, chart_id: str, depth_cap: int):
    """(disks, failures) of the residue-class walk, one recursive call per
    depth level: each class c is shifted to the origin and counted, then
    dropped, emitted, refused at the cap, or rescaled and walked.  A class
    counting 1 is certified by evaluating f and f' at its full center, f'
    built one ``PadicNumber`` operation per term, not from the class series."""
    p = f.p
    disks: List[ZeroDisk] = []
    failures: List[IsolationFailure] = []
    newton_certified = newton_certified_by_evaluation(f)

    def walk(digits: Tuple[int, ...], center: int, series) -> None:
        for c in range(p):
            shifted = series.shift_center(c)
            child = digits + (c,)
            child_center = center + c * p ** len(digits)
            depth = len(child)
            try:
                count = newton_polygon(shifted)[0]
            except RootCountPrecisionError:
                failures.append(
                    IsolationFailure(
                        chart_id, child, depth,
                        SeparationStatus.PRECISION_EXHAUSTED, None,
                    )
                )
                continue
            if count == 0:
                continue
            if count == 1 and newton_certified(child_center):
                disks.append(ZeroDisk(chart_id, child, depth, 1, False))
                continue
            if depth >= depth_cap:
                reason = (
                    SeparationStatus.MULTIPLE_ROOT_SUSPECTED
                    if count >= 2
                    else SeparationStatus.PRECISION_EXHAUSTED
                )
                failures.append(
                    IsolationFailure(chart_id, child, depth, reason, count)
                )
                continue
            walk(child, child_center, shifted.rescale_p())

    walk((), 0, f)
    return disks, failures


def class_has_no_root_by_objects(f, digits: Sequence[int]) -> bool:
    """True when the class series of ``digits`` (the shift to the last
    digit after a shift and p-rescale per earlier digit) has a unit-form
    constant term of valuation v0 that dominates: every coefficient j >= 1
    has valuation floor + j > v0, so no point of valuation >= 1 is a zero."""
    series = f
    for depth, c in enumerate(digits):
        if depth:
            series = PadicSeries(f.p, rescale_p_by_objects(series))
        series = PadicSeries(f.p, shift_center_by_objects(series, c))
    head, *rest = series.coeffs
    if head.unit is None:
        return False
    return all(
        c.is_exact_zero() or c.val + j > head.val for j, c in enumerate(rest, 1)
    )


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


def valuation_by_bisection(n: int, p: int) -> int:
    """The largest v with p^v dividing n != 0: the exponent is doubled until
    p^v no longer divides n, then bisected, so a valuation near 10^4 costs
    about 30 remainders instead of 10^4 divisions."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined here")
    lo, hi = 0, 1  # p^lo divides n; p^hi is yet to be tested
    while n % p**hi == 0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # p^lo divides n, p^hi does not
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if n % p**mid == 0 else (lo, mid)
    return lo


def padic_from_fraction(
    p: int, value: Union[int, Fraction], prec: int = DEFAULT_PRECISION
) -> PadicNumber:
    """The rational ``value`` as a PadicNumber of relative precision prec,
    its unit part inverted with ``pow``."""
    frac = Fraction(value)
    if frac == 0:
        return PadicNumber.zero(p)
    num, den = frac.numerator, frac.denominator
    vn, vd = int_valuation(num, p), int_valuation(den, p)
    mod = p**prec
    unit = num // p**vn * pow(den // p**vd, -1, mod) % mod
    return PadicNumber(p, vn - vd, unit, prec)


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


# ---------------------------------------------------------------------------
# T0 by trial division, canonical text by the json module
# ---------------------------------------------------------------------------


def enlarged_primes_by_trial_division(
    s_primes: Sequence[int], p: int, g: int, m: int, count_fp: int
) -> List[int]:
    """S union the primes of N = count_fp * p^(g (M - 1)), found by trial
    division of N itself."""
    n = count_fp * p ** (g * (m - 1))
    primes = set(s_primes)
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.add(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.add(n)
    return sorted(primes)


def canonical_text_by_json(canonical) -> str:
    """The canonical text of an already canonicalized value."""
    return json.dumps(canonical, sort_keys=True, indent=2) + "\n"


def canonicalize_by_walk(obj):
    """The canonical value of a document by two walks: first every int's bit
    length against the int/str digit limit, then the conversion (ints to
    decimal strings, enums to their values, dataclasses to the dicts of
    their fields, tuples to lists, sets to sorted lists of their converted
    elements)."""
    limit = sys.get_int_max_str_digits()
    min_bits = -(-limit * 10**8 // 30102999) + 1 if limit else math.inf
    _refuse_long_ints_by_walk(obj, min_bits)
    return _convert_by_walk(obj)


def _digit_limit_by_walk() -> DigitLimitError:
    return DigitLimitError(
        "an output integer has more decimal digits than this "
        f"interpreter's int/str limit of {sys.get_int_max_str_digits()}; "
        "raise PYTHONINTMAXSTRDIGITS (0 lifts it) to print it"
    )


def _fields_by_walk(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    return None


def _refuse_long_ints_by_walk(obj, min_bits) -> None:
    if isinstance(obj, enum.Enum):
        _refuse_long_ints_by_walk(obj.value, min_bits)
    elif isinstance(obj, int):
        if obj.bit_length() >= min_bits:
            raise _digit_limit_by_walk()
    elif isinstance(obj, dict):
        for v in obj.values():
            _refuse_long_ints_by_walk(v, min_bits)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            _refuse_long_ints_by_walk(v, min_bits)
    elif (record := _fields_by_walk(obj)) is not None:
        _refuse_long_ints_by_walk(record, min_bits)


def _convert_by_walk(obj):
    if isinstance(obj, enum.Enum):
        return _convert_by_walk(obj.value)
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError:
            raise _digit_limit_by_walk() from None
    if isinstance(obj, float):
        raise InvariantError(
            f"float {obj!r} reached the serializer; all arithmetic here is exact"
        )
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise InvariantError(f"non-string key {k!r} reached the serializer")
            out[k] = _convert_by_walk(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [_convert_by_walk(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_convert_by_walk(v) for v in obj)
    record = _fields_by_walk(obj)
    if record is not None:
        return _convert_by_walk(record)
    raise InvariantError(f"unserializable value {obj!r}")


def parse_by_argparse(argv: List[str]) -> Optional[dict]:
    """``vars()`` of the Namespace that the argparse parser built from
    ``cli.COMMANDS`` gives for ``argv``; None when argparse exits instead
    (help, or a usage error)."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None
