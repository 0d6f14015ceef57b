"""Capped-precision p-adic arithmetic, Strassmann root counts, and zero
isolation.

The central objects are :class:`PadicNumber` (a p-adic number tracked to a
finite number of significant digits) and :class:`PadicSeries` (a truncated
power series with such coefficients).  On top of them sit the Strassmann
root counts and the residue-disk subdivision that isolates the zeros of a
series on Z_p to some finite depth M -- the separation modulus consumed
downstream.

Precision model
---------------
A PadicNumber is in one of three states:

* exact zero;
* ``O(p^k)`` -- all that is known is that the valuation is >= k ("zero to
  precision k"); the tail is unknown;
* unit form ``u * p^v`` with p coprime to u, known modulo p^(v + prec) for a
  relative precision prec >= 1.

A PadicSeries stores coefficient i as ``ints[i] * p^base`` known modulo
``p^abss[i]``, with ``0 <= ints[i] < p^(abss[i] - base)``: ``O(p^k)`` is 0
with precision k, the exact zero 0 with precision +inf.

Arithmetic never invents digits: each output is known to the least
precision among the terms that feed it (the capped-absolute model of
Caruso, Roe & Vaccon, 2014); cancellation degrades a sum to ``O(p^k)``
rather than guessing its valuation.  Every consumer of a root count either
receives a certified answer or an explicit precision error.  Each rule
below has its argument here; the functions that implement it point back.

Write rel = abs - v for a coefficient's relative precision (0 for
``O(p^k)``), and let f's ceiling be an upper bound on the rel of its
coefficients that are not exact zeros (*Ceilings* below).

*Sums.*  In c f, for a scalar c, coefficient i is known to v(c) +
min(abs(f_i), v(f_i) + prec c); a sum of such terms, to the least over
them.  Every linear combination is this one rule, in :func:`weighted_sum`:
``f + g`` is 1 f + 1 g cut to the shorter operand, ``scale_int(k)`` is
k f, and ``agrees_with`` asks whether f + (-1) g stores any digit.  A unit
scalar c known to at least f's ceiling spends nothing: rel f_i <= prec c
makes the minimum abs(f_i), so no valuation of f is taken, and a scalar c'
that agrees with c to prec c digits changes c f_i only by a multiple of
p^(v(c) + prec c + v(f_i)), which the known modulus p^(v(c) + abs(f_i))
divides.  So an exact integer k = u p^t, carried as u p^t to f's ceiling
(at least 1 digit), gives exactly k f.

*Products.*  A term a_i b_j with neither factor an exact zero is known to
v(a_i) + v(b_j) + min(rel a_i, rel b_j), that is to the lesser of
abs(a_i) + v(b_j) and v(a_i) + abs(b_j); product coefficient d, to the
least such value over i + j = d.  When b's ceiling is at most the least
rel r of a's coefficients that are not exact zeros, rel b_j <= r <=
rel a_i, so the term is known to v(a_i) + abs(b_j) and no valuation of b is
taken.  The least over each i + j = d of x_i + y_j comes for every d at
once from one long multiply (a tropical Kronecker substitution).  With lx
and ly the least finite entries, entry i of each operand becomes a 1 in
slot x_i - lx of block i, a block holding the S = (max xs - lx) +
(max ys - ly) + 1 slots that a sum can reach, each w = ceil(bitlen(n) / 8)
bytes wide; a +inf entry leaves its block zero.  Block d of the product
counts the pairs of each sum i + j = d, at most n per slot, so no slot
carries into the next, and its first nonzero slot gives the least sum (an
all-zero block gives +inf).

*Substitution.*  Coefficient j of f(c + z) is the sum over m >= j of
C(m, j) c^(m-j) c_m, known to the least abs(c_m) + v_p(C(m, j)) +
(m - j) v_p(c) over the live c_m.  Row 0, with C(m, 0) = 1, is f(c) known
to the least abs(c_m) + m v_p(c): evaluation is the shift's constant
coefficient.

*Ceilings.*  No operation raises a relative precision above its inputs',
so every series carries a ceiling:

* built from its coefficients: the largest such rel, or 0 when there is
  none;
* a truncation, a nonzero integer multiple, an antiderivative, a shift or
  a rescale: the operand's ceiling; a multiple by 0: 0;
* a sum: the larger of the two ceilings; a product: the smaller;
* a weighted sum: the largest over its terms c f of min(ceiling of f,
  prec c), an ``O(p^k)`` scalar counting as 0.

The rules are sound because every coefficient is a sum of terms.  Its
stored valuation is at least the least valuation among the unit terms, and
its absolute precision is at most that term's, so its rel is at most that
term's rel: min(rel a_i, rel b_j) for a product term, min(rel f_i, prec c)
for c f_i, and rel c_m for an exact integer multiple of c_m.

Zero walk
---------
Zeros on Z_p are isolated by walking residue classes, each shifted to the
origin and counted by Strassmann's theorem.  A class on which p^-v f (v the
least valuation at or below the Weierstrass bound) reduces mod p to a
nonzero constant holds no zero and is dropped without a shift.  A class
counting one root is certified by Newton's test, v(f(c)) > 2 v(f'(c)) at its
center c, with f(c) and f'(c) read from the class series it was counted on.

Weierstrass bound
-----------------
A truncated series cannot know, by itself, that its visible coefficients
determine its zeros on the closed unit disk.  That analytic fact must be
supplied by the caller as ``weierstrass_bound`` (d*): all zeros of the
represented function with valuation >= 0 are governed by coefficient indices
i <= d*.  For an honest polynomial, d* is its degree.  The Strassmann count
refuses to run without it, and a series refuses a bound its visible
coefficients refute: a unit-form c_i with i > d* whose valuation is at most
every certified valuation floor at or below d*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence, Union

from .arith import v_p
from .errors import (
    DomainError,
    IsolationError,
    MultipleRootSuspectedError,
    PrecisionExhaustedError,
    PrimeMismatchError,
    RootCountPrecisionError,
    check_int,
)

#: Relative precision used when a caller supplies plain integers and does
#: not say how many digits to carry.
DEFAULT_PRECISION = 20

#: Default deepest residue class the zero walk refines to.
DEFAULT_DEPTH_CAP = 12


class PadicNumber:
    """A p-adic number known to finite precision.  Immutable.

    ``PadicNumber(p, val, unit, prec)`` is the unit form ``unit * p^val``
    known modulo ``p^(val + prec)``; the classmethods (:meth:`from_int`,
    :meth:`zero`, :meth:`zero_to`) build the rest.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: Optional[int], unit: Optional[int], prec: int):
        check_int(p, "p", 2)
        if unit is None:
            if prec != 0:
                raise DomainError("zero states carry no relative precision")
            if val is not None and not isinstance(val, int):
                raise DomainError(f"valuation bound must be an integer, got {val!r}")
        else:
            check_int(prec, "relative precision", 1)
            if not isinstance(val, int):
                raise DomainError(f"valuation must be an integer, got {val!r}")
            unit %= p**prec
            if unit == 0 or unit % p == 0:
                raise DomainError(f"unit part {unit} is not coprime to {p}")
        for name, value in zip(self.__slots__, (p, val, unit, prec)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PadicNumber is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PadicNumber":
        """The exact zero."""
        return cls(p, None, None, 0)

    @classmethod
    def zero_to(cls, p: int, k: int) -> "PadicNumber":
        """O(p^k): indistinguishable from zero below precision k."""
        return cls(p, k, None, 0)

    @classmethod
    def from_int(cls, p: int, n: int, prec: int = DEFAULT_PRECISION) -> "PadicNumber":
        if n == 0:
            return cls.zero(p)
        v = v_p(n, p)
        return cls(p, v, n // p**v, prec)

    # -- state predicates --------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.unit is None and self.val is None

    def abs_prec(self) -> Optional[int]:
        """Absolute precision (exponent of the known modulus); None = exact."""
        return self.val if self.unit is None else self.val + self.prec

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        _require_same_prime(self, other)
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        p = self.p
        n_abs = min(self.abs_prec(), other.abs_prec())
        units = [x for x in (self, other) if x.unit is not None]
        if not units:
            return PadicNumber.zero_to(p, n_abs)
        base = min(x.val for x in units)
        total = sum(x.unit * p ** (x.val - base) for x in units)
        return _normalize(p, base, total, n_abs)

    def __neg__(self) -> "PadicNumber":
        if self.unit is None:
            return self
        return PadicNumber(self.p, self.val, -self.unit, self.prec)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["PadicNumber", int]) -> "PadicNumber":
        if isinstance(other, int):
            return self.scale_int(other)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        _require_same_prime(self, other)
        if self.is_exact_zero() or other.is_exact_zero():
            return PadicNumber.zero(self.p)
        if self.unit is None or other.unit is None:
            return PadicNumber.zero_to(self.p, self.val + other.val)
        prec = min(self.prec, other.prec)
        return PadicNumber(self.p, self.val + other.val, self.unit * other.unit, prec)

    __rmul__ = __mul__

    def scale_int(self, k: int) -> "PadicNumber":
        """Multiply by an exact integer (no precision is spent)."""
        if k == 0:
            return PadicNumber.zero(self.p)
        if self.is_exact_zero():
            return self
        t = v_p(k, self.p)
        if self.unit is None:
            return PadicNumber.zero_to(self.p, self.val + t)
        unit = self.unit * (k // self.p**t)
        return PadicNumber(self.p, self.val + t, unit, self.prec)

    # -- comparisons -------------------------------------------------------

    def agrees_with(self, other: "PadicNumber") -> bool:
        """True when the two values coincide to the joint tracked precision."""
        return (self - other).unit is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def __hash__(self) -> int:
        return hash((self.p, self.val, self.unit, self.prec))

    def __repr__(self) -> str:
        if self.is_exact_zero():
            return "0"
        if self.unit is None:
            return f"O({self.p}^{self.val})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.val + self.prec})"


#: Valuation and absolute precision of an exact zero.
_INF = math.inf


def _require_same_prime(a, b) -> None:
    """Refuse to combine numbers or series over different primes."""
    if a.p != b.p:
        raise PrimeMismatchError(f"operands live over p={a.p} and p={b.p}")


def _normalize(p: int, base: int, total: int, abs_prec) -> PadicNumber:
    """The number ``total * p^base`` known modulo ``p^abs_prec``.

    ``abs_prec`` is +inf for the exact zero; a total that vanishes at the
    known precision becomes ``O(p^abs_prec)``.  Every number built from a
    sum, and every series coefficient read out, goes through here, so a
    result has one canonical form however its terms were grouped.
    """
    if abs_prec == _INF:
        return PadicNumber.zero(p)
    if total % p == 0 and total:
        t = v_p(total, p)
        total //= p**t
        base += t
    if not total or base >= abs_prec:
        return PadicNumber.zero_to(p, abs_prec)
    return PadicNumber(p, base, total, abs_prec - base)


def _reduced(p: int, base: int, ints, abss) -> list:
    """Each ``ints[i]`` reduced modulo ``p^(abss[i] - base)``; 0 where no
    digit at or above ``p^base`` is known, and for the exact zero.  A
    precision equal to the one before reuses its modulus."""
    out, last, mod = [], None, 1
    for x, a in zip(ints, abss):
        if base < a < _INF:
            if a != last:
                last, mod = a, p ** (a - base)
            out.append(x % mod)
        else:
            out.append(0)
    return out


def _valuations(p: int, base: int, ints, abss) -> list:
    """Valuation floor of each stored coefficient: the valuation of a unit
    form, k for ``O(p^k)``, +inf for the exact zero."""
    return [
        base if x % p else base + v_p(x, p) if x else a for x, a in zip(ints, abss)
    ]


def _relative_precisions(vals, abss) -> tuple:
    """The least and the largest relative precision abs - v over the
    coefficients that are not exact zeros (0 for ``O(p^k)``); +inf and 0
    when there is none."""
    rels = [a - v for v, a in zip(vals, abss) if a < _INF]
    return min(rels, default=_INF), max(rels, default=0)


#: The widest block, in bytes, that :func:`_min_plus` packs.
_MAX_BLOCK_BYTES = 16


def _min_plus(xs, ys) -> list:
    """Entry d is the least xs[i] + ys[d - i], for d below the common length
    n, +inf when every such pair holds a +inf: by one long multiply of
    one-hot slots, the tropical Kronecker substitution whose argument is in
    the module docstring (*Products*).

    The multiply costs more than linearly in its n S w bytes, the direct
    loop, which takes the least of each antidiagonal, about n^2 / 2
    additions; so the direct loop runs when a block would hold more than
    n / 2 bytes or more than _MAX_BLOCK_BYTES, beyond which the multiply
    measured slower on CPython 3.11.  Valuations far apart, as in a series
    with a coefficient of valuation 30,000, take the direct loop, so no
    buffer of the span's size is ever built.
    """
    n = len(xs)
    fx, fy = set(xs), set(ys)
    fx.discard(_INF)
    fy.discard(_INF)
    if not fx or not fy:
        return [_INF] * n
    lx, ly = min(fx), min(fy)
    w = (n.bit_length() + 7) // 8
    block = (max(fx) - lx + max(fy) - ly + 1) * w
    if block > min(n // 2, _MAX_BLOCK_BYTES):
        rev = ys[::-1]
        return [min(map(add, xs, rev[n - 1 - d :])) for d in range(n)]
    size = n * block
    packed = []
    for zs, low in ((xs, lx), (ys, ly)):
        buf = bytearray(size)
        # entry z of block i sets byte i * block + (z - low) * w
        for at, z in zip(range(-low * w, size - low * w, block), zs):
            if z != _INF:
                buf[at + z * w] = 1
        packed.append(int.from_bytes(buf, "little"))
    product = packed[0] * packed[1]
    raw = product.to_bytes(max(size, (product.bit_length() + 7) // 8), "little")
    # lstrip leaves k bytes of a block whose first nonzero byte is at block - k
    least = [_INF] + [lx + ly + (block - k) // w for k in range(1, block + 1)]
    blocks = range(0, size, block)
    return [least[len(raw[at : at + block].lstrip(b"\0"))] for at in blocks]


def _kronecker_product(xs, ys) -> list:
    """The first n = len(xs) = len(ys) coefficients of the product of two
    polynomials with non-negative integer coefficients, by one long multiply.

    Coefficient d sums at most n products, so it is below the slot size
    2^(bitlen(max xs) + bitlen(max ys) + bitlen(n)) and no slot carries into
    the next (Kronecker substitution)."""
    n = len(xs)
    width = (max(xs).bit_length() + max(ys).bit_length() + n.bit_length() + 7) // 8
    size = width * n
    packed = [
        int.from_bytes(b"".join([z.to_bytes(width, "little") for z in zs]), "little")
        for zs in (xs, ys)
    ]
    low = (packed[0] * packed[1]) & ((1 << 8 * size) - 1)
    raw = low.to_bytes(size, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, size, width)]


@lru_cache(maxsize=256)
def _legendre(p: int, n: int) -> tuple[int, ...]:
    """Entry k is v_p(k) for 1 <= k <= n; entry 0 is 0."""
    out = [0] * (n + 1)
    q = p
    while q <= n:
        for k in range(q, n + 1, q):
            out[k] += 1
        q *= p
    return tuple(out)


@lru_cache(maxsize=256)
def _binomial_valuations(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds v_p(C(m, j)) for m = j..n-1, by Legendre's formula."""
    fact = list(accumulate(_legendre(p, n - 1)))  # fact[k] = v_p(k!)
    return tuple(
        tuple(fact[m] - fact[j] - fact[m - j] for m in range(j, n))
        for j in range(n)
    )


@lru_cache(maxsize=256)
def _antiderivative_table(p: int, n: int, e: int):
    """For the divisors k = u p^t, k = 1..n: the rows t, u^-1 mod p^e and
    p^(top - t), where top is the largest t."""
    ts = _legendre(p, n)[1:]
    top, mod = max(ts), p**e
    inverses = tuple(pow(k // p**t, -1, mod) for k, t in enumerate(ts, 1))
    return ts, inverses, tuple(p ** (top - t) for t in ts), top


class PadicSeries:
    """A truncated power series sum c_i z^i, i = 0..trunc_degree, stored as
    the integers ``ints`` over ``base`` with precisions ``abss`` (see the
    module docstring).

    ``weierstrass_bound`` is the analytic guarantee described in the module
    docstring; it survives recentering (z -> c + z), the p-rescale
    (z -> p z) and scalar multiples, and is dropped by operations (sums,
    products, antiderivatives) whose zeros it says nothing about.

    The private slot ``_floors`` holds the valuation floor of every
    coefficient and the least relative precision among those that are not
    exact zeros (+inf when there is none), computed when the series is
    built from its coefficients and otherwise on first use: a series read
    by several products or weighted sums takes each valuation once.
    :meth:`vals` returns a copy.  The private slot ``_ceiling``, always
    set, bounds from above the relative precision of every coefficient that
    is not an exact zero (see the module docstring); a product or weighted
    sum that it shows needs no valuations of this series reads no
    ``_floors``.
    """

    __slots__ = (
        "p", "base", "ints", "abss", "weierstrass_bound", "_floors", "_ceiling"
    )

    def __init__(
        self,
        p: int,
        coeffs: Sequence[Union[int, PadicNumber]],
        weierstrass_bound: Optional[int] = None,
        prec: int = DEFAULT_PRECISION,
    ):
        """The series of ``coeffs``: a PadicNumber as it is, an int x = u p^v
        (u a unit) as the unit form (u mod p^prec) p^v that
        :meth:`PadicNumber.from_int` gives, stored without building one.
        The valuations taken on the way are kept in ``_floors``, with the
        least relative precision, and the largest in ``_ceiling``."""
        check_int(p, "p", 2)
        vals, units, abss, mod = [], [], [], None
        for x in coeffs:
            if isinstance(x, PadicNumber):
                if x.p != p:
                    raise PrimeMismatchError(
                        f"coefficient over p={x.p} in a series over p={p}"
                    )
                a = _INF if x.is_exact_zero() else x.abs_prec()
                v, u = (a, 0) if x.unit is None else (x.val, x.unit)
            elif not isinstance(x, int):
                raise DomainError(f"coefficient {x!r} is not an int or PadicNumber")
            elif not x:
                v, u, a = _INF, 0, _INF
            else:
                if mod is None:
                    mod = p ** check_int(prec, "relative precision", 1)
                v = 0 if x % p else v_p(x, p)
                u, a = (x // p**v if v else x) % mod, v + prec
            vals.append(v)
            units.append(u)
            abss.append(a)
        if not vals:
            raise DomainError("a series needs at least its constant coefficient")
        base = min((v for v, u in zip(vals, units) if u), default=0)
        ints = [u * p ** (v - base) if u else 0 for v, u in zip(vals, units)]
        least, ceiling = _relative_precisions(vals, abss)
        self._store(p, base, ints, abss, (vals, least), ceiling, weierstrass_bound)

    def _store(self, p, base, ints, abss, floors, ceiling, bound) -> None:
        n = len(ints)
        if bound is not None and not 0 <= bound <= n - 1:
            raise DomainError(f"weierstrass bound {bound} outside 0..{n - 1}")
        if bound is not None and bound + 1 < n:
            _check_bound(p, base, ints, abss, bound)
        values = (p, base, ints, abss, bound, floors, ceiling)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _floor_data(self) -> tuple:
        """(valuation floors, least relative precision), kept in the
        ``_floors`` slot once computed; the list is never changed."""
        data = self._floors
        if data is None:
            vals = _valuations(self.p, self.base, self.ints, self.abss)
            data = (vals, _relative_precisions(vals, self.abss)[0])
            object.__setattr__(self, "_floors", data)
        return data

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("PadicSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int_coeffs(
        cls,
        p: int,
        ints: Sequence[int],
        prec: int = DEFAULT_PRECISION,
        weierstrass_bound: Union[int, None, str] = "auto",
    ) -> "PadicSeries":
        """Series with exact integer coefficients carried at ``prec`` digits.

        ``weierstrass_bound="auto"`` uses the honest polynomial degree (the
        largest index with a nonzero coefficient).
        """
        if weierstrass_bound == "auto":
            weierstrass_bound = max((i for i, n in enumerate(ints) if n), default=0)
        return cls(p, ints, weierstrass_bound, prec)

    @classmethod
    def constant(
        cls, p: int, value: int, trunc: int, prec: int = DEFAULT_PRECISION
    ) -> "PadicSeries":
        """The constant ``value`` padded with exact zeros through degree trunc."""
        return cls(p, [value] + [0] * trunc, 0, prec)

    # -- shape -------------------------------------------------------------

    @property
    def trunc_degree(self) -> int:
        return len(self.ints) - 1

    def coeff(self, i: int) -> PadicNumber:
        return _normalize(self.p, self.base, self.ints[i], self.abss[i])

    @property
    def coeffs(self) -> tuple[PadicNumber, ...]:
        return tuple(map(self.coeff, range(len(self.ints))))

    def vals(self) -> list:
        """The valuation floor of every coefficient (+inf for an exact zero)."""
        return list(self._floor_data()[0])

    def truncate(self, degree: int) -> "PadicSeries":
        if degree < 0:
            raise DomainError(f"cannot truncate to degree {degree}")
        if degree >= self.trunc_degree:
            return self
        wb = self.weierstrass_bound
        wb = wb if wb is not None and wb <= degree else None
        n = degree + 1
        ints, abss = self.ints[:n], self.abss[:n]
        return _series(self.p, self.base, ints, abss, self._ceiling, wb)

    def with_weierstrass_bound(self, bound: Optional[int]) -> "PadicSeries":
        return _series(self.p, self.base, self.ints, self.abss, self._ceiling, bound)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PadicSeries") -> "PadicSeries":
        """f + g, cut to the shorter operand: the two-term
        :func:`weighted_sum` of the operands times 1, which spends nothing
        (see the module docstring, *Sums*)."""
        if not isinstance(other, PadicSeries):
            return NotImplemented
        n = min(len(self.ints), len(other.ints))
        terms = [_exact_multiple(f.truncate(n - 1), 1) for f in (self, other)]
        return weighted_sum(self.p, n, terms)

    def __mul__(self, other: "PadicSeries") -> "PadicSeries":
        """The product, truncated at the shorter operand, by the rule of the
        module docstring (*Products*).

        When ``other``'s ceiling is at most the least rel r of this series,
        one pass takes the least of v(a_i) + abs(b_j), and no valuation of
        ``other`` is taken; otherwise two passes take the least of
        abs(a_i) + v(b_j) and of v(a_i) + abs(b_j).  Each pass is
        :func:`_min_plus`.  r is read over the whole left operand, even
        when the product keeps only a prefix of it, and is at most the
        least rel of any prefix.  The coefficient integers are multiplied by
        Kronecker substitution.
        """
        if not isinstance(other, PadicSeries):
            return NotImplemented
        _require_same_prime(self, other)
        p = self.p
        n = min(len(self.ints), len(other.ints))
        a_ints, a_abss = self.ints[:n], self.abss[:n]
        b_ints, b_abss = other.ints[:n], other.abss[:n]
        a_vals, least = self._floor_data()
        a_vals = a_vals[:n]
        if other._ceiling <= least:
            abss = _min_plus(a_vals, b_abss)
        else:
            b_vals = other._floor_data()[0][:n]
            abss = list(
                map(min, _min_plus(a_abss, b_vals), _min_plus(a_vals, b_abss))
            )
        base = self.base + other.base
        ints = _kronecker_product(a_ints, b_ints)
        ceiling = min(self._ceiling, other._ceiling)
        return _series(p, base, _reduced(p, base, ints, abss), abss, ceiling)

    def scale(self, c: PadicNumber) -> "PadicSeries":
        """c f: the one-term :func:`weighted_sum` (see the module docstring,
        *Sums*)."""
        return weighted_sum(self.p, len(self.ints), [(c, self)])

    def scale_int(self, k: int) -> "PadicSeries":
        """k f for an exact integer k: the one-term :func:`weighted_sum` with
        k known to f's ceiling, which spends nothing (see the module
        docstring, *Sums*)."""
        return weighted_sum(self.p, len(self.ints), [_exact_multiple(self, k)])

    # -- calculus ----------------------------------------------------------

    def antiderivative(self) -> "PadicSeries":
        """Termwise antiderivative with zero constant term.

        The division by k = u p^t (u a unit) moves valuations down by t;
        relative precision of unit coefficients is preserved, absolute
        precision is spent -- exactly the cost the caller has to budget for.
        The base drops by the largest t, so every quotient is an integer.
        """
        p, base, abss = self.p, self.base, self.abss
        # every stored integer is below p^e, so u^-1 mod p^e serves them all
        e = max((a for a in abss if a < _INF), default=base) - base
        ts, inverses, shifts, top = _antiderivative_table(p, len(abss), max(e, 0))
        quotients = _reduced(p, base, list(map(mul, self.ints, inverses)), abss)
        ints = [0, *map(mul, quotients, shifts)]
        abss = [_INF, *map(sub, abss, ts)]
        return _series(p, base - top, ints, abss, self._ceiling)

    # -- substitution ------------------------------------------------------

    def shift_center(self, c: int) -> "PadicSeries":
        """The series of z -> f(c + z), by exact binomial recombination,
        known as the module docstring says (*Substitution*); the sums come
        from Horner's scheme on the coefficient integers.

        With spent_m = abs(c_m) + m v_p(c), the precision of row j is
        spent_j - j v_p(c) whenever spent_j is at most every later spent_m,
        since v_p(C(j, j)) = 0 and no v_p(C(m, j)) is negative; one
        suffix-minimum pass finds those rows, and only the others scan
        their binomials.
        """
        if c == 0:
            return self
        p, base, ints, n = self.p, self.base, list(self.ints), len(self.ints)
        for i in range(n - 1):
            acc = ints[-1]
            for k in range(n - 2, i - 1, -1):
                acc = ints[k] = ints[k] + c * acc
        t = v_p(c, p)
        spent = [a + m * t for m, a in enumerate(self.abss)]
        least = list(accumulate(reversed(spent), min))[::-1]  # min(spent[j:])
        abss = [
            (s if s == low else min(map(add, spent[j:], row))) - j * t
            for j, (s, low, row) in enumerate(
                zip(spent, least, _binomial_valuations(p, n))
            )
        ]
        ints = _reduced(p, base, ints, abss)
        return _series(p, base, ints, abss, self._ceiling, self.weierstrass_bound)

    def rescale_p(self) -> "PadicSeries":
        """The series of z -> f(p z): coefficient i gains valuation i."""
        p = self.p
        ints = [x * p**i for i, x in enumerate(self.ints)]
        abss = [a + i for i, a in enumerate(self.abss)]
        return _series(p, self.base, ints, abss, self._ceiling, self.weierstrass_bound)

    def evaluate(self, x: int) -> PadicNumber:
        """f(x) at an integer x: the constant coefficient of the shift to x
        (see the module docstring, *Substitution*)."""
        if not isinstance(x, int):
            raise DomainError(f"evaluation point must be an integer, got {x!r}")
        return self.shift_center(x).coeff(0)

    # -- comparisons -------------------------------------------------------

    def agrees_with(self, other: "PadicSeries") -> bool:
        """True when every shared coefficient coincides to the joint tracked
        precision: f - g, cut to the shorter operand, stores no digit."""
        return not any((self + other.scale_int(-1)).ints)

    def indistinguishable_from_zero(self) -> bool:
        return not any(self.ints)

    def __repr__(self) -> str:
        inside = ", ".join(repr(self.coeff(i)) for i in range(min(4, len(self.ints))))
        more = ", ..." if len(self.ints) > 4 else ""
        return (
            f"PadicSeries(p={self.p}, deg<={self.trunc_degree}, "
            f"coeffs=[{inside}{more}])"
        )


def _series(
    p: int, base: int, ints: list, abss: list, ceiling: int, bound=None
) -> PadicSeries:
    """The series stored so, with ``ceiling`` on its relative precisions;
    ``ints`` reduced, lists kept and never changed."""
    out = object.__new__(PadicSeries)
    out._store(p, base, ints, abss, None, ceiling, bound)
    return out


def _exact_multiple(f: PadicSeries, k: int) -> tuple:
    """The term (k, f) of a :func:`weighted_sum`, the integer k carried to
    f's ceiling, at least 1 digit: k f then spends nothing."""
    return PadicNumber.from_int(f.p, k, max(f._ceiling, 1)), f


def _check_bound(p: int, base: int, ints, abss, bound: int) -> None:
    """Refuse ``bound`` when a unit form c_i with i > bound has valuation
    at most t + base, t + base being the least valuation floor at or below
    the bound.

    t is found as :func:`newton_polygon` finds its vertex: the ``O(p^k)``
    floors first, then 0 if any integer in scope is a unit, and otherwise
    v_p only of an integer that p^t does not divide.  c_i refutes when
    p^(t + 1) does not divide its integer; v_p is then taken of c_i alone,
    for the message.
    """
    scope = ints[: bound + 1]
    t = min((a for x, a in zip(scope, abss) if not x), default=_INF) - base
    if t > 0 and any(x % p for x in scope):
        t = 0
    if t > 0:
        mod = None if t == _INF else p**t
        for x in scope:
            if x and (mod is None or x % mod):
                t = v_p(x, p)
                mod = p**t
    if t < 0:  # an O(p^k) below every unit form
        return
    step = None if t == _INF else p ** (t + 1)
    for i in range(bound + 1, len(ints)):
        x = ints[i]
        if x and (step is None or x % step):
            raise DomainError(
                f"weierstrass bound {bound} is refuted by coefficient {i} "
                f"of valuation {base + v_p(x, p)}, which no coefficient at or "
                f"below the bound is known to exceed"
            )


def weighted_sum(
    p: int, n: int, terms: Iterable[tuple[PadicNumber, PadicSeries]]
) -> PadicSeries:
    """The sum of c f over the pairs (c, f) of ``terms``, each f of n
    coefficients, in one pass, by the rule of the module docstring
    (*Sums*): the one place where series are aligned, added and reduced.
    ``+``, :meth:`PadicSeries.scale`, ``scale_int`` and ``agrees_with``
    are its views.

    The base of c f is f's base plus v(c): an ``O(p^k)`` scalar counts as
    unit 0 with prec 0 and shifts the base by its k, an exact zero gives n
    exact zeros at f's base.  f's valuations are taken only when its
    ceiling exceeds prec(c).  The sum aligns every term to the least of
    those bases.  The one reduction at the end leaves what reducing each
    partial sum would, since each of those is modulo a power of p that the
    final modulus divides.  A single term keeps f's weierstrass bound when
    c is a unit; a sum drops it.  With no terms the sum is n exact zeros.
    """
    pairs = []
    for c, f in terms:
        for x in (f, c):
            if x.p != p:
                raise PrimeMismatchError(f"operands live over p={p} and p={x.p}")
        if len(f.ints) != n:
            raise DomainError(f"a term of {len(f.ints)} coefficients in a sum of {n}")
        pairs.append((c, f))
    # an exact-zero scalar keeps f's base, as scale_int(0) does
    base = min((f.base + (c.val or 0) for c, f in pairs), default=0)
    ints, abss, ceiling = [0] * n, [_INF] * n, 0
    for c, f in pairs:
        if c.is_exact_zero():
            continue
        val, prec = c.val, c.prec
        known = f.abss
        if f._ceiling > prec:
            known = map(min, known, map(add, f._floor_data()[0], repeat(prec)))
        abss = list(map(min, abss, map(add, known, repeat(val))))
        if c.unit is not None:
            ceiling = max(ceiling, min(f._ceiling, prec))
            k = c.unit * p ** (f.base + val - base)
            ints = [y + x * k for y, x in zip(ints, f.ints)]
    bound = None
    if len(pairs) == 1 and pairs[0][0].unit:
        bound = pairs[0][1].weierstrass_bound
    return _series(p, base, _reduced(p, base, ints, abss), abss, ceiling, bound)


# ---------------------------------------------------------------------------
# Strassmann counts and zero isolation on residue disks
# ---------------------------------------------------------------------------


def newton_polygon(f: PadicSeries) -> tuple[int, int]:
    """Strassmann's count for f over the indices i <= weierstrass_bound: the
    vertex (I, m) where the line of slope -1 last touches the Newton polygon.

    m is the least v(c_i) + i over the c_i in scope known to be nonzero, and
    I, the largest i attaining it, is the Weierstrass degree of f(pz) on the
    closed unit disk: the number of roots of f of valuation >= 1, with
    multiplicity, over the algebraic closure.  An ``O(p^k)`` at index i could
    move the vertex exactly when k + i < m, or k + i = m with i > I; then, as
    when no c_i in scope is known to be nonzero, the count is refused.

    Only a coefficient that can reach or lower the running m needs its
    valuation: c_i does when i <= m and v(c_i) <= m - i, that is when p does
    not divide its integer x or p^(m - i + 1) does not.  ``x % p`` is tested
    first, so a unit never builds a power; once i > m, no later c_i can.
    """
    if f.weierstrass_bound is None:
        raise DomainError(
            "series carries no weierstrass bound; root location needs the "
            "caller's analytic guarantee"
        )
    p, scope = f.p, f.ints[: f.weierstrass_bound + 1]
    top, m = None, _INF
    for i, x in enumerate(scope):
        if i > m:
            break
        if x % p:
            top, m = i, i
        elif x and (top is None or x % p ** (m - i + 1)):
            top, m = i, i + v_p(x, p)
    if top is None:
        raise RootCountPrecisionError("no coefficient in scope is known nonzero")
    m += f.base
    for i, (x, k) in enumerate(zip(scope, f.abss)):
        if not x and (k + i < m or k + i == m and i > top):
            raise RootCountPrecisionError(
                f"coefficient {i} known only to O(p^{k}) could change the count"
            )
    return top, m


class SeparationStatus(str, Enum):
    SEPARATED = "separated"
    PRECISION_EXHAUSTED = "precision-exhausted"
    MULTIPLE_ROOT_SUSPECTED = "multiple-root-suspected"


@dataclass(frozen=True)
class ZeroDisk:
    """One certified sub-disk: center sum(digits[j] p^j), radius p^-depth.

    ``zero_count`` is 1 for every emitted disk (classes certified empty are
    simply not emitted); ``multiplicity_flag`` stays False for certified
    disks -- a suspected multiple root surfaces as a failure, not a disk.
    """

    chart_id: str
    center_digits: tuple[int, ...]
    depth: int
    zero_count: int
    multiplicity_flag: bool

    def center_int(self, p: int) -> int:
        return sum(d * p**j for j, d in enumerate(self.center_digits))


@dataclass(frozen=True)
class IsolationFailure:
    chart_id: str
    center_digits: tuple[int, ...]
    depth: int
    reason: SeparationStatus
    residual_count: Optional[int]


def _newton_certified(g: PadicSeries, m: int, depth: int) -> bool:
    """Newton's test v(f(c)) > 2 v(f'(c)), which with a Strassmann count of
    1 pins a simple root next to the center c of a class of this depth,
    read from its series g(z) = f(c + p^(depth-1) z) and vertex (1, m).

    g_0 = f(c) and g_1 = p^(depth-1) f'(c) carry the precisions that
    evaluating at c gives.  A shift gives coefficient j the least abs(c_k) +
    v_p(C(k, j)) over k (a zero digit keeps every index), and a rescale adds
    j; a path k -> ... -> j through the chain adds the valuation of its
    binomials' product plus its index at each rescale.  The direct path
    keeps k up to the first nonzero digit, adding k v_p(c), then drops to
    j: it adds nothing more for j = 0, and v_p(k) plus 1 per later rescale
    for j = 1.  No path adds less, since C(a, b) C(b, 1) = C(a, 1)
    C(a - 1, b - 1) makes a path's binomials a multiple of k.  So
    v(f'(c)) = v(g_1) - (depth - 1) = m - depth, and v(f(c)) is base + v_p
    of g_0's integer, or g_0's precision when that integer is 0.
    """
    x = g.ints[0]
    v0 = g.base + v_p(x, g.p) if x else g.abss[0]
    return v0 > 2 * (m - depth)


def _live_residues(g: PadicSeries) -> Sequence[int]:
    """The residues c whose class c + pZ_p may hold a zero of g.

    Let v be the least valuation floor at or below the bound.  When every
    coefficient is known past v, g(c + pz) = p^v gbar(c) mod p^(v+1) on the
    whole class, where gbar = p^-v g mod p, so only the roots of gbar mod p
    are live.  Coefficients beyond the bound have valuation above v (the
    bound guarantees it for unit forms) but must be known past v too, since
    the shift mixes them into the constant term.  Otherwise (no bound, an
    exact-zero series, a least valuation held only by an ``O(p^k)``) every
    residue is live.
    """
    p, bound = g.p, g.weierstrass_bound
    if bound is None:
        return range(p)
    scope = g.ints[: bound + 1]
    # t: the least unit valuation in scope, over base; an O(p^k) in scope
    # with k <= base + t fails the precision test, so past it v = base + t
    unit_gcd = math.gcd(*scope)
    if not unit_gcd:
        return range(p)
    t = v_p(unit_gcd, p)
    if min(g.abss) <= g.base + t:
        return range(p)
    scale = p**t
    gbar = [x // scale % p for x in scope]
    while not gbar[-1]:  # the unit of valuation v keeps a nonzero digit
        gbar.pop()
    # Horner's scheme mod p, at every residue at once
    values = [gbar.pop()] * p
    for x in reversed(gbar):
        values = [(y * c + x) % p for c, y in enumerate(values)]
    return [c for c, y in enumerate(values) if not y]


def _isolate_classes(
    f: PadicSeries, chart_id: str, depth_cap: int
) -> tuple[list[ZeroDisk], list[IsolationFailure]]:
    disks: list[ZeroDisk] = []
    failures: list[IsolationFailure] = []
    # pending classes (parent digits, parent series, residue), pushed last
    # residue first so that they pop depth-first in digit order
    stack = [((), f, c) for c in reversed(_live_residues(f))]
    while stack:
        digits, series, c = stack.pop()
        shifted = series.shift_center(c)
        child = digits + (c,)
        depth = len(child)
        try:
            count, m = newton_polygon(shifted)
        except RootCountPrecisionError:
            count = None  # a refused count fails the class at any depth
        if count == 0:
            continue
        if count == 1 and _newton_certified(shifted, m, depth):
            disks.append(ZeroDisk(chart_id, child, depth, 1, False))
            continue
        if count is None or depth >= depth_cap:
            reason = (
                SeparationStatus.MULTIPLE_ROOT_SUSPECTED
                if count and count >= 2
                else SeparationStatus.PRECISION_EXHAUSTED
            )
            failures.append(IsolationFailure(chart_id, child, depth, reason, count))
            continue
        refined = shifted.rescale_p()
        stack.extend((child, refined, d) for d in reversed(_live_residues(refined)))
    return disks, failures


def isolate_zeros(
    f: PadicSeries, chart_id: str = "disk", depth_cap: int = DEFAULT_DEPTH_CAP
) -> list[ZeroDisk]:
    """Isolate the Z_p zeros of f into certified sub-disks.

    Residue classes are explored depth-first in digit order.  A class on
    which p^-v f reduces mod p to a nonzero constant is dropped without a
    shift (see :func:`_live_residues`), and so is a class whose Strassmann
    count is 0; a class counting exactly 1 is emitted as soon as a Newton
    contraction certifies the (necessarily simple, necessarily
    Q_p-rational) root, with f(c) and f'(c) read from the class series
    (:func:`_newton_certified`); anything still ambiguous at ``depth_cap``
    raises, with certified disks and per-class diagnostics attached.
    """
    check_int(depth_cap, "depth_cap", 1)
    disks, failures = _isolate_classes(f, chart_id, depth_cap)
    if failures:
        if any(
            x.reason is SeparationStatus.MULTIPLE_ROOT_SUSPECTED for x in failures
        ):
            raise MultipleRootSuspectedError(
                f"{chart_id}: class kept >= 2 roots through depth {depth_cap}",
                disks=disks,
                failures=failures,
            )
        raise PrecisionExhaustedError(
            f"{chart_id}: precision exhausted before all classes were decided",
            disks=disks,
            failures=failures,
        )
    return disks


# ---------------------------------------------------------------------------
# Charts and the separation modulus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationReport:
    disks: tuple[ZeroDisk, ...]
    modulus: int
    status: SeparationStatus
    failures: tuple[IsolationFailure, ...]


def separation_modulus(
    charts: Iterable, depth_cap: int = DEFAULT_DEPTH_CAP
) -> SeparationReport:
    """Isolate zeros across every disk of every chart and aggregate.

    ``charts`` holds ``(chart_id, disks)`` pairs, each disk a series or a
    ``(label, series)`` pair; a bare series is labelled by its position.
    Disks are processed in order of chart id, then disk position, and each
    is identified as ``chart_id:label``.

    The returned modulus M is the maximum emitted depth (at least 1).  The
    status degrades to the worst per-class diagnosis; M is only meaningful
    when the status is SEPARATED.
    """
    check_int(depth_cap, "depth_cap", 1)
    tasks: dict[str, PadicSeries] = {}
    for chart_id, disks in sorted(charts, key=lambda chart: str(chart[0])):
        for i, disk in enumerate(disks):
            label, series = (i, disk) if isinstance(disk, PadicSeries) else disk
            composite = f"{chart_id}:{label}"
            if composite in tasks:
                raise DomainError(f"duplicate disk identifier {composite!r}")
            tasks[composite] = series

    all_disks: list[ZeroDisk] = []
    all_failures: list[IsolationFailure] = []
    for composite, series in tasks.items():
        try:
            found = isolate_zeros(series, chart_id=composite, depth_cap=depth_cap)
        except IsolationError as exc:
            found = exc.disks
            all_failures.extend(exc.failures)
        all_disks.extend(found)

    # the worst diagnosis wins; the statuses are declared best first
    reasons = {x.reason for x in all_failures} | {SeparationStatus.SEPARATED}
    status = max(reasons, key=list(SeparationStatus).index)

    modulus = max((d.depth for d in all_disks), default=1)
    return SeparationReport(
        disks=tuple(all_disks),
        modulus=modulus,
        status=status,
        failures=tuple(all_failures),
    )
