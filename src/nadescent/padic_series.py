"""Capped-precision p-adic arithmetic, Newton polygons, and zero isolation.

The central objects are :class:`PadicNumber` (a p-adic number tracked to a
finite number of significant digits) and :class:`PadicSeries` (a truncated
power series with such coefficients).  On top of them sit the Newton-polygon
root counts and the recursive residue-disk subdivision that isolates the
zeros of a series on Z_p to some finite depth M -- the separation modulus
consumed downstream.

Precision model
---------------
A PadicNumber is in one of three states:

* exact zero;
* ``O(p^k)`` -- all that is known is that the valuation is >= k ("zero to
  precision k"); the tail is unknown;
* unit form ``u * p^v`` with p coprime to u, known modulo p^(v + prec) for a
  relative precision prec >= 1.

Arithmetic propagates the absolute precision min-wise and never invents
digits; cancellation degrades a sum to ``O(p^k)`` rather than guessing its
valuation.  Every consumer of a polygon or a root count either receives a
certified answer or an explicit precision error.

Weierstrass bound
-----------------
A truncated series cannot know, by itself, that its visible coefficients
determine its zeros on the closed unit disk.  That analytic fact must be
supplied by the caller as ``weierstrass_bound`` (d*): all zeros of the
represented function with valuation >= 0 are governed by coefficient indices
i <= d*.  For an honest polynomial, d* is its degree.  Polygon construction
and root counting refuse to run without it, and a series refuses a bound its
visible coefficients refute: a unit-form c_i with i > d* whose valuation is
at most every certified valuation floor at or below d*.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .arith import v_p
from .errors import (
    AllZeroPolygonError,
    DomainError,
    HullPrecisionError,
    IsolationError,
    MultipleRootSuspectedError,
    PrecisionExhaustedError,
    PrimeMismatchError,
)

#: Relative precision used when a caller supplies plain integers and does
#: not say how many digits to carry.
DEFAULT_PRECISION = 20


class PadicNumber:
    """A p-adic number known to finite precision.  Immutable.

    ``PadicNumber(p, val, unit, prec)`` is the unit form ``unit * p^val``
    known modulo ``p^(val + prec)``; the classmethods (:meth:`from_int`,
    :meth:`from_fraction`, :meth:`zero`, :meth:`zero_to`) build the rest.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: Optional[int], unit: Optional[int], prec: int):
        if not isinstance(p, int) or p < 2:
            raise DomainError(f"p must be an integer >= 2, got {p!r}")
        if unit is None:
            if prec != 0:
                raise DomainError("zero states carry no relative precision")
            if val is not None and not isinstance(val, int):
                raise DomainError(f"valuation bound must be an integer, got {val!r}")
        else:
            if prec < 1:
                raise DomainError(f"relative precision must be >= 1, got {prec}")
            if not isinstance(val, int):
                raise DomainError(f"valuation must be an integer, got {val!r}")
            unit %= p**prec
            if unit == 0 or unit % p == 0:
                raise DomainError(f"unit part {unit} is not coprime to {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "prec", prec)

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

    @classmethod
    def from_fraction(
        cls, p: int, value: Union[int, Fraction], prec: int = DEFAULT_PRECISION
    ) -> "PadicNumber":
        frac = Fraction(value)
        if frac == 0:
            return cls.zero(p)
        num, den = frac.numerator, frac.denominator
        vn, vd = v_p(num, p), v_p(den, p)
        nu, de = num // p**vn, den // p**vd
        mod = p**prec
        unit = nu * pow(de % mod, -1, mod) % mod
        return cls(p, vn - vd, unit, prec)

    # -- state predicates --------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.unit is None and self.val is None

    def is_unknown_zero(self) -> bool:
        """True for O(p^k): zero at the tracked precision, tail unknown."""
        return self.unit is None and self.val is not None

    def abs_prec(self) -> Optional[int]:
        """Absolute precision (exponent of the known modulus); None = exact."""
        if self.is_exact_zero():
            return None
        if self.unit is None:
            return self.val
        return self.val + self.prec

    def valuation_floor(self) -> Optional[int]:
        """A certified lower bound for the valuation; None means +infinity."""
        if self.is_exact_zero():
            return None
        return self.val

    # -- arithmetic --------------------------------------------------------

    def _require_same_prime(self, other: "PadicNumber") -> None:
        if self.p != other.p:
            raise PrimeMismatchError(
                f"operands live over p={self.p} and p={other.p}"
            )

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        self._require_same_prime(other)
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        p = self.p
        n_abs = min(self.abs_prec(), other.abs_prec())
        units = [x for x in (self, other) if x.unit is not None]
        if not units:
            return PadicNumber.zero_to(p, n_abs)
        base = min(min(x.val for x in units), n_abs)
        digits = n_abs - base
        if digits <= 0:
            return PadicNumber.zero_to(p, n_abs)
        total = sum(x.unit * p ** (x.val - base) for x in units) % p**digits
        if total == 0:
            return PadicNumber.zero_to(p, n_abs)
        t = v_p(total, p)
        return PadicNumber(p, base + t, total // p**t, digits - t)

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
        self._require_same_prime(other)
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
        return PadicNumber(
            self.p, self.val + t, self.unit * (k // self.p**t), self.prec
        )

    def div_int(self, k: int) -> "PadicNumber":
        """Divide by an exact nonzero integer."""
        if k == 0:
            raise DomainError("division by zero")
        if self.is_exact_zero():
            return self
        t = v_p(k, self.p)
        if self.unit is None:
            return PadicNumber.zero_to(self.p, self.val - t)
        mod = self.p**self.prec
        inv = pow((k // self.p**t) % mod, -1, mod)
        return PadicNumber(self.p, self.val - t, self.unit * inv, self.prec)

    def shift_val(self, t: int) -> "PadicNumber":
        """Multiply by p^t (exact)."""
        if self.is_exact_zero() or t == 0:
            return self
        if self.unit is None:
            return PadicNumber.zero_to(self.p, self.val + t)
        return PadicNumber(self.p, self.val + t, self.unit, self.prec)

    # -- comparisons -------------------------------------------------------

    def agrees_with(self, other: "PadicNumber") -> bool:
        """True when the two values coincide to the joint tracked precision."""
        diff = self - other
        return diff.unit is None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self.p, self.val, self.unit, self.prec) == (
            other.p,
            other.val,
            other.unit,
            other.prec,
        )

    def __hash__(self) -> int:
        return hash((self.p, self.val, self.unit, self.prec))

    def __repr__(self) -> str:
        if self.is_exact_zero():
            return "0"
        if self.unit is None:
            return f"O({self.p}^{self.val})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.val + self.prec})"


class PadicSeries:
    """A truncated power series sum c_i z^i, i = 0..trunc_degree.

    ``weierstrass_bound`` is the analytic guarantee described in the module
    docstring; it survives recentering (z -> c + z), the p-rescale
    (z -> p z) and scalar multiples, and is dropped by operations (sums,
    products, derivatives) whose zeros it says nothing about.
    """

    __slots__ = ("p", "coeffs", "weierstrass_bound")

    def __init__(
        self,
        p: int,
        coeffs: Sequence[PadicNumber],
        weierstrass_bound: Optional[int] = None,
    ):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a series needs at least its constant coefficient")
        for c in coeffs:
            if not isinstance(c, PadicNumber):
                raise DomainError(f"coefficient {c!r} is not a PadicNumber")
            if c.p != p:
                raise PrimeMismatchError(
                    f"coefficient over p={c.p} in a series over p={p}"
                )
        if weierstrass_bound is not None:
            if not 0 <= weierstrass_bound <= len(coeffs) - 1:
                raise DomainError(
                    f"weierstrass bound {weierstrass_bound} outside "
                    f"0..{len(coeffs) - 1}"
                )
            start = weierstrass_bound + 1
            if start < len(coeffs):
                floor = min(
                    (c.val for c in coeffs[:start] if c.val is not None),
                    default=None,
                )
                for i, c in enumerate(coeffs[start:], start):
                    if c.unit is not None and (floor is None or c.val <= floor):
                        raise DomainError(
                            f"weierstrass bound {weierstrass_bound} is refuted "
                            f"by coefficient {i} of valuation {c.val}, which no "
                            f"coefficient at or below the bound is known to "
                            f"exceed"
                        )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "weierstrass_bound", weierstrass_bound)

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
        coeffs = [PadicNumber.from_int(p, n, prec) for n in ints]
        if weierstrass_bound == "auto":
            nz = [i for i, n in enumerate(ints) if n != 0]
            weierstrass_bound = nz[-1] if nz else 0
        return cls(p, coeffs, weierstrass_bound)

    @classmethod
    def constant(
        cls, p: int, value: int, trunc: int, prec: int = DEFAULT_PRECISION
    ) -> "PadicSeries":
        """The constant ``value`` padded with exact zeros through degree trunc."""
        head = PadicNumber.from_int(p, value, prec)
        tail = [PadicNumber.zero(p)] * trunc
        return cls(p, [head] + tail, 0)

    # -- shape -------------------------------------------------------------

    @property
    def trunc_degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> PadicNumber:
        return self.coeffs[i]

    def truncate(self, degree: int) -> "PadicSeries":
        if degree < 0:
            raise DomainError(f"cannot truncate to degree {degree}")
        if degree >= self.trunc_degree:
            return self
        wb = self.weierstrass_bound
        wb = wb if wb is not None and wb <= degree else None
        return PadicSeries(self.p, self.coeffs[: degree + 1], wb)

    def with_weierstrass_bound(self, bound: Optional[int]) -> "PadicSeries":
        return PadicSeries(self.p, self.coeffs, bound)

    # -- arithmetic --------------------------------------------------------

    def _require_same_prime(self, other: "PadicSeries") -> None:
        if self.p != other.p:
            raise PrimeMismatchError(
                f"series over p={self.p} and p={other.p} cannot be combined"
            )

    def __add__(self, other: "PadicSeries") -> "PadicSeries":
        if not isinstance(other, PadicSeries):
            return NotImplemented
        self._require_same_prime(other)
        n = min(len(self.coeffs), len(other.coeffs))
        return PadicSeries(
            self.p, [self.coeffs[i] + other.coeffs[i] for i in range(n)]
        )

    def __sub__(self, other: "PadicSeries") -> "PadicSeries":
        if not isinstance(other, PadicSeries):
            return NotImplemented
        return self + other.scale_int(-1)

    def __mul__(self, other: "PadicSeries") -> "PadicSeries":
        if not isinstance(other, PadicSeries):
            return NotImplemented
        self._require_same_prime(other)
        n = min(len(self.coeffs), len(other.coeffs))
        out = []
        for d in range(n):
            acc = PadicNumber.zero(self.p)
            for i in range(d + 1):
                acc = acc + self.coeffs[i] * other.coeffs[d - i]
            out.append(acc)
        return PadicSeries(self.p, out)

    def scale(self, c: Union[PadicNumber, int]) -> "PadicSeries":
        if isinstance(c, int):
            return self.scale_int(c)
        keep = c.unit is not None
        return PadicSeries(
            self.p,
            [x * c for x in self.coeffs],
            self.weierstrass_bound if keep else None,
        )

    def scale_int(self, k: int) -> "PadicSeries":
        keep = k != 0
        return PadicSeries(
            self.p,
            [x.scale_int(k) for x in self.coeffs],
            self.weierstrass_bound if keep else None,
        )

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "PadicSeries":
        if len(self.coeffs) == 1:
            return PadicSeries(self.p, [PadicNumber.zero(self.p)])
        out = [
            self.coeffs[i].scale_int(i) for i in range(1, len(self.coeffs))
        ]
        return PadicSeries(self.p, out)

    def antiderivative(self) -> "PadicSeries":
        """Termwise antiderivative with zero constant term.

        The division by i+1 moves valuations down by v_p(i+1); relative
        precision of unit coefficients is preserved, absolute precision is
        spent -- exactly the cost the caller has to budget for.
        """
        out = [PadicNumber.zero(self.p)]
        out.extend(c.div_int(i + 1) for i, c in enumerate(self.coeffs))
        return PadicSeries(self.p, out)

    # -- substitution ------------------------------------------------------

    def shift_center(self, c: int) -> "PadicSeries":
        """The series of z -> f(c + z), by exact binomial recombination."""
        if c == 0:
            return self
        n = len(self.coeffs)
        out = []
        for j in range(n):
            acc = PadicNumber.zero(self.p)
            for m in range(j, n):
                acc = acc + self.coeffs[m].scale_int(math.comb(m, j) * c ** (m - j))
            out.append(acc)
        return PadicSeries(self.p, out, self.weierstrass_bound)

    def rescale_p(self) -> "PadicSeries":
        """The series of z -> f(p z): coefficient i gains valuation i."""
        out = [c.shift_val(i) for i, c in enumerate(self.coeffs)]
        return PadicSeries(self.p, out, self.weierstrass_bound)

    def evaluate(self, x: Union[int, PadicNumber]) -> PadicNumber:
        acc = PadicNumber.zero(self.p)
        if isinstance(x, int):
            for c in reversed(self.coeffs):
                acc = acc.scale_int(x) + c
        else:
            self_p = self.p
            if x.p != self_p:
                raise PrimeMismatchError("evaluation point over a different prime")
            for c in reversed(self.coeffs):
                acc = acc * x + c
        return acc

    # -- comparisons -------------------------------------------------------

    def agrees_with(self, other: "PadicSeries") -> bool:
        self._require_same_prime(other)
        n = min(len(self.coeffs), len(other.coeffs))
        return all(self.coeffs[i].agrees_with(other.coeffs[i]) for i in range(n))

    def indistinguishable_from_zero(self) -> bool:
        return all(c.unit is None for c in self.coeffs)

    def __repr__(self) -> str:
        inside = ", ".join(repr(c) for c in self.coeffs[:4])
        more = ", ..." if len(self.coeffs) > 4 else ""
        return (
            f"PadicSeries(p={self.p}, deg<={self.trunc_degree}, "
            f"coeffs=[{inside}{more}])"
        )


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of the known coefficient points (i, v(c_i)).

    ``origin_order`` is the number of leading indices (below the first
    coefficient of known valuation) certified to contribute one root of
    valuation >= 1 each -- exact-zero leading coefficients and unknown-zero
    coefficients whose bound clears the slope -1 line.  Construction fails
    rather than return a polygon whose valuation >= 1 root count could be
    changed by an unknown coefficient.
    """

    vertices: tuple[tuple[int, int], ...]
    origin_order: int

    def segments(self) -> list[tuple[Fraction, int]]:
        """(slope, horizontal length) for each hull edge, left to right."""
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            out.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
        return out

    def positive_valuation_root_count(self) -> int:
        count = self.origin_order
        for slope, length in self.segments():
            if slope <= -1:
                count += length
        return count


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    hull: list[tuple[int, int]] = []
    for q in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (q[0] - x1) >= (q[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


def _hull_height_excess(hull: list[tuple[int, int]], i: int, k: int) -> bool:
    """True when the hull at abscissa i lies strictly above level k."""
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= i <= x2:
            # k < y1 + (y2 - y1) (i - x1) / (x2 - x1), cross-multiplied
            return k * (x2 - x1) < y1 * (x2 - x1) + (y2 - y1) * (i - x1)
    # single-vertex hull or i at the lone vertex
    x0, y0 = hull[0]
    if i == x0 or len(hull) == 1:
        return k < y0
    raise AssertionError("abscissa outside hull range")  # pragma: no cover


def newton_polygon(f: PadicSeries) -> NewtonPolygon:
    """Newton polygon of f over indices i <= weierstrass_bound.

    Coefficients in unit form contribute exact points; exact zeros
    contribute nothing; ``O(p^k)`` coefficients contribute only the
    constraint v >= k and must be provably unable to alter the count of
    valuation >= 1 roots, else HullPrecisionError.
    """
    if f.weierstrass_bound is None:
        raise DomainError(
            "series carries no weierstrass bound; root location needs the "
            "caller's analytic guarantee"
        )
    scope = f.coeffs[: f.weierstrass_bound + 1]
    points = [(i, c.val) for i, c in enumerate(scope) if c.unit is not None]
    unknowns = [(i, c.val) for i, c in enumerate(scope) if c.is_unknown_zero()]
    if not points:
        raise AllZeroPolygonError(
            "all coefficients in scope are indistinguishable from zero"
        )
    hull = _lower_hull(points)
    i_min, v_min = hull[0]
    i_max = hull[-1][0]
    peak = max(v + i for i, v in hull)
    for i, k in unknowns:
        if i < i_min:
            if k < v_min + (i_min - i):
                raise HullPrecisionError(
                    f"coefficient {i} known only to O(p^{k}) could add roots "
                    f"of valuation < 1 left of the hull"
                )
        elif i <= i_max:
            if _hull_height_excess(hull, i, k):
                raise HullPrecisionError(
                    f"coefficient {i} known only to O(p^{k}) could lie below "
                    f"the hull"
                )
        else:
            if k <= peak - i:
                raise HullPrecisionError(
                    f"coefficient {i} known only to O(p^{k}) could extend the "
                    f"hull with slope <= -1"
                )
    return NewtonPolygon(vertices=tuple(hull), origin_order=i_min)


def root_count_positive_valuation(f: PadicSeries) -> int:
    """Number of roots (with multiplicity, algebraic closure) of valuation
    >= 1, read off the polygon: origin order plus the horizontal length of
    all hull segments of slope <= -1."""
    return newton_polygon(f).positive_valuation_root_count()


# ---------------------------------------------------------------------------
# Zero isolation on residue disks
# ---------------------------------------------------------------------------


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


def _isolate_classes(
    f: PadicSeries, chart_id: str, depth_cap: int
) -> tuple[list[ZeroDisk], list[IsolationFailure]]:
    p = f.p
    f_deriv = f.derivative()
    disks: list[ZeroDisk] = []
    failures: list[IsolationFailure] = []

    def newton_certified(center: int) -> bool:
        # v(f(c)) > 2 v(f'(c)) pins a unique simple root next to c; combined
        # with the polygon count of 1 this certifies the class.
        b = f_deriv.evaluate(center)
        if b.unit is None:
            return False
        a = f.evaluate(center)
        if a.is_exact_zero():
            return True
        return a.val > 2 * b.val

    def walk(digits: tuple[int, ...], center: int, series: PadicSeries) -> None:
        for c in range(p):
            shifted = series.shift_center(c)
            child = digits + (c,)
            child_center = center + c * p ** len(digits)
            depth = len(child)
            try:
                count = root_count_positive_valuation(shifted)
            except (AllZeroPolygonError, HullPrecisionError):
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


def isolate_zeros(
    f: PadicSeries, chart_id: str = "disk", depth_cap: int = 12
) -> list[ZeroDisk]:
    """Isolate the Z_p zeros of f into certified sub-disks.

    Residue classes are explored depth-first in digit order.  A class whose
    polygon count is 0 is dropped; a class counting exactly 1 is emitted as
    soon as a Newton contraction certifies the (necessarily simple,
    necessarily Q_p-rational) root; anything still ambiguous at ``depth_cap``
    raises, with certified disks and per-class diagnostics attached to the
    error.
    """
    if depth_cap < 1:
        raise DomainError(f"depth_cap must be >= 1, got {depth_cap}")
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
class DiskSeries:
    label: str
    series: PadicSeries


@dataclass(frozen=True)
class Chart:
    chart_id: str
    disks: tuple[DiskSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "disks", tuple(self.disks))


@dataclass(frozen=True)
class SeparationReport:
    disks: tuple[ZeroDisk, ...]
    modulus: int
    status: SeparationStatus
    failures: tuple[IsolationFailure, ...]


def _as_chart(obj) -> Chart:
    if isinstance(obj, Chart):
        return obj
    chart_id, raw_disks = obj
    disks = []
    for i, d in enumerate(raw_disks):
        if isinstance(d, DiskSeries):
            disks.append(d)
        else:
            disks.append(DiskSeries(label=str(i), series=d))
    return Chart(chart_id=str(chart_id), disks=tuple(disks))


def separation_modulus(
    charts: Iterable, depth_cap: int = 12, jobs: int = 1
) -> SeparationReport:
    """Isolate zeros across every disk of every chart and aggregate.

    ``charts`` may hold Chart objects or plain (chart_id, [series, ...])
    pairs.  Disks are processed in order of chart id, then disk position;
    ``jobs > 1`` fans the per-disk work across a thread pool but the
    assembled report is byte-identical regardless.

    The returned modulus M is the maximum emitted depth (at least 1).  The
    status degrades to the worst per-class diagnosis; M is only meaningful
    when the status is SEPARATED.
    """
    normalized = [_as_chart(c) for c in charts]
    tasks: list[tuple[str, PadicSeries]] = []
    seen = set()
    for chart in sorted(normalized, key=lambda ch: ch.chart_id):
        for disk in chart.disks:
            composite = f"{chart.chart_id}:{disk.label}"
            if composite in seen:
                raise DomainError(f"duplicate disk identifier {composite!r}")
            seen.add(composite)
            tasks.append((composite, disk.series))

    def run(task: tuple[str, PadicSeries]):
        composite, series = task
        try:
            return isolate_zeros(series, chart_id=composite, depth_cap=depth_cap), ()
        except IsolationError as exc:
            return list(exc.disks), tuple(exc.failures)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]

    all_disks: list[ZeroDisk] = []
    all_failures: list[IsolationFailure] = []
    for found, failed in results:
        all_disks.extend(found)
        all_failures.extend(failed)

    status = SeparationStatus.SEPARATED
    if any(
        x.reason is SeparationStatus.PRECISION_EXHAUSTED for x in all_failures
    ):
        status = SeparationStatus.PRECISION_EXHAUSTED
    if any(
        x.reason is SeparationStatus.MULTIPLE_ROOT_SUSPECTED for x in all_failures
    ):
        status = SeparationStatus.MULTIPLE_ROOT_SUSPECTED

    modulus = max((d.depth for d in all_disks), default=1)
    return SeparationReport(
        disks=tuple(all_disks),
        modulus=modulus,
        status=status,
        failures=tuple(all_failures),
    )
