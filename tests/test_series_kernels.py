"""The series operations against their PadicNumber loops, and soundness.

Every ``PadicSeries`` operation runs on the stored coefficient integers;
``tests/oracles.py`` keeps the loops that chain one ``PadicNumber``
operation per term.  The two must agree on the valuation, unit and
precision of every coefficient, and the operation must run with
``PadicNumber`` arithmetic patched to raise.  Soundness: for random balls,
an exact rational inside each input ball must map into the output ball, for
the series operations and for the scalar ones.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nadescent import padic_series
from nadescent.errors import DomainError, PrimeMismatchError
from nadescent.padic_series import PadicNumber, PadicSeries, _min_plus, weighted_sum

from . import oracles

PRIMES = st.sampled_from([2, 3, 5, 7])


@st.composite
def balls(draw, p):
    """A PadicNumber and an exact rational inside it."""
    kind = draw(st.sampled_from(["exact", "ztp", "unit", "unit"]))
    r = draw(st.integers(-50, 50))
    if kind == "exact":
        return PadicNumber.zero(p), Fraction(0)
    if kind == "ztp":
        k = draw(st.integers(-4, 8))
        return PadicNumber.zero_to(p, k), r * Fraction(p) ** k
    val = draw(st.integers(-3, 5))
    prec = draw(st.integers(1, 6))
    unit = draw(st.integers(1, p**prec - 1).filter(lambda u: u % p))
    x = PadicNumber(p, val, unit, prec)
    return x, (unit + r * p**prec) * Fraction(p) ** val


@st.composite
def series_balls(draw, p, max_len=8):
    """A PadicSeries and exact rationals inside its coefficients."""
    pairs = draw(st.lists(balls(p), min_size=1, max_size=max_len))
    return PadicSeries(p, [c for c, _ in pairs]), [y for _, y in pairs]


@st.composite
def uniform_series(draw, p, length=None):
    """A PadicSeries of up to 48 wide coefficients, a quarter of them exact
    zeros, whose unit forms share one relative precision (1..60): as the
    left operand, one a product passes over once.  In "unknown" mode the
    rest are ``O(p^k)`` (relative precision 0, uniform too); in "broken"
    mode one coefficient in eight is, among the unit forms, which makes the
    series non-uniform again."""
    mode = draw(st.sampled_from(["units", "units", "unknown", "broken"]))
    prec = draw(st.integers(1, 60))
    units = st.integers(1, p**prec - 1).map(lambda u: u + 1 if u % p == 0 else u)
    coeffs = []
    for _ in range(length or draw(st.integers(1, 48))):
        roll = draw(st.integers(0, 31))
        if roll < 8:
            coeffs.append(PadicNumber.zero(p))
        elif mode == "unknown" or (mode == "broken" and roll < 12):
            coeffs.append(PadicNumber.zero_to(p, draw(st.integers(-3, 40))))
        else:
            val = draw(st.one_of(st.integers(-3, 3), st.integers(-3, 40)))
            coeffs.append(PadicNumber(p, val, draw(units), prec))
    return PadicSeries(p, coeffs)


@st.composite
def uniform_product_cases(draw):
    """A uniform operand on one side of ``*`` and, on the other, a uniform
    or a mixed-precision one, of independent lengths.  A uniform left
    operand takes the one-pass path; a mixed one, the two passes."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    f = draw(uniform_series(p))
    mixed = series_balls(p, max_len=48).map(lambda x: x[0])
    g = draw(st.one_of(uniform_series(p), mixed))
    return (f, g) if draw(st.booleans()) else (g, f)


@st.composite
def shift_cases(draw):
    p = draw(PRIMES)
    f, exact = draw(series_balls(p))
    c = draw(
        st.one_of(
            st.integers(-40, 40),
            st.integers(-6, 6).map(lambda k: k * p),
            st.integers(1, 4).map(lambda k: -(p**k)),
        )
    )
    return p, f, exact, c


@st.composite
def falling_shift_cases(draw):
    """Up to 17 coefficients whose absolute precisions fall with the index,
    and a center c = k p^j with j >= 1.  spent_m = abs(c_m) + m v_p(c) then
    need not rise with m, so some rows of the shift take the suffix minimum
    and others scan their binomials."""
    p = draw(PRIMES)
    top = draw(st.integers(0, 40))
    coeffs = []
    for _ in range(draw(st.integers(1, 17))):
        kind = draw(st.sampled_from(["exact", "ztp", "unit", "unit"]))
        if kind == "exact":
            coeffs.append(PadicNumber.zero(p))
        elif kind == "ztp":
            coeffs.append(PadicNumber.zero_to(p, top))
        else:
            val = draw(st.integers(top - 6, top - 1))
            units = st.integers(1, p ** (top - val) - 1)
            unit = draw(units.map(lambda u: u + (u % p == 0)))
            coeffs.append(PadicNumber(p, val, unit, top - val))
        top -= draw(st.integers(0, 4))
    k = draw(st.integers(-6, 6).filter(bool))
    return PadicSeries(p, coeffs), k * p ** draw(st.integers(1, 3))


@st.composite
def product_cases(draw):
    p = draw(PRIMES)
    f, fx = draw(series_balls(p))
    g, gx = draw(series_balls(p))
    return p, f, fx, g, gx


@st.composite
def weighted_sum_cases(draw, wide=True):
    """Up to five series of one length n over one prime, each with a
    scalar: a unit form, ``O(p^k)`` with k of either sign, or the exact
    zero.  Unit forms of valuation -3..5 give the series bases apart; with
    ``wide``, a series may also be a uniform one of wide coefficients.  Each
    term carries the exact rationals inside its scalar and coefficients
    (None for a wide series)."""
    p = draw(PRIMES)
    n = draw(st.integers(1, 8))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        if wide and draw(st.integers(0, 3)) == 0:
            f, exact = draw(uniform_series(p, length=n)), None
        else:
            pairs = draw(st.lists(balls(p), min_size=n, max_size=n))
            f, exact = PadicSeries(p, [c for c, _ in pairs]), [y for _, y in pairs]
        c, y = draw(balls(p))
        terms.append((c, f, y, exact))
    return p, n, terms


@st.composite
def min_plus_cases(draw):
    """Two operands of one length n (up to 300, so that n >= 256 takes
    two-byte slots) whose finite entries lie in a window of ``width``
    values from ``low``, of either sign, with a share of +inf that reaches
    all-inf operands.  Windows of a few values take the packed multiply
    where its blocks allow, windows wider than n the direct loop."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(250, 300)))
    rng = draw(st.randoms(use_true_random=False))

    def operand():
        low = draw(st.integers(-60, 60))
        width = draw(st.sampled_from([1, 2, 3, 5, 8, n + 1, 3 * n, 10**6]))
        gone = draw(st.sampled_from([0.0, 0.0, 0.2, 0.3, 0.5, 0.6, 0.8, 1.0]))
        return [
            math.inf if rng.random() < gone else low + rng.randrange(width)
            for _ in range(n)
        ]

    return operand(), operand()


def valuation(y: Fraction, p: int) -> float:
    if y == 0:
        return math.inf
    v, num, den = 0, y.numerator, y.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def contains(ball: PadicNumber, y: Fraction) -> bool:
    p = ball.p
    if ball.is_exact_zero():
        return y == 0
    if ball.unit is None:
        return valuation(y, p) >= ball.val
    return valuation(y - ball.unit * Fraction(p) ** ball.val, p) >= ball.val + ball.prec


def shifted(exact, c):
    n = len(exact)
    return [
        sum(math.comb(m, j) * c ** (m - j) * exact[m] for m in range(j, n))
        for j in range(n)
    ]


def evaluated(exact, x):
    return sum(a * x**i for i, a in enumerate(exact))


def product(fx, gx):
    n = min(len(fx), len(gx))
    return [sum(fx[i] * gx[d - i] for i in range(d + 1)) for d in range(n)]


def refuse(*args, **kwargs):
    raise AssertionError("a series operation used PadicNumber arithmetic")


def without_number_arithmetic(operation):
    """The result of ``operation()`` run with PadicNumber arithmetic
    patched to raise."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__add__", "__mul__", "__rmul__", "scale_int"):
            mp.setattr(PadicNumber, name, refuse)
        return operation()


def triples(coeffs):
    return [(c.val, c.unit, c.prec) for c in coeffs]


def assert_reduced(f: PadicSeries) -> None:
    """The stored integers are reduced: ``0 <= ints[i] < p^(abss[i] - base)``,
    and 0 where no digit at or above ``p^base`` is known or for the exact
    zero."""
    for x, a in zip(f.ints, f.abss):
        if a <= f.base or a == math.inf:
            assert x == 0
        else:
            assert 0 <= x < f.p ** (a - f.base)


def assert_matches(operation, want):
    """The series ``operation()`` builds, without PadicNumber arithmetic,
    has reduced storage, the coefficients of the object loop ``want``, and
    valuation and precision views that agree with them."""
    got = without_number_arithmetic(operation)
    assert_reduced(got)
    assert triples(got.coeffs) == triples(want)
    assert got.vals() == [math.inf if c.is_exact_zero() else c.val for c in want]
    assert got.abss == [
        math.inf if c.is_exact_zero() else c.abs_prec() for c in want
    ]


class TestKernelsMatchObjectLoops:
    @settings(max_examples=150, deadline=None)
    @given(case=shift_cases())
    def test_shift_center(self, case):
        _, f, _, c = case
        assert_matches(lambda: f.shift_center(c), oracles.shift_center_by_objects(f, c))

    @settings(max_examples=150, deadline=None)
    @given(case=falling_shift_cases())
    def test_shift_center_with_falling_precisions(self, case):
        f, c = case
        assert_matches(lambda: f.shift_center(c), oracles.shift_center_by_objects(f, c))

    def test_a_shift_row_that_must_scan_its_binomials(self):
        # p = c = 2: spent = abs(c_m) + m = [10, 11, 5].  Row 1 is not its
        # own suffix minimum (11 > 5), and C(2, 1) = 2 adds a digit to the
        # entry of c_2, so abs = min(11 + 0, 5 + 1) - 1 = 5: neither
        # spent_1 - 1 = 10 nor the suffix minimum less one, 4
        unit = PadicNumber(2, 0, 1, 10)
        f = PadicSeries(2, [unit, unit, PadicNumber(2, 0, 1, 3)])
        assert f.shift_center(2).abss == [5, 5, 3]
        assert_matches(lambda: f.shift_center(2), oracles.shift_center_by_objects(f, 2))

    @settings(max_examples=150, deadline=None)
    @given(case=shift_cases())
    def test_evaluate_at_integer(self, case):
        _, f, _, x = case
        got = without_number_arithmetic(lambda: f.evaluate(x))
        assert triples([got]) == triples([oracles.evaluate_by_objects(f, x)])

    @settings(max_examples=150, deadline=None)
    @given(case=product_cases())
    def test_product(self, case):
        _, f, _, g, _ = case
        assert_matches(lambda: f * g, oracles.series_mul_by_objects(f, g))

    @settings(max_examples=150, deadline=None)
    @given(case=uniform_product_cases())
    def test_product_with_a_uniform_operand(self, case):
        f, g = case
        assert_matches(lambda: f * g, oracles.series_mul_by_objects(f, g))

    @settings(max_examples=150, deadline=None)
    @given(case=product_cases())
    def test_sum(self, case):
        _, f, _, g, _ = case
        assert_matches(lambda: f + g, oracles.series_add_by_objects(f, g))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_scale(self, data, p):
        f, _ = data.draw(series_balls(p))
        c, _ = data.draw(balls(p))
        assert_matches(lambda: f.scale(c), oracles.scale_by_objects(f, c))

    @settings(max_examples=150, deadline=None)
    @given(case=shift_cases())
    def test_scale_int(self, case):
        _, f, _, k = case
        assert_matches(lambda: f.scale_int(k), oracles.scale_int_by_objects(f, k))

    @settings(max_examples=150, deadline=None)
    @given(case=shift_cases())
    def test_derivative(self, case):
        # f'(c) is the linear coefficient of the Taylor shift to c
        _, f, _, c = case
        assume(f.trunc_degree >= 1)
        got = without_number_arithmetic(lambda: f.shift_center(c)).coeff(1)
        f_deriv = PadicSeries(f.p, oracles.derivative_by_objects(f))
        assert triples([got]) == triples([oracles.evaluate_by_objects(f_deriv, c)])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_antiderivative(self, data, p):
        f, _ = data.draw(series_balls(p, max_len=30))
        assert_matches(f.antiderivative, oracles.antiderivative_by_objects(f))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 11]))
    def test_antiderivative_across_precisions(self, data, p):
        # one length, several precisions: the cached inverse tables of one
        # (p, length) serve several moduli
        n = data.draw(st.integers(1, 48))
        for _ in range(3):
            f = data.draw(uniform_series(p, length=n))
            assert_matches(f.antiderivative, oracles.antiderivative_by_objects(f))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_rescale_p(self, data, p):
        f, _ = data.draw(series_balls(p))
        assert_matches(f.rescale_p, oracles.rescale_p_by_objects(f))

    @settings(max_examples=150, deadline=None)
    @given(case=weighted_sum_cases())
    def test_weighted_sum(self, case):
        p, n, terms = case
        pairs = [(c, f) for c, f, _, _ in terms]
        want = oracles.weighted_sum_by_objects(p, n, pairs)
        assert_matches(lambda: weighted_sum(p, n, pairs), want)
        # the one reduction stores what the fold of scale and + stores
        if pairs:
            fold = pairs[0][1].scale(pairs[0][0])
            for c, f in pairs[1:]:
                fold = fold + f.scale(c)
            got = weighted_sum(p, n, pairs)
            assert (got.base, got.ints, got.abss) == (fold.base, fold.ints, fold.abss)

    def test_weighted_sum_keeps_a_bound_as_scale_does(self):
        f = PadicSeries.from_int_coeffs(5, [5, 1, 3], 8)
        unit, unknown = PadicNumber.from_int(5, 10, 4), PadicNumber.zero_to(5, -3)
        assert weighted_sum(5, 3, [(unit, f)]).weierstrass_bound == 2
        assert weighted_sum(5, 3, [(unknown, f)]).weierstrass_bound is None
        assert weighted_sum(5, 3, [(unit, f), (unit, f)]).weierstrass_bound is None
        empty = weighted_sum(5, 3, [])
        assert empty.coeffs == (PadicNumber.zero(5),) * 3
        assert empty.weierstrass_bound is None

    def test_weighted_sum_refuses_other_primes_and_lengths(self):
        f = PadicSeries.from_int_coeffs(5, [1, 2], 8)
        g = PadicSeries.from_int_coeffs(7, [1, 2], 8)
        one5, one7 = PadicNumber.from_int(5, 1), PadicNumber.from_int(7, 1)
        with pytest.raises(PrimeMismatchError):
            weighted_sum(5, 2, [(one7, f)])
        with pytest.raises(PrimeMismatchError):
            weighted_sum(5, 2, [(one5, f), (one5, g)])
        with pytest.raises(DomainError, match="3 coefficients in a sum of 2"):
            weighted_sum(5, 2, [(one5, f), (one5, f.antiderivative())])

    def test_kernels_build_no_intermediate_numbers(self):
        f = PadicSeries.from_int_coeffs(5, [3, -10, 0, 25, 7, 1], 8)
        terms = [
            (PadicNumber(5, -1, 7, 3), f),
            (PadicNumber.zero_to(5, -2), f.shift_center(-15)),
            (PadicNumber.zero(5), f),
            (PadicNumber(5, 2, 3, 12), f * f),
        ]
        want = (
            oracles.shift_center_by_objects(f, -15),
            [oracles.evaluate_by_objects(f, 30)],
            oracles.series_mul_by_objects(f, f),
            oracles.weighted_sum_by_objects(5, 6, terms),
        )
        got = without_number_arithmetic(
            lambda: (
                f.shift_center(-15).coeffs,
                [f.evaluate(30)],
                (f * f).coeffs,
                weighted_sum(5, 6, terms).coeffs,
            )
        )
        assert list(map(triples, got)) == list(map(triples, want))


class TestMinPlus:
    """The product's precisions come from ``_min_plus``: one long multiply
    of one-hot slots, or the direct loop when the valuations spread wide."""

    @settings(max_examples=80, deadline=None)
    @given(case=min_plus_cases())
    def test_matches_the_double_loop(self, case):
        xs, ys = case
        assert _min_plus(xs, ys) == oracles.min_plus_by_pairs(xs, ys)

    @pytest.mark.parametrize("n", [1, 2, 20, 255, 256, 300])
    @pytest.mark.parametrize("width", [1, 4, 8, 1000])
    def test_both_branches_at_every_slot_width(self, n, width):
        xs = [(7 * i) % width - 3 if i % 5 else math.inf for i in range(n)]
        ys = [-((3 * i) % width) for i in range(n)]
        assert _min_plus(xs, ys) == oracles.min_plus_by_pairs(xs, ys)
        assert _min_plus(ys, xs) == oracles.min_plus_by_pairs(ys, xs)

    @pytest.mark.parametrize("ys", [[0] * 300, [0] * 299 + [1]], ids=["S=1", "S=2"])
    def test_a_slot_that_counts_past_255_pairs_does_not_carry(self, ys):
        # slot 0 of block 255 counts 256 pairs, so it needs a second byte
        assert _min_plus([0] * 300, ys) == [0] * 300

    def test_a_wide_span_builds_no_span_sized_buffer(self):
        xs, ys = [0, 10**7, 0], [10**7, 0, math.inf]
        tracemalloc.start()
        try:
            got = _min_plus(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [10**7, 0, 10**7]
        assert peak < 1 << 20


class TestSoundness:
    @settings(max_examples=100, deadline=None)
    @given(case=shift_cases())
    def test_shift_center(self, case):
        _, f, exact, c = case
        out = f.shift_center(c).coeffs
        assert all(map(contains, out, shifted(exact, c)))

    @settings(max_examples=100, deadline=None)
    @given(case=shift_cases())
    def test_evaluate(self, case):
        _, f, exact, x = case
        assert contains(f.evaluate(x), evaluated(exact, x))

    @settings(max_examples=100, deadline=None)
    @given(case=product_cases())
    def test_product(self, case):
        _, f, fx, g, gx = case
        assert all(map(contains, (f * g).coeffs, product(fx, gx)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_rescale_p(self, data, p):
        f, exact = data.draw(series_balls(p))
        want = [a * p**i for i, a in enumerate(exact)]
        assert all(map(contains, f.rescale_p().coeffs, want))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_antiderivative(self, data, p):
        f, exact = data.draw(series_balls(p))
        want = [Fraction(0)] + [a / (i + 1) for i, a in enumerate(exact)]
        assert all(map(contains, f.antiderivative().coeffs, want))

    @settings(max_examples=100, deadline=None)
    @given(case=shift_cases())
    def test_derivative(self, case):
        _, f, exact, c = case
        assume(f.trunc_degree >= 1)
        want = sum(i * a * c ** (i - 1) for i, a in enumerate(exact) if i)
        assert contains(f.shift_center(c).coeff(1), want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_scale(self, data, p):
        f, exact = data.draw(series_balls(p))
        c, y = data.draw(balls(p))
        assert all(map(contains, f.scale(c).coeffs, [a * y for a in exact]))

    @settings(max_examples=100, deadline=None)
    @given(case=product_cases())
    def test_sum(self, case):
        _, f, fx, g, gx = case
        assert all(map(contains, (f + g).coeffs, map(add, fx, gx)))

    @settings(max_examples=100, deadline=None)
    @given(case=weighted_sum_cases(wide=False))
    def test_weighted_sum(self, case):
        p, n, terms = case
        got = weighted_sum(p, n, [(c, f) for c, f, _, _ in terms]).coeffs
        want = [sum((y * xs[i] for *_, y, xs in terms), Fraction(0)) for i in range(n)]
        assert all(map(contains, got, want))

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_scalar_operations(self, op, data, p):
        (a, x), (b, y) = data.draw(balls(p)), data.draw(balls(p))
        got, want = {
            "+": (a + b, x + y),
            "-": (a - b, x - y),
            "*": (a * b, x * y),
        }[op]
        assert contains(got, want)


@st.composite
def start_series(draw, p):
    """A series built from PadicNumbers: mixed precisions with ``O(p^k)``
    and exact zeros, or unit forms and exact zeros at one relative
    precision, the kind of left operand whose product may skip the right
    operand's valuations."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        pairs = draw(st.lists(balls(p), min_size=n, max_size=n))
        return PadicSeries(p, [c for c, _ in pairs])
    prec = draw(st.integers(1, 8))
    units = st.integers(1, p**prec - 1).filter(lambda u: u % p)
    coeffs = [
        PadicNumber(p, draw(st.integers(-3, 5)), draw(units), prec)
        if draw(st.integers(0, 3))
        else PadicNumber.zero(p)
        for _ in range(n)
    ]
    return PadicSeries(p, coeffs)


def assert_ceiling_holds(f: PadicSeries) -> None:
    """The stored ceiling bounds abs - v of every coefficient that is not
    an exact zero."""
    rels = [a - v for v, a in zip(f.vals(), f.abss) if a < math.inf]
    assert f._ceiling >= max(rels, default=0)


class TestRelativePrecisionCeiling:
    """Every series carries an upper bound on the relative precision of its
    coefficients; a product or weighted sum that trusts it reads no
    valuations of its right operand or terms.  Random chains of every
    operation keep the bound sound, and the products and sums that read it
    match the object loops."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=PRIMES)
    def test_chains_keep_the_ceiling_sound(self, data, p):
        pool = [data.draw(start_series(p)) for _ in range(3)]
        for f in pool:
            assert_ceiling_holds(f)
        for _ in range(data.draw(st.integers(1, 10))):
            pick = st.integers(0, len(pool) - 1).map(pool.__getitem__)
            f = data.draw(pick)
            op = data.draw(
                st.sampled_from(
                    ["new", "+", "*", "*", "anti", "shift", "rescale", "trunc",
                     "scale_int", "bound", "sum", "sum"]
                )
            )
            if op == "new":
                out = data.draw(start_series(p))
            elif op == "+":
                out = f + data.draw(pick)
            elif op == "*":
                g = data.draw(pick)
                want = oracles.series_mul_by_objects(f, g)
                assert_matches(lambda: f * g, want)
                out = f * g
            elif op == "anti":
                out = f.antiderivative()
            elif op == "shift":
                centers = st.one_of(st.integers(-20, 20), st.sampled_from([p, -p * p]))
                out = f.shift_center(data.draw(centers))
            elif op == "rescale":
                out = f.rescale_p()
            elif op == "trunc":
                out = f.truncate(data.draw(st.integers(0, f.trunc_degree)))
            elif op == "scale_int":
                k = data.draw(st.sampled_from([0, 1, -3, p, 2 * p**2]))
                out = f.scale_int(k)
            elif op == "bound":
                out = f.with_weierstrass_bound(None)
            else:
                series = data.draw(st.lists(pick, min_size=1, max_size=3))
                n = min(len(g.ints) for g in series)
                pairs = [(data.draw(balls(p))[0], g.truncate(n - 1)) for g in series]
                want = oracles.weighted_sum_by_objects(p, n, pairs)
                assert_matches(lambda: weighted_sum(p, n, pairs), want)
                out = weighted_sum(p, n, pairs)
            assert_ceiling_holds(out)
            pool.append(out)

    def test_a_uniform_product_skips_the_right_valuations(self, monkeypatch):
        f = PadicSeries.from_int_coeffs(5, [1, 5, 0, 7], 6)
        g = (f * PadicSeries.from_int_coeffs(5, [3, 0, 25, 2], 9)).antiderivative()
        low = PadicSeries.from_int_coeffs(5, [2, 10, 4, 1], 4)
        assert (g._ceiling, low._ceiling) == (6, 4)
        calls = []
        real = padic_series._valuations
        monkeypatch.setattr(
            padic_series, "_valuations", lambda *a: calls.append(a) or real(*a)
        )
        for left, taken in ((f, 0), (low, 1)):
            want = oracles.series_mul_by_objects(left, g)
            assert triples((left * g).coeffs) == triples(want)
            # r = 6 reads g's ceiling of 6 alone; r = 4 takes g's floors
            assert len(calls) == taken
