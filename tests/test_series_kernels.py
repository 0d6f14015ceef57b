"""The integer series kernels against their PadicNumber loops, and soundness.

``shift_center``, ``evaluate`` at an integer and ``PadicSeries.__mul__`` run
on plain integers; ``tests/oracles.py`` keeps the loops that chain one
``PadicNumber`` operation per term.  The two must agree on the valuation,
unit and precision of every coefficient.  Soundness: for random balls, an
exact rational inside each input ball must map into the output ball, for
these kernels and for ``rescale_p``, ``antiderivative`` and the scalar
operations.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadescent.padic_series import PadicNumber, PadicSeries

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
def product_cases(draw):
    p = draw(PRIMES)
    f, fx = draw(series_balls(p))
    g, gx = draw(series_balls(p))
    return p, f, fx, g, gx


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


class TestKernelsMatchObjectLoops:
    @settings(max_examples=150, deadline=None)
    @given(case=shift_cases())
    def test_shift_center(self, case):
        _, f, _, c = case
        assert list(f.shift_center(c).coeffs) == oracles.shift_center_by_objects(f, c)

    @settings(max_examples=150, deadline=None)
    @given(case=shift_cases())
    def test_evaluate_at_integer(self, case):
        _, f, _, x = case
        assert f.evaluate(x) == oracles.evaluate_by_objects(f, x)

    @settings(max_examples=150, deadline=None)
    @given(case=product_cases())
    def test_product(self, case):
        _, f, _, g, _ = case
        assert list((f * g).coeffs) == oracles.series_mul_by_objects(f, g)

    def test_kernels_build_no_intermediate_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel used PadicNumber arithmetic")

        f = PadicSeries.from_int_coeffs(5, [3, -10, 0, 25, 7, 1], 8)
        want = (
            oracles.shift_center_by_objects(f, -15),
            oracles.evaluate_by_objects(f, 30),
            oracles.series_mul_by_objects(f, f),
        )
        for name in ("__add__", "__mul__", "__rmul__", "scale_int"):
            monkeypatch.setattr(PadicNumber, name, refuse)
        got = (list(f.shift_center(-15).coeffs), f.evaluate(30), list((f * f).coeffs))
        assert got == want


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
