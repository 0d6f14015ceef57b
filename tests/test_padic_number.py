"""The three-state capped-precision coefficient model."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadescent import DomainError, PadicNumber
from nadescent.errors import PrimeMismatchError


def N(n, p=5, prec=20):
    return PadicNumber.from_int(p, n, prec)


class TestConstruction:
    def test_from_int_zero_is_exact(self):
        x = PadicNumber.from_int(5, 0)
        assert x.is_exact_zero()
        assert x.abs_prec() is None
        assert x.valuation_floor() is None

    def test_from_int_strips_valuation(self):
        x = PadicNumber.from_int(5, 150)
        assert (x.val, x.unit, x.prec) == (2, 6, 20)

    def test_from_int_negative(self):
        x = PadicNumber.from_int(5, -5)
        assert x.val == 1
        assert x.unit == (-1) % 5**20

    def test_zero_to(self):
        x = PadicNumber.zero_to(5, 3)
        assert x.is_unknown_zero()
        assert x.abs_prec() == 3
        assert x.valuation_floor() == 3

    def test_unit_form_normalizes_mod_p_prec(self):
        x = PadicNumber(5, 0, 7 + 25, 2)
        assert x.unit == 7

    def test_unit_form_rejects_p_divisible_unit(self):
        with pytest.raises(DomainError):
            PadicNumber(5, 0, 10, 3)

    def test_unit_form_rejects_nonpositive_precision(self):
        with pytest.raises(DomainError):
            PadicNumber(5, 0, 1, 0)

    def test_from_fraction(self):
        half = PadicNumber.from_fraction(5, Fraction(1, 2))
        assert half.val == 0
        assert (half.unit * 2) % 5**20 == 1
        fifth = PadicNumber.from_fraction(5, Fraction(1, 5))
        assert (fifth.val, fifth.unit) == (-1, 1)
        assert PadicNumber.from_fraction(5, Fraction(0)).is_exact_zero()
        assert PadicNumber.from_fraction(5, 7).agrees_with(N(7))

    def test_immutability(self):
        x = N(3)
        with pytest.raises(AttributeError):
            x.val = 7


class TestAddition:
    def test_exact_zero_is_identity(self):
        x = N(42)
        assert (x + PadicNumber.zero(5)) == x
        assert (PadicNumber.zero(5) + x) == x

    def test_plain_sum(self):
        assert (N(2) + N(3)).agrees_with(N(5))
        assert (N(2) + N(3)).val == 1  # 5 = 1*5^1

    def test_min_absolute_precision(self):
        a = PadicNumber(5, 0, 2, 3)   # known mod 5^3
        b = PadicNumber(5, 2, 1, 6)   # known mod 5^8
        s = a + b
        assert s.abs_prec() == 3
        assert (s.val, s.unit) == (0, (2 + 25) % 125)

    def test_cancellation_degrades_to_unknown_zero(self):
        x = N(7, prec=4)
        s = x + (-x)
        assert s.is_unknown_zero()
        assert s.abs_prec() == 4

    def test_unknown_zero_absorbs_lower_precision(self):
        s = PadicNumber.zero_to(5, 2) + N(25, prec=20)
        # 25 has val 2; the sum is only known to be O(5^2)
        assert s.is_unknown_zero() and s.abs_prec() == 2

    def test_unknown_zero_plus_visible_unit(self):
        s = PadicNumber.zero_to(5, 4) + N(5, prec=20)
        assert (s.val, s.unit) == (1, 1)
        assert s.abs_prec() == 4

    def test_two_unknown_zeros(self):
        s = PadicNumber.zero_to(5, 4) + PadicNumber.zero_to(5, 2)
        assert s.is_unknown_zero() and s.abs_prec() == 2

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            N(1, p=5) + N(1, p=7)


class TestMultiplication:
    def test_exact_zero_annihilates(self):
        assert (N(99) * PadicNumber.zero(5)).is_exact_zero()

    def test_valuations_add_precision_min(self):
        a = PadicNumber(5, 1, 2, 3)
        b = PadicNumber(5, 2, 3, 7)
        prod = a * b
        assert (prod.val, prod.unit, prod.prec) == (3, 6, 3)

    def test_unknown_zero_shifts(self):
        prod = PadicNumber.zero_to(5, 3) * PadicNumber(5, 2, 1, 4)
        assert prod.is_unknown_zero() and prod.val == 5

    def test_int_scaling_is_exact(self):
        x = PadicNumber(5, 0, 2, 3)
        assert (x.scale_int(25).val, x.scale_int(25).prec) == (2, 3)
        assert x.scale_int(0).is_exact_zero()
        assert (3 * x).agrees_with(x + x + x)

    def test_div_int(self):
        assert N(10).div_int(2).agrees_with(N(5))
        assert N(10).div_int(5).agrees_with(N(2))
        assert PadicNumber.zero_to(5, 3).div_int(5).abs_prec() == 2
        with pytest.raises(DomainError):
            N(1).div_int(0)

    def test_shift_val(self):
        x = N(2).shift_val(3)
        assert x.val == 3 and x.agrees_with(N(250))


class TestAgreement:
    def test_agreement_is_precision_aware(self):
        # 2 and 2 + 5^3 agree when only 3 digits are tracked
        a = PadicNumber(5, 0, 2, 3)
        b = PadicNumber(5, 0, 2 + 125, 4)
        assert a.agrees_with(b)
        c = PadicNumber(5, 0, 2 + 25, 4)
        assert not a.agrees_with(c)

    def test_unknown_zero_agrees_with_exact_zero(self):
        assert PadicNumber.zero_to(5, 3).agrees_with(PadicNumber.zero(5))

    def test_repr_forms(self):
        assert repr(PadicNumber.zero(5)) == "0"
        assert repr(PadicNumber.zero_to(5, 3)) == "O(5^3)"
        assert "*5^" in repr(N(10))


@st.composite
def padic_numbers(draw, p=5):
    kind = draw(st.sampled_from(["exact", "ztp", "unit"]))
    if kind == "exact":
        return PadicNumber.zero(p)
    if kind == "ztp":
        return PadicNumber.zero_to(p, draw(st.integers(-4, 10)))
    val = draw(st.integers(-4, 6))
    unit = draw(st.integers(1, 5**6 - 1).filter(lambda u: u % p != 0))
    prec = draw(st.integers(1, 6))
    return PadicNumber(p, val, unit, prec)


class TestAlgebraicLaws:
    @settings(max_examples=200, deadline=None)
    @given(a=padic_numbers(), b=padic_numbers())
    def test_add_commutes(self, a, b):
        assert (a + b) == (b + a)

    @settings(max_examples=200, deadline=None)
    @given(a=padic_numbers(), b=padic_numbers(), c=padic_numbers())
    def test_add_associates(self, a, b, c):
        assert ((a + b) + c) == (a + (b + c))

    @settings(max_examples=200, deadline=None)
    @given(a=padic_numbers(), b=padic_numbers())
    def test_mul_commutes(self, a, b):
        assert (a * b) == (b * a)

    @settings(max_examples=200, deadline=None)
    @given(a=padic_numbers(), b=padic_numbers(), c=padic_numbers())
    def test_mul_associates_in_value(self, a, b, c):
        assert ((a * b) * c).agrees_with(a * (b * c))

    @settings(max_examples=200, deadline=None)
    @given(a=padic_numbers(), b=padic_numbers(), c=padic_numbers())
    def test_distributes_in_value(self, a, b, c):
        assert (a * (b + c)).agrees_with(a * b + a * c)

    @settings(max_examples=200, deadline=None)
    @given(a=padic_numbers())
    def test_self_difference_vanishes(self, a):
        assert (a - a).unit is None

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(-(10**9), 10**9),
        m=st.integers(-(10**9), 10**9),
    )
    def test_int_embedding_is_a_homomorphism(self, n, m):
        assert (N(n) + N(m)).agrees_with(N(n + m))
        assert (N(n) * N(m)).agrees_with(N(n * m))
