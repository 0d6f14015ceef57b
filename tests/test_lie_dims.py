"""Dimension bookkeeping: Lucas-type sequence, graded pieces, cumulative dims."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadescent import DomainError, InvariantError, cumulative_dim, graded_dims
from nadescent.lie_dims import GradedDims
from nadescent import lie_dims

from .oracles import (
    graded_dim_by_inversion,
    lucas_power_trace,
    pbw_product_coeffs,
    rational_target_coeffs,
)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestLucasSequence:
    def test_base_cases(self):
        for g in (2, 3, 5, 11):
            seq = graded_dims(g, 1).lucas
            assert seq[0] == 2
            assert seq[1] == 2 * g

    def test_g2_prefix(self):
        assert graded_dims(2, 5).lucas == (2, 4, 14, 52, 194, 724)

    def test_matches_quadratic_integer_powering(self):
        for g in range(2, 7):
            seq = graded_dims(g, 64).lucas
            for n in range(0, 65):
                assert seq[n] == lucas_power_trace(g, n)

    def test_rejects_small_genus_and_negative_degree(self):
        with pytest.raises(DomainError):
            graded_dims(1, 5)
        with pytest.raises(DomainError):
            graded_dims(2, -1)


class TestGradedDims:
    def test_g2_prefix(self):
        assert graded_dims(2, 5).graded == (4, 5, 16, 45, 144)

    def test_g3_degree_two(self):
        assert graded_dims(3, 2).r(2) == 14

    def test_degree_one_is_twice_genus(self):
        for g in range(2, 9):
            assert graded_dims(g, 1).r(1) == 2 * g

    def test_matches_moebius_inversion_oracle(self):
        for g in (2, 3, 5):
            dims = graded_dims(g, 24)
            for n in range(1, 25):
                assert dims.r(n) == graded_dim_by_inversion(g, n)

    @settings(max_examples=80, deadline=None)
    @given(g=st.integers(2, 12), n=st.integers(1, 200))
    def test_matches_moebius_inversion_oracle_to_degree_200(self, g, n):
        assert graded_dims(g, n).r(n) == graded_dim_by_inversion(g, n)

    def test_pbw_generating_function(self):
        for g in (2, 3, 4):
            dims = graded_dims(g, 16)
            assert (
                pbw_product_coeffs(dims.graded, 16)
                == rational_target_coeffs(g, 16)
            )

    def test_pbw_g2_explicit_prefix(self):
        dims = graded_dims(2, 4)
        assert pbw_product_coeffs(dims.graded, 4) == [1, 4, 15, 56, 209]

    def test_witt_identity_direct(self):
        for g in range(2, 7):
            dims = graded_dims(g, 64)
            for n in range(1, 65):
                total = sum(d * dims.r(d) for d in divisors(n))
                assert total == dims.lucas_value(n)

    @settings(max_examples=60, deadline=None)
    @given(g=st.integers(min_value=2, max_value=12), n=st.integers(1, 40))
    def test_witt_identity_property(self, g, n):
        dims = graded_dims(g, n)
        total = sum(d * dims.r(d) for d in divisors(n))
        assert total == dims.lucas_value(n)

    def test_asymptotic_ratio_window(self):
        for g in range(2, 7):
            dims = graded_dims(g, 64)
            for n in range(4, 65):
                ratio = Fraction(dims.r(n) * n, dims.lucas_value(n))
                assert Fraction(1, 2) < ratio <= 1

    def test_odd_degree_pieces_are_even(self):
        for g in range(2, 7):
            dims = graded_dims(g, 64)
            for n in range(1, 65, 2):
                assert dims.r(n) % 2 == 0

    def test_accessors_reject_out_of_range(self):
        dims = graded_dims(2, 5)
        with pytest.raises(DomainError):
            dims.r(0)
        with pytest.raises(DomainError):
            dims.r(6)
        with pytest.raises(DomainError):
            dims.lucas_value(-1)
        with pytest.raises(DomainError):
            dims.lucas_value(6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            graded_dims(1, 5)
        with pytest.raises(DomainError):
            graded_dims(2, 0)
        with pytest.raises(DomainError):
            graded_dims(2, 101, cap=100)

    def test_values_are_plain_ints(self):
        dims = graded_dims(2, 40)
        assert all(type(x) is int for x in dims.lucas)
        assert all(type(x) is int for x in dims.graded)


class TestGradedDimsCache:
    def test_longer_request_computes_only_new_levels(self, monkeypatch):
        monkeypatch.setattr(lie_dims, "_cache", {})
        extended = []  # (levels known, levels wanted) of each extension
        real = lie_dims._extend

        def spy(g, known, n_max):
            extended.append((known.n_max if known else 0, n_max))
            return real(g, known, n_max)

        monkeypatch.setattr(lie_dims, "_extend", spy)
        graded_dims(3, 63)
        assert extended == [(0, 63)]
        dims = graded_dims(3, 64)
        assert extended == [(0, 63), (63, 64)]
        assert dims.n_max == 64 and dims.r(64) == graded_dim_by_inversion(3, 64)
        graded_dims(3, 40)
        assert extended == [(0, 63), (63, 64)]

    def test_an_extension_reads_the_known_levels(self):
        # a known prefix is taken as it is, never recomputed: a corrupt one
        # is carried into the result or refused at the first level it breaks
        lucas = graded_dims(2, 4).lucas  # 2, 4, 14, 52, 194
        doctored = lie_dims._extend(2, GradedDims(2, lucas[:3], (4, 6)), 3)
        assert doctored.graded == (4, 6, 16)  # r_3 = (52 - 4) / 3
        with pytest.raises(InvariantError, match="^L_4 less its divisor sum is 2 mod"):
            lie_dims._extend(2, GradedDims(2, lucas[:3], (4, 6)), 4)
        with pytest.raises(InvariantError, match="r_2=-43$"):
            lie_dims._extend(2, GradedDims(2, lucas[:2], (100,)), 2)

    def test_shorter_request_is_an_exact_prefix(self, monkeypatch):
        monkeypatch.setattr(lie_dims, "_cache", {})
        long = graded_dims(4, 30)
        short = graded_dims(4, 12)
        assert short.n_max == 12
        assert short == GradedDims(4, long.lucas[:13], long.graded[:12])
        assert [cumulative_dim(short, n) for n in range(2, 14)] == [
            cumulative_dim(long, n) for n in range(2, 14)
        ]

    def test_bounded_by_genus_count(self, monkeypatch):
        monkeypatch.setattr(lie_dims, "_cache", {})
        for g in range(2, 2 + lie_dims._CACHE_GENERA + 5):
            graded_dims(g, 2)
        assert len(lie_dims._cache) == lie_dims._CACHE_GENERA


class TestCumulativeDim:
    def test_g2_values(self):
        dims = graded_dims(2, 5)
        assert cumulative_dim(dims, 2) == 4
        assert cumulative_dim(dims, 3) == 9
        assert cumulative_dim(dims, 4) == 25

    def test_upper_edge_is_allowed(self):
        dims = graded_dims(2, 5)
        assert cumulative_dim(dims, 6) == 4 + 5 + 16 + 45 + 144

    def test_out_of_range(self):
        dims = graded_dims(2, 5)
        with pytest.raises(DomainError):
            cumulative_dim(dims, 1)
        with pytest.raises(DomainError):
            cumulative_dim(dims, 7)

    def test_telescoping_steps(self):
        dims = graded_dims(3, 10)
        for n in range(2, 10):
            assert (
                cumulative_dim(dims, n + 1) - cumulative_dim(dims, n)
                == dims.r(n)
            )


def test_fabricated_tables_are_constructible():
    # GradedDims carries data only; consistency is the producer's job.
    fake = GradedDims(g=2, lucas=(2, 4, 14), graded=(4, 5))
    assert fake.n_max == 2 and fake.r(2) == 5
