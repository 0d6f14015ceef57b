"""Local group orders, the annihilating integer, and prime enlargement."""

from __future__ import annotations

import random
import warnings

import pytest

from nadescent import (
    DomainError,
    FactorizationTimeoutError,
    JacobianLocalData,
    enlarged_prime_set,
    jacobian_order_mod,
)
from nadescent.arith import factorize, is_prime
from nadescent.descent_arith import (
    WeilBoundWarning,
    _pair_pow,
    count_from_frobenius_poly,
)

from .oracles import (
    elliptic_group_orders,
    in_weil_interval_by_endpoints,
    weil_endpoint_by_products,
)

# Two primes beyond the trial-division range, so factoring their product
# genuinely needs the budgeted stage.
BIG_SEMIPRIME = 104_729 * 104_723


def data(p=5, g=1, count=9):
    return JacobianLocalData(p=p, g=g, count_fp=count)


class TestJacobianLocalData:
    def test_accepts_good_input(self):
        d = data()
        assert (d.p, d.g, d.count_fp) == (5, 1, 9)

    @pytest.mark.parametrize("p", [4, 1, 0, -5, "5", 5.0])
    def test_rejects_non_prime_p(self, p):
        with pytest.raises(DomainError):
            JacobianLocalData(p=p, g=1, count_fp=9)

    @pytest.mark.parametrize("g", [0, -1, True, "2", 2.0])
    def test_rejects_bad_dimension(self, g):
        with pytest.raises(DomainError):
            JacobianLocalData(p=5, g=g, count_fp=9)

    @pytest.mark.parametrize("count", [0, -3, True, "9", 9.0])
    def test_rejects_bad_count(self, count):
        with pytest.raises(DomainError):
            JacobianLocalData(p=5, g=1, count_fp=count)

    def test_weil_interval_warning_below(self):
        # for p=5, g=1 the interval is [6 - 2*sqrt(5), 6 + 2*sqrt(5)],
        # roughly [1.53, 10.47]
        with pytest.warns(WeilBoundWarning):
            JacobianLocalData(p=5, g=1, count_fp=1)

    def test_weil_interval_warning_above(self):
        with pytest.warns(WeilBoundWarning):
            JacobianLocalData(p=5, g=1, count_fp=11)

    @pytest.mark.parametrize("count", [2, 6, 9, 10])
    def test_weil_interval_interior_is_silent(self, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            JacobianLocalData(p=5, g=1, count_fp=count)

    @pytest.mark.parametrize("p", [2, 3, 5, 101])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_weil_endpoints_match_the_g_fold_product(self, p, sign):
        for g in range(65):
            want = weil_endpoint_by_products(p, g, sign)
            assert _pair_pow((p + 1, 2 * sign), g, p) == want

    @pytest.mark.parametrize("p", [2, 3, 5, 101])
    def test_weil_warning_matches_both_endpoints(self, p):
        # the check compares |count - a| with b sqrt(p) once; the oracle
        # compares count with each endpoint
        for g in range(1, 7):
            for end in ((p**0.5 - 1) ** (2 * g), (p**0.5 + 1) ** (2 * g)):
                for count in range(max(1, int(end) - 3), int(end) + 4):
                    with warnings.catch_warnings(record=True) as seen:
                        warnings.simplefilter("always")
                        JacobianLocalData(p=p, g=g, count_fp=count)
                    inside = in_weil_interval_by_endpoints(p, g, count)
                    assert inside == (not seen)

    def test_weil_warning_is_a_user_warning(self):
        assert issubclass(WeilBoundWarning, UserWarning)

    def test_warning_matches_true_point_counts(self):
        # every actual group order must sit inside the interval
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p, a, b in [(5, 1, 1), (5, 0, 1), (7, 1, 1), (11, 3, 7)]:
                count, _ = elliptic_group_orders(p, a, b)
                JacobianLocalData(p=p, g=1, count_fp=count)


class TestJacobianOrderMod:
    def test_level_one_is_the_residue_count(self):
        assert jacobian_order_mod(data(count=9), 1) == 9
        assert jacobian_order_mod(data(p=7, g=2, count=100), 1) == 100

    def test_level_two_elliptic(self):
        assert jacobian_order_mod(data(p=5, g=1, count=9), 2) == 45

    def test_genus_two_growth(self):
        d = JacobianLocalData(p=7, g=2, count_fp=50)
        assert jacobian_order_mod(d, 3) == 50 * 7 ** 4

    def test_each_level_multiplies_by_p_to_the_g(self):
        rng = random.Random(3)
        for _ in range(30):
            p = rng.choice([3, 5, 7, 11])
            g = rng.randint(1, 4)
            count = rng.randint((p - 1) ** g, (p + 1) ** g)
            d = JacobianLocalData(p=p, g=g, count_fp=count)
            for m in range(1, 5):
                assert jacobian_order_mod(d, m + 1) == p ** g * jacobian_order_mod(d, m)

    def test_matches_exhaustive_elliptic_enumeration(self):
        for p, a, b in [(5, 1, 1), (5, 0, 1), (7, 1, 1), (7, 0, 5)]:
            count_fp, count_fp2 = elliptic_group_orders(p, a, b)
            d = JacobianLocalData(p=p, g=1, count_fp=count_fp)
            assert jacobian_order_mod(d, 2) == count_fp2

    @pytest.mark.parametrize("m", [0, -1, True, "2", 2.0])
    def test_rejects_bad_exponent(self, m):
        with pytest.raises(DomainError):
            jacobian_order_mod(data(), m)

    def test_annihilator_alias(self):
        d = data(p=5, g=1, count=9)
        assert jacobian_order_mod(d, 2) == 45


class TestEnlargedPrimeSet:
    def test_worked_example(self):
        assert enlarged_prime_set({11}, 45) == frozenset({3, 5, 11})

    def test_trivial_annihilator_adds_nothing(self):
        assert enlarged_prime_set(set(), 1) == frozenset()
        assert enlarged_prime_set({3, 7}, 1) == frozenset({3, 7})

    def test_prime_power_adds_one_prime(self):
        assert enlarged_prime_set({2}, 2 ** 10) == frozenset({2})
        assert enlarged_prime_set(set(), 3 ** 5) == frozenset({3})

    def test_rejects_non_prime_members(self):
        with pytest.raises(DomainError):
            enlarged_prime_set({4}, 45)
        with pytest.raises(DomainError):
            enlarged_prime_set({True}, 45)

    @pytest.mark.parametrize("n", [0, -45, True, "45"])
    def test_rejects_bad_annihilator(self, n):
        with pytest.raises(DomainError):
            enlarged_prime_set({5}, n)

    def test_superset_and_divisibility(self):
        rng = random.Random(17)
        for _ in range(50):
            s = frozenset(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 3)))
            n = rng.randint(1, 10 ** 6)
            t0 = enlarged_prime_set(s, n)
            assert t0 >= s
            assert all(is_prime(q) for q in t0)
            for q in t0 - s:
                assert n % q == 0
            m = n
            for q in t0:
                while m % q == 0:
                    m //= q
            assert m == 1  # every prime factor of n was collected

    def test_budget_exhaustion_propagates(self):
        with pytest.raises(FactorizationTimeoutError):
            enlarged_prime_set({3}, BIG_SEMIPRIME, budget=1)


class TestFactorizationBudget:
    def test_timeout_carries_partial_and_cofactor(self):
        with pytest.raises(FactorizationTimeoutError) as exc:
            factorize(8 * BIG_SEMIPRIME, budget=1)
        assert exc.value.partial == {2: 3}
        assert exc.value.cofactor == BIG_SEMIPRIME

    def test_same_number_factors_with_a_real_budget(self):
        assert factorize(BIG_SEMIPRIME) == {104_723: 1, 104_729: 1}


class TestCountFromFrobeniusPoly:
    def test_elliptic_l_polynomial(self):
        # 1 - a_p t + p t^2 evaluated at t = 1
        assert count_from_frobenius_poly([1, -3, 5]) == 3
        assert count_from_frobenius_poly([1, 1, 7]) == 9

    def test_order_of_coefficients_is_irrelevant(self):
        assert count_from_frobenius_poly([5, -3, 1]) == 3

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(DomainError) as exc:
            count_from_frobenius_poly([1, 2.5, 5])
        assert "coefficient 1" in str(exc.value)
        with pytest.raises(DomainError):
            count_from_frobenius_poly([1, True, 5])

    def test_rejects_non_positive_value(self):
        with pytest.raises(DomainError):
            count_from_frobenius_poly([1, -2])
        with pytest.raises(DomainError):
            count_from_frobenius_poly([])

    def test_feeds_local_data(self):
        count = count_from_frobenius_poly([1, -1, 5])
        d = JacobianLocalData(p=5, g=1, count_fp=count)
        assert jacobian_order_mod(d, 2) == 25
