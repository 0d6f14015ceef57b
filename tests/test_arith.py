"""Primality (deterministic bases below psi_12, Baillie-PSW above),
factorization, p-adic valuations of integers and the shared integer
argument check."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadescent.arith import (
    _strong_lucas_probable_prime,
    _trial_primes,
    factorize,
    is_prime,
    v_p,
)
from nadescent.descent_arith import enlarged_prime_set
from nadescent.errors import DomainError, FactorizationTimeoutError, check_int

from .oracles import (
    PSI,
    PSI_12_FACTORS,
    STRONG_LUCAS_PSEUDOPRIMES,
    STRONG_PSEUDOPRIMES_BASE_2,
    int_valuation,
    sieve_primes,
)

PSI_12 = PSI[11]
# Mersenne primes past psi_12, where Baillie-PSW decides
LARGE_PRIMES = (2**89 - 1, 2**107 - 1, 2**127 - 1)
# Primes between 10^4 and 2^31, past trial division, so only rho finds them
RHO_PRIMES = (10_007, 65_537, 104_723, 104_729, 916_109, 21_627_713, 2**31 - 1)
TRIAL_PRIMES = sieve_primes(10_000)


class TestIsPrime:
    def test_agrees_with_the_sieve_below_ten_to_the_five(self):
        primes = set(sieve_primes(10**5))
        assert [n for n in range(10**5) if is_prime(n)] == sorted(primes)

    @pytest.mark.parametrize("n", sorted(set(PSI)))
    def test_psi_values_are_composite(self, n):
        assert not is_prime(n)

    def test_psi_12_and_psi_13(self):
        assert not is_prime(318665857834031151167461)
        assert not is_prime(3317044064679887385961981)
        assert factorize(PSI_12) == {q: 1 for q in PSI_12_FACTORS}

    def test_strong_pseudoprimes_to_base_2_are_composite(self):
        assert not any(is_prime(n) for n in STRONG_PSEUDOPRIMES_BASE_2)

    def test_lucas_half_is_fooled_exactly_by_its_pseudoprimes(self):
        # the strong Lucas test alone passes these composites, and no other
        # odd composite free of primes below 50 under 2 * 10^5
        assert all(_strong_lucas_probable_prime(n) for n in STRONG_LUCAS_PSEUDOPRIMES)
        primes, small = set(sieve_primes(2 * 10**5)), sieve_primes(50)
        fooled = [
            n
            for n in range(53, 2 * 10**5, 2)
            if n not in primes
            and all(n % q for q in small)
            and _strong_lucas_probable_prime(n)
        ]
        assert fooled == [
            n for n in STRONG_LUCAS_PSEUDOPRIMES if all(n % q for q in small)
        ]

    def test_large_primes_and_their_products(self):
        for q in LARGE_PRIMES:
            assert is_prime(q)
        for a in LARGE_PRIMES:
            for b in LARGE_PRIMES:
                assert not is_prime(a * b)
        assert not is_prime(PSI_12 * PSI[12])

    def test_enlarged_prime_set_splits_psi_12(self):
        assert enlarged_prime_set({11}, 5 * PSI_12) == {5, 11, *PSI_12_FACTORS}

    def test_agrees_with_sympy_past_psi_12(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2017)
        for n in [rng.randrange(PSI_12, 2**130) | 1 for _ in range(3000)]:
            assert is_prime(n) == sympy.isprime(n), n
        for _ in range(100):
            q = sympy.nextprime(rng.randrange(PSI_12, 2**160))
            assert is_prime(q), q
        for n in range(PSI_12 - 2000, PSI_12 + 2000):
            assert is_prime(n) == sympy.isprime(n), n


class TestFactorize:
    def test_trial_division_runs_over_the_primes_below_ten_to_the_four(self):
        assert _trial_primes() == tuple(TRIAL_PRIMES)

    @settings(max_examples=60, deadline=None)
    @given(
        exponents=st.dictionaries(
            st.one_of(st.sampled_from(RHO_PRIMES), st.sampled_from(TRIAL_PRIMES)),
            st.integers(1, 9),
            max_size=5,
        )
    )
    def test_recovers_every_prime_power(self, exponents):
        n = math.prod(q**e for q, e in exponents.items())
        assert factorize(n) == exponents

    @settings(max_examples=60, deadline=None)
    @given(
        exponents=st.dictionaries(
            st.one_of(st.sampled_from(RHO_PRIMES), st.sampled_from(TRIAL_PRIMES)),
            st.integers(1, 9),
            max_size=5,
        ),
        budget=st.sampled_from([1, 50, 500, 5_000]),
    )
    def test_an_exhausted_budget_accounts_for_all_of_n(self, exponents, budget):
        n = math.prod(q**e for q, e in exponents.items())
        try:
            assert factorize(n, budget) == exponents
        except FactorizationTimeoutError as exc:
            partial, cofactor = exc.partial, exc.cofactor
            assert math.prod(q**e for q, e in partial.items()) * cofactor == n
            assert all(is_prime(q) for q in partial)
            assert not is_prime(cofactor)

    def test_a_negative_budget_is_refused_and_zero_means_trial_division(self):
        with pytest.raises(DomainError, match="budget must be an integer >= 0"):
            factorize(30, -5)
        assert factorize(30, 0) == {2: 1, 3: 1, 5: 1}
        with pytest.raises(FactorizationTimeoutError) as caught:
            factorize(104_729 * 104_723, 0)
        assert caught.value.cofactor == 104_729 * 104_723

    def test_one_and_small_primes(self):
        assert factorize(1) == {}
        assert factorize(9_973) == {9_973: 1}
        assert factorize(2 * 9_973) == {2: 1, 9_973: 1}
        assert factorize(10_007**2) == {10_007: 2}


class TestValuation:
    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7, 11, 101, 2**31 - 1]),
        unit=st.integers(-(10**30), 10**30).filter(bool),
        v=st.one_of(st.integers(0, 20), st.integers(0, 3000)),
    )
    def test_matches_one_division_per_digit(self, p, unit, v):
        n = unit * p**v
        assert v_p(n, p) == int_valuation(n, p)

    @pytest.mark.parametrize(
        "v", [3, 4, 5, 63, 64, 65, 67, 68, 69, 131, 132, 1023, 1024]
    )
    def test_around_each_change_of_step(self, v):
        for unit in (1, -1, 3, -3 * 2**40 - 1):
            assert v_p(unit * 5**v, 5) == int_valuation(unit * 5**v, 5)

    def test_deep_valuation(self):
        assert v_p(7 * 5**30000, 5) == 30000

    def test_zero_is_refused(self):
        with pytest.raises(DomainError):
            v_p(0, 5)


class TestCheckInt:
    def test_returns_the_value(self):
        assert check_int(5, "n", 0) == 5

    @pytest.mark.parametrize("value", [True, 2.0, "2", None, -1])
    def test_refusals_name_the_argument(self, value):
        with pytest.raises(DomainError, match="n_cap must be an integer >= 0"):
            check_int(value, "n_cap", 0)
