"""Primality (deterministic bases below psi_12, Baillie-PSW above) and the
shared integer argument check."""

from __future__ import annotations

import random

import pytest

from nadescent.arith import _strong_lucas_probable_prime, factorize, is_prime
from nadescent.descent_arith import enlarged_prime_set
from nadescent.errors import DomainError, check_int

from .oracles import (
    PSI,
    PSI_12_FACTORS,
    STRONG_LUCAS_PSEUDOPRIMES,
    STRONG_PSEUDOPRIMES_BASE_2,
    sieve_primes,
)

PSI_12 = PSI[11]
# Mersenne primes past psi_12, where Baillie-PSW decides
LARGE_PRIMES = (2**89 - 1, 2**107 - 1, 2**127 - 1)


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


class TestCheckInt:
    def test_returns_the_value(self):
        assert check_int(5, "n", 0) == 5

    @pytest.mark.parametrize("value", [True, 2.0, "2", None, -1])
    def test_refusals_name_the_argument(self, value):
        with pytest.raises(DomainError, match="n_cap must be an integer >= 0"):
            check_int(value, "n_cap", 0)
