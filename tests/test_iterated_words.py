"""Shuffle algebra and word-indexed iterated integrals."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest

from nadescent import (
    DomainError,
    FormSystem,
    Observable,
    PadicNumber,
    PadicSeries,
    evaluate_observable,
    iterated_integral,
    observable_product,
    shuffle,
)
from nadescent import padic_series
from nadescent.errors import (
    IrregularFormError,
    PrecisionExhaustedError,
    PrimeMismatchError,
)
from nadescent.iterated_words import _validate_word
from nadescent.padic_series import DEFAULT_PRECISION

from .oracles import brute_shuffle, factorial_valuation, padic_from_fraction


def const_one_system(p=5, trunc=8, prec=20):
    return FormSystem((PadicSeries.constant(p, 1, trunc, prec),))


def int_forms(p, rows, prec=20):
    return FormSystem(
        tuple(PadicSeries.from_int_coeffs(p, row, prec) for row in rows)
    )


class TestShuffle:
    def test_two_distinct_letters(self):
        assert shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}

    def test_repeated_letter_merges(self):
        assert shuffle((1,), (1,)) == {(1, 1): 2}

    def test_three_interleavings(self):
        assert shuffle((1, 2), (3,)) == {
            (1, 2, 3): 1,
            (1, 3, 2): 1,
            (3, 1, 2): 1,
        }

    def test_empty_word_is_identity(self):
        assert shuffle((), (1, 2)) == {(1, 2): 1}
        assert shuffle((2, 1), ()) == {(2, 1): 1}
        assert shuffle((), ()) == {(): 1}

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(60):
            u = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            assert shuffle(u, v) == brute_shuffle(u, v)

    def test_total_multiplicity_is_binomial(self):
        rng = random.Random(7)
        for _ in range(40):
            u = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4)))
            v = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4)))
            total = sum(shuffle(u, v).values())
            assert total == math.comb(len(u) + len(v), len(u))

    def test_commutative(self):
        assert shuffle((1, 2), (2,)) == shuffle((2,), (1, 2))

    def test_returned_dict_is_fresh(self):
        first = shuffle((1,), (2,))
        first.clear()
        assert shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}

    def test_letter_validation(self):
        with pytest.raises(DomainError):
            shuffle((0,), (1,))
        with pytest.raises(DomainError):
            shuffle((True,), (1,))

    @pytest.mark.parametrize(
        "word, size, message",
        [
            ((1, 0), None, "word letter must be an integer >= 1, got 0"),
            ((-2,), 3, "word letter must be an integer >= 1, got -2"),
            ((1, True), None, "word letter must be an integer >= 1, got True"),
            ((2, "1"), 3, "word letter must be an integer >= 1, got '1'"),
            ((1, 4, 2), 3, "letter 4 exceeds the 3 available forms"),
            ((4, 0), 3, "letter 4 exceeds the 3 available forms"),
        ],
    )
    def test_a_refused_word_names_its_first_bad_letter(self, word, size, message):
        with pytest.raises(DomainError) as exc:
            _validate_word(word, size)
        assert str(exc.value) == message

    @pytest.mark.parametrize("word", [(), (1,), (3, 1, 2), [2, 2]])
    def test_a_good_word_comes_back_as_a_tuple(self, word):
        assert _validate_word(word, 3) == tuple(word)


class TestFormSystem:
    def test_properties(self):
        system = int_forms(5, [[1, 2, 3], [0, 1, 0]])
        assert system.p == 5
        assert system.size == 2
        assert system.trunc_degree == 2
        assert system.working_prec == 20

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            FormSystem(())

    def test_rejects_mixed_primes(self):
        with pytest.raises(PrimeMismatchError):
            FormSystem(
                (
                    PadicSeries.from_int_coeffs(5, [1, 0]),
                    PadicSeries.from_int_coeffs(7, [1, 0]),
                )
            )

    def test_rejects_mixed_truncation(self):
        with pytest.raises(DomainError):
            FormSystem(
                (
                    PadicSeries.from_int_coeffs(5, [1, 0]),
                    PadicSeries.from_int_coeffs(5, [1, 0, 0]),
                )
            )

    def test_rejects_non_integral_coefficient(self):
        bad = PadicSeries(
            5, (PadicNumber(5, -1, 1, 3), PadicNumber.zero(5))
        )
        with pytest.raises(IrregularFormError) as exc:
            FormSystem((PadicSeries.from_int_coeffs(5, [1, 0]), bad))
        assert "form 2" in str(exc.value)
        assert "coefficient 0" in str(exc.value)

    def test_unknown_zero_at_the_boundary_is_integral(self):
        edge = PadicSeries(5, (PadicNumber.zero_to(5, 0), PadicNumber.zero(5)))
        assert FormSystem((edge,)).size == 1

    def test_working_prec_tracks_units(self):
        low = PadicSeries(5, (PadicNumber(5, 0, 2, 7),))
        assert FormSystem((low,)).working_prec == 7

    def test_working_prec_is_the_largest_relative_precision(self):
        # an O(p^12) knows more digits than any unit form, but none of them
        # relative ones; exact zeros have none either
        top, unknown, zero = (
            PadicNumber(5, 0, 2, 7),
            PadicNumber.zero_to(5, 12),
            PadicNumber.zero(5),
        )
        f = PadicSeries(5, (top, unknown, zero))
        g = PadicSeries(
            5, (PadicNumber(5, 2, 3, 9), PadicNumber(5, 1, 1, 4), unknown)
        )
        system = FormSystem((f, g))
        assert system.working_prec == 9
        assert system.working_prec == max(
            c.prec for h in (f, g) for c in h.coeffs if c.unit is not None
        )

    def test_working_prec_without_units_is_the_default(self):
        zeros = PadicSeries(7, (PadicNumber.zero(7), PadicNumber.zero_to(7, 30)))
        assert FormSystem((zeros, zeros)).working_prec == DEFAULT_PRECISION
        wide = PadicSeries(7, (PadicNumber(7, 3, 1, 40), PadicNumber.zero(7)))
        assert FormSystem((zeros, wide)).working_prec == 40


class TestIteratedIntegral:
    def test_empty_word_is_one(self):
        a0 = iterated_integral(const_one_system(), ())
        assert a0.coeff(0).agrees_with(PadicNumber.from_int(5, 1))
        assert all(a0.coeff(i).is_exact_zero() for i in range(1, 9))

    def test_single_letter_is_z(self):
        a1 = iterated_integral(const_one_system(), (1,))
        assert a1.coeff(0).is_exact_zero()
        assert a1.coeff(1).agrees_with(PadicNumber.from_int(5, 1))
        assert all(a1.coeff(i).agrees_with(PadicNumber.zero(5)) for i in range(2, 9))

    def test_double_letter_is_half_z_squared(self):
        a11 = iterated_integral(const_one_system(), (1, 1))
        assert a11.coeff(2).agrees_with(padic_from_fraction(5, Fraction(1, 2)))

    def test_triple_letter_is_sixth_z_cubed(self):
        a111 = iterated_integral(const_one_system(), (1, 1, 1))
        assert a111.coeff(3).agrees_with(
            padic_from_fraction(5, Fraction(1, 6))
        )
        assert a111.coeff(2).agrees_with(PadicNumber.zero(5))

    def test_factorial_power_law(self):
        system = const_one_system(trunc=8)
        a1 = iterated_integral(system, (1,))
        for k in range(1, 5):
            power = a1
            for _ in range(k - 1):
                power = power * a1
            repeated = iterated_integral(system, (1,) * k)
            assert repeated.scale_int(math.factorial(k)).agrees_with(power)

    def test_vanishing_at_base_point(self):
        system = int_forms(5, [[1, 2, 0, 1], [3, 0, 1, 0]])
        for word in [(1,), (2,), (1, 2), (2, 1, 1)]:
            series = iterated_integral(system, word)
            assert series.coeff(0).is_exact_zero()

    def test_valuation_bound_from_factorials(self):
        rng = random.Random(23)
        for p in (2, 3, 5):
            rows = [
                [rng.randrange(0, p**3) for _ in range(13)] for _ in range(2)
            ]
            system = int_forms(p, rows, prec=30)
            for word in [(1,), (2,), (1, 2), (2, 2), (1, 1, 2)]:
                series = iterated_integral(system, word)
                for m, floor in enumerate(series.vals()):
                    assert floor >= -factorial_valuation(m, p)

    def test_word_validation(self):
        system = const_one_system()
        with pytest.raises(DomainError):
            iterated_integral(system, (2,))  # only one form available
        with pytest.raises(DomainError):
            iterated_integral(system, (0,))

    def test_trunc_validation(self):
        system = const_one_system(trunc=8)
        with pytest.raises(DomainError):
            iterated_integral(system, (1,), trunc=0)
        with pytest.raises(DomainError):
            iterated_integral(system, (1,), trunc=9)
        short = iterated_integral(system, (1,), trunc=3)
        assert short.trunc_degree == 3

    def test_precision_exhaustion_is_loud(self):
        starved = PadicSeries(
            2,
            (
                PadicNumber.from_int(2, 1, 5),
                PadicNumber.zero_to(2, 1),
                PadicNumber.zero(2),
            ),
        )
        with pytest.raises(PrecisionExhaustedError):
            iterated_integral(FormSystem((starved,)), (1,))

    def test_precision_error_names_the_shortest_failing_suffix(self):
        starved = PadicSeries(
            2,
            (
                PadicNumber.from_int(2, 1, 5),
                PadicNumber.zero_to(2, 1),
                PadicNumber.zero(2),
            ),
        )
        ok = const_one_system(p=2, trunc=2)
        system = FormSystem(ok.forms + (starved,))
        with pytest.raises(PrecisionExhaustedError, match=r"word \(2,\) "):
            iterated_integral(system, (1, 2, 1, 2))

    def test_long_word_needs_no_stack_frames(self):
        system = int_forms(5, [[1, 0, 0, 0]])
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            series = iterated_integral(system, (1,) * 300)
        finally:
            sys.setrecursionlimit(saved)
        assert series.trunc_degree == 3
        assert all(c.is_exact_zero() for c in series.coeffs)


class TestShuffleIdentity:
    def test_random_instances(self):
        rng = random.Random(5)
        for trial in range(25):
            p = rng.choice([3, 5, 7])
            k = rng.randint(1, 2)
            rows = [
                [rng.randrange(0, p**2) for _ in range(13)] for _ in range(k)
            ]
            system = int_forms(p, rows, prec=25)
            nu = rng.randint(0, 2)
            u = tuple(rng.randint(1, k) for _ in range(nu))
            v = tuple(rng.randint(1, k) for _ in range(rng.randint(0, 4 - nu)))
            lhs = iterated_integral(system, u) * iterated_integral(system, v)
            rhs = None
            for w, mult in shuffle(u, v).items():
                piece = iterated_integral(system, w).scale_int(mult)
                rhs = piece if rhs is None else rhs + piece
            assert lhs.agrees_with(rhs), (p, u, v, trial)


class TestObservable:
    def test_from_terms_merges_and_sorts(self):
        obs = Observable.from_terms(5, [((2,), 1), ((1,), 2), ((2,), 3)])
        words = [w for w, _ in obs.terms]
        assert words == [(1,), (2,)]
        assert dict(obs.terms)[(2,)].agrees_with(PadicNumber.from_int(5, 4))

    def test_exact_zero_terms_pruned(self):
        obs = Observable.from_terms(5, [((1,), 0), ((2,), 1)])
        assert [w for w, _ in obs.terms] == [(2,)]

    def test_mapping_input(self):
        obs = Observable.from_terms(5, {(1, 2): 7})
        assert dict(obs.terms)[(1, 2)].agrees_with(PadicNumber.from_int(5, 7))

    def test_bad_coefficients_rejected(self):
        with pytest.raises(DomainError):
            Observable.from_terms(5, [((1,), 0.5)])
        with pytest.raises(DomainError):
            Observable.from_terms(5, [((1,), True)])
        with pytest.raises(PrimeMismatchError):
            Observable.from_terms(5, [((1,), PadicNumber.from_int(7, 1))])

    def test_product_is_the_shuffle(self):
        a1 = Observable.from_terms(5, [((1,), 1)])
        prod = observable_product(a1, a1)
        assert prod == Observable.from_terms(5, [((1, 1), 2)])

    def test_product_against_series_multiplication(self):
        system = int_forms(5, [[2, 1, 0, 3, 0, 0, 1], [1, 0, 4, 0, 0, 2, 0]])
        a = Observable.from_terms(5, [((1,), 2), ((2, 1), 1)])
        b = Observable.from_terms(5, [((2,), 3), ((), 1)])
        merged = evaluate_observable(observable_product(a, b), system)
        direct = evaluate_observable(a, system) * evaluate_observable(b, system)
        assert merged.agrees_with(direct)

    def test_prime_mismatch_in_product(self):
        with pytest.raises(PrimeMismatchError):
            observable_product(
                Observable.from_terms(5, [((1,), 1)]),
                Observable.from_terms(7, [((1,), 1)]),
            )


class TestEvaluateObservable:
    def test_constant_observable(self):
        series = evaluate_observable(
            Observable.from_terms(5, [((), 1)]), const_one_system()
        )
        assert series.coeff(0).agrees_with(PadicNumber.from_int(5, 1))

    def test_self_difference_vanishes(self):
        obs = Observable.from_terms(5, [((1,), 1), ((1,), -1)])
        series = evaluate_observable(obs, const_one_system())
        assert series.indistinguishable_from_zero()

    def test_shuffle_cancellation(self):
        a1 = Observable.from_terms(5, [((1,), 1)])
        squared = observable_product(a1, a1)
        double = Observable.from_terms(5, [((1, 1), -2)])
        combined = Observable.from_terms(
            5, list(squared.terms) + list(double.terms)
        )
        series = evaluate_observable(combined, const_one_system())
        assert series.indistinguishable_from_zero()

    def test_empty_observable_is_zero_series(self):
        series = evaluate_observable(
            Observable.from_terms(5, []), const_one_system(), trunc=4
        )
        assert series.trunc_degree == 4
        assert series.indistinguishable_from_zero()
        assert series.weierstrass_bound is None

    def test_result_carries_no_bound(self):
        series = evaluate_observable(
            Observable.from_terms(5, [((1,), 1)]), const_one_system()
        )
        assert series.weierstrass_bound is None
        bounded = series.with_weierstrass_bound(1)
        assert bounded.weierstrass_bound == 1

    def test_letters_checked_against_system(self):
        obs = Observable.from_terms(5, [((3,), 1)])
        with pytest.raises(DomainError):
            evaluate_observable(obs, const_one_system())

    def test_prime_mismatch(self):
        obs = Observable.from_terms(7, [((1,), 1)])
        with pytest.raises(PrimeMismatchError):
            evaluate_observable(obs, const_one_system())

    def test_a_coefficient_over_another_prime(self):
        obs = Observable(5, (((1,), PadicNumber.from_int(7, 1)),))
        with pytest.raises(PrimeMismatchError):
            evaluate_observable(obs, const_one_system())

    def test_zero_to_coefficients(self):
        # O(5^-3) a_(1,2) knows coefficient m only to O(5^(v - 3)), v the
        # valuation of that coefficient of a_(1,2): O(5^-3) at z^3, below
        # every digit of the other terms; O(5^2) a_(2) and the exact zero
        # take the sum's precision no lower than that
        system = int_forms(5, [[1, 2, 3, 4, 5], [3, 0, 1, 0, 2]], prec=6)
        words = [(), (1,), (1, 2), (2,), (2, 2)]
        coeffs = [
            PadicNumber.from_int(5, 7, 6),
            PadicNumber.from_int(5, 3, 6),
            PadicNumber.zero_to(5, -3),
            PadicNumber.zero_to(5, 2),
            PadicNumber.zero(5),
        ]
        obs = Observable(5, tuple(zip(words, coeffs)))
        got = evaluate_observable(obs, system)
        want = None
        for w, c in zip(words, coeffs):
            piece = iterated_integral(system, w).scale(c)
            want = piece if want is None else want + piece
        assert got.coeffs == want.coeffs
        assert got.coeff(3) == PadicNumber.zero_to(5, -3)

    @staticmethod
    def count_valuations(monkeypatch) -> list:
        """The lengths of the series whose valuation floors are taken from
        now on."""
        calls = []
        real = padic_series._valuations

        def counting_valuations(p, base, ints, abss):
            calls.append(len(ints))
            return real(p, base, ints, abss)

        monkeypatch.setattr(padic_series, "_valuations", counting_valuations)
        return calls

    def test_one_valuation_pass_per_form_and_integral(self, monkeypatch):
        system = int_forms(5, [[1, 2, 3, 4, 5, 6, 7], [3, 0, 1, 0, 2, 0, 1]])
        words = [(1,), (2, 1), (1, 2, 1), (2, 2, 1), (1, 1, 2), (2,)]
        obs = Observable.from_terms(5, [(w, i + 2) for i, w in enumerate(words)])
        calls = self.count_valuations(monkeypatch)
        evaluate_observable(obs, system)
        # only the truncated forms: with one precision everywhere, no product
        # or sum raises a relative precision, so no integral's floors are read
        assert calls == [system.trunc_degree] * system.size

    def test_forms_of_two_precisions_read_the_floors_they_need(self, monkeypatch):
        units = [3, 7, 1, 12, 4, 2, 9]
        sixes = [PadicNumber(5, i % 3, u, 6) for i, u in enumerate(units)]
        system = FormSystem(
            (PadicSeries(5, sixes), PadicSeries(5, [3, 0, 1, 0, 2, 0, 1], None, 20))
        )
        terms = [((1, 2), PadicNumber(5, 1, 3, 4)), ((2,), 7)]
        obs = Observable.from_terms(5, terms)
        calls = self.count_valuations(monkeypatch)
        evaluate_observable(obs, system)
        # the two forms; a_(2,), whose 20 digits exceed form 1's 6 in
        # f_1 a_(2,); a_(1, 2), whose 6 digits exceed its coefficient's 4
        assert len(calls) == system.size + 2
