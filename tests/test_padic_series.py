"""Series arithmetic, Strassmann counts, zero isolation, separation reports."""

from __future__ import annotations

import gc
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nadescent import (
    DomainError,
    PadicNumber,
    PadicSeries,
    isolate_zeros,
    root_count_positive_valuation,
    separation_modulus,
)
from nadescent import padic_series
from nadescent.arith import v_p
from nadescent.jsonio import series_from_json
from nadescent.errors import (
    MultipleRootSuspectedError,
    PrecisionExhaustedError,
    PrimeMismatchError,
    RootCountPrecisionError,
)
from nadescent.padic_series import (
    Chart,
    DiskSeries,
    SeparationReport,
    SeparationStatus,
    _isolate_classes,
    _newton_certified,
    newton_polygon,
)

from .oracles import (
    bound_refusal_by_valuations,
    class_has_no_root_by_objects,
    completions,
    isolate_classes_by_recursion,
    newton_certified_by_evaluation,
    root_count_by_hull,
    series_parts_by_numbers,
    strassmann_vertex_by_valuations,
)


def S(ints, p=5, prec=20, wb="auto"):
    return PadicSeries.from_int_coeffs(p, ints, prec, weierstrass_bound=wb)


class TestSeriesArithmetic:
    def test_sum_cancels_linear_term(self):
        total = S([1, 1]) + S([1, -1])
        assert total.coeff(0).agrees_with(PadicNumber.from_int(5, 2))
        assert total.coeff(1) == PadicNumber.zero_to(5, 20)
        assert total.agrees_with(S([2, 0]))

    def test_product_difference_of_squares(self):
        prod = S([1, 1, 0]) * S([1, -1, 0])
        assert prod.agrees_with(S([1, 0, -1]))

    def test_scale_by_p_shifts_valuations(self):
        f = S([1, 2, 3])
        g = f.scale(PadicNumber.from_int(5, 5))
        for i in range(3):
            assert g.coeff(i).val == f.coeff(i).val + 1

    def test_result_trunc_is_min_of_inputs(self):
        total = S([1, 1, 1, 1]) + S([1, 1])
        assert total.trunc_degree == 1
        prod = S([1, 1, 1, 1]) * S([1, 1])
        assert prod.trunc_degree == 1

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            S([1], p=5) + S([1], p=7)
        with pytest.raises(PrimeMismatchError):
            PadicSeries(5, (PadicNumber.from_int(7, 1),))

    def test_operations_drop_the_degree_bound(self):
        f, g = S([1, 1]), S([1, 2])
        assert (f + g).weierstrass_bound is None
        assert (f * g).weierstrass_bound is None

    def test_bound_survives_recentering_and_rescale(self):
        f = S([0, -5, 1])
        assert f.weierstrass_bound == 2
        assert f.shift_center(3).weierstrass_bound == 2
        assert f.rescale_p().weierstrass_bound == 2
        assert f.scale_int(7).weierstrass_bound == 2
        assert f.scale_int(0).weierstrass_bound is None

    def test_truncate(self):
        f = S([1, 2, 3, 4])
        assert f.truncate(5) is f
        cut = f.truncate(1)
        assert cut.trunc_degree == 1 and cut.weierstrass_bound is None
        with pytest.raises(DomainError):
            f.truncate(-1)

    def test_constant_and_auto_bound(self):
        one = PadicSeries.constant(5, 1, 6)
        assert one.trunc_degree == 6 and one.weierstrass_bound == 0
        assert all(one.coeff(i).is_exact_zero() for i in range(1, 7))
        assert S([0, 3, 0, 0]).weierstrass_bound == 1

    def test_evaluate_matches_integer_arithmetic(self):
        f = S([3, -2, 0, 1])  # 3 - 2z + z^3
        for x in (-2, 0, 1, 7):
            want = 3 - 2 * x + x**3
            assert f.evaluate(x).agrees_with(PadicNumber.from_int(5, want))

    def test_evaluate_refuses_a_padic_point(self):
        with pytest.raises(DomainError):
            S([3, -2, 0, 1]).evaluate(PadicNumber.from_int(5, 7, prec=8))

    def test_shift_center_is_substitution(self):
        f = S([1, 4, -3, 2])
        g = f.shift_center(6)
        for x in (0, 1, -4, 10):
            assert g.evaluate(x).agrees_with(f.evaluate(6 + x))

    def test_rescale_p_is_substitution(self):
        f = S([1, 4, -3, 2])
        g = f.rescale_p()
        for x in (0, 1, 3):
            assert g.evaluate(x).agrees_with(f.evaluate(5 * x))

    def test_rescale_p_shifts_valuations(self):
        top = S([0, 0, 0, 2]).rescale_p().coeff(3)
        assert top.val == 3 and top.agrees_with(PadicNumber.from_int(5, 250))
        zero, unknown = PadicNumber.zero(5), PadicNumber.zero_to(5, 2)
        g = PadicSeries(5, [zero, unknown]).rescale_p()
        assert g.coeff(0).is_exact_zero() and g.coeff(1).abs_prec() == 3

    def test_derivative_antiderivative(self):
        # f'(c) is the linear coefficient of the Taylor shift to c
        f = S([2, 6, 12])  # 2 + 6z + 12z^2
        anti = f.antiderivative()
        assert anti.coeff(0).is_exact_zero()
        for c in (-3, 0, 1, 5, 7):
            want = PadicNumber.from_int(5, 6 + 24 * c)
            assert f.shift_center(c).coeff(1).agrees_with(want)
            assert anti.shift_center(c).coeff(1).agrees_with(f.evaluate(c))

    def test_antiderivative_divides_each_coefficient(self):
        # coefficient i is divided by i + 1: 10 / 2, 10 / 5, O(5^3) / 5
        anti = S([0, 10, 0, 0, 10]).antiderivative()
        assert anti.coeff(2).agrees_with(PadicNumber.from_int(5, 5))
        assert anti.coeff(5).agrees_with(PadicNumber.from_int(5, 2))
        zero, unknown = PadicNumber.zero(5), PadicNumber.zero_to(5, 3)
        anti = PadicSeries(5, [zero, zero, zero, zero, unknown]).antiderivative()
        assert anti.coeff(5).abs_prec() == 2
        assert anti.coeff(4).is_exact_zero()

    def test_antiderivative_spends_absolute_precision(self):
        f = PadicSeries(5, tuple(PadicNumber(5, 0, 1, 4) for _ in range(5)))
        anti = f.antiderivative()
        # degree-4 coefficient divides by 5: valuation drops, abs prec drops
        assert anti.coeff(5).val == -1
        assert anti.coeff(5).abs_prec() == 3

    def test_indistinguishable_from_zero(self):
        assert PadicSeries.constant(5, 0, 3).indistinguishable_from_zero()
        f = S([1, 1]) + S([1, 1]).scale_int(-1)
        assert f.indistinguishable_from_zero()
        assert not S([0, 1]).indistinguishable_from_zero()


class TestValuationFloors:
    def test_vals_returns_a_copy(self):
        f = S([5, 1, 0, 25])
        vals = f.vals()
        vals[0] = -99
        vals.append(7)
        assert f.vals() == [1, 0, float("inf"), 2]
        fresh = S([5, 1, 0, 25])
        assert (f * f).coeffs == (fresh * fresh).coeffs
        assert f.scale(PadicNumber.from_int(5, 3)).coeffs == fresh.scale(
            PadicNumber.from_int(5, 3)
        ).coeffs

    def test_products_and_multiples_take_each_valuation_once(self, monkeypatch):
        # a series made by an operation takes its floors on first use; one
        # built from integers has them from the start (the next test)
        f = S([5, 1, 0, 25]).with_weierstrass_bound(None)
        g = S([2, 50, 3]).with_weierstrass_bound(None)
        calls = []
        real = padic_series._valuations

        def counting_valuations(p, base, ints, abss):
            calls.append(len(ints))
            return real(p, base, ints, abss)

        monkeypatch.setattr(padic_series, "_valuations", counting_valuations)
        c = PadicNumber.from_int(5, 10)
        for _ in range(3):
            f * g, g * f, f.scale(c), g.scale(c), f.vals()
        assert sorted(calls) == [3, 4]

    def test_series_built_from_coefficients_take_no_valuation_later(self, monkeypatch):
        built = [
            S([5, 1, 0, 25]),
            PadicSeries.constant(5, 50, 3),
            PadicSeries(5, [PadicNumber.zero_to(5, 3), -75, PadicNumber.zero(5)]),
        ]
        calls = []
        monkeypatch.setattr(padic_series, "_valuations", lambda *a: calls.append(a))
        vals = [f.vals() for f in built]
        assert calls == []
        monkeypatch.undo()
        assert vals == [f.with_weierstrass_bound(None).vals() for f in built]


@st.composite
def _coefficient_docs(draw):
    """(p, prec, coefficient documents, their PadicNumbers, bound)."""
    p = draw(st.sampled_from([2, 3, 5, 31]))
    prec = draw(st.integers(1, 30))
    docs, numbers = [], []
    for _ in range(draw(st.integers(1, 8))):
        x = draw(st.integers(-(2**400), 2**400) | st.just(0))
        x *= p ** draw(st.sampled_from([0, 0, 1, 2, 7]))
        form = draw(st.sampled_from(["int", "str", "zero", "zero_to", "unit"]))
        if form == "int" or form == "str" or (form == "unit" and not x):
            sign = draw(st.sampled_from(["", " ", "+" if x >= 0 else ""]))
            docs.append(x if form == "int" else f"{sign}{x} ")
            numbers.append(PadicNumber.from_int(p, x, prec))
        elif form == "zero":
            docs.append({"zero": True})
            numbers.append(PadicNumber.zero(p))
        elif form == "zero_to":
            k = draw(st.integers(-3, 40))
            docs.append({"zero_to": k})
            numbers.append(PadicNumber.zero_to(p, k))
        else:
            val, cprec = draw(st.integers(-3, 40)), draw(st.integers(1, 30))
            docs.append({"val": val, "unit": x // p ** v_p(x, p), "prec": cprec})
            numbers.append(PadicNumber(p, val, x // p ** v_p(x, p), cprec))
    bound = draw(st.none() | st.integers(-1, len(docs)))
    return p, prec, docs, numbers, bound


def _stored_form(build):
    """The stored form of ``build()``, or the text of its DomainError."""
    try:
        f = build()
    except DomainError as exc:
        return str(exc)
    return f.base, f.ints, f.abss, f.weierstrass_bound, f.vals()


class TestSeriesFromValues:
    """A series read from integers, without a PadicNumber per coefficient,
    is stored as the series of the numbers ``PadicNumber.from_int`` gives."""

    @staticmethod
    def _want(p, numbers, bound):
        failed = _stored_form(lambda: PadicSeries(p, numbers, bound))
        if isinstance(failed, str):
            return failed
        base, ints, abss, vals = series_parts_by_numbers(p, numbers)
        return base, ints, abss, bound, vals

    @settings(max_examples=300, deadline=None)
    @given(case=_coefficient_docs())
    def test_parse_matches_the_series_of_numbers(self, case):
        p, prec, docs, numbers, bound = case
        want = self._want(p, numbers, bound)
        doc = {"coeffs": docs, "weierstrass_bound": bound}
        got = _stored_form(lambda: series_from_json(doc, p, prec, "$"))
        assert got == (f"$: {want}" if isinstance(want, str) else want)

    @settings(max_examples=300, deadline=None)
    @given(case=_coefficient_docs())
    def test_int_constructors_match_the_series_of_numbers(self, case):
        p, prec, docs, _, bound = case
        ints = [int(d) for d in docs if not isinstance(d, dict)] or [0]
        numbers = [PadicNumber.from_int(p, x, prec) for x in ints]
        got = _stored_form(lambda: PadicSeries.from_int_coeffs(p, ints, prec, bound))
        assert got == self._want(p, numbers, bound)
        head, trunc = ints[-1], len(ints) - 1
        want = self._want(p, numbers[-1:] + [PadicNumber.zero(p)] * trunc, 0)
        assert _stored_form(lambda: PadicSeries.constant(p, head, trunc, prec)) == want


class TestNewtonPolygon:
    """``newton_polygon`` returns the Strassmann vertex (I, m): m the least
    v(c_i) + i over the known nonzero c_i in scope, I the largest i
    attaining it and the count of roots of valuation >= 1."""

    def test_z_squared_minus_p(self):
        assert newton_polygon(S([-5, 0, 1])) == (0, 1)
        assert root_count_positive_valuation(S([-5, 0, 1])) == 0

    def test_z_squared_minus_z(self):
        assert newton_polygon(S([0, -1, 1])) == (1, 1)
        assert root_count_positive_valuation(S([0, -1, 1])) == 1

    def test_z_times_z_minus_p(self):
        # the tie v + i = 2 at i = 1 and i = 2 goes to the larger index
        assert newton_polygon(S([0, -5, 1])) == (2, 2)
        assert root_count_positive_valuation(S([0, -5, 1])) == 2

    def test_constant_one(self):
        assert root_count_positive_valuation(S([1])) == 0

    def test_multiplicity_counted(self):
        # z^2 (z - p): origin order 2 plus a slope -1 edge
        assert root_count_positive_valuation(S([0, 0, -5, 1])) == 3

    def test_all_zero_polygon(self):
        with pytest.raises(RootCountPrecisionError):
            newton_polygon(PadicSeries.constant(5, 0, 2))

    def test_missing_bound_is_a_domain_error(self):
        f = S([0, -1, 1]).with_weierstrass_bound(None)
        with pytest.raises(DomainError):
            newton_polygon(f)

    def test_bound_restricts_scope(self):
        # with d* = 1 the z^2 coefficient is outside the zero-governing range
        f = PadicSeries.from_int_coeffs(5, [0, -1, 5], weierstrass_bound=1)
        assert newton_polygon(f) == (1, 1)
        # an O(p^k) beyond d* is never consulted, however low its k
        unit, unknown = PadicNumber.from_int(5, 1), PadicNumber.zero_to(5, -5)
        assert newton_polygon(PadicSeries(5, (unit, unknown), 0)) == (0, 0)
        with pytest.raises(RootCountPrecisionError):
            newton_polygon(PadicSeries(5, (unit, unknown), 1))

    @pytest.mark.parametrize(
        "coeffs, bound, refuted",
        [
            ([1, 0, 0, 1], 0, True),      # 1 + z^3: a unit beyond d* = 0
            ([1, 0, 0, 1], 3, False),
            ([5, 0, 1], 1, True),         # v(c_2) = 0 < v(c_0) = 1
            ([5, 0, 5], 1, True),         # ties refute too
            ([5, 0, 25], 1, False),
            ([0, 0, 25], 1, True),        # exact zeros have no floor
        ],
    )
    def test_bound_refuted_by_visible_coefficients(self, coeffs, bound, refuted):
        if refuted:
            with pytest.raises(DomainError, match="refuted"):
                S(coeffs, wb=bound)
        else:
            assert S(coeffs, wb=bound).weierstrass_bound == bound

    def test_unknown_tail_and_unknown_floor(self):
        unit, unknown = PadicNumber.from_int(5, 1), PadicNumber.zero_to(5, 0)
        # O(p^k) beyond d* never refutes
        assert PadicSeries(5, (unit, unknown), 0).weierstrass_bound == 0
        # an O(p^k) at or below d* counts with its floor k
        with pytest.raises(DomainError, match="refuted"):
            PadicSeries(5, (unknown, PadicNumber.from_int(5, 5), unit), 1)

    def test_unknown_zero_below_hull_is_an_error(self):
        coeffs = (
            PadicNumber.from_int(5, 25),
            PadicNumber.zero_to(5, 0),
            PadicNumber.from_int(5, 1),
        )
        with pytest.raises(RootCountPrecisionError):
            newton_polygon(PadicSeries(5, coeffs, 2))

    def test_unknown_zero_on_hull_boundary_is_fine(self):
        # O(5) z meets the line v + i = 2 left of I = 2: the count stands
        coeffs = (
            PadicNumber.from_int(5, 25),
            PadicNumber.zero_to(5, 1),
            PadicNumber.from_int(5, 1),
        )
        assert newton_polygon(PadicSeries(5, coeffs, 2)) == (2, 2)
        assert root_count_positive_valuation(PadicSeries(5, coeffs, 2)) == 2

    def test_leading_unknown_zero_rules(self):
        unit = PadicNumber.from_int(5, 1)
        low = PadicSeries(5, (PadicNumber.zero_to(5, 0), unit), 1)
        with pytest.raises(RootCountPrecisionError):
            newton_polygon(low)
        ok = PadicSeries(5, (PadicNumber.zero_to(5, 1), unit), 1)
        assert newton_polygon(ok) == (1, 1)
        assert root_count_positive_valuation(ok) == 1

    def test_trailing_unknown_zero_rules(self):
        unit = PadicNumber.from_int(5, 1)

        def tail(k):
            return PadicSeries(5, (unit, unit, PadicNumber.zero_to(5, k)), 2)

        # m = 0 at I = 0; O(5^k) z^2 could move the vertex only if k + 2 <= 0
        for k in (-3, -2):
            with pytest.raises(RootCountPrecisionError):
                newton_polygon(tail(k))
        for k in (-1, 0):
            assert root_count_positive_valuation(tail(k)) == 0

    def test_exact_zero_leading_coefficients_count_as_roots(self):
        # z^3 * unit: all three origin roots certified by exact zeros
        assert newton_polygon(S([0, 0, 0, 7])) == (3, 3)
        assert root_count_positive_valuation(S([0, 0, 0, 7])) == 3


class TestIsolateZeros:
    def test_two_unit_roots_split_at_depth_one(self):
        disks = isolate_zeros(S([0, -1, 1]))
        got = {(d.center_digits, d.depth, d.zero_count) for d in disks}
        assert got == {((0,), 1, 1), ((1,), 1, 1)}
        assert all(not d.multiplicity_flag for d in disks)

    def test_colliding_roots_need_depth_two(self):
        disks = isolate_zeros(S([0, -5, 1]))
        got = {(d.center_digits, d.depth) for d in disks}
        assert got == {((0, 0), 2), ((0, 1), 2)}
        centers = sorted(d.center_int(5) for d in disks)
        assert centers == [0, 5]

    def test_three_roots_mixed_depths(self):
        # z (z - 1) (z - 5) = -5z + 6z^2 - z^3 ... expanded: z^3 - 6z^2 + 5z
        disks = isolate_zeros(S([0, 5, -6, 1]))
        by_center = {d.center_int(5): d.depth for d in disks}
        assert by_center == {0: 2, 5: 2, 1: 1}

    def test_no_zeros(self):
        assert isolate_zeros(S([1])) == []
        assert isolate_zeros(S([-5, 0, 1])) == []  # both roots irrational

    def test_double_zero_raises_with_diagnostics(self):
        with pytest.raises(MultipleRootSuspectedError) as exc:
            isolate_zeros(S([0, 0, 1]), chart_id="c0", depth_cap=6)
        err = exc.value
        assert err.disks == ()
        assert len(err.failures) == 1
        failure = err.failures[0]
        assert failure.reason is SeparationStatus.MULTIPLE_ROOT_SUSPECTED
        assert failure.depth == 6
        assert failure.residual_count == 2
        assert failure.chart_id == "c0"

    def test_multiple_beats_precision_in_the_raised_type(self):
        # z^2 shifted by an unknown-zero constant: the double class at 0 and
        # precision-starved siblings both fail; the multiple-root signal wins
        coeffs = (
            PadicNumber.zero_to(5, 12),
            PadicNumber.zero(5),
            PadicNumber.from_int(5, 1),
        )
        with pytest.raises(MultipleRootSuspectedError):
            isolate_zeros(PadicSeries(5, coeffs, 2), depth_cap=4)

    def test_precision_exhausted(self):
        coeffs = (
            PadicNumber.zero_to(5, 3),
            PadicNumber.zero(5),
            PadicNumber.from_int(5, 1),
        )
        with pytest.raises(PrecisionExhaustedError) as exc:
            isolate_zeros(PadicSeries(5, coeffs, 2), depth_cap=8)
        assert all(
            f.reason is SeparationStatus.PRECISION_EXHAUSTED
            for f in exc.value.failures
        )

    def test_certified_disks_survive_on_the_error(self):
        # one clean unit root plus a double root at the origin
        # f = z^2 (z - 1) = z^3 - z^2... wait: roots 0 (double), 1 (simple)
        with pytest.raises(MultipleRootSuspectedError) as exc:
            isolate_zeros(S([0, 0, -1, 1]), depth_cap=5)
        disks = exc.value.disks
        assert [(d.center_digits, d.depth) for d in disks] == [((1,), 1)]

    def test_depth_cap_validation(self):
        for cap in (0, -3, 2.5, True, "4"):
            with pytest.raises(DomainError):
                isolate_zeros(S([0, 1]), depth_cap=cap)

    def test_missing_bound_propagates_as_domain_error(self):
        # z^2 - 3 has no root mod 7, but without a bound nothing is certified
        for f in (S([0, -1, 1]), S([-3, 0, 1], p=7)):
            with pytest.raises(DomainError):
                isolate_zeros(f.with_weierstrass_bound(None))

    def test_exact_evaluation_certifies_without_hensel_gap(self):
        disks = isolate_zeros(S([-2, 1]))  # root at the unit 2
        assert [(d.center_digits, d.depth) for d in disks] == [((2,), 1)]


class TestResiduePrefilter:
    """Only the classes where p^-v f mod p vanishes are shifted; every
    other series falls back to all p classes."""

    @pytest.fixture
    def shifts(self, monkeypatch):
        calls = []
        shift_center = PadicSeries.shift_center

        def counting(series, c):
            calls.append(c)
            return shift_center(series, c)

        monkeypatch.setattr(PadicSeries, "shift_center", counting)
        return calls

    def test_only_the_root_classes_are_shifted(self, shifts):
        disks = isolate_zeros(S([0, -1, 1], p=31))
        assert [d.center_digits for d in disks] == [(0,), (1,)]
        assert shifts == [0, 1]

    def test_a_rootless_reduction_shifts_nothing(self, shifts):
        # 3 is not a square mod 7
        assert isolate_zeros(S([-3, 0, 1], p=7)) == []
        assert shifts == []

    def test_all_exact_zero_series_keeps_its_refusals(self):
        f = PadicSeries(5, [PadicNumber.zero(5)] * 3, 2)
        with pytest.raises(PrecisionExhaustedError) as exc:
            isolate_zeros(f)
        assert [(x.center_digits, x.reason) for x in exc.value.failures] == [
            ((c,), SeparationStatus.PRECISION_EXHAUSTED) for c in range(5)
        ]

    def test_a_coefficient_unknown_mod_p_keeps_the_refusals(self):
        # 1 + O(5^0) z + 5 z^2: the linear coefficient is not known mod 5,
        # so every class is shifted; on class 0 the unit constant term
        # fixes m = 0 and O(5^0) z lies above it, so the Strassmann count
        # certifies that class empty, while every other shift mixes the
        # unknown into the constant term and is refused
        coeffs = (
            PadicNumber.from_int(5, 1),
            PadicNumber.zero_to(5, 0),
            PadicNumber.from_int(5, 5),
        )
        with pytest.raises(PrecisionExhaustedError) as exc:
            isolate_zeros(PadicSeries(5, coeffs, 2))
        assert [
            (x.center_digits, x.reason, x.residual_count)
            for x in exc.value.failures
        ] == [((c,), SeparationStatus.PRECISION_EXHAUSTED, None) for c in range(1, 5)]

    def test_an_unknown_coefficient_beyond_the_bound_keeps_the_refusals(self):
        # 1 + z + O(5^0) z^2 with bound 1: the shift by c mixes the unknown
        # O(5^0) c^2 into the constant term, so 1 + c mod 5 decides nothing
        coeffs = (
            PadicNumber.from_int(5, 1),
            PadicNumber.from_int(5, 1),
            PadicNumber.zero_to(5, 0),
        )
        with pytest.raises(PrecisionExhaustedError) as exc:
            isolate_zeros(PadicSeries(5, coeffs, 1))
        assert [x.center_digits for x in exc.value.failures] == [
            (1,), (2,), (3,), (4,)
        ]

    def test_a_needless_refusal_becomes_a_certified_answer(self):
        # 1 + O(5) z + 5^10 z^2 is 1 mod 5, so it has no zero on Z_5; the
        # residue filter drops every class, and the Strassmann count would
        # certify each one empty too (O(5) z lies above m = 0)
        coeffs = (
            PadicNumber.from_int(5, 1),
            PadicNumber.zero_to(5, 1),
            PadicNumber.from_int(5, 5**10),
        )
        report = separation_modulus([("c", [PadicSeries(5, coeffs, 2)])])
        assert report == SeparationReport((), 1, SeparationStatus.SEPARATED, ())


class TestSeparationModulus:
    def test_simple_fixture_m1(self):
        report = separation_modulus([("affine-0", [S([0, -1, 1]), S([-2, 1])])])
        assert report.status is SeparationStatus.SEPARATED
        assert report.modulus == 1
        assert len(report.disks) == 3
        assert report.failures == ()

    def test_zp_fixture_m2(self):
        report = separation_modulus(
            [("affine-0", [S([0, -5, 1])]), ("affine-1", [S([0, -1, 1])])]
        )
        assert report.status is SeparationStatus.SEPARATED
        assert report.modulus == 2

    def test_double_zero_fixture(self):
        report = separation_modulus([("affine-0", [S([0, 0, 1])])])
        assert report.status is SeparationStatus.MULTIPLE_ROOT_SUSPECTED
        assert len(report.failures) == 1

    def test_status_aggregation_prefers_multiple(self):
        starved = PadicSeries(
            5,
            (
                PadicNumber.zero_to(5, 3),
                PadicNumber.zero(5),
                PadicNumber.from_int(5, 1),
            ),
            2,
        )
        report = separation_modulus(
            [("a", [starved]), ("b", [S([0, 0, 1])])]
        )
        assert report.status is SeparationStatus.MULTIPLE_ROOT_SUSPECTED
        reasons = {f.reason for f in report.failures}
        assert SeparationStatus.PRECISION_EXHAUSTED in reasons

    def test_empty_disk_set_keeps_modulus_one(self):
        report = separation_modulus([("a", [S([1])])])
        assert report.status is SeparationStatus.SEPARATED
        assert report.modulus == 1
        assert report.disks == ()

    def test_ordering_is_by_chart_id_then_position(self):
        report = separation_modulus(
            [
                ("zeta", [S([-2, 1])]),
                ("alpha", [S([-3, 1]), S([-1, 1])]),
            ]
        )
        ids = [d.chart_id for d in report.disks]
        assert ids == ["alpha:0", "alpha:1", "zeta:0"]

    def test_duplicate_disk_labels_rejected(self):
        chart = Chart(
            chart_id="a",
            disks=(
                DiskSeries(label="x", series=S([-2, 1])),
                DiskSeries(label="x", series=S([-3, 1])),
            ),
        )
        with pytest.raises(DomainError):
            separation_modulus([chart])

    def test_same_label_on_different_charts_is_fine(self):
        report = separation_modulus(
            [
                Chart("a", (DiskSeries("x", S([-2, 1])),)),
                Chart("b", (DiskSeries("x", S([-3, 1])),)),
            ]
        )
        assert report.status is SeparationStatus.SEPARATED

    @pytest.mark.parametrize(
        "options", [{"depth_cap": 0}, {"depth_cap": 2.5}, {"depth_cap": True}]
    )
    def test_depth_cap_and_jobs_must_be_counts(self, options):
        with pytest.raises(DomainError):
            separation_modulus([("c0", [S([0, -1, 1])])], **options)

    def test_deep_walk_needs_no_stack_frames(self):
        # roots 0 and 2^300 agree in 300 binary digits
        f = PadicSeries.from_int_coeffs(2, [0, -(2**300), 1], 400)
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            report = separation_modulus([("c0", [f])], depth_cap=400)
        finally:
            sys.setrecursionlimit(saved)
        assert report.status is SeparationStatus.SEPARATED
        assert report.modulus == 301
        assert len(report.disks) == 2


@st.composite
def planted_series(draw, primes):
    """A series over one of ``primes`` with planted roots, some coefficients
    replaced by O(p^k) or the exact zero, under a Weierstrass bound its
    coefficients do not refute."""
    p = draw(st.sampled_from(primes))
    roots = draw(
        st.lists(
            st.one_of(
                st.integers(-(p**3), p**3),
                st.integers(0, 3).map(lambda j: p**j),
                st.integers(1, 4).map(lambda j: 1 + p**j),
            ),
            min_size=1,
            max_size=4,
        )
    )
    ints = [draw(st.sampled_from([1, -1, p, 2]))]
    for r in roots:  # multiply by (z - r)
        ints = [a - r * b for a, b in zip(ints + [0], [0] + ints)]
    prec = draw(st.integers(2, 12))
    coeffs = []
    for n in ints:
        kind = draw(st.sampled_from(["int", "int", "int", "ztp", "zero"]))
        if kind == "ztp":
            coeffs.append(PadicNumber.zero_to(p, draw(st.integers(0, 6))))
        elif kind == "zero":
            coeffs.append(PadicNumber.zero(p))
        else:
            coeffs.append(PadicNumber.from_int(p, n, prec))
    bound = draw(st.integers(0, len(coeffs) - 1))
    try:
        return PadicSeries(p, coeffs, bound)
    except DomainError:
        assume(False)


@st.composite
def walk_cases(draw):
    """A series of :func:`planted_series` and a depth cap."""
    return draw(planted_series([2, 3, 5, 7, 11])), draw(st.integers(1, 8))


@st.composite
def class_cases(draw):
    """A series of :func:`planted_series` over p in {2, 3, 5, 7} and a depth
    from 1 to 5."""
    return draw(planted_series([2, 3, 5, 7])), draw(st.integers(1, 5))


# the golden charts whose Newton test fails at a class before it certifies
P2_CHART = S([-168, 100, -18, 1], p=2, wb=3)  # (z - 6)((z - 6)^2 - 8)
P5_CHART = S([-100, 70, -15, 1], p=5, wb=3)
P3_CHART = S([-18, 24, -9, 1], p=3, wb=3)


def is_sublist(short, long) -> bool:
    """True when ``short`` is ``long`` with some items left out, in order."""
    rest = iter(long)
    return all(any(x == y for y in rest) for x in short)


class TestResidueWalk:
    @settings(max_examples=200, deadline=None)
    @given(case=walk_cases())
    @example(case=(P2_CHART, 2))
    @example(case=(P2_CHART, 3))
    @example(case=(P5_CHART, 2))
    @example(case=(P3_CHART, 2))
    def test_stack_walk_matches_the_recursion(self, case):
        # The walk skips the classes its residue filter proves rootless, so
        # it may drop refusals the recursion makes; it must keep every disk
        # and every other failure, in order.
        f, depth_cap = case
        disks, failures = _isolate_classes(f, "c0", depth_cap)
        want_disks, want_failures = isolate_classes_by_recursion(f, "c0", depth_cap)
        assert disks == want_disks
        assert is_sublist(failures, want_failures)
        for x in set(want_failures) - set(failures):
            assert (x.reason, x.residual_count) == (
                SeparationStatus.PRECISION_EXHAUSTED,
                None,
            )
            assert class_has_no_root_by_objects(f, x.center_digits)

    @settings(max_examples=300, deadline=None)
    @given(case=class_cases())
    @example(case=(P2_CHART, 3))
    @example(case=(P5_CHART, 2))
    @example(case=(P3_CHART, 2))
    def test_the_class_series_certifies_as_evaluation_does(self, case):
        # at every class down to the depth that counts one root, Newton's
        # test read from the class series is the test by evaluation at the
        # class center; a class counting no root has none below it
        f, depth_cap = case
        by_evaluation = newton_certified_by_evaluation(f)
        pending = [((), f)]
        while pending:
            digits, series = pending.pop()
            for c in range(f.p):
                shifted = series.shift_center(c)
                child = digits + (c,)
                try:
                    count, m = newton_polygon(shifted)
                except RootCountPrecisionError:
                    continue
                if count == 1:
                    center = sum(d * f.p**j for j, d in enumerate(child))
                    got = _newton_certified(shifted, m, len(child))
                    assert got == by_evaluation(center)
                if count and len(child) < depth_cap:
                    pending.append((child, shifted.rescale_p()))

    def test_a_failed_newton_test_certifies_one_digit_deeper(self):
        # the class 2 + 4Z_2 of (z - 6)((z - 6)^2 - 8) counts one root, but
        # v(f(2)) = 5 is not above 2 v(f'(2)) = 6; in the class 6 + 8Z_2,
        # f(6) = 0 is known to O(2^23) and v(f'(6)) = 3
        g2 = P2_CHART.shift_center(0).rescale_p().shift_center(1)
        g3 = g2.rescale_p().shift_center(1)
        assert newton_polygon(g2) == (1, 5) and newton_polygon(g3) == (1, 6)
        assert not _newton_certified(g2, 5, 2)
        assert _newton_certified(g3, 6, 3)

    def test_separated_isolation_leaves_no_cycles(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            disks = isolate_zeros(S([0, -5, 1]))
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert len(disks) == 2


@st.composite
def count_cases(draw):
    """A series over p in {2, 3, 5, 7} of degree <= 5, each coefficient the
    exact zero, ``O(p^k)`` or a unit form u p^v, under a Weierstrass bound
    its coefficients do not refute."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    coeffs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["zero", "ztp", "ztp", "unit", "unit"]))
        if kind == "zero":
            coeffs.append(PadicNumber.zero(p))
        elif kind == "ztp":
            coeffs.append(PadicNumber.zero_to(p, draw(st.integers(-2, 4))))
        else:
            unit = draw(st.integers(1, p**3 - 1).filter(lambda u: u % p))
            coeffs.append(PadicNumber(p, draw(st.integers(-2, 4)), unit, 3))
    try:
        return PadicSeries(p, coeffs, draw(st.integers(0, len(coeffs) - 1)))
    except DomainError:
        assume(False)


class TestStrassmannCount:
    """The scan against the hull it replaced and against brute force."""

    @settings(max_examples=400, deadline=None)
    @given(f=count_cases())
    def test_the_scan_answers_wherever_the_hull_does_and_agrees(self, f):
        try:
            want = root_count_by_hull(f)
        except RootCountPrecisionError:
            return  # the hull refuses more often; the scan may answer
        assert root_count_positive_valuation(f) == want

    @settings(max_examples=150, deadline=None)
    @given(f=count_cases())
    def test_a_certified_count_holds_on_every_completion(self, f):
        try:
            count = root_count_positive_valuation(f)
        except RootCountPrecisionError:
            return
        seen = 0
        for g in completions(f):
            assert root_count_by_hull(g) == count
            seen += 1
        # each O(p^k) completed as p^k keeps every floor, so the bound stands
        assert seen

    def test_a_refusal_the_hull_made_is_now_certified(self):
        # O(5^-1) z^2 could bend the hull below 1 + z, but not below the
        # line of slope -1 through the unit constant term
        unit = PadicNumber.from_int(5, 1)
        f = PadicSeries(5, (unit, unit, PadicNumber.zero_to(5, -1)), 2)
        with pytest.raises(RootCountPrecisionError):
            root_count_by_hull(f)
        assert root_count_positive_valuation(f) == 0
        assert {root_count_by_hull(g) for g in completions(f)} == {0}


@st.composite
def vertex_cases(draw):
    """A series over p in {2, 3, 5, 7} of up to 12 coefficients under a
    Weierstrass bound below the length that they do not refute.  A drawn
    level m0 (0..12 or near 10^4) sets the line v + i = m0; each coefficient
    is the exact zero, ``O(p^k)`` with k + i near m0 or k in -2..14, or a
    unit form u p^v with v on the line, above it, in 0..12 or near 10^4."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 12))
    m0 = draw(st.one_of(st.integers(0, 12), st.integers(9_990, 10_010)))
    coeffs = []
    for i in range(n):
        line = max(m0 - i, 0)
        kind = draw(
            st.sampled_from(["zero", "ztp", "tie", "tie", "above", "above", "any"])
        )
        if kind == "zero":
            coeffs.append(PadicNumber.zero(p))
        elif kind == "ztp":
            near = st.integers(m0 - i - 1, m0 - i + 1)
            coeffs.append(
                PadicNumber.zero_to(p, draw(st.one_of(st.integers(-2, 14), near)))
            )
        else:
            val = {
                "tie": st.just(line),
                "above": st.integers(line + 1, line + 12),
                "any": st.one_of(st.integers(0, 12), st.integers(9_990, 10_010)),
            }[kind]
            prec = draw(st.integers(1, 4))
            unit = draw(st.integers(1, p**prec - 1).map(lambda u: u + (u % p == 0)))
            coeffs.append(PadicNumber(p, draw(val), unit, prec))
    try:
        return PadicSeries(p, coeffs, draw(st.integers(0, n - 1)))
    except DomainError:
        assume(False)


@st.composite
def bound_cases(draw):
    """A series over p in {2, 3, 5, 7} of up to 12 coefficients, with no
    bound, and a bound below its length.  Each coefficient is the exact
    zero, ``O(p^k)`` with k in -2..14 or near 10^4, or a unit form with
    valuation in -2..14 or near 10^4, so floors tie, refute and clear the
    bound, and some are too deep to take cheaply."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 12))
    level = st.one_of(st.integers(-2, 14), st.integers(9_990, 10_010))
    coeffs = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "ztp", "unit", "unit", "unit"]))
        if kind == "zero":
            coeffs.append(PadicNumber.zero(p))
        elif kind == "ztp":
            coeffs.append(PadicNumber.zero_to(p, draw(level)))
        else:
            prec = draw(st.integers(1, 4))
            unit = draw(st.integers(1, p**prec - 1).map(lambda u: u + (u % p == 0)))
            coeffs.append(PadicNumber(p, draw(level), unit, prec))
    return PadicSeries(p, coeffs), draw(st.integers(0, n - 1))


def units5(vals):
    """The unit forms 5^v, known to one digit."""
    return [PadicNumber(5, v, 1, 1) for v in vals]


def bound_refusal(f, bound):
    try:
        f.with_weierstrass_bound(bound)
    except DomainError as exc:
        return str(exc)
    return None


class TestBoundCheck:
    """A bound is checked with only the valuations that decide it."""

    @settings(max_examples=300, deadline=None)
    @given(case=bound_cases())
    def test_matches_the_rule_over_every_valuation(self, case):
        f, bound = case
        assert bound_refusal(f, bound) == bound_refusal_by_valuations(f, bound)

    def test_a_unit_in_scope_takes_no_valuation(self, monkeypatch):
        # six coefficients of valuation 300000-300005 and a unit, then 5 z^7
        coeffs = units5(range(300_000, 300_006)) + units5([1])
        coeffs.insert(3, PadicNumber(5, 0, 2, 1))
        calls = []
        monkeypatch.setattr(
            padic_series, "v_p", lambda n, p: calls.append(n) or v_p(n, p)
        )
        assert PadicSeries(5, coeffs, 6).weierstrass_bound == 6
        assert calls == []

    def test_a_refusal_takes_a_valuation_per_new_floor(self, monkeypatch):
        # no unit in scope: c_0 sets the floor, which c_1..c_4 keep; c_5,
        # beyond the bound, lies above it and the unit form c_6 refutes
        coeffs = units5([300_001, 300_001, 300_003, 300_002, 300_005, 300_002, 7])
        calls = []
        monkeypatch.setattr(
            padic_series, "v_p", lambda n, p: calls.append(n) or v_p(n, p)
        )
        with pytest.raises(DomainError, match="coefficient 6 of valuation 7,"):
            PadicSeries(5, coeffs, 4)
        assert [v_p(n, 5) for n in calls] == [299_994, 0]


def vertex_or_refusal(scan, f):
    try:
        return scan(f)
    except RootCountPrecisionError as exc:
        return str(exc)


class TestVertexScan:
    """The scan takes only the valuations that can reach the vertex."""

    @settings(max_examples=300, deadline=None)
    @given(f=vertex_cases())
    def test_matches_the_scan_over_every_valuation(self, f):
        assert vertex_or_refusal(newton_polygon, f) == vertex_or_refusal(
            strassmann_vertex_by_valuations, f
        )

    def test_only_the_coefficients_that_reach_m_take_a_valuation(self, monkeypatch):
        # m = 3 at c_0 = 5^3 and again at 2*5 z^2; 5^3 z and 5^2 z^3 lie
        # above the line v + i = 3, and the units beyond it
        f = S([125, 125, 10, 25, 1, 1, 1])
        calls = []

        def counting_v_p(n, p):
            calls.append(n)
            return v_p(n, p)

        monkeypatch.setattr(padic_series, "v_p", counting_v_p)
        assert newton_polygon(f) == (2, 3)
        assert calls == [125, 10]
