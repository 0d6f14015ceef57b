"""Series arithmetic, Newton polygons, zero isolation, separation reports."""

from __future__ import annotations

from fractions import Fraction

import pytest

from nadescent import (
    DomainError,
    PadicNumber,
    PadicSeries,
    isolate_zeros,
    root_count_positive_valuation,
    separation_modulus,
)
from nadescent.errors import (
    AllZeroPolygonError,
    HullPrecisionError,
    MultipleRootSuspectedError,
    PrecisionExhaustedError,
    PrimeMismatchError,
)
from nadescent.padic_series import Chart, DiskSeries, SeparationStatus, newton_polygon


def S(ints, p=5, prec=20, wb="auto"):
    return PadicSeries.from_int_coeffs(p, ints, prec, weierstrass_bound=wb)


class TestSeriesArithmetic:
    def test_sum_cancels_linear_term(self):
        total = S([1, 1]) + S([1, -1])
        assert total.coeff(0).agrees_with(PadicNumber.from_int(5, 2))
        assert total.coeff(1).is_unknown_zero()
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
        assert f.derivative().weierstrass_bound is None

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

    def test_evaluate_at_padic_point(self):
        f = S([3, -2, 0, 1])
        x = PadicNumber.from_int(5, 7, prec=8)
        assert f.evaluate(x).agrees_with(PadicNumber.from_int(5, 3 - 14 + 343))

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

    def test_derivative_antiderivative(self):
        f = S([2, 6, 12])  # 2 + 6z + 12z^2
        assert f.derivative().agrees_with(S([6, 24]))
        back = f.derivative().antiderivative()
        assert back.coeff(0).is_exact_zero()
        assert back.coeff(1).agrees_with(f.coeff(1))
        assert back.coeff(2).agrees_with(f.coeff(2))

    def test_antiderivative_spends_absolute_precision(self):
        f = PadicSeries(5, tuple(PadicNumber(5, 0, 1, 4) for _ in range(5)))
        anti = f.antiderivative()
        # degree-4 coefficient divides by 5: valuation drops, abs prec drops
        assert anti.coeff(5).val == -1
        assert anti.coeff(5).abs_prec() == 3

    def test_indistinguishable_from_zero(self):
        assert PadicSeries.constant(5, 0, 3).indistinguishable_from_zero()
        f = S([1, 1]) - S([1, 1])
        assert f.indistinguishable_from_zero()
        assert not S([0, 1]).indistinguishable_from_zero()


class TestNewtonPolygon:
    def test_z_squared_minus_p(self):
        poly = newton_polygon(S([-5, 0, 1]))
        assert poly.vertices == ((0, 1), (2, 0))
        assert poly.origin_order == 0
        assert poly.segments() == [(Fraction(-1, 2), 2)]
        assert poly.positive_valuation_root_count() == 0

    def test_z_squared_minus_z(self):
        poly = newton_polygon(S([0, -1, 1]))
        assert poly.vertices == ((1, 0), (2, 0))
        assert poly.origin_order == 1
        assert poly.positive_valuation_root_count() == 1

    def test_z_times_z_minus_p(self):
        poly = newton_polygon(S([0, -5, 1]))
        assert poly.vertices == ((1, 1), (2, 0))
        assert poly.origin_order == 1
        assert poly.positive_valuation_root_count() == 2

    def test_constant_one(self):
        assert root_count_positive_valuation(S([1])) == 0

    def test_multiplicity_counted(self):
        # z^2 (z - p): origin order 2 plus a slope -1 edge
        assert root_count_positive_valuation(S([0, 0, -5, 1])) == 3

    def test_all_zero_polygon(self):
        with pytest.raises(AllZeroPolygonError):
            newton_polygon(PadicSeries.constant(5, 0, 2))

    def test_missing_bound_is_a_domain_error(self):
        f = S([0, -1, 1]).with_weierstrass_bound(None)
        with pytest.raises(DomainError):
            newton_polygon(f)

    def test_bound_restricts_scope(self):
        # with d* = 1 the z^2 coefficient is outside the zero-governing range
        f = PadicSeries.from_int_coeffs(5, [0, -1, 5], weierstrass_bound=1)
        assert newton_polygon(f).vertices == ((1, 0),)

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
        with pytest.raises(HullPrecisionError):
            newton_polygon(PadicSeries(5, coeffs, 2))

    def test_unknown_zero_on_hull_boundary_is_fine(self):
        coeffs = (
            PadicNumber.from_int(5, 25),
            PadicNumber.zero_to(5, 1),
            PadicNumber.from_int(5, 1),
        )
        poly = newton_polygon(PadicSeries(5, coeffs, 2))
        assert poly.positive_valuation_root_count() == 2

    def test_leading_unknown_zero_rules(self):
        unit = PadicNumber.from_int(5, 1)
        low = PadicSeries(5, (PadicNumber.zero_to(5, 0), unit), 1)
        with pytest.raises(HullPrecisionError):
            newton_polygon(low)
        ok = PadicSeries(5, (PadicNumber.zero_to(5, 1), unit), 1)
        poly = newton_polygon(ok)
        assert poly.origin_order == 1
        assert poly.positive_valuation_root_count() == 1

    def test_trailing_unknown_zero_rules(self):
        unit = PadicNumber.from_int(5, 1)
        bad = PadicSeries(5, (unit, unit, PadicNumber.zero_to(5, -1)), 2)
        with pytest.raises(HullPrecisionError):
            newton_polygon(bad)
        fine = PadicSeries(5, (unit, unit, PadicNumber.zero_to(5, 0)), 2)
        assert newton_polygon(fine).positive_valuation_root_count() == 0

    def test_exact_zero_leading_coefficients_count_as_roots(self):
        # z^3 * unit: all three origin roots certified by exact zeros
        poly = newton_polygon(S([0, 0, 0, 7]))
        assert poly.origin_order == 3
        assert poly.positive_valuation_root_count() == 3


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
        with pytest.raises(DomainError):
            isolate_zeros(S([0, 1]), depth_cap=0)

    def test_missing_bound_propagates_as_domain_error(self):
        f = S([0, -1, 1]).with_weierstrass_bound(None)
        with pytest.raises(DomainError):
            isolate_zeros(f)

    def test_exact_evaluation_certifies_without_hensel_gap(self):
        disks = isolate_zeros(S([-2, 1]))  # root at the unit 2
        assert [(d.center_digits, d.depth) for d in disks] == [((2,), 1)]


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

    def test_threaded_run_is_identical(self):
        charts = [
            ("c0", [S([0, -5, 1]), S([0, -1, 1])]),
            ("c1", [S([-2, 1]), S([0, 5, -6, 1])]),
            ("c2", [S([1])]),
        ]
        sequential = separation_modulus(charts, jobs=1)
        threaded = separation_modulus(charts, jobs=4)
        assert sequential == threaded
