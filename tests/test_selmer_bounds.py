"""Upper/lower bound tables and the halting level."""

from __future__ import annotations

from fractions import Fraction

import pytest

from nadescent import CurveParams, DomainError, ParityMode, graded_dims, halting_level
from nadescent.errors import ParityError
from nadescent.lie_dims import GradedDims
from nadescent.selmer_bounds import (
    _bound_rows,
    h1_step_bound,
    local_h2_bound,
    minus_dim_bound,
)

from .oracles import oracle_halting_level

G2 = graded_dims(2, 64)


def params(g=2, s=1, p=101, rank=0, bad=None):
    return CurveParams(g=g, bad_prime_count=s, p=p, mw_rank=rank, bad_primes=bad)


class TestMinusDimBound:
    def test_faithful_examples(self):
        assert minus_dim_bound(G2, 3, ParityMode.FAITHFUL) == 8
        assert minus_dim_bound(G2, 1, ParityMode.FAITHFUL) == 2
        assert minus_dim_bound(G2, 2, ParityMode.FAITHFUL) == 5

    def test_verbatim_examples(self):
        assert minus_dim_bound(G2, 1, ParityMode.PAPER_VERBATIM) == 4
        assert minus_dim_bound(G2, 2, ParityMode.PAPER_VERBATIM) == 3
        assert minus_dim_bound(G2, 3, ParityMode.PAPER_VERBATIM) == 16

    def test_faithful_parity_violation_is_loud(self):
        fake = GradedDims(g=2, lucas=(2, 4, 14, 52), graded=(4, 5, 15))
        with pytest.raises(ParityError) as exc:
            minus_dim_bound(fake, 3, ParityMode.FAITHFUL)
        assert "3" in str(exc.value)

    def test_verbatim_never_raises_on_odd_halves(self):
        fake = GradedDims(g=2, lucas=(2, 4, 14, 52), graded=(4, 5, 15))
        # degree 2 is the halved one in verbatim mode; ceiling of 5/2
        assert minus_dim_bound(fake, 2, ParityMode.PAPER_VERBATIM) == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            minus_dim_bound(G2, 0, ParityMode.FAITHFUL)


class TestLocalH2Bound:
    def test_examples(self):
        assert local_h2_bound(2, 2, bad_prime=True) == 12
        assert local_h2_bound(2, 2, bad_prime=False) == 8
        assert local_h2_bound(2, 1, bad_prime=True) == 2

    def test_degree_one_has_no_second_summand(self):
        for g in (2, 3, 4):
            assert local_h2_bound(g, 1, bad_prime=True) == g
            assert local_h2_bound(g, 1, bad_prime=False) == g

    def test_formula_agreement(self):
        for g in (2, 3):
            for n in range(1, 12):
                bad = local_h2_bound(g, n, bad_prime=True)
                good = local_h2_bound(g, n, bad_prime=False)
                assert good == n * g**n
                assert bad == n * g**n + (
                    n * (n - 1) // 2 * (2 * g - 2) ** 2 * g ** (n - 2)
                    if n >= 2
                    else 0
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            local_h2_bound(2, 0, bad_prime=False)
        with pytest.raises(DomainError):
            local_h2_bound(1, 2, bad_prime=False)


class TestH1StepBound:
    def test_examples(self):
        assert h1_step_bound(G2, 2, 1, ParityMode.FAITHFUL) == 25
        assert h1_step_bound(G2, 2, 0, ParityMode.FAITHFUL) == 13
        # 8 + 1*(3*8 + 3*4*2) + 3*8 = 80: the formula value (the inline
        # arithmetic accompanying the originating example does not match
        # its own displayed formula; the formula wins)
        assert h1_step_bound(G2, 3, 1, ParityMode.FAITHFUL) == 80

    def test_additive_in_bad_places(self):
        for n in (2, 3, 4):
            base = h1_step_bound(G2, n, 0, ParityMode.FAITHFUL)
            bad = local_h2_bound(2, n, bad_prime=True)
            for s in range(1, 4):
                assert (
                    h1_step_bound(G2, n, s, ParityMode.FAITHFUL)
                    == base + s * bad
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            h1_step_bound(G2, 1, 1, ParityMode.FAITHFUL)
        with pytest.raises(DomainError):
            h1_step_bound(G2, 2, -1, ParityMode.FAITHFUL)


def ub_column(curve, dims, n_cap):
    """[UB(2), ..., UB(n_cap)], past any halting level."""
    rows = _bound_rows(curve, dims, n_cap, ParityMode.FAITHFUL)
    return [row.selmer_ub for row in rows]


def lb_column(dims, n_cap):
    """[LB(2), ..., LB(n_cap)]; the lower bound ignores rank and |S|."""
    rows = _bound_rows(params(g=dims.g), dims, n_cap, ParityMode.FAITHFUL)
    return [row.derham_lb for row in rows]


class TestTables:
    def test_ub_base_and_steps(self):
        ub0 = ub_column(params(rank=0), G2, 3)
        assert ub0[0] == 0 and ub0[1] == 25
        ub5 = ub_column(params(rank=5), G2, 3)
        assert ub5[0] == 5 and ub5[1] == 30

    def test_lb_prefix(self):
        lb = lb_column(G2, 4)
        assert lb[:3] == [2, 3, 11]

    def test_lb_is_clamped_nondecreasing(self):
        for g in (2, 3, 4):
            lb = lb_column(graded_dims(g, 20), 20)
            assert all(b >= a for a, b in zip(lb, lb[1:]))

    def test_bound_table_shape_and_monotonicity(self):
        table = halting_level(params(rank=3), n_cap=12)
        ns = [row.n for row in table.rows]
        assert ns == list(range(2, 13))
        ubs = [row.selmer_ub for row in table.rows]
        lbs = [row.derham_lb for row in table.rows]
        assert all(b >= a for a, b in zip(ubs, ubs[1:]))
        assert all(b >= a for a, b in zip(lbs, lbs[1:]))

    def test_mode_coherence_bound(self):
        pf = list(_bound_rows(params(rank=3), G2, 16, ParityMode.FAITHFUL))
        pv = list(_bound_rows(params(rank=3), G2, 16, ParityMode.PAPER_VERBATIM))
        budget = Fraction(0)
        for rf, rv in zip(pf, pv):
            assert rf.derham_lb == rv.derham_lb
            assert abs(rf.selmer_ub - rv.selmer_ub) <= budget
            budget += Fraction(G2.r(rf.n), 2) + 1

    def test_json_dict_round_shape(self):
        doc = halting_level(params(rank=0), n_cap=4).to_json_dict()
        assert doc["mode"] == "faithful"
        assert doc["rows"][0] == {"n": 2, "selmer_ub": 0, "derham_lb": 2}


class TestHaltingLevel:
    def test_rank_zero_is_two_in_both_modes(self):
        for mode in ParityMode:
            assert halting_level(params(rank=0), mode=mode).halting_level == 2

    def test_rank_one_base_case_already_strict(self):
        # UB(2) = 1 < LB(2) = 2, so the comparison closes at the base level
        for mode in ParityMode:
            assert halting_level(params(rank=1), mode=mode).halting_level == 2

    def test_frozen_levels_for_small_ranks(self):
        assert (
            halting_level(params(rank=2), mode=ParityMode.FAITHFUL).halting_level
            == 16
        )
        assert (
            halting_level(
                params(rank=2), mode=ParityMode.PAPER_VERBATIM
            ).halting_level
            == 15
        )

    def test_matches_independent_walk(self):
        for g in (2, 3):
            for s in (0, 1, 2):
                for rank in (0, 1, 2, 5, 9):
                    for mode in ParityMode:
                        got = halting_level(
                            params(g=g, s=s, rank=rank), n_cap=64, mode=mode
                        ).halting_level
                        want = oracle_halting_level(g, s, rank, mode.value, 64)
                        assert got == want, (g, s, rank, mode)

    def test_not_found_within_cap(self):
        table = halting_level(params(rank=5), n_cap=2)
        assert table.halting_level is None
        assert [row.n for row in table.rows] == [2]

    def test_rows_stop_at_halting_level(self):
        table = halting_level(params(rank=2), n_cap=64)
        assert table.rows[-1].n == table.halting_level
        last = table.rows[-1]
        assert last.selmer_ub < last.derham_lb
        for row in table.rows[:-1]:
            assert row.selmer_ub >= row.derham_lb

    def test_monotone_in_rank_and_bad_count(self):
        for mode in ParityMode:
            prev = 0
            for rank in range(0, 13):
                t = halting_level(params(rank=rank), mode=mode).halting_level
                assert t is not None and t >= prev
                prev = t
            prev = 0
            for s in range(0, 4):
                t = halting_level(params(s=s, rank=4), mode=mode).halting_level
                assert t is not None and t >= prev
                prev = t

    def test_determinism(self):
        a = halting_level(params(rank=7), n_cap=64)
        b = halting_level(params(rank=7), n_cap=64)
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            halting_level(params(), n_cap=1)


class TestCurveParams:
    def test_p_in_bad_set_rejected(self):
        with pytest.raises(DomainError):
            CurveParams(
                g=2, bad_prime_count=1, p=11, mw_rank=0, bad_primes=frozenset({11})
            )

    def test_cardinality_mismatch_rejected(self):
        with pytest.raises(DomainError):
            CurveParams(
                g=2, bad_prime_count=2, p=5, mw_rank=0, bad_primes=frozenset({11})
            )

    def test_composite_members_rejected(self):
        with pytest.raises(DomainError):
            CurveParams(
                g=2, bad_prime_count=1, p=5, mw_rank=0, bad_primes=frozenset({12})
            )
        with pytest.raises(DomainError):
            CurveParams(g=2, bad_prime_count=1, p=6, mw_rank=0)

    def test_negative_rank_rejected(self):
        with pytest.raises(DomainError):
            CurveParams(g=2, bad_prime_count=1, p=5, mw_rank=-1)

    def test_bad_count_without_explicit_set_ok(self):
        cp = CurveParams(g=2, bad_prime_count=3, p=5, mw_rank=0)
        assert cp.bad_primes is None


class TestParityModeParse:
    def test_parse(self):
        assert ParityMode.parse("faithful") is ParityMode.FAITHFUL
        assert ParityMode.parse("verbatim") is ParityMode.PAPER_VERBATIM
        assert ParityMode.parse(ParityMode.FAITHFUL) is ParityMode.FAITHFUL

    def test_parse_rejects_unknown(self):
        with pytest.raises(DomainError):
            ParityMode.parse("strict")
