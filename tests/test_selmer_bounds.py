"""Upper/lower bound tables and the halting level."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadescent import CurveParams, DomainError, ParityMode, graded_dims, halting_level
from nadescent import selmer_bounds
from nadescent.errors import ParityError
from nadescent.lie_dims import GradedDims

from .oracles import oracle_halting_level

G2 = graded_dims(2, 64)

#: A Mordell-Weil rank far above every UB - LB gap up to level 20, so the
#: walk runs through its cap and the rows show every step.
HUGE_RANK = 10**40

#: Graded dimensions with an odd piece in odd degree 3 (r_3 = 15).
ODD_DIMS = GradedDims(g=2, lucas=(2, 4, 14, 52), graded=(4, 5, 15))


def params(g=2, s=1, p=101, rank=0, bad=None):
    return CurveParams(g=g, bad_prime_count=s, p=p, mw_rank=rank, bad_primes=bad)


def unhalted_rows(g=2, s=1, n_cap=16, mode=ParityMode.FAITHFUL):
    """Rows (n, UB(n), LB(n)) for n = 2..n_cap."""
    table = halting_level(params(g=g, s=s, rank=HUGE_RANK), n_cap=n_cap, mode=mode)
    assert table.halting_level is None
    return table.rows


def steps(g=2, s=1, n_cap=16, mode=ParityMode.FAITHFUL):
    """{n: UB(n+1) - UB(n)} for n = 2..n_cap-1."""
    rows = unhalted_rows(g, s, n_cap, mode)
    return {a.n: b.selmer_ub - a.selmer_ub for a, b in zip(rows, rows[1:])}


class TestMinusDimBound:
    """The minus part of r_n: with |S| = 0 an UB step is it plus n g^n."""

    def minus_parts(self, mode):
        by_degree = steps(s=0, n_cap=5, mode=mode)
        return {n: step - n * 2**n for n, step in by_degree.items()}

    def test_faithful_examples(self):
        assert self.minus_parts(ParityMode.FAITHFUL) == {2: 5, 3: 8, 4: G2.r(4)}

    def test_verbatim_examples(self):
        assert self.minus_parts(ParityMode.PAPER_VERBATIM) == {
            2: 3, 3: 16, 4: (G2.r(4) + 1) // 2
        }

    def test_faithful_parity_violation_is_loud(self, monkeypatch):
        monkeypatch.setattr(selmer_bounds, "graded_dims", lambda g, n_max: ODD_DIMS)
        with pytest.raises(ParityError) as exc:
            halting_level(params(rank=HUGE_RANK), n_cap=4)
        assert "r_3=15" in str(exc.value)

    def test_verbatim_never_raises_on_odd_halves(self, monkeypatch):
        monkeypatch.setattr(selmer_bounds, "graded_dims", lambda g, n_max: ODD_DIMS)
        table = halting_level(
            params(s=0, rank=HUGE_RANK), n_cap=4, mode=ParityMode.PAPER_VERBATIM
        )
        ubs = [row.selmer_ub - HUGE_RANK for row in table.rows]
        # degree 2 is the halved one in verbatim mode: ceiling of 5/2, plus
        # 2 * 2^2; degree 3 takes all of r_3 = 15, plus 3 * 2^3
        assert ubs == [0, 3 + 8, 3 + 8 + 15 + 24]


class TestLocalH2Bound:
    """The local H^2 terms: UB steps with |S| = 1 and |S| = 0 differ by the
    bound at a bad prime, and the |S| = 0 step is r_n plus the bound at p."""

    def test_examples(self):
        one, none = steps(s=1, n_cap=3), steps(s=0, n_cap=3)
        assert one[2] - none[2] == 12
        assert none[2] - G2.r(2) == 8

    def test_formula_agreement(self):
        for g in (2, 3):
            dims = graded_dims(g, 11)
            one, none = steps(g=g, s=1, n_cap=12), steps(g=g, s=0, n_cap=12)
            for n in range(2, 12):
                minus = dims.r(n) // 2 if n % 2 else dims.r(n)
                assert none[n] - minus == n * g**n
                assert one[n] - none[n] == n * g**n + (
                    n * (n - 1) // 2 * (2 * g - 2) ** 2 * g ** (n - 2)
                )


class TestH1StepBound:
    """UB(n+1) - UB(n): the full growth allowance when consuming degree n."""

    def test_examples(self):
        assert steps(s=1, n_cap=4)[2] == 25
        assert steps(s=0, n_cap=4)[2] == 13
        # 8 + 1*(3*8 + 3*4*2) + 3*8 = 80: the formula value (the inline
        # arithmetic accompanying the originating example does not match
        # its own displayed formula; the formula wins)
        assert steps(s=1, n_cap=4)[3] == 80

    def test_additive_in_bad_places(self):
        base = steps(s=0, n_cap=5)
        bad = {n: steps(s=1, n_cap=5)[n] - base[n] for n in base}
        for s in range(1, 4):
            assert steps(s=s, n_cap=5) == {n: base[n] + s * bad[n] for n in base}


class TestTables:
    def test_ub_base_and_steps(self):
        for rank in (2, 5):
            rows = halting_level(params(rank=rank), n_cap=3).rows
            assert [row.selmer_ub for row in rows] == [rank, rank + 25]

    def test_lb_prefix(self):
        lb = [row.derham_lb for row in unhalted_rows(n_cap=4)]
        assert lb[:3] == [2, 3, 11]

    def test_lb_is_clamped_nondecreasing(self):
        for g in (2, 3, 4):
            lb = [row.derham_lb for row in unhalted_rows(g=g, n_cap=20)]
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
        pf = unhalted_rows(mode=ParityMode.FAITHFUL)
        pv = unhalted_rows(mode=ParityMode.PAPER_VERBATIM)
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
                        )
                        rows, level = oracle_halting_level(g, s, rank, mode.value, 64)
                        assert got.halting_level == level, (g, s, rank, mode)
                        assert got.rows == tuple(rows), (g, s, rank, mode)

    @settings(max_examples=300, deadline=None)
    @given(
        g=st.integers(2, 5),
        s=st.integers(0, 3),
        rank=st.integers(0, 25),
        n_cap=st.integers(2, 200),
        mode=st.sampled_from(ParityMode),
    )
    def test_every_row_matches_independent_walk(self, g, s, rank, n_cap, mode):
        got = halting_level(params(g=g, s=s, rank=rank), n_cap=n_cap, mode=mode)
        rows, level = oracle_halting_level(g, s, rank, mode.value, n_cap)
        assert [tuple(row) for row in got.rows] == rows
        assert got.halting_level == level

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

    @pytest.mark.parametrize("n_cap", [2.5, 3.0, True, "4", None])
    def test_n_cap_must_be_an_integer(self, n_cap):
        with pytest.raises(DomainError, match="n_cap"):
            halting_level(params(), n_cap=n_cap)

    def test_n_cap_is_capped_one_above_the_level_cap(self, monkeypatch):
        asked = []

        def fake_graded_dims(g, n_max):
            asked.append(n_max)
            return G2

        monkeypatch.setattr(selmer_bounds, "graded_dims", fake_graded_dims)
        assert halting_level(params(), n_cap=10_001).halting_level == 2
        assert asked == [10_000]
        with pytest.raises(DomainError, match="n_cap must be at most 10001"):
            halting_level(params(), n_cap=10_002)
        assert asked == [10_000]


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

    def test_genus_one_rejected(self):
        with pytest.raises(DomainError, match="genus"):
            CurveParams(g=1, bad_prime_count=0, p=5, mw_rank=0)

    def test_negative_rank_rejected(self):
        with pytest.raises(DomainError):
            CurveParams(g=2, bad_prime_count=1, p=5, mw_rank=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("mw_rank", True), ("mw_rank", 1.5), ("mw_rank", "1"),
         ("bad_prime_count", -1), ("bad_prime_count", True),
         ("bad_prime_count", 2.0), ("p", 5.0)],
    )
    def test_counts_must_be_integers(self, field, value):
        # a bool or float here once reached the table (and the serializer)
        inputs = {"g": 2, "bad_prime_count": 0, "p": 5, "mw_rank": 0}
        inputs[field] = value
        with pytest.raises(DomainError):
            CurveParams(**inputs)

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
