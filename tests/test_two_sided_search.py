"""The alternating lower-enumeration / upper-sieve driver."""

from __future__ import annotations

import random

import pytest

from nadescent import DomainError, TableEnumerator, run_descent
from nadescent.errors import ContainmentViolatedError, MonotonicityError
from nadescent.two_sided_search import DescentOutcome

from .oracles import tabulate_first_meeting


def tables(lower, upper):
    return TableEnumerator(lower), TableEnumerator(upper)


class TestTableEnumerator:
    def test_levels_are_frozen_sets(self):
        t = TableEnumerator([[1, 2], [1, 2, 3]])
        assert t.next_level(0) == frozenset({1, 2})
        assert t.next_level(1) == frozenset({1, 2, 3})

    def test_saturates_at_last_level(self):
        t = TableEnumerator([[1], [1, 2]])
        assert t.next_level(99) == frozenset({1, 2})

    def test_rejects_empty_table(self):
        with pytest.raises(DomainError):
            TableEnumerator([])

    @pytest.mark.parametrize("level", [-1, "0", 1.5, True, False])
    def test_rejects_bad_level(self, level):
        t = TableEnumerator([[1]])
        with pytest.raises(DomainError):
            t.next_level(level)


class TestConvergence:
    def test_staircase_meeting(self):
        # lower certifies one point per level; the sieve gives up its spare
        # candidate at level 2; they agree on {1, 2} at (n=2, m=2)
        lower, upper = tables(
            [[], [1], [1, 2]],
            [[1, 2, 3], [1, 2, 3], [1, 2]],
        )
        out = run_descent(lower, upper)
        assert out.converged
        assert out.points == frozenset({1, 2})
        assert (out.lower_level, out.upper_level) == (2, 2)
        assert out.last_lower == out.last_upper == out.points

    def test_empty_agreement_at_level_zero(self):
        lower, upper = tables([[]], [[]])
        out = run_descent(lower, upper)
        assert out.converged
        assert out.points == frozenset()
        assert (out.lower_level, out.upper_level) == (0, 0)

    def test_equality_checked_between_single_advances(self):
        # the meeting happens right after the lower side's first advance,
        # before the upper side ever moves
        lower, upper = tables([[], [1]], [[1]])
        out = run_descent(lower, upper)
        assert out.converged
        assert (out.lower_level, out.upper_level) == (1, 0)

    def test_capped_side_is_skipped(self):
        lower, upper = tables([[1]], [[1, 2, 3], [1, 2], [1]])
        out = run_descent(lower, upper, n_cap=0, m_cap=5)
        assert out.converged
        assert out.points == frozenset({1})
        assert (out.lower_level, out.upper_level) == (0, 2)

    def test_outcome_echoes_caps(self):
        lower, upper = tables([[]], [[]])
        out = run_descent(lower, upper, n_cap=7, m_cap=9)
        assert (out.n_cap, out.m_cap) == (7, 9)
        assert isinstance(out, DescentOutcome)


class TestCapOut:
    def test_persistent_gap(self):
        lower, upper = tables([[1]], [[1, 2]])
        out = run_descent(lower, upper, n_cap=4, m_cap=4)
        assert not out.converged
        assert out.points is None
        assert (out.lower_level, out.upper_level) == (4, 4)
        assert out.last_lower == frozenset({1})
        assert out.last_upper == frozenset({1, 2})

    def test_zero_caps_report_level_zero_state(self):
        lower, upper = tables([[1]], [[1, 2]])
        out = run_descent(lower, upper, n_cap=0, m_cap=0)
        assert not out.converged
        assert (out.lower_level, out.upper_level) == (0, 0)

    @pytest.mark.parametrize("bad", [-1, True, "4", 4.0])
    def test_cap_validation(self, bad):
        lower, upper = tables([[]], [[]])
        with pytest.raises(DomainError):
            run_descent(lower, upper, n_cap=bad)
        with pytest.raises(DomainError):
            run_descent(lower, upper, m_cap=bad)


class TestInvariantEnforcement:
    def test_containment_violation_at_level_zero(self):
        lower, upper = tables([[1]], [[]])
        with pytest.raises(ContainmentViolatedError):
            run_descent(lower, upper)

    def test_containment_violation_after_an_advance(self):
        lower, upper = tables([[], [5]], [[1, 2], [1, 2]])
        with pytest.raises(ContainmentViolatedError) as exc:
            run_descent(lower, upper)
        assert "5" in str(exc.value)

    def test_lower_side_must_not_shrink(self):
        lower, upper = tables([[1, 2], [1]], [[1, 2, 3]])
        with pytest.raises(MonotonicityError) as exc:
            run_descent(lower, upper)
        assert "lower" in str(exc.value)

    def test_upper_side_must_not_grow(self):
        lower, upper = tables([[], []], [[1], [1, 2]])
        with pytest.raises(MonotonicityError) as exc:
            run_descent(lower, upper)
        assert "upper" in str(exc.value)


class TestScheduleAgainstOracle:
    @staticmethod
    def random_fixture(rng):
        universe = list(range(10))
        target = set(rng.sample(universe, rng.randint(0, 6)))
        lower = [set()]
        while lower[-1] != target:
            grown = set(lower[-1])
            grown.update(
                rng.sample(sorted(target - grown), 1)
                if target - grown
                else []
            )
            lower.append(grown)
        extra = set(rng.sample(sorted(set(universe) - target), rng.randint(0, 3)))
        upper = [target | extra]
        while upper[-1] != target:
            shrunk = set(upper[-1])
            drop = rng.sample(sorted(shrunk - target), 1)
            shrunk.difference_update(drop)
            upper.append(shrunk)
        return lower, upper

    def test_matches_exhaustive_tabulation(self):
        rng = random.Random(41)
        for trial in range(60):
            lower_levels, upper_levels = self.random_fixture(rng)
            n_cap = rng.randint(0, 12)
            m_cap = rng.randint(0, 12)
            out = run_descent(
                TableEnumerator(lower_levels),
                TableEnumerator(upper_levels),
                n_cap=n_cap,
                m_cap=m_cap,
            )
            expected = tabulate_first_meeting(
                lower_levels, upper_levels, n_cap, m_cap
            )
            if expected is None:
                assert not out.converged, trial
                assert (out.lower_level, out.upper_level) == (n_cap, m_cap), trial
                assert out.last_lower == frozenset(
                    lower_levels[min(n_cap, len(lower_levels) - 1)]
                ), trial
                assert out.last_upper == frozenset(
                    upper_levels[min(m_cap, len(upper_levels) - 1)]
                ), trial
            else:
                points, n, m = expected
                assert out.converged, trial
                assert out.points == frozenset(points), trial
                assert (out.lower_level, out.upper_level) == (n, m), trial

    def test_sandwich_invariant_holds_throughout(self):
        # on well-formed fixtures the final sets always sandwich the target
        rng = random.Random(43)
        for _ in range(30):
            lower_levels, upper_levels = self.random_fixture(rng)
            out = run_descent(
                TableEnumerator(lower_levels),
                TableEnumerator(upper_levels),
            )
            assert out.converged  # saturating tables always meet uncapped
            assert out.points == set(lower_levels[-1]) == set(upper_levels[-1])
