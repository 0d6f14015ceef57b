"""Acceptance suite: the nine headline guarantees, one test and one
printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from nadescent import (
    FormSystem,
    IsolationError,
    JacobianLocalData,
    PadicSeries,
    ParityMode,
    TableEnumerator,
    enlarged_prime_set,
    graded_dims,
    halting_level,
    isolate_zeros,
    iterated_integral,
    jacobian_order_mod,
    run_descent,
    separation_modulus,
    shuffle,
)
from nadescent.errors import ContainmentViolatedError
from nadescent.padic_series import SeparationStatus
from nadescent.selmer_bounds import CurveParams

from .conftest import capped_series, data_path, invoke_cli
from .oracles import (
    elliptic_group_orders,
    graded_dim_by_inversion,
    hensel_simple_roots_mod_p6,
    pbw_product_coeffs,
    rational_target_coeffs,
    tabulate_first_meeting,
)


def ok(k: int, detail: str) -> None:
    print(f"ACCEPTANCE {k} PASS: {detail}")


class TestAcceptance:
    def test_criterion_1_graded_dims_match_inversion_oracle(self):
        start = time.perf_counter()
        tables = {g: graded_dims(g, 64) for g in range(2, 7)}
        elapsed = time.perf_counter() - start
        for g, dims in tables.items():
            for n in range(1, 65):
                assert dims.r(n) == graded_dim_by_inversion(g, n), (g, n)
        assert elapsed < 0.100, f"took {elapsed:.3f}s"
        ok(1, f"r_n for g=2..6, n<=64 matches Moebius inversion "
              f"({elapsed * 1000:.1f} ms)")

    def test_criterion_2_pbw_product_recovers_rational_series(self):
        for g in (2, 3, 4):
            dims = graded_dims(g, 16)
            r = [dims.r(n) for n in range(1, 17)]
            assert pbw_product_coeffs(r, 16) == rational_target_coeffs(g, 16), g
        assert rational_target_coeffs(2, 4) == [1, 4, 15, 56, 209]
        ok(2, "prod (1-t^n)^(-r_n) == 1/(1-2g t+t^2) through t^16 for g=2,3,4")

    def test_criterion_3_halting_levels_on_the_grid(self):
        modes = (ParityMode.FAITHFUL, ParityMode.PAPER_VERBATIM)
        for mode in modes:
            table = halting_level(
                CurveParams(g=2, bad_prime_count=1, p=101, mw_rank=0), mode=mode
            )
            assert table.halting_level == 2, mode
        start = time.perf_counter()
        worst = 0
        for mode in modes:
            for g in range(2, 6):
                for s in range(0, 4):
                    per_s = []
                    for rank in range(0, 21):
                        params = CurveParams(
                            g=g, bad_prime_count=s, p=101, mw_rank=rank
                        )
                        t = halting_level(params, n_cap=64, mode=mode).halting_level
                        assert t is not None, (g, s, rank, mode)
                        per_s.append(t)
                        worst = max(worst, t)
                    assert per_s == sorted(per_s), (g, s, mode)
        elapsed = time.perf_counter() - start
        for mode in modes:
            for g in range(2, 6):
                for rank in (0, 7, 20):
                    per_rank = [
                        halting_level(
                            CurveParams(g=g, bad_prime_count=s, p=101, mw_rank=rank),
                            n_cap=64,
                            mode=mode,
                        ).halting_level
                        for s in range(0, 4)
                    ]
                    assert per_rank == sorted(per_rank), (g, rank, mode)
        assert elapsed < 5.0, f"took {elapsed:.3f}s"
        ok(3, f"t exists and is monotone on g<=5, |S|<=3, rank<=20 "
              f"(worst t={worst}, {elapsed * 1000:.0f} ms)")

    def test_criterion_4_certified_counts_match_hensel_oracle(self):
        rng = random.Random(1004)
        checked = 0
        for p in (3, 5, 7):
            box = p ** 6
            for _ in range(200):
                degree = rng.randint(1, 6)
                residues = [rng.randrange(box) for _ in range(degree + 1)]
                while all(r == 0 for r in residues):
                    residues = [rng.randrange(box) for _ in range(degree + 1)]
                f = capped_series(p, residues)
                try:
                    disks = isolate_zeros(f)
                except IsolationError as exc:
                    disks = exc.disks
                mine = sum(1 for d in disks if d.center_digits[0] == 0)
                assert mine == hensel_simple_roots_mod_p6(p, residues), (
                    p,
                    residues,
                )
                checked += 1
        ok(4, f"{checked} random polynomials: certified-disk counts over pZ_p "
              f"equal the exhaustive mod-p^6 Hensel census")

    def test_criterion_5_separation_moduli_on_worked_disks(self):
        p = 5
        split = PadicSeries.from_int_coeffs(p, [0, -1, 1])      # z(z-1)
        close = PadicSeries.from_int_coeffs(p, [0, -5, 1])      # z(z-5)
        double = PadicSeries.from_int_coeffs(p, [0, 0, 1])      # z^2

        lone = separation_modulus([("w", [split])])
        assert lone.status is SeparationStatus.SEPARATED
        assert lone.modulus == 1

        deep = separation_modulus([("w", [close])])
        assert deep.status is SeparationStatus.SEPARATED
        assert deep.modulus == 2

        both = separation_modulus([("w", [split, close])])
        assert both.status is SeparationStatus.SEPARATED
        assert both.modulus == 2

        stuck = separation_modulus([("w", [double])])
        assert stuck.status is SeparationStatus.MULTIPLE_ROOT_SUSPECTED
        assert stuck.failures
        ok(5, "M(z(z-1))=1, M(z(z-5))=2, z^2 flagged as a multiple root")

    def test_criterion_6_shuffle_identity(self):
        rng = random.Random(1006)
        for trial in range(100):
            p = rng.choice([3, 5, 7])
            k = rng.randint(1, 2)
            rows = [
                [rng.randrange(0, p ** 2) for _ in range(13)] for _ in range(k)
            ]
            system = FormSystem(
                tuple(PadicSeries.from_int_coeffs(p, row, 25) for row in rows)
            )
            nu = rng.randint(0, 2)
            u = tuple(rng.randint(1, k) for _ in range(nu))
            v = tuple(rng.randint(1, k) for _ in range(rng.randint(0, 4 - nu)))
            lhs = iterated_integral(system, u) * iterated_integral(system, v)
            rhs = None
            for w, mult in shuffle(u, v).items():
                piece = iterated_integral(system, w).scale_int(mult)
                rhs = piece if rhs is None else rhs + piece
            assert lhs.agrees_with(rhs), (trial, p, u, v)
        ones = FormSystem((PadicSeries.constant(5, 1, 12, 25),))
        a1 = iterated_integral(ones, (1,))
        power = a1
        for k in range(1, 5):
            repeated = iterated_integral(ones, (1,) * k)
            assert repeated.scale_int(math.factorial(k)).agrees_with(power), k
            power = power * a1
        ok(6, "a_u * a_v == sum of shuffle(u,v) on 100 random systems; "
              "k! a_(1^k) == a_(1)^k for k<=4")

    def test_criterion_7_local_orders_and_prime_enlargement(self):
        for p, a, b in [(5, 1, 1), (5, 0, 1), (7, 1, 1)]:
            count_fp, count_fp2 = elliptic_group_orders(p, a, b)
            data = JacobianLocalData(p=p, g=1, count_fp=count_fp)
            assert jacobian_order_mod(data, 2) == count_fp2, (p, a, b)
            assert count_fp2 == p * count_fp, (p, a, b)
        assert enlarged_prime_set({11}, 45) == frozenset({3, 5, 11})
        ok(7, "#J(Z/p^2) = p^g #J(F_p) against exhaustive counts on three "
              "curves; T0({11}, 45) = {3, 5, 11}")

    def test_criterion_8_two_sided_search_schedule(self):
        out = run_descent(
            TableEnumerator([[], [1], [1, 2]]),
            TableEnumerator([[1, 2, 3], [1, 2, 3], [1, 2]]),
        )
        assert out.converged and out.points == frozenset({1, 2})
        assert (out.lower_level, out.upper_level) == (2, 2)

        empty = run_descent(
            TableEnumerator([[]]), TableEnumerator([[]])
        )
        assert empty.converged and empty.points == frozenset()
        assert (empty.lower_level, empty.upper_level) == (0, 0)

        capped = run_descent(
            TableEnumerator([[1]]),
            TableEnumerator([[1, 2]]),
            n_cap=3,
            m_cap=3,
        )
        assert not capped.converged
        assert capped.last_lower == frozenset({1})
        assert capped.last_upper == frozenset({1, 2})

        rng = random.Random(1008)
        converged = 0
        for trial in range(17):
            universe = list(range(9))
            target = set(rng.sample(universe, rng.randint(0, 5)))
            lower = [set()]
            while lower[-1] != target:
                step = set(lower[-1])
                step.add(rng.choice(sorted(target - step)))
                lower.append(step)
            upper = [
                target
                | set(rng.sample(sorted(set(universe) - target), rng.randint(0, 3)))
            ]
            while upper[-1] != target:
                step = set(upper[-1])
                step.remove(rng.choice(sorted(step - target)))
                upper.append(step)
            out = run_descent(
                TableEnumerator(lower),
                TableEnumerator(upper),
            )
            assert out.converged, trial
            assert out.points == frozenset(target), trial
            converged += 1
            expected = tabulate_first_meeting(lower, upper, 64, 64)
            assert expected is not None
            assert (set(expected[0]), expected[1], expected[2]) == (
                set(out.points),
                out.lower_level,
                out.upper_level,
            ), trial
        assert converged == 17  # no early terminations on saturating tables

        with pytest.raises(ContainmentViolatedError):
            run_descent(
                TableEnumerator([[1, 9]]),
                TableEnumerator([[1, 2]]),
            )
        ok(8, "3 worked schedules + 17 random fixtures agree with exhaustive "
              "tabulation; containment violations raise")

    def test_criterion_9_report_is_fast_and_deterministic(self):
        argv = ["report", "--config", data_path("report_config.json")]
        start = time.perf_counter()
        code, first, err = invoke_cli(argv)
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert elapsed < 5.0, f"took {elapsed:.3f}s"
        _, again, _ = invoke_cli(argv)
        _, threaded, _ = invoke_cli(argv + ["--jobs", "4"])
        assert first == again == threaded
        doc = json.loads(first)
        assert doc["status"] == "complete"
        assert doc["halting_level"] == "2"
        assert doc["modulus_exponent"] == "2"
        assert doc["annihilator"] == "2500"
        assert doc["enlarged_primes"] == ["2", "5", "11"]
        ok(9, f"full report in {elapsed * 1000:.0f} ms, byte-identical across "
              f"reruns and thread counts")
