"""End-to-end command-line tests (in-process, no subprocesses)."""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadescent import arith, cli, jsonio
from nadescent.errors import DigitLimitError, InvariantError
from nadescent.jsonio import canonical_dumps, canonicalize
from nadescent.selmer_bounds import CurveParams, ParityMode, halting_level

from .conftest import DATA_DIR, data_path, invoke_cli, write_json
from .oracles import (
    canonical_text_by_json,
    canonicalize_by_walk,
    enlarged_primes_by_trial_division,
    parse_by_argparse,
)
from .test_golden import CASES


def run_json(argv):
    """Invoke, assert success, parse the canonical JSON payload."""
    code, out, err = invoke_cli(argv)
    assert code == 0, (code, err)
    return json.loads(out)


class TestDims:
    def test_table_values(self):
        doc = run_json(["dims", "--g", "2", "--n", "5"])
        assert doc["g"] == "2"
        assert [r["n"] for r in doc["rows"]] == ["1", "2", "3", "4", "5"]
        assert doc["rows"][0] == {"n": "1", "lucas": "4", "r": "4", "dim_u": "0"}
        assert doc["rows"][-1] == {
            "n": "5",
            "lucas": "724",
            "r": "144",
            "dim_u": "70",
        }

    def test_header_only_table(self):
        doc = run_json(["dims", "--g", "2", "--n", "0"])
        assert doc == {"g": "2", "rows": []}

    def test_genus_validation(self):
        code, out, err = invoke_cli(["dims", "--g", "1", "--n", "4"])
        assert code == 2
        assert "genus" in err

    def test_negative_degree_rejected(self):
        code, _, err = invoke_cli(["dims", "--g", "2", "--n", "-3"])
        assert code == 2

    def test_csv_rendering(self):
        code, out, _ = invoke_cli(
            ["dims", "--g", "2", "--n", "2", "--output", "csv"]
        )
        assert code == 0
        assert out.splitlines() == ["n,lucas,r_n,dim_u", "1,4,4,0", "2,14,5,4"]

    def test_plain_rendering(self):
        code, out, _ = invoke_cli(
            ["dims", "--g", "2", "--n", "2", "--output", "plain"]
        )
        assert code == 0
        assert out.startswith("g = 2\n")
        assert "144" not in out

    def test_long_flag_spellings(self):
        assert run_json(["dims", "--genus", "2", "--n-max", "1"]) == run_json(
            ["dims", "--g", "2", "--n", "1"]
        )


class TestBounds:
    BASE = ["bounds", "--g", "2", "--p", "101", "--bad-count", "1"]

    def test_rank_zero_table(self):
        doc = run_json(self.BASE + ["--rank", "0"])
        assert doc["halting_level"] == "2"
        assert doc["mode"] == "faithful"
        assert doc["mw_rank"] == "0"
        assert [r["n"] for r in doc["rows"]] == ["2"]
        row = doc["rows"][0]
        assert int(row["selmer_ub"]) < int(row["derham_lb"])

    def test_rank_two_is_deeper(self):
        doc = run_json(self.BASE + ["--rank", "2"])
        assert doc["halting_level"] == "16"
        assert doc["rows"][-1]["n"] == "16"

    def test_verbatim_mode(self):
        doc = run_json(self.BASE + ["--rank", "2", "--mode", "verbatim"])
        assert doc["halting_level"] == "15"

    def test_sweep_is_rejected_here(self):
        code, _, err = invoke_cli(self.BASE + ["--rank", "0..3"])
        assert code == 2
        assert "single rank" in err

    def test_csv_rendering(self):
        code, out, _ = invoke_cli(
            self.BASE + ["--rank", "0", "--output", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,selmer_ub,derham_lb"
        assert len(lines) == 2

    def test_bad_primes_give_the_count(self):
        with_list = run_json(
            ["bounds", "--g", "2", "--p", "101", "--bad-primes", "11,13",
             "--rank", "0"]
        )
        assert with_list["bad_prime_count"] == "2"

    def test_bad_count_conflict(self):
        code, _, err = invoke_cli(
            ["bounds", "--g", "2", "--p", "101", "--bad-primes", "11,13",
             "--bad-count", "3", "--rank", "0"]
        )
        assert code == 2
        assert "disagrees" in err

    def test_bad_set_required(self):
        code, _, err = invoke_cli(
            ["bounds", "--g", "2", "--p", "101", "--rank", "0"]
        )
        assert code == 2


class TestHalt:
    BASE = ["halt", "--g", "2", "--p", "101", "--bad-count", "1"]

    def test_rank_sweep_both_modes(self):
        doc = run_json(self.BASE + ["--rank", "0..3", "--mode", "both"])
        assert len(doc["results"]) == 8
        by_key = {
            (r["mw_rank"], r["mode"]): int(r["halting_level"])
            for r in doc["results"]
        }
        assert by_key[("0", "faithful")] == 2
        assert by_key[("0", "verbatim")] == 2
        assert by_key[("2", "faithful")] == 16
        assert by_key[("2", "verbatim")] == 15
        for mode in ("faithful", "verbatim"):
            levels = [by_key[(str(r), mode)] for r in range(4)]
            assert levels == sorted(levels)

    def test_missed_cap_exits_3(self):
        code, out, _ = invoke_cli(
            self.BASE + ["--rank", "2", "--n-cap", "3"]
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["results"][0]["halting_level"] is None

    def test_plain_rendering(self):
        code, out, _ = invoke_cli(
            self.BASE + ["--rank", "0", "--output", "plain"]
        )
        assert code == 0
        assert out == "rank 0 (faithful): t = 2\n"

    def test_csv_rendering_with_missing_level(self):
        code, out, _ = invoke_cli(
            self.BASE + ["--rank", "2", "--n-cap", "3", "--output", "csv"]
        )
        assert code == 3
        assert out.splitlines() == ["mw_rank,mode,halting_level", "2,faithful,"]

    def test_n_cap_above_the_cap_exits_2_naming_n_cap(self):
        code, out, err = invoke_cli(self.BASE + ["--rank", "0", "--n-cap", "20000"])
        assert (code, out) == (2, "")
        assert "n_cap must be at most 10001, got 20000" in err
        assert "level cap" not in err

    def test_a_negative_rank_in_a_sweep_exits_2(self):
        # the sweep walks once, for its top rank, yet still refuses its least
        code, out, err = invoke_cli(
            ["halt", "--genus", "3", "--p", "7", "--rank=-1..3", "--n-cap", "40",
             "--mode", "both", "--bad-count", "1"]
        )
        assert (code, out, err) == (
            2, "", "error: --rank must be an integer >= 0, got -1\n"
        )

    @settings(max_examples=150, deadline=None)
    @given(
        g=st.integers(2, 5),
        s=st.integers(0, 3),
        lo=st.integers(0, 30),
        width=st.integers(0, 12),
        n_cap=st.integers(2, 64),
        mode=st.sampled_from(["faithful", "verbatim", "both"]),
    )
    def test_document_is_a_fold_of_one_walk_per_rank(self, g, s, lo, width, n_cap, mode):
        code, out, _ = invoke_cli(
            ["halt", "--genus", str(g), "--p", "7", "--bad-count", str(s),
             "--rank", f"{lo}..{lo + width}", "--n-cap", str(n_cap), "--mode", mode]
        )
        modes = list(ParityMode) if mode == "both" else [ParityMode(mode)]
        results = []
        for rank in range(lo, lo + width + 1):
            params = CurveParams(g=g, bad_prime_count=s, p=7, mw_rank=rank)
            for m in modes:
                table = halting_level(params, n_cap=n_cap, mode=m)
                results.append(
                    {
                        "mw_rank": rank,
                        "mode": m.value,
                        "halting_level": table.halting_level,
                        "levels_examined": len(table.rows),
                    }
                )
        missed = any(r["halting_level"] is None for r in results)
        expected = {"g": g, "p": 7, "bad_prime_count": s, "n_cap": n_cap,
                    "results": results}
        assert (code, out) == (
            3 if missed else 0, canonical_text_by_json(canonicalize(expected))
        )


class TestSeparate:
    def test_simple_charts(self):
        doc = run_json(["separate", "--input", data_path("charts_simple.json")])
        assert doc["status"] == "separated"
        assert doc["modulus"] == "1"
        assert doc["failures"] == []
        got = {(d["chart_id"], tuple(d["center_digits"])) for d in doc["disks"]}
        assert got == {
            ("affine-0:y0", ("0",)),
            ("affine-0:y0", ("1",)),
            ("affine-0:y1", ("2",)),
        }

    def test_deeper_modulus(self):
        doc = run_json(["separate", "--input", data_path("charts_zp.json")])
        assert doc["status"] == "separated"
        assert doc["modulus"] == "2"
        deep = [d for d in doc["disks"] if d["chart_id"] == "affine-0:y0"]
        assert {tuple(d["center_digits"]) for d in deep} == {
            ("0", "0"),
            ("0", "1"),
        }

    def test_multiple_root_exits_4(self):
        code, out, _ = invoke_cli(
            ["separate", "--input", data_path("charts_double.json")]
        )
        assert code == 4
        doc = json.loads(out)
        assert doc["status"] == "multiple-root-suspected"
        assert doc["failures"]
        assert doc["failures"][0]["reason"] == "multiple-root-suspected"

    def test_jobs_do_not_change_bytes(self):
        argv = ["separate", "--input", data_path("charts_zp.json")]
        _, solo, _ = invoke_cli(argv + ["--jobs", "1"])
        _, quad, _ = invoke_cli(argv + ["--jobs", "4"])
        assert solo == quad

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = invoke_cli(
            ["separate", "--input", data_path("charts_simple.json"),
             "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["modulus"] == "1"

    def test_missing_input_file(self, tmp_path):
        code, _, err = invoke_cli(
            ["separate", "--input", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "not found" in err

    def test_invalid_json_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = invoke_cli(["separate", "--input", str(bad)])
        assert code == 2
        assert "invalid JSON" in err

    def test_schema_violation_names_the_path(self, tmp_path):
        path = write_json(
            tmp_path, "no_disks.json",
            {"p": 5, "charts": [{"chart_id": "a", "disks": []}]},
        )
        code, _, err = invoke_cli(["separate", "--input", path])
        assert code == 2
        assert "$.charts[0].disks" in err


class TestIntegrate:
    def test_single_letter_word(self):
        doc = run_json(["integrate", "--input", data_path("integrate_basic.json")])
        series = doc["series"]
        assert series["p"] == "5"
        assert series["trunc"] == "8"
        assert series["weierstrass_bound"] is None
        assert series["coeffs"][0] == {"zero": True}
        assert series["coeffs"][1] == {"val": "0", "unit": "1", "prec": "20"}
        assert all(c == {"zero": True} for c in series["coeffs"][2:])

    def test_cancelling_observable(self):
        doc = run_json(["integrate", "--input", data_path("integrate_cancel.json")])
        series = doc["series"]
        assert series["trunc"] == "6"
        assert all("unit" not in c for c in series["coeffs"])

    def test_trunc_override(self):
        doc = run_json(
            ["integrate", "--input", data_path("integrate_basic.json"),
             "--trunc", "3"]
        )
        assert doc["series"]["trunc"] == "3"
        assert len(doc["series"]["coeffs"]) == 4

    def test_missing_observable(self, tmp_path):
        path = write_json(tmp_path, "no_obs.json", {"p": 5, "forms": [[1, 0]]})
        code, _, err = invoke_cli(["integrate", "--input", path])
        assert code == 2
        assert "$.observable" in err

    def test_non_integral_form_rejected(self, tmp_path):
        path = write_json(
            tmp_path, "bad_form.json",
            {
                "p": 5,
                "forms": [[{"val": -1, "unit": 1, "prec": 3}, 0]],
                "observable": [{"word": [1], "coeff": 1}],
            },
        )
        code, _, err = invoke_cli(["integrate", "--input", path])
        assert code == 2

    def test_bound_passthrough(self, tmp_path):
        path = write_json(
            tmp_path, "bounded.json",
            {
                "p": 5,
                "forms": [[1, 0, 0]],
                "observable": [{"word": [1], "coeff": 1}],
                "weierstrass_bound": 1,
            },
        )
        doc = run_json(["integrate", "--input", path])
        assert doc["series"]["weierstrass_bound"] == "1"


class TestOrder:
    def test_count_input(self):
        doc = run_json(
            ["order", "--p", "5", "--g", "1", "--count-fp", "9",
             "--modulus-exponent", "2"]
        )
        assert doc["annihilator"] == "45"
        assert doc["count_fp"] == "9"
        assert doc["warnings"] == []
        assert "enlarged_primes" not in doc

    def test_l_poly_input(self):
        doc = run_json(
            ["order", "--p", "5", "--g", "1", "--l-poly", "1,-1,5",
             "--modulus-exponent", "2"]
        )
        assert doc["count_fp"] == "5"
        assert doc["annihilator"] == "25"

    def test_enlarged_primes(self):
        doc = run_json(
            ["order", "--p", "5", "--g", "1", "--count-fp", "9",
             "--modulus-exponent", "2", "--enlarge", "11"]
        )
        assert doc["enlarged_primes"] == ["3", "5", "11"]

    def test_count_and_l_poly_are_exclusive(self):
        base = ["order", "--p", "5", "--g", "1", "--modulus-exponent", "2"]
        code, _, err = invoke_cli(base + ["--count-fp", "9", "--l-poly", "1,-1,5"])
        assert code == 2
        assert "exactly one" in err
        code, _, err = invoke_cli(base)
        assert code == 2

    def test_weil_warning_reported_not_fatal(self):
        doc = run_json(
            ["order", "--p", "5", "--g", "1", "--count-fp", "100",
             "--modulus-exponent", "1"]
        )
        assert doc["annihilator"] == "100"
        assert len(doc["warnings"]) == 1
        assert "Weil" in doc["warnings"][0]

    def test_plain_rendering(self):
        code, out, _ = invoke_cli(
            ["order", "--p", "5", "--g", "1", "--count-fp", "9",
             "--modulus-exponent", "2", "--enlarge", "11", "--output", "plain"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N = 45"
        assert lines[1] == "T0 = {3, 5, 11}"

    def test_factor_budget_exhaustion_exits_3(self):
        big = 104_729 * 104_723
        code, _, err = invoke_cli(
            ["order", "--p", "5", "--g", "1", "--count-fp", str(big),
             "--modulus-exponent", "1", "--enlarge", "",
             "--factor-budget", "1"]
        )
        assert code == 3
        assert "budget" in err

    def test_budget_refusal_names_the_flag_and_the_budget_spent(self):
        code, out, err = invoke_cli(
            ["order", "--p", "5", "--g", "1", "--count-fp", str(104_729 * 104_723),
             "--modulus-exponent", "1", "--enlarge", "", "--factor-budget", "7"]
        )
        assert (code, out) == (3, "")
        assert "budget of 7 Brent steps" in err
        assert "raise --factor-budget" in err

    def test_a_repeated_large_prime_fits_a_small_factor_budget(self):
        # N holds 916109^9; the prime is found once, so 5000 Brent steps
        # cover what finding it nine times used to run out of
        argv = ["order", "--p", "916109", "--genus", "3",
                "--count-fp", "770710125157448144", "--modulus-exponent", "4",
                "--enlarge", "5,11"]
        code, out, _ = invoke_cli(argv + ["--factor-budget", "5000"])
        assert (code, out) == invoke_cli(argv)[:2]
        assert code == 0

    @pytest.mark.parametrize("count_fp", ["30", "1000036000099"])
    def test_a_negative_factor_budget_exits_2_naming_the_flag(self, count_fp):
        # 30 needs no Brent step and 1000036000099 needs some; both are
        # refused before any factoring
        code, out, err = invoke_cli(
            ["order", "--p", "5", "--genus", "2", "--count-fp", count_fp,
             "--modulus-exponent", "1", "--factor-budget", "-5", "--enlarge", "2"]
        )
        assert (code, out) == (2, "")
        assert "--factor-budget must be an integer >= 0, got -5" in err

    def test_a_zero_factor_budget_allows_trial_division_only(self):
        argv = ["order", "--p", "5", "--genus", "2", "--modulus-exponent", "1",
                "--factor-budget", "0", "--enlarge", "2", "--count-fp"]
        assert run_json(argv + ["30"])["enlarged_primes"] == ["2", "3", "5"]
        code, _, err = invoke_cli(argv + ["1000036000099"])
        assert code == 3
        assert "budget of 0 Brent steps" in err

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7, 11, 13, 31, 47]),
        g=st.integers(1, 3),
        m=st.integers(1, 4),
        count_fp=st.integers(1, 5000),
        s_primes=st.sets(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=3),
    )
    def test_t0_is_s_and_the_primes_of_n(self, p, g, m, count_fp, s_primes):
        doc = run_json(
            ["order", "--p", str(p), "--genus", str(g), "--count-fp", str(count_fp),
             "--modulus-exponent", str(m), "--enlarge", ",".join(map(str, s_primes))]
        )
        expected = enlarged_primes_by_trial_division(s_primes, p, g, m, count_fp)
        assert doc["enlarged_primes"] == [str(q) for q in expected]

    def test_only_count_fp_is_factored(self, monkeypatch, tmp_path):
        # p does not divide either count, so no multiple of p may be factored
        seen = []
        factorize = arith.factorize

        def recording(n, budget=arith.DEFAULT_FACTOR_BUDGET):
            seen.append(n)
            return factorize(n, budget)

        monkeypatch.setattr(arith, "factorize", recording)
        count_fp = 770710125157448144
        assert count_fp % 916109 != 0
        for m in ("1", "2", "4"):
            run_json(["order", "--p", "916109", "--genus", "3", "--count-fp",
                      str(count_fp), "--modulus-exponent", m, "--enlarge", "5,11"])
        with open(data_path("report_config.json"), encoding="utf-8") as fh:
            config = json.load(fh)
        config["jacobian"]["count_fp"] = 101
        doc = run_json(["report", "--config", write_json(tmp_path, "c.json", config)])
        assert doc["modulus_exponent"] == "2"
        assert doc["enlarged_primes"] == ["5", "11", "101"]
        assert seen == [count_fp] * 3 + [101]

    def test_the_budget_counts_rho_work_on_count_fp_only(self):
        # factoring N ran out of 1000 Brent steps on the p-part; count_fp alone
        # fits, and T0 is what factoring N gives at the default budget
        p, count_fp = 941929, 834023436675534085
        argv = ["order", "--p", str(p), "--genus", "3", "--count-fp", str(count_fp),
                "--modulus-exponent", "4", "--enlarge", "7"]
        doc = run_json(argv + ["--factor-budget", "1000"])
        n = count_fp * p**9
        assert doc["annihilator"] == str(n)
        assert doc["enlarged_primes"] == [
            str(q) for q in sorted(arith.prime_factors(n) | {7})
        ]


class TestDescentSim:
    def test_staircase_fixture(self):
        doc = run_json(["descent-sim", "--input", data_path("descent_mock1.json")])
        assert doc["converged"] is True
        assert doc["points"] == ["1", "2"]
        assert (doc["lower_level"], doc["upper_level"]) == ("2", "2")

    def test_cap_out_exits_3(self):
        code, out, _ = invoke_cli(
            ["descent-sim", "--input", data_path("descent_cap.json"),
             "--n-cap", "2", "--m-cap", "2"]
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["converged"] is False
        assert doc["points"] is None
        assert doc["last_lower"] == ["1"]
        assert doc["last_upper"] == ["1", "2"]
        assert (doc["n_cap"], doc["m_cap"]) == ("2", "2")

    def test_integer_labels_normalize_to_strings(self, tmp_path):
        path = write_json(
            tmp_path, "ints.json", {"lower": [[1]], "upper": [[1]]}
        )
        doc = run_json(["descent-sim", "--input", path])
        assert doc["points"] == ["1"]

    def test_bad_labels_rejected(self, tmp_path):
        path = write_json(
            tmp_path, "bad.json", {"lower": [[True]], "upper": [[1]]}
        )
        code, _, err = invoke_cli(["descent-sim", "--input", path])
        assert code == 2
        assert "$.lower[0][0]" in err

    @pytest.mark.parametrize(
        "fixture, message",
        [
            (
                {
                    "lower": [[], ["1"]],
                    "upper": [["1", "2", "3"], ["1", "2", "3", "7"], ["1", "2"]],
                },
                "$.upper[1]: upper level 1 gains {'7'} over level 0",
            ),
            (
                {"lower": [["1"], []], "upper": [["1", "2"]]},
                "$.lower[1]: lower level 1 loses {'1'} of level 0",
            ),
            (
                {"lower": [["1"], ["1", 9]], "upper": [["1", "2"], ["1"]]},
                "$.lower[1]: certified points {'9'} escape the last upper "
                "level $.upper[1]",
            ),
            # the two sides meet at level 0, before the lower side shrinks
            (
                {"lower": [["1"], []], "upper": [["1"], ["1", "2"]]},
                "$.lower[1]: lower level 1 loses {'1'} of level 0",
            ),
        ],
    )
    def test_a_fixture_that_contradicts_itself_exits_2_naming_the_level(
        self, tmp_path, fixture, message
    ):
        path = write_json(tmp_path, "bad.json", fixture)
        code, out, err = invoke_cli(["descent-sim", "--input", path])
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestReport:
    def test_full_pipeline(self):
        doc = run_json(["report", "--config", data_path("report_config.json")])
        assert doc["status"] == "complete"
        assert doc["halting_level"] == "2"
        assert doc["bound_table"]["halting_level"] == "2"
        assert doc["separation"]["status"] == "separated"
        assert doc["modulus_exponent"] == "2"
        assert doc["annihilator"] == "2500"
        assert doc["enlarged_primes"] == ["2", "5", "11"]
        assert doc["warnings"] == []
        assert doc["curve"]["bad_primes"] == ["11"]
        assert doc["inputs"]["jacobian"] == {"g": "2", "count_fp": "100"}
        assert "failed_stage" not in doc

    def test_byte_stability_across_runs_and_jobs(self):
        argv = ["report", "--config", data_path("report_config.json")]
        _, first, _ = invoke_cli(argv)
        _, second, _ = invoke_cli(argv)
        _, threaded, _ = invoke_cli(argv + ["--jobs", "4"])
        assert first == second == threaded

    def test_no_halting_level_stage(self, tmp_path):
        config = json.loads(
            open(data_path("report_config.json"), encoding="utf-8").read()
        )
        config["curve"]["mw_rank"] = 2
        config["n_cap"] = 3
        path = write_json(tmp_path, "stalled.json", config)
        code, out, _ = invoke_cli(["report", "--config", path])
        assert code == 3
        doc = json.loads(out)
        assert doc["status"] == "no-halting-level"
        assert doc["failed_stage"] == "halting"
        assert doc["halting_level"] is None
        assert "separation" not in doc

    def test_n_cap_above_the_cap_exits_2_naming_n_cap(self, tmp_path):
        config = json.loads(
            open(data_path("report_config.json"), encoding="utf-8").read()
        )
        config["n_cap"] = 20000
        path = write_json(tmp_path, "too-far.json", config)
        code, out, err = invoke_cli(["report", "--config", path])
        assert (code, out) == (2, "")
        assert "n_cap must be at most 10001, got 20000" in err
        assert "level cap" not in err

    def test_separation_failure_stage(self, tmp_path):
        config = json.loads(
            open(data_path("report_config.json"), encoding="utf-8").read()
        )
        config["charts"] = [
            {
                "chart_id": "affine-0",
                "disks": [
                    {
                        "center_label": "y0",
                        "coeffs": [0, 0, 1],
                        "trunc": 2,
                        "weierstrass_bound": 2,
                    }
                ],
            }
        ]
        path = write_json(tmp_path, "stuck.json", config)
        code, out, _ = invoke_cli(["report", "--config", path])
        assert code == 4
        doc = json.loads(out)
        assert doc["status"] == "separation-failed"
        assert doc["failed_stage"] == "separation"
        assert "annihilator" not in doc

    def test_missing_jacobian_named(self, tmp_path):
        config = json.loads(
            open(data_path("report_config.json"), encoding="utf-8").read()
        )
        del config["jacobian"]
        path = write_json(tmp_path, "nojac.json", config)
        code, _, err = invoke_cli(["report", "--config", path])
        assert code == 2
        assert "$.jacobian" in err

    def test_missing_curve_field_named(self, tmp_path):
        config = {"curve": {"genus": 2, "p": 5, "bad_primes": []}}
        path = write_json(tmp_path, "norank.json", config)
        code, _, err = invoke_cli(["report", "--config", path])
        assert code == 2
        assert "$.curve.mw_rank" in err

    @pytest.mark.parametrize("config", [[], "x", 5])
    def test_config_must_be_an_object(self, tmp_path, config):
        path = write_json(tmp_path, "scalar.json", config)
        code, out, err = invoke_cli(["report", "--config", path])
        assert (code, out) == (2, "")
        assert "$: expected an object" in err

    def test_a_negative_factor_budget_exits_2_naming_the_flag(self):
        code, out, err = invoke_cli(
            ["report", "--config", data_path("report_config.json"),
             "--factor-budget", "-1"]
        )
        assert (code, out) == (2, "")
        assert "--factor-budget must be an integer >= 0, got -1" in err

    def test_out_file_round_trip(self, tmp_path):
        target = tmp_path / "full.json"
        code, out, _ = invoke_cli(
            ["report", "--config", data_path("report_config.json"),
             "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["status"] == "complete"


def _set(argv, flag, value):
    """``argv`` with ``flag`` given ``value``: replaced if present, else added."""
    if flag not in argv:
        return argv + [flag, value]
    i = argv.index(flag)
    return argv[: i + 1] + [value] + argv[i + 2 :]


class TestFlagRefusals:
    """A value a library check refuses is named by its flag, as a value
    that does not parse is: exit 2, nothing on stdout, one stderr line."""

    HALT = ["halt", "--genus", "2", "--p", "5", "--rank", "1", "--bad-count", "1"]
    ORDER = ["order", "--p", "5", "--g", "2", "--count-fp", "30",
             "--modulus-exponent", "1"]
    DIMS = ["dims", "--g", "2", "--n", "8"]
    SEPARATE = ["separate", "--input", data_path("charts_simple.json")]
    DESCENT = ["descent-sim", "--input", data_path("descent_mock1.json")]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (_set(HALT, "--genus", "1"), "--genus must be an integer >= 2, got 1"),
            (_set(HALT, "--bad-count", "-1"),
             "--bad-count must be an integer >= 0, got -1"),
            (HALT[:-2] + ["--bad-primes", "5"],
             "--bad-primes: p=5 must be of good reduction"),
            (_set(HALT, "--n-cap", "1"), "--n-cap must be an integer >= 2, got 1"),
            (_set(HALT, "--n-cap", "20000"),
             "--n-cap: n_cap must be at most 10001, got 20000"),
            (_set(HALT, "--rank", "-1"), "--rank must be an integer >= 0, got -1"),
            (_set(ORDER, "--g", "0"), "--genus must be an integer >= 1, got 0"),
            (_set(ORDER, "--count-fp", "0"),
             "--count-fp must be an integer >= 1, got 0"),
            (_set(ORDER, "--modulus-exponent", "0"),
             "--modulus-exponent must be an integer >= 1, got 0"),
            (ORDER[:5] + ["--l-poly", "1,-1"] + ORDER[7:],
             "--l-poly: polynomial value at 1 is 0; a group order must be >= 1"),
            (_set(DIMS, "--n", "20000"),
             "--n: 20000 exceeds --cap 10000; pass --cap 20000"),
            (_set(DIMS, "--cap", "5"), "--n: 8 exceeds --cap 5; pass --cap 8"),
            (_set(SEPARATE, "--depth-cap", "0"),
             "--depth-cap must be an integer >= 1, got 0"),
            (_set(DESCENT, "--n-cap", "-1"), "--n-cap must be an integer >= 0, got -1"),
            (_set(DESCENT, "--m-cap", "-1"), "--m-cap must be an integer >= 0, got -1"),
        ],
    )
    def test_a_refusal_names_its_flag(self, argv, message):
        assert invoke_cli(argv) == (2, "", f"error: {message}\n")

    def test_the_cap_a_dims_refusal_names_is_enough(self):
        assert invoke_cli(_set(self.DIMS, "--cap", "8"))[0] == 0


class TestIntegerFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (TestHalt.BASE + ["--rank", "²"], "--rank"),
            (TestHalt.BASE + ["--rank", "0..²"], "--rank"),
            (["halt", "--g", "2", "--p", "101", "--bad-primes", "²",
              "--rank", "0"], "--bad-primes"),
            (["halt", "--g", "2", "--p", "101", "--bad-primes", "١١",
              "--rank", "0"], "--bad-primes"),
            (["order", "--p", "5", "--g", "1", "--l-poly", "1,²",
              "--modulus-exponent", "2"], "--l-poly"),
            (["order", "--p", "5", "--g", "1", "--count-fp", "9",
              "--modulus-exponent", "2", "--enlarge", "١١"], "--enlarge"),
            (["dims", "--g", "٢", "--n", "٣", "--output", "csv"], "--genus"),
            (["order", "--p", "٥", "--g", "1", "--count-fp", "9",
              "--modulus-exponent", "2"], "--p"),
            (["separate", "--input", data_path("charts_simple.json"),
              "--depth-cap", "١"], "--depth-cap"),
            (["report", "--config", data_path("report_config.json"),
              "--jobs", "²"], "--jobs"),
        ],
    )
    def test_non_ascii_digits_are_refused(self, argv, flag):
        code, out, err = invoke_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["separate", "--input", data_path("charts_simple.json")],
            ["report", "--config", data_path("report_config.json")],
        ],
    )
    def test_jobs_must_be_a_count(self, argv):
        code, out, err = invoke_cli(argv + ["--jobs", "0"])
        assert (code, out) == (2, "")
        assert "jobs must be an integer >= 1" in err


@pytest.fixture
def low_digit_limit():
    """The interpreter's smallest int/str digit limit, for cheap refusals."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestDigitLimit:
    @pytest.mark.parametrize("style", ["json", "csv", "plain"])
    def test_long_dims_table_exits_3(self, low_digit_limit, style):
        # L_1200 has 687 digits at g = 2
        code, out, err = invoke_cli(
            ["dims", "--g", "2", "--n", "1200", "--output", style]
        )
        assert (code, out) == (3, "")
        assert "PYTHONINTMAXSTRDIGITS" in err

    @pytest.mark.parametrize("style", ["json", "plain"])
    def test_huge_annihilator_exits_3(self, style):
        code, out, err = invoke_cli(
            ["order", "--p", "5", "--g", "3", "--count-fp", "100",
             "--modulus-exponent", "2100", "--output", style]
        )
        assert (code, out) == (3, "")
        assert "PYTHONINTMAXSTRDIGITS" in err

    @pytest.mark.parametrize("style", ["json", "plain"])
    def test_unprintable_annihilator_is_refused_before_it_is_computed(
        self, monkeypatch, style
    ):
        def refuse(*args):
            raise AssertionError("N was computed")

        monkeypatch.setattr(cli, "jacobian_order_mod", refuse)
        code, out, err = invoke_cli(
            ["order", "--p", "5", "--g", "2", "--count-fp", "30",
             "--modulus-exponent", str(10**9), "--output", style]
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: an output integer has more decimal digits")
        assert "PYTHONINTMAXSTRDIGITS" in err

    def test_lifted_limit_refuses_no_annihilator(self, monkeypatch):
        monkeypatch.setattr(cli, "jacobian_order_mod", lambda data, m: 7)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = invoke_cli(
                ["order", "--p", "5", "--g", "2", "--count-fp", "30",
                 "--modulus-exponent", str(10**9), "--output", "plain"]
            )
        finally:
            sys.set_int_max_str_digits(saved)
        assert code == 0 and out.startswith("N = 7")

    def test_long_decimal_string_names_its_path(self, tmp_path):
        path = write_json(
            tmp_path, "long.json",
            {"p": 5, "forms": [["1" + "0" * 5000, 0]],
             "observable": [{"word": [1], "coeff": 1}]},
        )
        code, out, err = invoke_cli(["integrate", "--input", path])
        assert (code, out) == (2, "")
        assert "$.forms[0].coeffs[0]" in err
        assert "PYTHONINTMAXSTRDIGITS" in err

    def test_long_integer_literal_names_its_file(self, tmp_path):
        path = tmp_path / "literal.json"
        path.write_text(
            '{"p": 5, "forms": [[1' + "0" * 5000 + ", 0]], "
            '"observable": [{"word": [1], "coeff": 1}]}',
            encoding="utf-8",
        )
        code, out, err = invoke_cli(["integrate", "--input", str(path)])
        assert (code, out) == (2, "")
        assert "literal.json" in err and "PYTHONINTMAXSTRDIGITS" in err


class Unconvertible(int):
    def __str__(self):  # pragma: no cover - must never be reached
        raise AssertionError("converted before the refusal")


class TestDigitLimitPrecheck:
    @pytest.mark.parametrize("bits", range(2120, 2140))
    def test_bit_length_refusal_agrees_with_str(self, low_digit_limit, bits):
        # 2^2125 has 640 digits, 2^2126 has 641: the band straddles the limit
        for n in (2**bits - 1, 2**bits, -(2**bits)):
            try:
                want = str(n)
            except ValueError:
                want = None
            try:
                got = canonicalize({"rows": [n]})["rows"][0]
            except DigitLimitError:
                got = None
            assert got == want

    def test_refuses_before_converting_the_rows(self, low_digit_limit):
        # the first row cannot be converted, the last alone is long enough
        # for its bit length to prove the refusal
        doc = [Unconvertible(), 10**700]
        with pytest.raises(DigitLimitError):
            canonicalize(doc)


class TestCanonicalDumpsRefusalOrder:
    """``canonical_dumps`` refuses a long int before it converts any int,
    and before it raises an InvariantError met earlier in its walk."""

    @pytest.mark.parametrize("bits", range(2120, 2140))
    def test_bit_length_refusal_agrees_with_str(self, low_digit_limit, bits):
        for n in (2**bits - 1, 2**bits, -(2**bits)):
            try:
                want = canonical_text_by_json({"rows": [str(n)]})
            except ValueError:
                want = None
            try:
                got = canonical_dumps({"rows": [n]})
            except DigitLimitError:
                got = None
            assert got == want

    def test_refuses_before_converting_the_rows(self, low_digit_limit):
        with pytest.raises(DigitLimitError):
            canonical_dumps([Unconvertible(), 10**700])

    def test_long_field_is_refused_before_any_conversion(self, low_digit_limit):
        doc = Node(Unconvertible(), (Leaf(Colour.RED, frozenset(), (10**700,), None),))
        with pytest.raises(DigitLimitError):
            canonical_dumps(doc)

    @pytest.mark.parametrize(
        "fault", [1.5, {3: "key"}, object()], ids=["float", "key", "object"]
    )
    def test_a_long_int_wins_over_a_fault_on_either_side(self, low_digit_limit, fault):
        for doc in ([fault, 10**700], [10**700, fault], {"a": fault, "b": [10**700]}):
            with pytest.raises(DigitLimitError):
                canonical_dumps(doc)
        with pytest.raises(DigitLimitError):
            canonical_dumps({1: 10**700})

    def test_a_set_is_walked_for_refusals_before_it_is_sorted(self, low_digit_limit):
        for doc in ([frozenset({10**700, 3})], [frozenset({(1, 1.5)}), 10**700]):
            with pytest.raises(DigitLimitError):
                canonical_dumps(doc)

    def test_a_set_of_unlike_elements_is_an_invariant_error(self):
        with pytest.raises(InvariantError, match="no canonical order"):
            canonical_dumps([frozenset({"a", (1,)})])

    def test_a_float_alone_is_an_invariant_error(self):
        with pytest.raises(InvariantError, match="float 1.5"):
            canonical_dumps({"x": [1, 1.5]})


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Leaf:
    colour: Colour
    tags: frozenset
    digits: tuple
    missing: Any


@dataclass(frozen=True)
class Node:
    count: int
    leaves: tuple


class TestCanonicalDataclass:
    def test_nested_dataclass_becomes_its_fields(self):
        doc = Node(3, (Leaf(Colour.RED, frozenset({5, 12}), (0, 4), None),))
        assert canonicalize({"node": doc}) == {
            "node": {
                "count": "3",
                "leaves": [
                    {
                        "colour": "red",
                        "tags": ["12", "5"],
                        "digits": ["0", "4"],
                        "missing": None,
                    }
                ],
            }
        }

    def test_str_enum_becomes_its_plain_value(self):
        value = canonicalize([Colour.RED])[0]
        assert type(value) is str and f"{value}" == "red"

    def test_long_field_is_refused_before_any_conversion(self, low_digit_limit):
        doc = Node(Unconvertible(), (Leaf(Colour.RED, frozenset(), (10**700,), None),))
        with pytest.raises(DigitLimitError):
            canonicalize(doc)


# pieces of a str: JSON escapes, and the % placeholders of the emitter's format
_CANONICAL_TEXT = st.lists(
    st.sampled_from(
        list('"\\/\b\f\n\r\t\x00\x1f\x7f aZ\u00e9\u2028\U0001f600')
        + ["%", "%s", "%%", "%(k)s"]
    )
    | st.characters(),
    max_size=8,
).map("".join)


def _records(inner):
    ints = st.integers(-(2**80), 2**80)
    leaf = st.builds(
        Leaf,
        colour=st.sampled_from(Colour),
        tags=st.frozensets(st.integers(10, 10**6), max_size=5),
        digits=st.lists(ints, max_size=3).map(tuple),
        missing=inner,
    )
    leaves = st.lists(leaf | inner, max_size=3).map(tuple)
    node = st.builds(Node, count=ints, leaves=leaves)
    return leaf | node


_DOCUMENTS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**80), 2**80)
    | _CANONICAL_TEXT
    | st.sampled_from(Colour)
    | st.frozensets(st.integers(10, 10**6), max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_CANONICAL_TEXT, inner, max_size=4)
    | _records(inner),
    max_leaves=24,
)


class TestCanonicalEmitter:
    @settings(max_examples=300, deadline=None)
    @given(
        doc=st.recursive(
            st.none() | st.booleans() | st.integers() | _CANONICAL_TEXT,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(_CANONICAL_TEXT, inner, max_size=4),
            max_leaves=24,
        )
    )
    def test_matches_json_dumps(self, doc):
        assert canonical_dumps(doc) == canonical_text_by_json(canonicalize_by_walk(doc))

    @settings(max_examples=300, deadline=None)
    @given(doc=_DOCUMENTS)
    def test_matches_the_two_walk_canonicalizer(self, doc):
        want = canonicalize_by_walk(doc)
        assert canonical_dumps(doc) == canonical_text_by_json(want)
        assert canonicalize(doc) == want

    def test_empty_and_nested_containers(self):
        doc = {"b": [], "a": {}, "c": [{}, [[]], {"y": None, "x": True}]}
        assert canonical_dumps(doc) == canonical_text_by_json(doc)

    def test_an_int_free_document_with_percent_signs_is_emitted_verbatim(self):
        doc = {"100%%": ["%%", "%s", "%(k)s", "%", None, True], "%d": {}}
        assert canonical_dumps(doc) == canonical_text_by_json(doc)
        assert '"100%%": [' in canonical_dumps(doc)

    def test_the_key_cache_stays_bounded(self):
        wide = {f"key {i}": i for i in range(10**4)}
        doc = [wide] + [{f"k{i}": i} for i in range(10**4)]
        want = canonicalize_by_walk(doc)
        assert canonical_dumps(doc) == canonical_text_by_json(want)
        info = jsonio._layout.cache_info()
        assert info.currsize == info.maxsize < 10**4


class TestParserReuse:
    ARGVS = [
        ["dims", "--g", "3", "--n", "6", "--output", "csv"],
        ["halt", "--g", "2", "--p", "101", "--bad-count", "1", "--rank", "0..3"],
        ["dims", "--g", "2", "--n", "4"],
        ["bounds", "--g", "2", "--p", "101", "--bad-primes", "11,13",
         "--rank", "1", "--output", "plain"],
        ["dims", "--g", "x", "--n", "4"],
        ["halt", "--g", "2", "--p", "101", "--bad-count", "1", "--rank", "2"],
        # '=' forms go through the argparse parser
        ["dims", "--g=3", "--n=6", "--output=csv"],
        ["halt", "--g", "2", "--p", "101", "--bad-count=1", "--rank", "0..3"],
        ["dims", "--g=x", "--n", "4"],
    ]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_a_row_match_fresh_calls(self):
        in_a_row = [invoke_cli(argv) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            cli.build_parser.cache_clear()
            fresh.append(invoke_cli(argv))
        assert in_a_row == fresh
        assert [code for code, _, _ in in_a_row] == [0, 0, 0, 0, 2, 0, 0, 0, 2]
        assert in_a_row[6:] == [in_a_row[0], in_a_row[1], in_a_row[4]]


# values of every kind a flag meets: ints, a sweep, each choice, empty,
# negative, a flag's own look, and text argparse would split at '='
_ARG_VALUES = st.sampled_from([
    "5", "0", "101", "0..3", "x=1", "a b", "", "-1", "-", "--", "-h", "--g",
    "json", "csv", "plain", "faithful", "verbatim", "both",
])
_STRAY = st.sampled_from(["-h", "--help", "--", "--bogus", "-g", "halt", "=5"])


@st.composite
def _command_lines(draw):
    """A command name and mostly its required flags with values, then
    extra pairs whose flag may be any spelling, an abbreviation, an '='
    form or a stray token; sometimes a token more or less."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS) + ["", "halts", "-h"]))
    flags = cli.COMMANDS.get(name, cli.COMMANDS["dims"]).flags + cli._OUTPUT_FLAGS
    names = [n for f in flags for n in f.names]
    flag = st.one_of(
        st.sampled_from(names),
        st.sampled_from([n[:k] for n in names for k in range(3, len(n))] or names),
        st.builds(lambda n, v: f"{n}={v}", st.sampled_from(names), _ARG_VALUES),
        _STRAY,
    )
    pairs = [
        (draw(st.sampled_from(f.names)), draw(_ARG_VALUES))
        for f in flags
        if f.options.get("required") and draw(st.integers(0, 9))
    ]
    extra = draw(st.lists(st.tuples(flag, _ARG_VALUES), max_size=3))
    pairs = draw(st.permutations(pairs + extra))
    argv = [name] + [token for pair in pairs for token in pair]
    if draw(st.integers(0, 5)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_STRAY | _ARG_VALUES))
    if draw(st.integers(0, 9)) == 0:
        argv.pop(draw(st.integers(0, len(argv) - 1)))
    return argv


class TestCanonicalCommandLines:
    """``main`` reads a command name then ``--flag value`` pairs straight from
    the command table; argparse parses, helps or refuses every other line."""

    @settings(max_examples=600, deadline=None)
    @given(argv=_command_lines())
    def test_agrees_with_argparse_or_declines(self, argv):
        want, got = parse_by_argparse(argv), cli.parse_canonical(argv)
        if got is not None:
            assert vars(got) == want
        if want is None:
            assert got is None

    @pytest.mark.parametrize("argv", [
        ["halt", "--g", "2", "--p", "101", "--rank", "0..3", "--bad-count", "1"],
        ["dims", "--genus", "2", "--n-max", "3", "--g", "3", "--output", "csv"],
        ["order", "--p", "5", "--g", "1", "--count-fp", "9",
         "--modulus-exponent", "2", "--out", "x", "--output", "plain"],
    ])
    def test_reads_a_canonical_line(self, argv):
        assert vars(cli.parse_canonical(argv)) == parse_by_argparse(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["halt"], ["dims", "--g=2", "--n", "3"],
        ["dims", "--ge", "2", "--n", "3"],
        ["dims", "--g", "2", "--n", "-1"], ["dims", "--g", "2", "--n", "3", "--"],
        ["dims", "--g", "2"], ["dims", "--g", "2", "--n", "3", "--output"],
        ["dims", "--g", "2", "--n", "3", "--output", "xml"],
        ["halt", "--g", "2", "--p", "5", "--rank", "1", "--bad-count", "1", "-h", "x"],
    ])
    def test_declines_every_other_line(self, argv):
        assert cli.parse_canonical(argv) is None

    def test_every_golden_line_argparse_takes_is_read_from_the_table(self, monkeypatch):
        lines = [
            [a.replace("{data}", DATA_DIR) for a in case["argv"]]
            for case in CASES.values()
        ]
        accepted = [argv for argv in lines if parse_by_argparse(argv) is not None]
        declined = [argv for argv in accepted if cli.parse_canonical(argv) is None]
        assert declined == [["dims", "--g", "2", "--n", "-1"]]  # a leading '-'

        def unused():
            raise AssertionError("argparse built for a canonical line")

        monkeypatch.setattr(cli, "build_parser", unused)
        for argv in accepted:
            if argv not in declined:
                invoke_cli(argv)

    def test_main_without_argv_reads_sys_argv(self, monkeypatch):
        for argv in (["dims", "--g", "2", "--n", "3"], ["dims", "--g=2", "--n=3"]):
            monkeypatch.setattr(sys, "argv", ["nadescent"] + argv)
            assert invoke_cli(None) == invoke_cli(["dims", "--g", "2", "--n", "3"])


class TestWeierstrassBound:
    @staticmethod
    def charts(tmp_path, bound):
        # 1 + z^3 over p = 3: the root -1 lies in the unit disk
        return write_json(
            tmp_path, "cubic.json",
            {"p": 3, "charts": [{"chart_id": "a", "disks": [
                {"coeffs": [1, 0, 0, 1], "weierstrass_bound": bound}]}]},
        )

    def test_refuted_bound_is_rejected(self, tmp_path):
        code, out, err = invoke_cli(
            ["separate", "--input", self.charts(tmp_path, 0)]
        )
        assert (code, out) == (2, "")
        assert "$.charts[0].disks[0]" in err

    def test_honest_bound_finds_the_root(self, tmp_path):
        doc = run_json(["separate", "--input", self.charts(tmp_path, 3)])
        assert doc["status"] == "separated"
        assert [d["center_digits"] for d in doc["disks"]] == [["2", "2"]]

    def test_refuted_bound_on_an_integral_is_rejected(self, tmp_path):
        # the integral z of f = 1 has a unit coefficient beyond d* = 0
        path = write_json(
            tmp_path, "bounded.json",
            {"p": 3, "forms": [[1, 0, 0]], "weierstrass_bound": 0,
             "observable": [{"word": [1], "coeff": 1}]},
        )
        code, out, err = invoke_cli(["integrate", "--input", path])
        assert (code, out) == (2, "")
        assert "$.weierstrass_bound" in err


class TestInputPrimeAndPrecision:
    """Residue classes and polygons need F_p to be a field, and every
    coefficient at least one digit: the readers refuse a composite ``p``
    and a ``prec`` below 1, naming the JSON path."""

    DISK = {"coeffs": [0, -1, 1], "weierstrass_bound": 2}
    FORMS = {"forms": [[1, 0, 0]], "observable": [{"word": [1], "coeff": 1}]}

    @staticmethod
    def refused(argv, path):
        code, out, err = invoke_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}")
        return err

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"p": 4, "charts": [{"chart_id": "a", "disks": [DISK]}]}, "$.p"),
            ({"charts": [{"chart_id": "a", "p": 6, "disks": [DISK]}]},
             "$.charts[0].p"),
            ({"p": 1, "charts": [{"chart_id": "a", "disks": [DISK]}]}, "$.p"),
        ],
    )
    def test_separate_refuses_a_composite_p(self, tmp_path, doc, path):
        err = self.refused(
            ["separate", "--input", write_json(tmp_path, "charts.json", doc)], path
        )
        assert "is not prime" in err

    def test_integrate_refuses_a_composite_p(self, tmp_path):
        path = write_json(tmp_path, "forms.json", {"p": 6, **self.FORMS})
        err = self.refused(["integrate", "--input", path], "$.p")
        assert "6 is not prime" in err

    def test_report_refuses_a_composite_p(self, tmp_path):
        config = json.loads(
            open(data_path("report_config.json"), encoding="utf-8").read()
        )
        config["curve"]["p"] = 4
        code, out, _ = invoke_cli(
            ["report", "--config", write_json(tmp_path, "report.json", config)]
        )
        assert (code, out) == (2, "")

    def test_separate_names_prec(self, tmp_path):
        doc = {"p": 5, "prec": 0, "charts": [{"chart_id": "a", "disks": [self.DISK]}]}
        path = write_json(tmp_path, "charts.json", doc)
        err = self.refused(["separate", "--input", path], "$.prec")
        assert "$.prec must be an integer >= 1, got 0" in err

    def test_integrate_names_prec(self, tmp_path):
        path = write_json(tmp_path, "forms.json", {"p": 5, "prec": 0, **self.FORMS})
        err = self.refused(["integrate", "--input", path], "$.prec")
        assert "$.prec must be an integer >= 1, got 0" in err

    def test_report_names_prec(self, tmp_path):
        config = json.loads(
            open(data_path("report_config.json"), encoding="utf-8").read()
        )
        config["prec"] = 0
        path = write_json(tmp_path, "report.json", config)
        err = self.refused(["report", "--config", path], "$.prec")
        assert "$.prec must be an integer >= 1, got 0" in err
