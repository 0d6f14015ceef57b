"""End-to-end command-line tests (in-process, no subprocesses)."""

from __future__ import annotations

import json
import sys

import pytest

from .conftest import data_path, invoke_cli, write_json


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
