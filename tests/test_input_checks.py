"""Each input fact has one check: a prime goes through ``arith.check_prime``,
an integer range through ``errors.check_int``, a file through
``jsonio.load_json_file``.  One test per gate, over every site that uses it."""

from __future__ import annotations

import json
import sys

import pytest

from nadescent.arith import check_prime
from nadescent.descent_arith import JacobianLocalData, enlarged_prime_set
from nadescent.errors import DomainError
from nadescent.jsonio import charts_from_json, forms_from_json, observable_from_json
from nadescent.lie_dims import graded_dims
from nadescent.padic_series import PadicNumber, PadicSeries
from nadescent.selmer_bounds import CurveParams

from .conftest import data_path, invoke_cli, write_json

PSI_12 = 318665857834031151167461  # a strong pseudoprime to the first 12 bases
NOT_PRIMES = (9, 1, 0, -7, PSI_12, True, "7", 7.0)
OUT_OF_RANGE = (9, 1, 0, -7, True, "7", 7.0)  # 9 and 1 are in some ranges
DISK = {"coeffs": [0, -1, 1], "weierstrass_bound": 2}

# site -> (field its errors name, the call with the value under test)
PRIME_SITES = {
    "check_prime": ("n", lambda x: check_prime(x, "n")),
    "charts p": ("$.p", lambda x: charts_from_json({"p": x, "charts": [
        {"chart_id": "a", "disks": [DISK]}]})),
    "chart p": ("$.charts[0].p", lambda x: charts_from_json({"charts": [
        {"chart_id": "a", "p": x, "disks": [DISK]}]})),
    "forms p": ("$.p", lambda x: forms_from_json({"p": x, "forms": [[1, 0]]})),
    "CurveParams p": ("p", lambda x: CurveParams(2, 0, x, 0)),
    "CurveParams bad prime": (
        "bad prime", lambda x: CurveParams(2, 1, 5, 0, frozenset({x}))
    ),
    "JacobianLocalData p": ("p", lambda x: JacobianLocalData(x, 1, 5)),
    "enlarged_prime_set S": ("S", lambda x: enlarged_prime_set([x], 6)),
}
JSON_SITES = {"charts p", "chart p", "forms p"}
PRIME_CASES = [  # in JSON, "7" is how an integer is written: the prime 7
    (site, value) for site in sorted(PRIME_SITES) for value in NOT_PRIMES
    if not (site in JSON_SITES and value == "7")
]


@pytest.mark.parametrize("site, value", PRIME_CASES, ids=repr)
def test_every_prime_site_refuses_a_non_prime(site, value):
    field, call = PRIME_SITES[site]
    with pytest.raises(DomainError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{field}: ")
    if site not in JSON_SITES or type(value) is int:
        assert message == f"{field}: {value!r} is not prime"


@pytest.mark.parametrize("site", sorted(JSON_SITES))
def test_json_prime_sites_read_a_decimal_string(site):
    PRIME_SITES[site][1]("7")


def test_check_prime_returns_its_argument():
    assert check_prime(7, "p") == 7
    assert check_prime(2**89 - 1, "p") == 2**89 - 1  # a Mersenne prime past psi_12


# site -> (field, least allowed value, the call with the value under test)
INT_SITES = {
    "graded_dims genus": ("genus", 2, lambda x: graded_dims(x, 3)),
    "CurveParams genus": ("genus", 2, lambda x: CurveParams(x, 0, 5, 0)),
    "graded_dims n_max": ("n_max", 1, lambda x: graded_dims(2, x)),
    "PadicNumber p": ("p", 2, lambda x: PadicNumber(x, 0, 1, 3)),
    "PadicSeries p": ("p", 2, lambda x: PadicSeries(x, [1])),
    "PadicNumber prec": ("relative precision", 1, lambda x: PadicNumber(5, 0, 1, x)),
    "PadicSeries prec": (
        "relative precision", 1, lambda x: PadicSeries(5, [1], None, x)
    ),
}


@pytest.mark.parametrize("site", sorted(INT_SITES))
@pytest.mark.parametrize("value", OUT_OF_RANGE, ids=repr)
def test_every_int_site_refuses_out_of_range(site, value):
    field, least, call = INT_SITES[site]
    if type(value) is int and value >= least:
        call(value)  # in range: accepted
        return
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{field} must be an integer >= {least}, got {value!r}"


def test_series_precision_is_checked_only_for_an_int_coefficient():
    PadicSeries(5, [PadicNumber.zero(5), PadicNumber.zero_to(5, 3)], None, 0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["order", "--p", "6", "--g", "1", "--count-fp", "5",
          "--modulus-exponent", "1"], "p: 6 is not prime"),
        (["order", "--p", "5", "--g", "1", "--count-fp", "5",
          "--modulus-exponent", "1", "--enlarge", "4"], "S: 4 is not prime"),
        (["halt", "--g", "2", "--p", "101", "--rank", "1", "--bad-primes", "4"],
         "bad prime: 4 is not prime"),
        (["bounds", "--g", "2", "--p", "9", "--rank", "1", "--bad-count", "1"],
         "p: 9 is not prime"),
        (["bounds", "--g", "2", "--p", "1", "--rank", "1", "--bad-count", "1"],
         "p: 1 is not prime"),
        (["dims", "--g", "2", "--n", "-1"], "--n must be an integer >= 0, got -1"),
        (["dims", "--g", "1", "--n", "0"], "genus must be an integer >= 2, got 1"),
    ],
)
def test_cli_messages(argv, message):
    assert invoke_cli(argv) == (2, "", f"error: {message}\n")


def test_separate_names_a_coefficient_precision(tmp_path):
    coeff = {"val": 0, "unit": 1, "prec": 0}
    doc = {"p": 5, "charts": [{"chart_id": "a", "disks": [
        {"coeffs": [coeff, 1], "weierstrass_bound": 1}]}]}
    path = write_json(tmp_path, "charts.json", doc)
    assert invoke_cli(["separate", "--input", path]) == (2, "", (
        "error: $.charts[0].disks[0].coeffs[0]: relative precision must be an "
        "integer >= 1, got 0\n"
    ))


def test_an_input_literal_past_the_digit_limit_names_the_file(tmp_path):
    path = tmp_path / "literal.json"
    digits = sys.get_int_max_str_digits() + 1
    path.write_text('{"p": 5, "forms": [[1' + "0" * digits + "]]}", encoding="utf-8")
    assert invoke_cli(["integrate", "--input", str(path)]) == (2, "", (
        f"error: {path}: an integer literal has more digits than this "
        f"interpreter's limit of {sys.get_int_max_str_digits()} for int/str "
        "conversion (PYTHONINTMAXSTRDIGITS)\n"
    ))


def test_report_names_a_composite_bad_prime(tmp_path):
    with open(data_path("report_config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    config["curve"]["bad_primes"] = [15]
    path = write_json(tmp_path, "report.json", config)
    assert invoke_cli(["report", "--config", path]) == (
        2, "", "error: $.curve: bad prime: 15 is not prime\n"
    )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("curve.bad_primes", [11, 5],
         "$.curve: p=5 must be a prime of good reduction"),
        ("curve.genus", 1, "$.curve: genus must be an integer >= 2, got 1"),
        ("mode", "x",
         "$.mode: unknown parity mode 'x'; expected 'faithful' or 'verbatim'"),
        ("n_cap", 1, "$.n_cap: n_cap must be an integer >= 2, got 1"),
        ("depth_cap", 0, "$.depth_cap: depth_cap must be an integer >= 1, got 0"),
        ("jacobian.g", 0,
         "$.jacobian: abelian variety dimension must be an integer >= 1, got 0"),
        ("jacobian.count_fp", 0,
         "$.jacobian: residue point count must be an integer >= 1, got 0"),
    ],
    ids=["bad reduction", "genus", "mode", "n_cap", "depth_cap", "jacobian g",
         "count_fp"],
)
def test_report_refusals_name_their_path(tmp_path, field, value, message):
    with open(data_path("report_config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    *parents, key = field.split(".")
    target = config
    for parent in parents:
        target = target[parent]
    target[key] = value
    path = write_json(tmp_path, "report.json", config)
    assert invoke_cli(["report", "--config", path]) == (2, "", f"error: {message}\n")


def _disk(label, coeffs):
    bound = len(coeffs) - 1
    return {"center_label": label, "coeffs": coeffs, "weierstrass_bound": bound}


def test_charts_are_read_as_id_and_label_pairs():
    charts = charts_from_json({"p": 5, "charts": [
        {"chart_id": "a", "disks": [_disk("x", [0, -1, 1]), DISK]}]})
    assert [(c, [label for label, _ in disks]) for c, disks in charts] == [
        ("a", ["x", "1"])
    ]
    series, want = charts[0][1][1][1], PadicSeries(5, [0, -1, 1], 2)
    assert (series.coeffs, series.weierstrass_bound) == (want.coeffs, 2)


@pytest.mark.parametrize(
    "charts, message",
    [
        ([{"chart_id": "a", "disks": [_disk("x", [0, -1, 1]), _disk("x", [-2, 1])]}],
         "$.charts[0].disks[1]: duplicate disk identifier 'a:x', first at "
         "$.charts[0].disks[0]"),
        ([{"chart_id": "a:b", "disks": [_disk("c", [0, -1, 1])]},
          {"chart_id": "a", "disks": [_disk("b:c", [-2, 1])]}],
         "$.charts[1].disks[0]: duplicate disk identifier 'a:b:c', first at "
         "$.charts[0].disks[0]"),
    ],
    ids=["same label", "chart and label collide"],
)
def test_separate_names_a_repeated_disk_identifier(tmp_path, charts, message):
    path = write_json(tmp_path, "charts.json", {"p": 5, "charts": charts})
    assert invoke_cli(["separate", "--input", path]) == (2, "", f"error: {message}\n")


def test_report_names_a_repeated_disk_identifier(tmp_path):
    with open(data_path("report_config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    config["charts"] = [
        {"chart_id": "a", "disks": [_disk("x", [0, -1, 1]), _disk("x", [-2, 1])]}
    ]
    path = write_json(tmp_path, "report.json", config)
    assert invoke_cli(["report", "--config", path]) == (2, "", (
        "error: $.charts[0].disks[1]: duplicate disk identifier 'a:x', first "
        "at $.charts[0].disks[0]\n"
    ))


INTEGRATE = {"p": 5, "forms": [[1, 2, 3]], "observable": [{"word": [1], "coeff": 1}]}


@pytest.mark.parametrize(
    "change, flags, message",
    [
        ({"trunc": 0}, [], "$.trunc: truncation degree 0 outside 1..2"),
        ({}, ["--trunc", "0"], "--trunc: truncation degree 0 outside 1..2"),
        ({"trunc": 1}, ["--trunc", "3"], "--trunc: truncation degree 3 outside 1..2"),
        ({"observable": [{"word": [1], "coeff": 1}, {"word": [1, 2], "coeff": 1}]},
         [], "$.observable[1].word: letter 2 exceeds the 1 available forms"),
        ({"observable": [{"word": [0], "coeff": 1}]},
         [], "$.observable[0].word: word letter must be an integer >= 1, got 0"),
        ({"forms": [[1, 2, 3], [1, 2]]},
         [], "$.forms: form 2 is truncated at degree 1, expected 2"),
        ({"forms": [[1, {"val": -1, "unit": 1, "prec": 5}, 3]]},
         [], "$.forms: form 1, coefficient 1: valuation -1 < 0; forms must be "
         "p-integral on the chart"),
    ],
    ids=["trunc", "--trunc", "--trunc wins", "letter", "letter 0",
         "unequal forms", "negative val"],
)
def test_integrate_refusals_name_their_path(tmp_path, change, flags, message):
    path = write_json(tmp_path, "integrate.json", {**INTEGRATE, **change})
    assert invoke_cli(["integrate", "--input", path] + flags) == (
        2, "", f"error: {message}\n"
    )


# every flag that names a file: (command line before the file, the flag)
FILE_FLAGS = [
    (["separate"], "--input"),
    (["integrate"], "--input"),
    (["descent-sim"], "--input"),
    (["report"], "--config"),
]


def _unreadable(tmp_path, kind):
    if kind == "directory":
        return str(tmp_path)
    if kind == "a NUL byte":
        return str(tmp_path / "x\0.json")
    path = tmp_path / "input.json"
    if kind == "not utf-8":
        path.write_bytes(b'{"p": 5, "charts": [\xff]}')
    else:  # past the parser's recursion limit
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not utf-8", "a NUL byte", "too deep"])
@pytest.mark.parametrize("head, flag", FILE_FLAGS, ids=lambda x: str(x).strip("[]'"))
def test_an_unreadable_input_file_exits_2_naming_it(tmp_path, head, flag, kind):
    path = _unreadable(tmp_path, kind)
    code, out, err = invoke_cli(head + [flag, path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(path) in err if kind == "a NUL byte" else path in err


@pytest.mark.parametrize("target", ["directory", "missing/dir/x.json"])
def test_an_unwritable_out_exits_2_naming_it(tmp_path, target):
    path = str(tmp_path if target == "directory" else tmp_path / target)
    code, out, err = invoke_cli(["dims", "--g", "2", "--n", "1", "--out", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and path in err and "Traceback" not in err


class TestObservableLetters:
    def test_a_plain_int_letter_is_taken_as_it_is(self):
        obs = observable_from_json([{"word": [2, 1], "coeff": 1}], 5, 20, "$.o")
        assert [word for word, _ in obs.terms] == [(2, 1)]

    def test_a_decimal_string_letter_is_read(self):
        obs = observable_from_json([{"word": ["2"], "coeff": 1}], 5, 20, "$.o")
        assert [word for word, _ in obs.terms] == [(2,)]

    @pytest.mark.parametrize("letter", [True, 2.0, "x"], ids=repr)
    def test_other_letters_are_refused_with_their_path(self, letter):
        with pytest.raises(DomainError, match=r"^\$\.o\[0\]\.word\[1\]: "):
            observable_from_json([{"word": [1, letter], "coeff": 1}], 5, 20, "$.o")
