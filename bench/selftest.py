"""Shows that each output check rejects a deliberately corrupted output.

    python3 bench/selftest.py

For every check, one genuine operation is run through the program; the
check must accept its output and reject a copy with one value corrupted.
Exits 0 when it does so every time.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from nadescent import cli  # noqa: E402

import workloads  # noqa: E402
from checks import Checker, CheckError  # noqa: E402
from run import RESULTS, invoke  # noqa: E402


def flip_centre_digit(doc, op):
    disk = doc["disks"][0]
    p = op.expect["p"]
    disk["center_digits"][0] = str((int(disk["center_digits"][0]) + 1) % p)


def wrong_unit_digit(doc, op):
    p = op.expect["p"]
    coeff = next(c for c in doc["series"]["coeffs"] if "unit" in c)
    unit = int(coeff["unit"])
    coeff["unit"] = str(unit + 1 if (unit + 1) % p else unit + 2)


def precision_dropped(doc, op):
    coeff = next(c for c in doc["series"]["coeffs"] if "unit" in c)
    coeff["prec"] = "1"  # the unit digit still holds; the other digits are given up


def composite_in_t0(doc, op):
    doc["enlarged_primes"] = ["7", "15"]  # 3 and 5 replaced by 15 = 3 * 5


def halting_level_off_by_one(doc, op):
    result = doc["results"][0]
    result["halting_level"] = str(int(result["halting_level"]) + 1)


def drop_decided_point(doc, op):
    doc["points"] = doc["points"][1:]


def wrong_annihilator(doc, op):
    doc["annihilator"] = str(int(doc["annihilator"]) * op.expect["config"]["curve"]["p"])


def main() -> int:
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=RESULTS)
    try:
        rng = random.Random("selftest")
        mix = workloads.cli_mix_round(rng, 0, workdir)
        cases = [
            ("separate: flipped centre digit",
             workloads.separate_round(rng, 0, workdir)[5], flip_centre_digit),
            ("integrate: wrong unit digit in a coefficient",
             workloads.integrate_round(rng, 0, workdir)[2], wrong_unit_digit),
            ("integrate: a coefficient's precision lowered to one digit",
             workloads.integrate_round(rng, 1, workdir)[0], precision_dropped),
            ("order: composite placed in T0",
             workloads.Op("order", ["order", "--p", "5", "--genus", "1", "--count-fp", "9",
                                    "--modulus-exponent", "2", "--enlarge", "7"],
                          {"p": 5, "g": 1, "count_fp": 9, "m": 2, "s": [7]}),
             composite_in_t0),
            ("halt: halting level off by one",
             next(op for op in mix if op.kind == "halt"), halting_level_off_by_one),
            ("descent-sim: a decided point dropped",
             next(op for op in mix if op.kind == "descent"), drop_decided_point),
            ("report: annihilator times p",
             next(op for op in mix if op.kind == "report"), wrong_annihilator),
        ]
        checker = Checker(lambda argv: invoke(cli.main, argv)[:2])
        ok = True
        for name, op, corrupt in cases:
            code, out, err, _ = invoke(cli.main, op.argv)
            if code != 0:
                print(f"FAIL {name}: the operation exited with {code}: {err.strip()}")
                ok = False
                continue
            try:
                checker.check(op, out)
            except CheckError as exc:
                print(f"FAIL {name}: the genuine output is rejected: {exc}")
                ok = False
                continue
            bad = json.loads(out)
            corrupt(bad, op)
            try:
                checker.check(op, json.dumps(bad, sort_keys=True, indent=2) + "\n")
            except CheckError as exc:
                print(f"ok   {name}: rejected ({exc})")
            else:
                print(f"FAIL {name}: the corrupted output is accepted")
                ok = False
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
