"""Byte-for-byte command-line outputs.

``data/golden/cases.json`` names each command line (``{data}`` stands for
the test data directory) with its expected exit code; ``<name>.out`` holds
its exact stdout.  Every subcommand is covered in every ``--output`` style.

After an intended output change, rewrite the recorded files with
``PYTHONPATH=src python -m tests.test_golden`` from the repository root and
review the diff.
"""

from __future__ import annotations

import json
import os

import pytest

from .conftest import DATA_DIR, invoke_cli

GOLDEN_DIR = os.path.join(DATA_DIR, "golden")
CASES_PATH = os.path.join(GOLDEN_DIR, "cases.json")

with open(CASES_PATH, encoding="utf-8") as _fh:
    CASES = json.load(_fh)


def _run(name):
    return invoke_cli([a.replace("{data}", DATA_DIR) for a in CASES[name]["argv"]])


def _out_path(name):
    return os.path.join(GOLDEN_DIR, name + ".out")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_are_unchanged(name):
    code, out, _ = _run(name)
    with open(_out_path(name), encoding="utf-8", newline="") as fh:
        assert (code, out) == (CASES[name]["exit"], fh.read())


if __name__ == "__main__":
    for name in sorted(CASES):
        code, out, _ = _run(name)
        CASES[name]["exit"] = code
        with open(_out_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    with open(CASES_PATH, "w", encoding="utf-8") as fh:
        json.dump(CASES, fh, indent=1, sort_keys=True)
        fh.write("\n")
