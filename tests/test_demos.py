"""Each demo script runs to completion and prints its worked example, byte
for byte as recorded in ``tests/data/demos/<demo>.txt``.

The demos are the only callers outside the tests of series ``+``,
``scale_int`` and ``agrees_with``, of ``observable_product`` and of
``separation_modulus`` on unlabelled disks; the recordings hold what they
print across refactors of those paths.
"""

from __future__ import annotations

import glob
import io
import os
import runpy
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(__file__)
DEMOS = sorted(glob.glob(os.path.join(HERE, os.pardir, "demos", "*.py")))
RECORDED = os.path.join(HERE, "data", "demos")


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(path, run_name="__main__")
    name = os.path.splitext(os.path.basename(path))[0]
    with open(os.path.join(RECORDED, f"{name}.txt"), encoding="utf-8", newline="") as fh:
        assert out.getvalue() == fh.read()
