"""Each demo script runs to completion and prints its worked example."""

from __future__ import annotations

import glob
import io
import os
import runpy
from contextlib import redirect_stdout

import pytest

DEMOS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py"))
)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(path, run_name="__main__")
    assert out.getvalue().strip()
