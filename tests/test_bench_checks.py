"""The benchmark's independent checker as a gate: round 0 of seeds 1 and 2
of every workload runs through ``nadescent.cli.main`` as ``bench/run.py``
runs it, and every output passes ``bench/checks.py``, whose reference
(``bench/reference.py``) imports nothing from ``nadescent``."""

from __future__ import annotations

import importlib
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH_DIR)
        yield importlib.import_module("run")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["separate", "integrate", "cli-mix"])
def test_round_zero_passes_the_checks(bench, workload, seed, tmp_path):
    run = bench.Run(workload, seed, str(tmp_path))
    for op in run.next_round():
        code, out, err, _ = bench.invoke(run.cli.main, op.argv)
        assert code == 0, f"{' '.join(op.argv)}: exit {code}: {err}"
        run.checker.check(op, out)
