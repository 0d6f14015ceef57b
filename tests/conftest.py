"""Shared test fixtures and helpers."""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import List, Optional, Sequence, Tuple

import pytest

from nadescent import PadicNumber, PadicSeries, cli

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def capped_residue_coefficient(p: int, c: int, abs_prec: int = 6) -> PadicNumber:
    """Model a residue c mod p^abs_prec as a coefficient known to that
    absolute precision: an exact unit form when nonzero, otherwise only the
    bound v >= abs_prec."""
    c %= p ** abs_prec
    if c == 0:
        return PadicNumber.zero_to(p, abs_prec)
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return PadicNumber(p, v, c, abs_prec - v)


def capped_series(p: int, residues: Sequence[int], abs_prec: int = 6) -> PadicSeries:
    """Series whose coefficients are residues known mod p^abs_prec, with the
    analytic degree bound set at the top drawn-nonzero index."""
    coeffs = [capped_residue_coefficient(p, c, abs_prec) for c in residues]
    nonzero = [i for i, c in enumerate(coeffs) if c.unit is not None]
    if not nonzero:
        raise ValueError("all residues were 0; no degree bound available")
    return PadicSeries(p, tuple(coeffs), nonzero[-1])


def invoke_cli(argv: List[str]) -> Tuple[int, str, str]:
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_json(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def cli_runner():
    return invoke_cli
