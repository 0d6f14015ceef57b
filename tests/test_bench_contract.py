"""The benchmark's tracer wraps program names where their callers look them
up; a refactor that moves one of them must fail here, not in a traced run."""

from __future__ import annotations

import importlib
import os

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH_DIR)
        yield importlib.import_module("tracing")


def sites(tracing):
    for table in (tracing.SPANS, tracing.COUNTERS):
        for name, owners in table:
            for owner, attr in owners:
                yield name, owner, attr


def test_every_wrap_point_resolves(tracing):
    for name, owner, attr in sites(tracing):
        assert attr in vars(owner), f"{name}: {owner!r} has no {attr!r}"
        assert callable(vars(owner)[attr]), f"{name}: {attr!r} is not callable"


def test_install_and_uninstall_restore_every_site(tracing):
    before = [(owner, attr, vars(owner)[attr]) for _, owner, attr in sites(tracing)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
