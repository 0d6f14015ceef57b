"""Spans and call counts recorded around the program's public functions.

Nothing in the program changes: each function is wrapped where its caller
looks it up (a name that ``cli`` imports from another module is patched in
``cli``'s namespace, a method on its class) for as long as the tracer is
installed.  A span records its layer name, start and end in nanoseconds,
the span that called it (same thread) and the thread; spans stay in memory
and the runner writes them out at the end of the run.  ``PadicNumber``
operations run 10^5-10^6 times per operation, so they are only counted.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

from nadescent import arith, cli, descent_arith, padic_series, selmer_bounds
from nadescent.padic_series import PadicNumber, PadicSeries

_JSON_READERS = (
    "load_json_file",
    "charts_from_json",
    "forms_from_json",
    "observable_from_json",
    "descent_fixture_from_json",
)

# layer name -> the (namespace, attribute) pairs its callers look up
SPANS: Tuple[Tuple[str, Tuple[Tuple[Any, str], ...]], ...] = (
    ("padic_series.shift_center", ((PadicSeries, "shift_center"),)),
    ("padic_series.newton_polygon", ((padic_series, "newton_polygon"),)),
    ("padic_series.evaluate", ((PadicSeries, "evaluate"),)),
    ("padic_series.rescale_p", ((PadicSeries, "rescale_p"),)),
    ("padic_series.isolate_zeros", ((padic_series, "isolate_zeros"),)),
    ("padic_series.separation_modulus", ((cli, "separation_modulus"),)),
    ("padic_series.series_mul", ((PadicSeries, "__mul__"),)),
    ("padic_series.antiderivative", ((PadicSeries, "antiderivative"),)),
    ("padic_series.series_add_scale",
     ((PadicSeries, "__add__"), (PadicSeries, "scale"), (PadicSeries, "scale_int"))),
    ("iterated_words.evaluate_observable", ((cli, "evaluate_observable"),)),
    ("lie_dims.graded_dims", ((selmer_bounds, "graded_dims"), (cli, "graded_dims"))),
    ("selmer_bounds.halting_level", ((cli, "halting_level"),)),
    ("arith.factorize", ((arith, "factorize"),)),
    ("arith.is_prime",
     ((arith, "is_prime"), (descent_arith, "is_prime"), (selmer_bounds, "is_prime"))),
    ("descent_arith.enlarged_prime_set", ((cli, "enlarged_prime_set"),)),
    ("two_sided_search.run_descent", ((cli, "run_descent"),)),
    ("jsonio.parse", tuple((cli, name) for name in _JSON_READERS)),
    ("jsonio.canonical_dumps", ((cli, "canonical_dumps"),)),
)
MAIN_SPAN = "cli.main"

COUNTERS: Tuple[Tuple[str, Tuple[Tuple[Any, str], ...]], ...] = (
    ("padic_series.number_new", ((PadicNumber, "__init__"),)),
    ("padic_series.number_add", ((PadicNumber, "__add__"),)),
    ("padic_series.number_mul", ((PadicNumber, "__mul__"), (PadicNumber, "__rmul__"))),
    ("padic_series.number_scale_int", ((PadicNumber, "scale_int"),)),
)

Span = Tuple[int, str, int, int, int, int, int]  # index, name, start, end, parent, thread, op


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1  # index of the operation being run, shared by its spans
        self._ids = itertools.count()
        self._stacks: Dict[int, List[int]] = {}
        # itertools.count advances atomically under the interpreter lock, so
        # calls from the --jobs worker threads are never lost.
        self._counts = {name: itertools.count() for name, _ in COUNTERS}
        self._saved: List[Tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, ids, stacks = self.spans, self._ids, self._stacks
        clock, thread_id = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = thread_id()
            stack = stacks.setdefault(thread, [])
            index = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((index, name, start, end, parent, thread, self.op))

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        tick = self._counts[name].__next__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for wrap, table in ((self.span, SPANS), (self._counted, COUNTERS)):
            for name, sites in table:
                for owner, attr in sites:
                    original = vars(owner)[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls and self time in ms (span time minus the time of
        its child spans in the same thread).  Reads the counters, so call it
        once, after the last operation."""
        child_ns: Counter = Counter()
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for index, name, start, end, _, _, _ in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
        out = {
            name: {"calls": calls[name], "self_ms": self_ns[name] / 1e6}
            for name in [n for n, _ in SPANS] + [MAIN_SPAN]
        }
        for name, counter in self._counts.items():
            out[name] = {"calls": next(counter)}
        return out
