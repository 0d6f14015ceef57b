"""The host's speed, measured with a fixed kernel between operations.

The benchmark runs on a few cores of a shared host.  Its speed flips
between a fast and a slow state, the slow one taking up to twice as long,
every tenth of a second or so, and the share of time spent slow drifts over
tens of seconds, so one run can be a third slower than the next on the same
code.  A fixed pure-Python kernel, written here and sharing no code with
the program, is timed between operations: a Taylor shift and a truncated
product of polynomials over p-adic numbers held as (valuation, unit)
objects, the kind of work the program does.  Each operation's time is
multiplied by REFERENCE_MS over the kernel's time around it, which gives
the time it would have taken on a host where the kernel takes REFERENCE_MS.
A change to the program cannot change the kernel, so a scaled time moves
with the program and not with the host.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Optional, Tuple

# The kernel's time on the reference host: a 2-vCPU virtual machine (Intel
# Xeon, 2.1 GHz, Python 3.11.7) in its fast state.
REFERENCE_MS = 0.75
# One kernel sample after at least this much operation time, so that the
# samples are spread over the run as its operations are.
SAMPLE_EVERY_NS = 25_000_000
# An operation is scaled by the median of the WINDOW samples taken last
# before it and the WINDOW taken first after it; the median passes over a
# sample in which the process was preempted.
WINDOW = 2
# A measurement made outside the run's loop, such as a set-up probe, is
# scaled by the median of BURST samples before it and BURST after it.
BURST = 5

_P = 7
_PREC = 24
_MOD = _P**_PREC
_DEGREE = 22


class _Number:
    __slots__ = ("val", "unit")

    def __init__(self, val: Optional[int], unit: int):
        self.val = val
        self.unit = unit


def _number(n: int) -> _Number:
    n %= _MOD
    if n == 0:
        return _Number(None, 0)
    v = 0
    while n % _P == 0:
        n //= _P
        v += 1
    return _Number(v, n)


def _value(x: _Number) -> int:
    return 0 if x.val is None else x.unit * _P**x.val


def _add(a: _Number, b: _Number) -> _Number:
    return _number(_value(a) + _value(b))


def _mul(a: _Number, b: _Number) -> _Number:
    if a.val is None or b.val is None:
        return _Number(None, 0)
    return _number(a.unit * b.unit * _P ** (a.val + b.val))


_COEFFS = [(i * 7919 + 13) ** 5 + 1 for i in range(_DEGREE + 1)]


def kernel() -> int:
    """A fixed amount of work; returns a digest so that it cannot be skipped."""
    f = [_number(c) for c in _COEFFS]
    shift = _number(123457)
    for i in range(_DEGREE):
        for j in range(_DEGREE - 1, i - 1, -1):
            f[j] = _add(f[j], _mul(shift, f[j + 1]))
    product = {}
    for i, a in enumerate(f):
        for j, b in enumerate(f[: _DEGREE + 1 - i]):
            term = _mul(a, b)
            product[i + j] = _add(product[i + j], term) if i + j in product else term
    return sum(_value(x) for x in product.values()) % _MOD


def sample_ms() -> float:
    """Milliseconds one kernel call takes now."""
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) / 1e6


class Speed:
    """Kernel samples taken between the operations of one run, each with
    the number of operations run before it."""

    def __init__(self):
        self.samples: List[Tuple[int, float]] = []
        self._ops = 0
        self._since_ns = SAMPLE_EVERY_NS

    def tick(self, elapsed_ns: int) -> None:
        """Called before each operation with the time of the one before;
        takes a sample when one is due."""
        self._since_ns += elapsed_ns
        if self._since_ns >= SAMPLE_EVERY_NS:
            self.samples.append((self._ops, sample_ms()))
            self._since_ns = 0
        self._ops += 1

    def factors(self) -> List[float]:
        """REFERENCE_MS over the kernel's time around each operation."""
        times = [ms for _, ms in self.samples]
        out: List[float] = []
        k = 0  # the last sample taken before operation i
        for i in range(self._ops):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= i:
                k += 1
            nearby = times[max(0, k + 1 - WINDOW): k + 1 + WINDOW]
            out.append(REFERENCE_MS / statistics.median(nearby))
        return out


def scaled(measure: Callable[[], float]) -> float:
    """What ``measure()`` returns, times REFERENCE_MS over the median of
    BURST kernel samples taken just before it and BURST just after."""
    before = [sample_ms() for _ in range(BURST)]
    value = measure()
    after = [sample_ms() for _ in range(BURST)]
    return value * REFERENCE_MS / statistics.median(before + after)
