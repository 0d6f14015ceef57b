"""Seeded inputs for the three workloads.

A workload is a sequence of rounds.  Every round of a workload has the
same make-up (the kinds of operation, their size parameters and their
order), whatever the seed; the seed draws the random content.  That keeps
the cost of a run steady across seeds while no input repeats within a run.

Each operation is one ``nadescent`` command line plus what the checks need
to know about its input.  Input documents are written to the run's work
directory before the operation is timed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import reference as ref

# Planted roots are integers below p^ROOT_DIGITS; a degree-16 polynomial
# then has coefficients of a few hundred bits.
ROOT_DIGITS = 6
# Digits carried by charts and forms.
PREC = 20
# Separation refuses (exit 4) once the digits shared among clustered roots
# approach the precision.  Of 1,000 deliberately clustered root sets on
# p = 5, 7 and 11 at 20 digits, none of the 450 with precision_demand <= 15
# failed and 516 of the 550 above did.  Root sets above MAX_DEMAND are drawn
# again: 0.55% of those `separate` draws, none of those `report` draws.
MAX_DEMAND = 15

# Five primes and five degree bands make a round of 25 operations, so that
# the median and the 90th percentile fall on the 13th and 23rd operation of
# a round by cost, not on the boundary between two operations of unlike cost:
# with 16 or 20, either percentile moved with the extremes of both and spread
# by 8-13% between seeds.
SEPARATE_PRIMES = (5, 7, 11, 13, 31)
SEPARATE_DEGREES = ((4, 6), (7, 8), (9, 10), (11, 13), (14, 16))

# (p, number of forms, trunc, words, product of two observables?)
INTEGRATE_DESIGN = (
    (5, 2, 20, 12, False),
    (7, 3, 24, 40, False),
    (11, 2, 28, 0, True),
    (5, 3, 32, 24, False),
    (7, 2, 36, 14, False),
    (11, 3, 20, 60, False),
    (5, 2, 40, 0, True),
    (7, 3, 28, 0, True),
    (11, 2, 24, 31, False),
    (5, 3, 36, 10, False),
)

REPORT_PRIMES = (5, 7, 11)
OTHER_PRIMES = (2, 3, 13, 17, 19, 23, 29, 37, 41, 43)
# Bit lengths of the two large prime factors of an `order` count: the
# smaller one sets the Brent-rho work, so each round has one cheap and one
# dear factoring.
ORDER_FACTOR_BITS = ((24, 27), (27, 30))
CLI_MIX_ROUND = (
    "report", "halt", "order", "descent", "halt", "report", "order", "halt", "descent",
)


@dataclass
class Op:
    kind: str
    argv: List[str]
    expect: Dict[str, Any] = field(default_factory=dict)


def _write(path: str, doc: Any) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _polymul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# Planted-root charts
# ---------------------------------------------------------------------------


def planted_roots(rng: random.Random, p: int, k: int, depth: int, cluster: int) -> List[int]:
    """k integers below p^ROOT_DIGITS, pairwise distinct mod p^depth; for
    depth >= 2 a cluster of min(cluster, k) roots shares its first depth - 1
    digits, so separating it takes depth digits."""
    top = p**ROOT_DIGITS
    while True:
        roots: List[int] = []
        if depth >= 2:
            base = rng.randrange(p ** (depth - 1))
            for d in rng.sample(range(p), min(cluster, k)):
                tail = rng.randrange(p ** (ROOT_DIGITS - depth))
                roots.append(base + d * p ** (depth - 1) + tail * p**depth)
        while len(roots) < k:
            roots.append(rng.randrange(top))
        if len({r % p**depth for r in roots}) == k and precision_demand(roots, p) <= MAX_DEMAND:
            return roots


def precision_demand(roots: Sequence[int], p: int) -> int:
    """The largest valuation the constant term reaches on a disk of depth d
    around a root: d plus the leading digits every other root shares with
    it, each count capped at d."""
    def shared(a: int, b: int) -> int:
        k = 0
        while k < ROOT_DIGITS and a % p == b % p:
            a, b, k = a // p, b // p, k + 1
        return k

    return max(
        d + sum(min(shared(r, s), d) for s in roots if s != r)
        for r in roots
        for d in range(1, ROOT_DIGITS + 1)
    )


def feasible_depths(p: int, k: int) -> List[int]:
    """Depths 1-4 at which k roots can be pairwise distinct and, from depth
    2 on, include a cluster."""
    return [d for d in range(1, 5) if k <= p**d and (d == 1 or k >= 2)]


def planted_disk(
    rng: random.Random, p: int, k: int, depth: int, cluster: int, label: str
) -> Tuple[dict, List[int]]:
    """prod (z - r_i) * (z^2 - n) with n a non-residue mod p, so the quadratic
    factor has no root in Z_p and the roots are exactly the planted ones."""
    roots = planted_roots(rng, p, k, depth, cluster)
    n = rng.choice([x for x in range(1, p) if pow(x, (p - 1) // 2, p) == p - 1])
    poly = [-n, 0, 1]
    for r in roots:
        poly = _polymul(poly, [-r, 1])
    disk = {
        "center_label": label,
        "coeffs": poly,
        "trunc": len(poly) - 1,
        "weierstrass_bound": len(poly) - 1,
    }
    return disk, roots


# ---------------------------------------------------------------------------
# The three workloads
# ---------------------------------------------------------------------------


def separate_round(rng: random.Random, index: int, workdir: str) -> List[Op]:
    """One operation per prime and degree band, and the same make-up in every
    round: the degree within its band, the cluster depth and the cluster size
    step with the prime and the band, so that each prime meets every depth it
    allows, and only the roots are random.  A make-up that also stepped from
    round to round made a run's mix depend on how many rounds fitted into it;
    a random one moved op_p50_ms by 20% between seeds."""
    ops = []
    for i, p in enumerate(SEPARATE_PRIMES):
        for j, (lo, hi) in enumerate(SEPARATE_DEGREES):
            k = lo + (i + j) % (hi - lo + 1) - 2
            depths = feasible_depths(p, k)
            depth = depths[(i + j) % len(depths)]
            disk, roots = planted_disk(rng, p, k, depth, 2 + (i + j) % 2, "d0")
            doc = {"p": p, "prec": PREC, "charts": [{"chart_id": "c0", "disks": [disk]}]}
            path = _write(os.path.join(workdir, f"sep-{index}-{i}-{j}.json"), doc)
            ops.append(
                Op("separate", ["separate", "--input", path, "--jobs", "1"],
                   {"p": p, "roots": {"c0:d0": roots}})
            )
    return ops


def _random_form(rng: random.Random, p: int, trunc: int) -> List[int]:
    out = []
    for _ in range(trunc + 1):
        x = rng.random()
        if x < 0.15:
            out.append(0)
        elif x < 0.3:
            out.append(p * rng.randrange(-(p**3), p**3))
        else:
            out.append(rng.randrange(-(p**4), p**4))
    return out


def _words(k: int, max_len: int) -> List[Tuple[int, ...]]:
    return [
        w for n in range(max_len + 1) for w in itertools.product(range(1, k + 1), repeat=n)
    ]


def _factor_words(rng: random.Random, k: int) -> List[Tuple[int, ...]]:
    """A factor of a shuffle-product observable: one word of length 1 and two
    of length 2, so every product expands to a similar number of words."""
    return rng.sample(_words(k, 1)[1:], 1) + rng.sample(_words(k, 2)[k + 1:], 2)


def _terms(rng: random.Random, p: int, words: Sequence[Tuple[int, ...]]) -> List[Tuple[Tuple[int, ...], int]]:
    return [(w, rng.choice([-1, 1]) * rng.randrange(1, p**3)) for w in words]


def integrate_round(rng: random.Random, index: int, workdir: str) -> List[Op]:
    ops = []
    for i, (p, k, trunc, n_words, product) in enumerate(INTEGRATE_DESIGN):
        forms = [_random_form(rng, p, trunc) for _ in range(k)]
        expect: Dict[str, Any] = {"p": p, "forms": forms, "trunc": trunc}
        if product:
            left, right = (_terms(rng, p, _factor_words(rng, k)) for _ in range(2))
            terms = ref.shuffle_expand(left, right)
            expect["factors"] = (left, right)
        else:
            terms = sorted(_terms(rng, p, rng.sample(_words(k, 4), n_words)))
        expect["terms"] = terms
        doc = {
            "p": p,
            "prec": PREC,
            "forms": forms,
            "trunc": trunc,
            "observable": [{"word": list(w), "coeff": c} for w, c in terms],
        }
        path = _write(os.path.join(workdir, f"int-{index}-{i}.json"), doc)
        ops.append(Op("integrate", ["integrate", "--input", path], expect))
    return ops


def _bad_primes(rng: random.Random, p: int) -> List[int]:
    return sorted(rng.sample([q for q in OTHER_PRIMES if q != p], rng.randint(0, 3)))


def report_op(rng: random.Random, path: str) -> Op:
    g = rng.randint(2, 5)
    p = rng.choice(REPORT_PRIMES)
    bad = _bad_primes(rng, p)
    charts, roots = [], {}
    for c, n_disks in enumerate((2, 1)):
        disks = []
        for d in range(n_disks):
            k = rng.randint(1, 3)
            depth = rng.choice(feasible_depths(p, k))
            disk, planted = planted_disk(rng, p, k, depth, rng.randint(2, 3), f"y{d}")
            disks.append(disk)
            roots[f"affine-{c}:y{d}"] = planted
        charts.append({"chart_id": f"affine-{c}", "disks": disks})
    lo, hi = ref.weil_interval(p, g)
    config = {
        "curve": {"genus": g, "p": p, "mw_rank": rng.randint(0, 6), "bad_primes": bad},
        "mode": rng.choice(["faithful", "verbatim"]),
        "n_cap": rng.randint(24, 64),
        "depth_cap": 12,
        "prec": PREC,
        "charts": charts,
        "jacobian": {"count_fp": rng.randint(lo, hi)},
    }
    _write(path, config)
    return Op(
        "report",
        ["report", "--config", path, "--jobs", "2"],
        {"config": config, "roots": roots},
    )


def halt_op(rng: random.Random) -> Op:
    g, bad_count, n_cap = rng.randint(2, 5), rng.randint(0, 3), rng.randint(24, 64)
    p = ref.random_prime(rng, 3, 500)
    argv = ["halt", "--genus", str(g), "--p", str(p), "--rank", "0..20",
            "--n-cap", str(n_cap), "--mode", "both"]
    if bad_count and rng.random() < 0.5:
        bad = rng.sample([q for q in OTHER_PRIMES if q != p], bad_count)
        argv += ["--bad-primes", ",".join(map(str, bad))]
    else:
        argv += ["--bad-count", str(bad_count)]
    return Op("halt", argv, {"g": g, "p": p, "bad_count": bad_count, "n_cap": n_cap})


def order_op(rng: random.Random, bits: Tuple[int, int]) -> Op:
    """count_fp = q1 * q2 * s inside the Weil interval for g = 3, with q1, q2
    primes of the given bit lengths and s a 1000-smooth cofactor; p is a
    prime near 10^6, so N has no prime factor above 2^32."""
    g = 3
    p = ref.random_prime(rng, 900_000, 1_100_000)
    lo, hi = ref.weil_interval(p, g)
    b1, b2 = bits
    while True:
        q1 = ref.random_prime(rng, 2 ** (b1 - 1), 2**b1 - 1)
        s_lo = -(-lo // (q1 * (2**b2 - 1)))
        s_hi = hi // (q1 * 2 ** (b2 - 1))
        if max(s_lo, 1) > s_hi:
            continue
        s = rng.randint(max(s_lo, 1), s_hi)
        if not _smooth(s, 1000):
            continue
        q_lo = max(-(-lo // (q1 * s)), 2 ** (b2 - 1))
        q_hi = min(hi // (q1 * s), 2**b2 - 1)
        if q_hi - q_lo < 1000:
            continue
        q2 = ref.random_prime(rng, q_lo, q_hi)
        break
    count = q1 * q2 * s
    m = rng.randint(1, 4)
    s_primes = sorted(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 2)))
    argv = ["order", "--p", str(p), "--genus", str(g), "--count-fp", str(count),
            "--modulus-exponent", str(m), "--enlarge", ",".join(map(str, s_primes))]
    return Op("order", argv, {"p": p, "g": g, "count_fp": count, "m": m, "s": s_primes})


def _smooth(n: int, bound: int) -> bool:
    for q in range(2, bound):
        while n % q == 0:
            n //= q
    return n == 1


def descent_op(rng: random.Random, path: str) -> Op:
    """A lower chain growing to a point set P and an upper chain shrinking
    to P, so every A_n lies inside every B_m and the search converges."""
    labels = [f"P{i}" for i in range(rng.randint(20, 80))]
    points = set(rng.sample(labels, rng.randint(3, len(labels) // 2)))
    extra = [x for x in labels if x not in points]
    lower = [set(rng.sample(sorted(points), rng.randint(0, 2)))]
    for _ in range(rng.randint(0, 10)):
        lower.append(lower[-1] | set(rng.sample(sorted(points), 2)))
    lower.append(set(points))
    upper = [points | set(extra)]
    for _ in range(rng.randint(0, 10)):
        upper.append(upper[-1] - set(rng.sample(sorted(upper[-1] - points), len(upper[-1] - points) // 2)))
    upper.append(set(points))
    doc = {"lower": [sorted(x) for x in lower], "upper": [sorted(x) for x in upper]}
    _write(path, doc)
    return Op("descent", ["descent-sim", "--input", path], {"fixture": doc})


def cli_mix_round(rng: random.Random, index: int, workdir: str) -> List[Op]:
    ops = []
    order_bits = iter(ORDER_FACTOR_BITS)
    for i, kind in enumerate(CLI_MIX_ROUND):
        path = os.path.join(workdir, f"mix-{index}-{i}.json")
        if kind == "report":
            ops.append(report_op(rng, path))
        elif kind == "halt":
            ops.append(halt_op(rng))
        elif kind == "order":
            lo_bits, hi_bits = next(order_bits)
            ops.append(order_op(rng, (rng.randint(lo_bits, hi_bits), rng.randint(lo_bits, 30))))
        else:
            ops.append(descent_op(rng, path))
    return ops


WORKLOADS = {
    "separate": separate_round,
    "integrate": integrate_round,
    "cli-mix": cli_mix_round,
}


def warmup_op(workload: str, workdir: str) -> Op:
    """One small operation per workload, the same whatever the seed: the
    untimed operation that set-up time includes."""
    rng = random.Random(f"warm-up:{workload}")
    path = os.path.join(workdir, "warm-up.json")
    if workload == "separate":
        disk, roots = planted_disk(rng, 7, 4, 2, 2, "d0")
        _write(path, {"p": 7, "prec": PREC, "charts": [{"chart_id": "c0", "disks": [disk]}]})
        return Op("separate", ["separate", "--input", path, "--jobs", "1"],
                  {"p": 7, "roots": {"c0:d0": roots}})
    if workload == "integrate":
        forms = [_random_form(rng, 5, 12) for _ in range(2)]
        terms = sorted(_terms(rng, 5, _words(2, 2)))
        _write(path, {"p": 5, "prec": PREC, "forms": forms, "trunc": 12,
                      "observable": [{"word": list(w), "coeff": c} for w, c in terms]})
        return Op("integrate", ["integrate", "--input", path],
                  {"p": 5, "forms": forms, "trunc": 12, "terms": terms})
    return report_op(rng, path)
