"""Checks of every output against values computed apart from the program.

Each check takes the operation (its input and what the generator knows
about it) and the canonical JSON text the program printed, and raises
CheckError on the first disagreement.  Integers in the program's output are
decimal strings; the checks parse them back.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Sequence, Tuple

import reference as ref
from workloads import PREC, Op

# Every order and report input is built so that N has no prime factor above
# 2^32; an element of T0 beyond that cannot be a prime factor of N.
MAX_FACTOR = 2**32
SEARCH_CAP = 64  # the CLI's default --n-cap and --m-cap for descent-sim


class CheckError(Exception):
    """An output disagrees with the reference."""


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Checker:
    """Checks outputs one operation at a time.

    ``run(argv) -> (exit code, stdout)`` runs the program again; the report
    check uses it to compare ``--jobs 2`` with ``--jobs 1``.  ``disks`` and
    ``terms`` count certified disks and observable terms across the checked
    outputs, the denominators of two per-layer ratios.
    """

    def __init__(self, run: Callable[[List[str]], Tuple[int, str]]):
        self.run = run
        self.dims: Dict[int, List[int]] = {}
        self.disks = 0
        self.terms = 0

    def check(self, op: Op, text: str) -> None:
        doc = json.loads(text)
        getattr(self, "_" + op.kind)(op, doc, text)

    # -- separate --------------------------------------------------------------

    def _separate(self, op: Op, doc: Any, text: str) -> None:
        self.separation(doc, op.expect["p"], op.expect["roots"])

    def separation(self, doc: Any, p: int, roots: Dict[str, List[int]]) -> None:
        """Status separated, no failures, one disk per planted root: each root
        congruent to exactly one disk centre mod p^depth; M the largest depth."""
        _need(doc["status"] == "separated", f"status {doc['status']!r}, not separated")
        _need(doc["failures"] == [], f"failures reported: {doc['failures']}")
        by_id: Dict[str, list] = {}
        for disk in doc["disks"]:
            by_id.setdefault(disk["chart_id"], []).append(disk)
        _need(set(by_id) <= set(roots), f"disks on unknown charts {set(by_id) - set(roots)}")
        depths = []
        for disk_id, planted in roots.items():
            found = by_id.get(disk_id, [])
            _need(len(found) == len(planted),
                  f"{disk_id}: {len(found)} disks for {len(planted)} planted roots")
            matched = set()
            for disk in found:
                digits = [int(x) for x in disk["center_digits"]]
                depth = int(disk["depth"])
                _need(depth == len(digits) and all(0 <= x < p for x in digits),
                      f"{disk_id}: centre digits {digits} do not fit depth {depth}")
                _need(int(disk["zero_count"]) == 1 and disk["multiplicity_flag"] is False,
                      f"{disk_id}: disk {digits} is not a simple certified zero")
                centre = sum(x * p**j for j, x in enumerate(digits))
                inside = [i for i, r in enumerate(planted) if (r - centre) % p**depth == 0]
                _need(len(inside) == 1,
                      f"{disk_id}: disk {digits} holds {len(inside)} planted roots")
                matched.add(inside[0])
                depths.append(depth)
            _need(len(matched) == len(planted), f"{disk_id}: a planted root has no disk")
        _need(int(doc["modulus"]) == max(depths, default=1),
              f"modulus {doc['modulus']} is not the largest depth {max(depths, default=1)}")
        self.disks += len(doc["disks"])

    # -- integrate -------------------------------------------------------------

    def _integrate(self, op: Op, doc: Any, text: str) -> None:
        e = op.expect
        p, trunc = e["p"], e["trunc"]
        series = doc["series"]
        coeffs = series["coeffs"]
        _need(int(series["p"]) == p and int(series["trunc"]) == trunc
              and len(coeffs) == trunc + 1 and series["weierstrass_bound"] is None,
              f"series shape p={series['p']} trunc={series['trunc']} differs from the input")
        exact = ref.ExactIntegrals(e["forms"], trunc)
        scaled = exact.observable(e["terms"])
        if "factors" in e:
            left, right = e["factors"]
            product = ref.scaled_product(exact.observable(left), exact.observable(right))
            _need(product == scaled,
                  "the shuffle expansion disagrees with the product of its factors")
        factorial = 1
        for m, c in enumerate(coeffs):
            factorial *= max(m, 1)
            # Forms and observable are p-integral to PREC digits, and the
            # antiderivatives behind coefficient m divide by distinct
            # integers up to m: at most v_p(m!) digits may be spent.
            floor = PREC - ref.v_p(factorial, p)
            _need(contains(c, scaled[m], factorial, p, floor),
                  f"coefficient {m} = {c} does not contain {scaled[m]}/{m}! "
                  f"to O({p}^{floor})")
        self.terms += len(e["terms"])

    # -- halt ------------------------------------------------------------------

    def graded(self, g: int) -> List[int]:
        if g not in self.dims:
            self.dims[g] = ref.graded_dims(g, 64)
        return self.dims[g]

    def _halt(self, op: Op, doc: Any, text: str) -> None:
        e = op.expect
        g, n_cap, bad = e["g"], e["n_cap"], e["bad_count"]
        _need([doc["g"], doc["p"], doc["bad_prime_count"], doc["n_cap"]]
              == [str(g), str(e["p"]), str(bad), str(n_cap)], "halt header differs from the input")
        want = [(rank, mode) for rank in range(21) for mode in ("faithful", "verbatim")]
        _need(len(doc["results"]) == len(want), f"{len(doc['results'])} results, want {len(want)}")
        for got, (rank, mode) in zip(doc["results"], want):
            rows, level = ref.bound_rows(g, bad, rank, mode, n_cap, self.graded(g))
            _need(got == {
                "mw_rank": str(rank),
                "mode": mode,
                "halting_level": None if level is None else str(level),
                "levels_examined": str(len(rows)),
            }, f"g={g} |S|={bad} rank={rank} {mode}: got {got}, walk gives t={level}")

    # -- order and report ------------------------------------------------------

    def _order(self, op: Op, doc: Any, text: str) -> None:
        e = op.expect
        n = e["count_fp"] * e["p"] ** (e["g"] * (e["m"] - 1))
        _need(doc["annihilator"] == str(n),
              f"annihilator {doc['annihilator']} != count_fp * p^(g(M-1)) = {n}")
        _need(doc["warnings"] == [], f"unexpected warnings {doc['warnings']}")
        enlarged_primes(doc["enlarged_primes"], e["s"], n)

    def _report(self, op: Op, doc: Any, text: str) -> None:
        config = op.expect["config"]
        curve = config["curve"]
        g, p, rank, bad = curve["genus"], curve["p"], curve["mw_rank"], curve["bad_primes"]
        _need(doc["status"] == "complete", f"report status {doc['status']!r}")
        rows, level = ref.bound_rows(g, len(bad), rank, config["mode"], config["n_cap"], self.graded(g))
        table = doc["bound_table"]
        _need(table["rows"] == [
            {"n": str(n), "selmer_ub": str(ub), "derham_lb": str(lb)} for n, ub, lb in rows
        ], "bound table rows differ from the walk")
        _need(table["halting_level"] == doc["halting_level"] == str(level),
              f"halting level {doc['halting_level']}, walk gives {level}")
        self.separation(doc["separation"], p, op.expect["roots"])
        m = int(doc["modulus_exponent"])
        _need(m == int(doc["separation"]["modulus"]), "modulus exponent is not the separation modulus")
        n = config["jacobian"]["count_fp"] * p ** (g * (m - 1))
        _need(doc["annihilator"] == str(n), f"annihilator {doc['annihilator']} != {n}")
        _need(doc["warnings"] == [], f"unexpected warnings {doc['warnings']}")
        enlarged_primes(doc["enlarged_primes"], bad, n)
        argv = list(op.argv)
        argv[argv.index("--jobs") + 1] = "1"
        rc, serial = self.run(argv)
        _need(rc == 0 and serial == text, "report --jobs 2 differs from --jobs 1")

    # -- descent-sim -----------------------------------------------------------

    def _descent(self, op: Op, doc: Any, text: str) -> None:
        _need(doc == descent_outcome(op.expect["fixture"]),
              "descent-sim outcome differs from the tabulated schedule")


def contains(coeff: Any, scaled: int, factorial: int, p: int, floor: int) -> bool:
    """Whether the ball a canonical coefficient states holds the exact value
    scaled / factorial and is no wider than O(p^floor)."""
    if coeff == {"zero": True}:
        return scaled == 0
    e = ref.v_p(factorial, p)
    if "zero_to" in coeff:
        k = int(coeff["zero_to"])
        return k >= floor and ref.divides_to(scaled, p, k + e)
    v, u, r = int(coeff["val"]), int(coeff["unit"]), int(coeff["prec"])
    if r < 1 or u % p == 0 or v + r < floor:
        return False
    a = max(0, -v)
    diff = scaled * p**a - u * p ** (v + a) * factorial
    return ref.divides_to(diff, p, v + r + e + a)


def enlarged_primes(t0_text: Sequence[str], s: Sequence[int], n: int) -> None:
    """T0 proved by trial division: T0 holds S; every element of T0 outside S
    is a prime dividing N; N has no prime factor outside T0."""
    t0 = [int(x) for x in t0_text]
    _need(t0 == sorted(set(t0)), f"T0 {t0} is not sorted and duplicate-free")
    _need(set(s) <= set(t0), f"T0 {t0} does not hold S = {sorted(s)}")
    rest = n
    for q in t0:
        if q not in s:
            _need(q < MAX_FACTOR, f"{q} in T0 exceeds 2^32, beyond every prime factor of N")
            _need(rest % q == 0, f"{q} in T0 does not divide N = {n}")
            _need(ref.is_prime_trial(q), f"{q} in T0 is not prime")
        while rest % q == 0:
            rest //= q
    _need(rest == 1, f"N = {n} has the factor {rest} outside T0")


def descent_outcome(fixture: Dict[str, List[List[str]]]) -> Dict[str, Any]:
    """The canonical descent-sim document, from walking the schedule over a
    table of both sides (levels past the last repeat it)."""
    lower, upper = fixture["lower"], fixture["upper"]
    for n, m in ref.search_schedule(SEARCH_CAP, SEARCH_CAP):
        a = set(lower[min(n, len(lower) - 1)])
        b = set(upper[min(m, len(upper) - 1)])
        if a == b:
            break
    converged = a == b
    return {
        "converged": converged,
        "points": sorted(a) if converged else None,
        "lower_level": str(n),
        "upper_level": str(m),
        "last_lower": sorted(a),
        "last_upper": sorted(b),
        "n_cap": str(SEARCH_CAP),
        "m_cap": str(SEARCH_CAP),
    }
