"""Command-line interface.

Subcommands mirror the pipeline stages:

* ``dims``        -- graded and cumulative dimension tables
* ``bounds``      -- the upper/lower bound table for a curve
* ``halt``        -- halting level(s), with a rank sweep
* ``separate``    -- zero isolation across charts, from a JSON input
* ``integrate``   -- evaluate a word observable as a series
* ``order``       -- local group order / annihilator N (and optionally T_0)
* ``descent-sim`` -- run the two-sided search on a tabulated fixture
* ``report``      -- full pipeline: halting level, separation, N, T_0

Each one is a single entry of ``COMMANDS``: its help, its flags, a handler
returning ``(exit code, document)`` and its csv and plain renderers.
``main`` reads a command line of ``--flag value`` pairs straight from that
table and builds the argparse parser only for any other command line.

Exit codes: 0 success; 2 invalid input (domain errors, bad usage); 3 a
configured bound or budget was exhausted before a decision (no halting
level within the cap, search caps hit, factoring budget spent, an output
integer past the interpreter's int/str digit limit); 4 a p-adic
precision failure (separation not achieved, precision exhausted mid-
integration); 5 an internal invariant was violated.
"""

from __future__ import annotations

import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .arith import DEFAULT_FACTOR_BUDGET
from .descent_arith import (
    JacobianLocalData,
    WeilBoundWarning,
    count_from_frobenius_poly,
    enlarged_prime_set,
    jacobian_order_mod,
)
from .errors import (
    DigitLimitError,
    DomainError,
    FactorizationTimeoutError,
    InvariantError,
    NadescentError,
    PrecisionError,
    check_int,
)
from .iterated_words import FormSystem, evaluate_observable
from .jsonio import (
    at_path,
    canonical_dumps,
    canonicalize,
    charts_from_json,
    descent_fixture_from_json,
    forms_from_json,
    load_json_file,
    observable_from_json,
    parse_int,
    refuse_unprintable,
    require,
    series_to_json,
)
from .lie_dims import DEFAULT_LEVEL_CAP, cumulative_dim, graded_dims
from .padic_series import DEFAULT_DEPTH_CAP, SeparationStatus, separation_modulus
from .selmer_bounds import (
    DEFAULT_N_CAP,
    BoundTable,
    CurveParams,
    ParityMode,
    halting_level,
)
from .two_sided_search import DEFAULT_SEARCH_CAP, TableEnumerator, run_descent

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_BOUND_EXHAUSTED = 3
EXIT_SEPARATION_FAILURE = 4
EXIT_INTERNAL = 5

Doc = Dict[str, Any]


# ---------------------------------------------------------------------------
# Small argument helpers
# ---------------------------------------------------------------------------


def _parse_prime_list(text: Optional[str], flag: str) -> frozenset[int]:
    if text is None or text.strip() == "":
        return frozenset()
    return frozenset(parse_int(piece, flag) for piece in text.split(","))


def _parse_rank_spec(text: str) -> List[int]:
    """Either a single rank '3' or an inclusive sweep '0..5', of ranks >= 0."""
    lo_s, dots, hi_s = text.partition("..")
    lo = check_int(parse_int(lo_s, "--rank"), "--rank", 0)
    hi = parse_int(hi_s, "--rank") if dots else lo
    if lo > hi:
        raise DomainError(f"--rank: empty sweep {text.strip()!r}")
    return list(range(lo, hi + 1))


# the flag that gives each prime a library check names by its role
_PRIME_FLAGS = {"p": "--p", "bad prime": "--bad-primes", "S": "--enlarge"}


@contextmanager
def _primes_by_flag() -> Iterator[None]:
    """Re-raise a library's ``role: n is not prime`` with the role's flag."""
    try:
        yield
    except DomainError as exc:
        role, _, rest = str(exc).partition(": ")
        if role not in _PRIME_FLAGS or not rest.endswith(" is not prime"):
            raise
        raise DomainError(f"{_PRIME_FLAGS[role]}: {rest}") from exc


def _curve_params(args, rank: int) -> CurveParams:
    bad = _parse_prime_list(args.bad_primes, "--bad-primes")
    if bad:
        if args.bad_count is not None and args.bad_count != len(bad):
            raise DomainError(
                f"--bad-count {args.bad_count} disagrees with --bad-primes "
                f"({len(bad)} primes)"
            )
        if args.p in bad:
            raise DomainError(f"--bad-primes: p={args.p} must be of good reduction")
        count = len(bad)
    else:
        if args.bad_count is None:
            raise DomainError("one of --bad-primes or --bad-count is required")
        count = args.bad_count
        bad = None
    with _primes_by_flag():
        return CurveParams(
            g=args.genus, bad_prime_count=count, p=args.p, mw_rank=rank, bad_primes=bad
        )


def _annihilator(p: int, g: int, count_fp: int, m: int) -> Tuple[int, List[str]]:
    """N at level p^M, with the Weil-interval warnings its input raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = JacobianLocalData(p=p, g=g, count_fp=count_fp)
    # N >= p^(g (M - 1)) >= 2^(g (M - 1) (bit_length(p) - 1)): refuse it early
    refuse_unprintable(g * (m - 1) * (p.bit_length() - 1) + 1)
    n_value = jacobian_order_mod(data, m)
    return n_value, [
        str(w.message) for w in caught if issubclass(w.category, WeilBoundWarning)
    ]


def _enlarged_primes(
    s_primes: frozenset[int], p: int, count_fp: int, m: int, budget: int
) -> List[int]:
    """T0 = S union primes(N), N = count_fp * p^(g (M - 1)), without factoring
    N: p, already tested prime, divides N exactly when M > 1 or p | count_fp,
    and factoring count_fp finds the second case."""
    t0 = enlarged_prime_set(s_primes, count_fp, budget=budget)
    return sorted(t0 | {p} if m > 1 else t0)


# ---------------------------------------------------------------------------
# Subcommand handlers (return the exit code and the document to print)
# ---------------------------------------------------------------------------


def _cmd_dims(args) -> Tuple[int, Doc]:
    n_max, cap = check_int(args.n_max, "--n", 0), args.cap
    rows = []
    if n_max:
        if n_max > cap:
            raise DomainError(f"--n: {n_max} exceeds --cap {cap}; pass --cap {n_max}")
        dims = graded_dims(args.genus, n_max, cap=cap)
        for n in range(1, n_max + 1):
            dim_u = 0 if n == 1 else cumulative_dim(dims, n)
            rows.append(
                {"n": n, "lucas": dims.lucas_value(n), "r": dims.r(n), "dim_u": dim_u}
            )
    return EXIT_OK, {"g": args.genus, "rows": rows}


def _cmd_bounds(args) -> Tuple[int, Doc]:
    ranks = _parse_rank_spec(args.rank)
    if len(ranks) != 1:
        raise DomainError("--rank: this command takes a single rank, not a sweep")
    params = _curve_params(args, ranks[0])
    mode = ParityMode.parse(args.mode)
    with at_path("--n-cap"):
        table = halting_level(params, n_cap=args.n_cap, mode=mode)
    return EXIT_OK, table.to_json_dict()


def _cmd_halt(args) -> Tuple[int, Doc]:
    ranks = _parse_rank_spec(args.rank)
    modes = list(ParityMode) if args.mode == "both" else [ParityMode.parse(args.mode)]
    # the least rank is validated first, as in a walk per rank; UB moves with
    # the rank one for one and LB not at all, so the walk for the top rank
    # holds every lower rank's level
    params = _curve_params(args, ranks[0])
    top = replace(params, mw_rank=ranks[-1])
    with at_path("--n-cap"):
        tables = [halting_level(top, n_cap=args.n_cap, mode=mode) for mode in modes]
    columns = [
        (mode.value, len(table.rows), _levels_by_rank(table, ranks))
        for mode, table in zip(modes, tables)
    ]
    results = []
    for i, rank in enumerate(ranks):
        for value, row_count, by_rank in columns:
            level = by_rank[i]
            results.append(
                {
                    "mw_rank": rank,
                    "mode": value,
                    "halting_level": level,
                    "levels_examined": row_count if level is None else level - 1,
                }
            )
    doc = {
        "g": args.genus,
        "p": args.p,
        "bad_prime_count": params.bad_prime_count,
        "n_cap": args.n_cap,
        "results": results,
    }
    missed = any(r["halting_level"] is None for r in results)
    return (EXIT_BOUND_EXHAUSTED if missed else EXIT_OK), doc


def _levels_by_rank(table: BoundTable, ranks: List[int]) -> List[Optional[int]]:
    """The halting level of each of the ascending ``ranks``, none above the
    table's own, read off its rows: rank r halts at the first row where
    UB - (table rank - r) < LB, and a larger rank never halts sooner."""
    rows, top = table.rows, table.params.mw_rank
    i, levels = 0, []
    for rank in ranks:
        while i < len(rows) and rows[i].selmer_ub - top + rank >= rows[i].derham_lb:
            i += 1
        levels.append(rows[i].n if i < len(rows) else None)
    return levels


def _cmd_separate(args) -> Tuple[int, Any]:
    charts = charts_from_json(load_json_file(args.input))
    report = separation_modulus(charts, depth_cap=args.depth_cap)
    separated = report.status is SeparationStatus.SEPARATED
    return (EXIT_OK if separated else EXIT_SEPARATION_FAILURE), report


def _cmd_integrate(args) -> Tuple[int, Doc]:
    doc_in = load_json_file(args.input)
    forms, p, prec = forms_from_json(doc_in)
    with at_path("$.forms"):
        system = FormSystem(tuple(forms))
    observable = require(doc_in, "observable", "$")
    obs = observable_from_json(observable, p, prec, "$.observable", system.size)
    trunc, where = args.trunc, "--trunc"
    if trunc is None and "trunc" in doc_in:
        trunc, where = parse_int(doc_in["trunc"], "$.trunc"), "$.trunc"
    with at_path(where):
        trunc = system.truncation(trunc)
    series = evaluate_observable(obs, system, trunc)
    bound_raw = doc_in.get("weierstrass_bound")
    if bound_raw is not None:
        bound = parse_int(bound_raw, "$.weierstrass_bound")
        with at_path("$.weierstrass_bound"):
            series = series.with_weierstrass_bound(bound)
    return EXIT_OK, {"series": series_to_json(series)}


def _cmd_order(args) -> Tuple[int, Doc]:
    if (args.count_fp is None) == (args.l_poly is None):
        raise DomainError("exactly one of --count-fp or --l-poly is required")
    if args.count_fp is not None:
        count_fp = args.count_fp
    else:
        with at_path("--l-poly"):
            count_fp = count_from_frobenius_poly(
                [parse_int(s, "--l-poly") for s in args.l_poly.split(",") if s.strip()]
            )
    with _primes_by_flag():
        n_value, warned = _annihilator(
            args.p, args.genus, count_fp, args.modulus_exponent
        )
    doc: Doc = {
        "p": args.p,
        "g": args.genus,
        "count_fp": count_fp,
        "modulus_exponent": args.modulus_exponent,
        "annihilator": n_value,
        "warnings": warned,
    }
    if args.enlarge is not None:
        s_primes = _parse_prime_list(args.enlarge, "--enlarge")
        with _primes_by_flag():
            doc["enlarged_primes"] = _enlarged_primes(
                s_primes, args.p, count_fp, args.modulus_exponent, args.factor_budget
            )
    return EXIT_OK, doc


def _cmd_descent_sim(args) -> Tuple[int, Any]:
    doc_in = load_json_file(args.input)
    lower_levels, upper_levels = descent_fixture_from_json(doc_in)
    outcome = run_descent(
        TableEnumerator(lower_levels),
        TableEnumerator(upper_levels),
        n_cap=args.n_cap,
        m_cap=args.m_cap,
    )
    return (EXIT_OK if outcome.converged else EXIT_BOUND_EXHAUSTED), outcome


def _cmd_report(args) -> Tuple[int, Doc]:
    config = load_json_file(args.config)
    curve = require(config, "curve", "$")
    genus = parse_int(require(curve, "genus", "$.curve"), "$.curve.genus")
    p = parse_int(require(curve, "p", "$.curve"), "$.curve.p")
    rank = parse_int(require(curve, "mw_rank", "$.curve"), "$.curve.mw_rank")
    bad_raw = require(curve, "bad_primes", "$.curve")
    if not isinstance(bad_raw, list):
        raise DomainError("$.curve.bad_primes: expected an array of primes")
    bad = frozenset(
        parse_int(q, f"$.curve.bad_primes[{i}]") for i, q in enumerate(bad_raw)
    )
    n_cap = parse_int(config.get("n_cap", DEFAULT_N_CAP), "$.n_cap")
    depth_cap = parse_int(config.get("depth_cap", DEFAULT_DEPTH_CAP), "$.depth_cap")
    with at_path("$.mode"):
        mode = ParityMode.parse(config.get("mode", "faithful"))
    with at_path("$.curve"):
        params = CurveParams(
            g=genus, bad_prime_count=len(bad), p=p, mw_rank=rank, bad_primes=bad
        )

    doc: Doc = {
        "curve": {
            "genus": genus,
            "p": p,
            "mw_rank": rank,
            "bad_primes": sorted(bad),
        },
        "mode": mode.value,
        "inputs": {"n_cap": n_cap, "depth_cap": depth_cap},
    }

    with at_path("$.n_cap"):
        table = halting_level(params, n_cap=n_cap, mode=mode)
    doc["bound_table"] = table.to_json_dict()
    doc["halting_level"] = table.halting_level
    if table.halting_level is None:
        doc["status"] = "no-halting-level"
        doc["failed_stage"] = "halting"
        return EXIT_BOUND_EXHAUSTED, doc

    charts = charts_from_json(
        {"p": p, "prec": config.get("prec"), "charts": require(config, "charts", "$")}
    )
    with at_path("$.depth_cap"):
        report = separation_modulus(charts, depth_cap=depth_cap)
    doc["separation"] = report
    if report.status is not SeparationStatus.SEPARATED:
        doc["status"] = "separation-failed"
        doc["failed_stage"] = "separation"
        return EXIT_SEPARATION_FAILURE, doc

    jac = require(config, "jacobian", "$")
    count_fp = parse_int(require(jac, "count_fp", "$.jacobian"), "$.jacobian.count_fp")
    jac_g = parse_int(jac.get("g", genus), "$.jacobian.g")
    doc["inputs"]["jacobian"] = {"g": jac_g, "count_fp": count_fp}
    with at_path("$.jacobian"):
        n_value, doc["warnings"] = _annihilator(p, jac_g, count_fp, report.modulus)
    doc["modulus_exponent"] = report.modulus
    doc["annihilator"] = n_value
    doc["enlarged_primes"] = _enlarged_primes(
        bad, p, count_fp, report.modulus, args.factor_budget
    )
    doc["status"] = "complete"
    return EXIT_OK, doc


# ---------------------------------------------------------------------------
# Renderers: a canonicalized document to the lines of its text
# ---------------------------------------------------------------------------

Renderer = Callable[[Doc], List[str]]


def _csv(key: str, *columns: str, header: Optional[str] = None) -> Renderer:
    """A header line (by default the column names), then one line per row of
    ``doc[key]``, a missing value left empty."""
    return lambda doc: [header or ",".join(columns)] + [
        ",".join("" if r[c] is None else r[c] for c in columns) for r in doc[key]
    ]


def _dims_plain(doc: Doc) -> List[str]:
    return [
        f"g = {doc['g']}",
        f"{'n':>4} {'L_n':>18} {'r_n':>18} {'dim U_n':>18}",
    ] + [
        f"{r['n']:>4} {r['lucas']:>18} {r['r']:>18} {r['dim_u']:>18}"
        for r in doc["rows"]
    ]


def _bounds_plain(doc: Doc) -> List[str]:
    level = doc["halting_level"]
    return (
        [
            f"g = {doc['g']}  |S| = {doc['bad_prime_count']}  p = {doc['p']}  "
            f"rank = {doc['mw_rank']}  mode = {doc['mode']}",
            f"{'n':>4} {'selmer_ub':>14} {'derham_lb':>14}",
        ]
        + [
            f"{r['n']:>4} {r['selmer_ub']:>14} {r['derham_lb']:>14}"
            for r in doc["rows"]
        ]
        + [f"halting level: {level}" if level is not None else "no halting level"]
    )


def _halt_plain(doc: Doc) -> List[str]:
    return [
        f"rank {r['mw_rank']} ({r['mode']}): "
        + ("not reached" if r["halting_level"] is None else f"t = {r['halting_level']}")
        for r in doc["results"]
    ]


def _order_plain(doc: Doc) -> List[str]:
    lines = [f"N = {doc['annihilator']}"]
    if "enlarged_primes" in doc:
        lines.append("T0 = {" + ", ".join(doc["enlarged_primes"]) + "}")
    return lines + [f"warning: {w}" for w in doc["warnings"]]


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------


class Flag(NamedTuple):
    names: Tuple[str, ...]
    integer: bool  # read with parse_int, errors named by the first spelling
    least: Optional[int]  # an integer's least value, checked before the command runs
    options: Dict[str, Any]  # passed on to add_argument, "dest" always set


def _flag(*names: str, integer: bool = False, **options: Any) -> Flag:
    options.setdefault("dest", names[0].lstrip("-").replace("-", "_"))
    return Flag(names, integer, options.pop("least", None), options)


def _int(*names: str, **options: Any) -> Flag:
    return _flag(*names, integer=True, **options)


class Command(NamedTuple):
    help: str
    flags: Tuple[Flag, ...]
    handler: Callable[[Any], Tuple[int, Any]]  # a Namespace to any canonicalizable
    csv: Optional[Renderer] = None  # None: csv output is refused
    plain: Optional[Renderer] = None  # None: plain output is the canonical json


def _genus(least: int, help: str) -> Flag:
    return _int("--genus", "--g", required=True, least=least, help=help)


_P = _int("--p", required=True, help="good working prime")
_INPUT = _flag("--input", required=True, metavar="FILE")
_JOBS = _int("--jobs", default=1, least=1, help="accepted; disks always run in order")
_FACTOR_BUDGET = _int("--factor-budget", default=DEFAULT_FACTOR_BUDGET, least=0)
_OUTPUT_FLAGS = (  # every command takes these
    _flag(
        "--output",
        choices=("json", "csv", "plain"),
        default="json",
        help="output style (default: canonical json)",
    ),
    _flag("--out", metavar="FILE", help="write output to FILE"),
)


def _curve_flags(*extra_modes: str) -> Tuple[Flag, ...]:
    return (
        _genus(2, "curve genus (>= 2)"),
        _P,
        _flag("--rank", required=True, help="Mordell-Weil rank, or a sweep like 0..5"),
        _flag(
            "--bad-primes", help="comma-separated primes of bad reduction (e.g. 11,13)"
        ),
        _int("--bad-count", least=0, help="bad set size, if primes are not listed"),
        _int(
            "--n-cap", default=DEFAULT_N_CAP, least=2,
            help="largest level to examine (default %(default)s)",
        ),
        _flag(
            "--mode",
            choices=("faithful", "verbatim") + extra_modes,
            default="faithful",
            help="parity convention for the minus-part halving (default faithful)",
        ),
    )


COMMANDS: Dict[str, Command] = {
    "dims": Command(
        "graded Lie dimensions L_n, r_n, dim U_n",
        (
            _genus(2, "curve genus (>= 2)"),
            _int(
                "--n-max", "--n", required=True,
                help="largest degree to list (0 for a header-only table)",
            ),
            _int(
                "--cap", default=DEFAULT_LEVEL_CAP,
                help="refuse degrees beyond this cap (default %(default)s)",
            ),
        ),
        _cmd_dims,
        csv=_csv("rows", "n", "lucas", "r", "dim_u", header="n,lucas,r_n,dim_u"),
        plain=_dims_plain,
    ),
    "bounds": Command(
        "upper/lower bound table for one curve",
        _curve_flags(),
        _cmd_bounds,
        csv=_csv("rows", "n", "selmer_ub", "derham_lb"),
        plain=_bounds_plain,
    ),
    "halt": Command(
        "halting level, optionally swept over ranks",
        _curve_flags("both"),
        _cmd_halt,
        csv=_csv("results", "mw_rank", "mode", "halting_level"),
        plain=_halt_plain,
    ),
    "separate": Command(
        "isolate zeros across charts (JSON input)",
        (_INPUT, _int("--depth-cap", default=DEFAULT_DEPTH_CAP, least=1), _JOBS),
        _cmd_separate,
    ),
    "integrate": Command(
        "evaluate a word observable as a series (JSON input)",
        (_INPUT, _int("--trunc", help="override the truncation degree")),
        _cmd_integrate,
    ),
    "order": Command(
        "local group order / annihilator N",
        (
            _P,
            _genus(1, "dimension of the local Jacobian (>= 1)"),
            _int("--count-fp", least=1, help="group order over F_p"),
            _flag(
                "--l-poly", metavar="COEFFS",
                help="comma-separated Frobenius polynomial coefficients; the count "
                "is their sum (value at 1)",
            ),
            _int("--modulus-exponent", required=True, least=1, help="level M of Z/p^M"),
            _flag(
                "--enlarge", metavar="PRIMES",
                help="also emit T0 = {given primes} union {primes dividing N}",
            ),
            _FACTOR_BUDGET,
        ),
        _cmd_order,
        plain=_order_plain,
    ),
    "descent-sim": Command(
        "two-sided search on a tabulated fixture (JSON input)",
        (
            _INPUT,
            _int("--n-cap", default=DEFAULT_SEARCH_CAP, least=0),
            _int("--m-cap", default=DEFAULT_SEARCH_CAP, least=0),
        ),
        _cmd_descent_sim,
    ),
    "report": Command(
        "full pipeline from a JSON config",
        (_flag("--config", required=True, metavar="FILE"), _JOBS, _FACTOR_BUDGET),
        _cmd_report,
    ),
}


@cache
def build_parser():
    """The argparse parser of ``COMMANDS``, built on first use and then
    shared: parsing keeps no state in it, and importing and building it costs
    more than most commands.  ``main`` needs it only for a command line that
    ``parse_canonical`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nadescent",
        description="Effective nonabelian descent toolkit: dimension tables, "
        "halting levels, p-adic zero separation, and the descent endgame.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for flag in command.flags + _OUTPUT_FLAGS:
            sub.add_argument(*flag.names, **flag.options)
    return parser


def parse_canonical(argv: List[str]) -> Optional[SimpleNamespace]:
    """The Namespace argparse gives for ``argv``, read straight from
    ``COMMANDS`` when ``argv`` is a command name then ``--flag value`` pairs:
    each flag spelled as in the table, no value starting with ``-``, each
    value among the flag's choices and every required flag given (a repeated
    flag keeps its last value, as in argparse).  None for any other command
    line, which argparse then parses, helps or refuses as it always did."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    flags = COMMANDS[argv[0]].flags + _OUTPUT_FLAGS
    by_name = {name: flag for flag in flags for name in flag.names}
    values = {flag.options["dest"]: flag.options.get("default") for flag in flags}
    for name, value in zip(argv[1::2], argv[2::2]):
        flag = by_name.get(name)
        if flag is None or value.startswith("-"):
            return None
        if value not in flag.options.get("choices", (value,)):
            return None
        values[flag.options["dest"]] = value
    for flag in flags:  # a required flag has no default: None until given
        if flag.options.get("required") and values[flag.options["dest"]] is None:
            return None
    return SimpleNamespace(command=argv[0], **values)


def _render(command: Command, style: str, doc: Doc) -> str:
    render = command.csv if style == "csv" else command.plain
    if style == "csv" and render is None:
        raise DomainError(
            "csv output is only available for the tabular commands "
            "(dims, bounds, halt)"
        )
    if style == "json" or render is None:
        return canonical_dumps(doc)
    # the renderers format the canonical decimal strings, so every integer
    # reaches text through canonicalize
    return "\n".join(render(canonicalize(doc))) + "\n"


# the exit code and stderr line of each refusal, the first class that matches
_FAILURES = (
    (DomainError, EXIT_DOMAIN, "error: {}"),
    (
        FactorizationTimeoutError, EXIT_BOUND_EXHAUSTED,
        "error: {}; raise --factor-budget",
    ),
    (DigitLimitError, EXIT_BOUND_EXHAUSTED, "error: {}"),
    (PrecisionError, EXIT_SEPARATION_FAILURE, "error: {}"),
    (InvariantError, EXIT_INTERNAL, "internal invariant violated: {}"),
    (NadescentError, EXIT_INTERNAL, "error: {}"),  # a safety net
)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_canonical(argv) or build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        for flag in command.flags:
            dest, name = flag.options["dest"], flag.names[0]
            if flag.integer and getattr(args, dest) is not None:
                setattr(args, dest, parse_int(getattr(args, dest), name))
                if flag.least is not None:
                    check_int(getattr(args, dest), name, flag.least)
        code, doc = command.handler(args)
        text = _render(command, args.output, doc)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise DomainError(f"cannot write {args.out!r}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return code
    except NadescentError as exc:
        code, message = next((c, m) for t, c, m in _FAILURES if isinstance(exc, t))
        print(message.format(exc), file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
