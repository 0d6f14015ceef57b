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

Exit codes: 0 success; 2 invalid input (domain errors, bad usage); 3 a
configured bound or budget was exhausted before a decision (no halting
level within the cap, search caps hit, factoring budget spent, an output
integer past the interpreter's int/str digit limit); 4 a p-adic
precision failure (separation not achieved, precision exhausted mid-
integration); 5 an internal invariant was violated.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Any, Dict, List, Optional, Tuple

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
)
from .iterated_words import FormSystem, evaluate_observable
from .jsonio import (
    canonical_dumps,
    canonicalize,
    charts_from_json,
    descent_fixture_from_json,
    forms_from_json,
    load_json_file,
    observable_from_json,
    parse_int,
    require,
    separation_report_to_json,
    series_to_json,
)
from .lie_dims import DEFAULT_LEVEL_CAP, cumulative_dim, graded_dims, validate_genus
from .padic_series import SeparationStatus, separation_modulus
from .selmer_bounds import CurveParams, ParityMode, halting_level
from .two_sided_search import TableEnumerator, run_descent

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_BOUND_EXHAUSTED = 3
EXIT_SEPARATION_FAILURE = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# Small argument helpers
# ---------------------------------------------------------------------------


def _parse_prime_list(text: Optional[str], flag: str) -> frozenset[int]:
    if text is None or text.strip() == "":
        return frozenset()
    return frozenset(parse_int(piece, flag) for piece in text.split(","))


def _parse_rank_spec(text: str) -> List[int]:
    """Either a single rank '3' or an inclusive sweep '0..5'."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = parse_int(lo_s, "--rank"), parse_int(hi_s, "--rank")
        if lo > hi:
            raise DomainError(f"--rank: empty sweep {text.strip()!r}")
        return list(range(lo, hi + 1))
    return [parse_int(text, "--rank")]


def _curve_params(args, rank: int) -> CurveParams:
    bad = _parse_prime_list(args.bad_primes, "--bad-primes")
    if bad:
        if args.bad_count is not None and args.bad_count != len(bad):
            raise DomainError(
                f"--bad-count {args.bad_count} disagrees with --bad-primes "
                f"({len(bad)} primes)"
            )
        count = len(bad)
    else:
        if args.bad_count is None:
            raise DomainError("one of --bad-primes or --bad-count is required")
        count = args.bad_count
        bad = None
    return CurveParams(
        g=args.genus,
        bad_prime_count=count,
        p=args.p,
        mw_rank=rank,
        bad_primes=bad,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _render_csv(kind: str, doc: Dict[str, Any]) -> str:
    if kind == "dims":
        lines = ["n,lucas,r_n,dim_u"]
        lines += [
            f"{r['n']},{r['lucas']},{r['r']},{r['dim_u']}" for r in doc["rows"]
        ]
    elif kind == "bounds":
        lines = ["n,selmer_ub,derham_lb"]
        lines += [
            f"{r['n']},{r['selmer_ub']},{r['derham_lb']}" for r in doc["rows"]
        ]
    else:
        lines = ["mw_rank,mode,halting_level"]
        for r in doc["results"]:
            level = "" if r["halting_level"] is None else r["halting_level"]
            lines.append(f"{r['mw_rank']},{r['mode']},{level}")
    return "\n".join(lines) + "\n"


def _render_plain(kind: str, doc: Dict[str, Any]) -> str:
    if kind == "dims":
        lines = [
            f"g = {doc['g']}",
            f"{'n':>4} {'L_n':>18} {'r_n':>18} {'dim U_n':>18}",
        ]
        lines += [
            f"{r['n']:>4} {r['lucas']:>18} {r['r']:>18} {r['dim_u']:>18}"
            for r in doc["rows"]
        ]
        return "\n".join(lines) + "\n"
    if kind == "bounds":
        lines = [
            f"g = {doc['g']}  |S| = {doc['bad_prime_count']}  p = {doc['p']}  "
            f"rank = {doc['mw_rank']}  mode = {doc['mode']}",
            f"{'n':>4} {'selmer_ub':>14} {'derham_lb':>14}",
        ]
        lines += [
            f"{r['n']:>4} {r['selmer_ub']:>14} {r['derham_lb']:>14}"
            for r in doc["rows"]
        ]
        level = doc["halting_level"]
        lines.append(
            f"halting level: {level}" if level is not None else "no halting level"
        )
        return "\n".join(lines) + "\n"
    if kind == "halt":
        lines = []
        for r in doc["results"]:
            level = r["halting_level"]
            suffix = f"t = {level}" if level is not None else "not reached"
            lines.append(f"rank {r['mw_rank']} ({r['mode']}): {suffix}")
        return "\n".join(lines) + "\n"
    if kind == "order":
        lines = [f"N = {doc['annihilator']}"]
        if "enlarged_primes" in doc:
            lines.append(
                "T0 = {" + ", ".join(doc["enlarged_primes"]) + "}"
            )
        lines += [f"warning: {w}" for w in doc["warnings"]]
        return "\n".join(lines) + "\n"
    # everything else: the canonical document is already the best rendering
    return canonical_dumps(doc)


def _emit(args, kind: str, doc: Dict[str, Any]) -> None:
    style = getattr(args, "output", "json")
    if style == "json":
        text = canonical_dumps(doc)
    elif style == "csv" and kind not in ("dims", "bounds", "halt"):
        raise DomainError(
            "csv output is only available for the tabular commands "
            "(dims, bounds, halt)"
        )
    else:
        # the renderers format the canonical decimal strings, so every
        # integer reaches text through canonicalize
        render = _render_csv if style == "csv" else _render_plain
        text = render(kind, canonicalize(doc))
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers (return an exit code)
# ---------------------------------------------------------------------------


def _cmd_dims(args) -> int:
    if args.n_max < 0:
        raise DomainError(f"--n: expected a degree >= 0, got {args.n_max}")
    rows = []
    if args.n_max == 0:
        validate_genus(args.genus)
    else:
        dims = graded_dims(args.genus, args.n_max, cap=args.cap)
        for n in range(1, args.n_max + 1):
            dim_u = 0 if n == 1 else cumulative_dim(dims, n)
            rows.append(
                {"n": n, "lucas": dims.lucas_value(n), "r": dims.r(n), "dim_u": dim_u}
            )
    _emit(args, "dims", {"g": args.genus, "rows": rows})
    return EXIT_OK


def _cmd_bounds(args) -> int:
    params = _curve_params(args, _single_rank(args.rank))
    table = halting_level(
        params, n_cap=args.n_cap, mode=ParityMode.parse(args.mode)
    )
    _emit(args, "bounds", table.to_json_dict())
    return EXIT_OK


def _single_rank(text: str) -> int:
    ranks = _parse_rank_spec(text)
    if len(ranks) != 1:
        raise DomainError("--rank: this command takes a single rank, not a sweep")
    return ranks[0]


def _cmd_halt(args) -> int:
    ranks = _parse_rank_spec(args.rank)
    modes = (
        [ParityMode.FAITHFUL, ParityMode.PAPER_VERBATIM]
        if args.mode == "both"
        else [ParityMode.parse(args.mode)]
    )
    results = []
    missed = False
    for rank in ranks:
        params = _curve_params(args, rank)
        for mode in modes:
            table = halting_level(params, n_cap=args.n_cap, mode=mode)
            if table.halting_level is None:
                missed = True
            results.append(
                {
                    "mw_rank": rank,
                    "mode": mode.value,
                    "halting_level": table.halting_level,
                    "levels_examined": len(table.rows),
                }
            )
    doc = {
        "g": args.genus,
        "p": args.p,
        "bad_prime_count": params.bad_prime_count,
        "n_cap": args.n_cap,
        "results": results,
    }
    _emit(args, "halt", doc)
    return EXIT_BOUND_EXHAUSTED if missed else EXIT_OK


def _cmd_separate(args) -> int:
    doc_in = load_json_file(args.input)
    charts, _p = charts_from_json(doc_in)
    report = separation_modulus(charts, depth_cap=args.depth_cap, jobs=args.jobs)
    _emit(args, "separate", separation_report_to_json(report))
    if report.status is not SeparationStatus.SEPARATED:
        return EXIT_SEPARATION_FAILURE
    return EXIT_OK


def _cmd_integrate(args) -> int:
    doc_in = load_json_file(args.input)
    forms, p, prec = forms_from_json(doc_in)
    system = FormSystem(tuple(forms))
    if "observable" not in doc_in:
        raise DomainError("$.observable: missing required field")
    obs = observable_from_json(doc_in["observable"], p, prec, "$.observable")
    trunc = args.trunc
    if trunc is None and "trunc" in doc_in:
        trunc = parse_int(doc_in["trunc"], "$.trunc")
    series = evaluate_observable(obs, system, trunc)
    bound_raw = doc_in.get("weierstrass_bound")
    if bound_raw is not None:
        bound = parse_int(bound_raw, "$.weierstrass_bound")
        try:
            series = series.with_weierstrass_bound(bound)
        except DomainError as exc:
            raise DomainError(f"$.weierstrass_bound: {exc}") from exc
    _emit(args, "integrate", {"series": series_to_json(series)})
    return EXIT_OK


def _cmd_order(args) -> int:
    if (args.count_fp is None) == (args.l_poly is None):
        raise DomainError("exactly one of --count-fp or --l-poly is required")
    if args.count_fp is not None:
        count_fp = args.count_fp
    else:
        count_fp = count_from_frobenius_poly(
            [parse_int(s, "--l-poly") for s in args.l_poly.split(",") if s.strip()]
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = JacobianLocalData(p=args.p, g=args.genus, count_fp=count_fp)
        n_value = jacobian_order_mod(data, args.modulus_exponent)
    doc: Dict[str, Any] = {
        "p": args.p,
        "g": args.genus,
        "count_fp": count_fp,
        "modulus_exponent": args.modulus_exponent,
        "annihilator": n_value,
        "warnings": [
            str(w.message)
            for w in caught
            if issubclass(w.category, WeilBoundWarning)
        ],
    }
    if args.enlarge is not None:
        s_primes = _parse_prime_list(args.enlarge, "--enlarge")
        doc["enlarged_primes"] = sorted(
            enlarged_prime_set(s_primes, n_value, budget=args.factor_budget)
        )
    _emit(args, "order", doc)
    return EXIT_OK


def _cmd_descent_sim(args) -> int:
    doc_in = load_json_file(args.input)
    lower_levels, upper_levels = descent_fixture_from_json(doc_in)
    outcome = run_descent(
        TableEnumerator(lower_levels),
        TableEnumerator(upper_levels),
        n_cap=args.n_cap,
        m_cap=args.m_cap,
    )
    doc = {
        "converged": outcome.converged,
        "points": sorted(outcome.points) if outcome.points is not None else None,
        "lower_level": outcome.lower_level,
        "upper_level": outcome.upper_level,
        "last_lower": sorted(outcome.last_lower),
        "last_upper": sorted(outcome.last_upper),
        "n_cap": outcome.n_cap,
        "m_cap": outcome.m_cap,
    }
    _emit(args, "descent-sim", doc)
    return EXIT_OK if outcome.converged else EXIT_BOUND_EXHAUSTED


def _cmd_report(args) -> int:
    config = load_json_file(args.config)
    curve = config.get("curve")
    if not isinstance(curve, dict):
        raise DomainError("$.curve: missing required object")
    genus = parse_int(require(curve, "genus", "$.curve"), "$.curve.genus")
    p = parse_int(require(curve, "p", "$.curve"), "$.curve.p")
    rank = parse_int(require(curve, "mw_rank", "$.curve"), "$.curve.mw_rank")
    bad_raw = require(curve, "bad_primes", "$.curve")
    if not isinstance(bad_raw, list):
        raise DomainError("$.curve.bad_primes: expected an array of primes")
    bad = frozenset(
        parse_int(q, f"$.curve.bad_primes[{i}]") for i, q in enumerate(bad_raw)
    )
    n_cap = parse_int(config.get("n_cap", 64), "$.n_cap")
    depth_cap = parse_int(config.get("depth_cap", 12), "$.depth_cap")
    mode = ParityMode.parse(config.get("mode", "faithful"))
    params = CurveParams(
        g=genus, bad_prime_count=len(bad), p=p, mw_rank=rank, bad_primes=bad
    )

    doc: Dict[str, Any] = {
        "curve": {
            "genus": genus,
            "p": p,
            "mw_rank": rank,
            "bad_primes": sorted(bad),
        },
        "mode": mode.value,
        "inputs": {"n_cap": n_cap, "depth_cap": depth_cap},
    }

    table = halting_level(params, n_cap=n_cap, mode=mode)
    doc["bound_table"] = table.to_json_dict()
    doc["halting_level"] = table.halting_level
    if table.halting_level is None:
        doc["status"] = "no-halting-level"
        doc["failed_stage"] = "halting"
        _emit(args, "report", doc)
        return EXIT_BOUND_EXHAUSTED

    if "charts" not in config:
        raise DomainError("$.charts: missing required field")
    charts, _p = charts_from_json(
        {"p": p, "prec": config.get("prec"), "charts": config["charts"]}
    )
    report = separation_modulus(charts, depth_cap=depth_cap, jobs=args.jobs)
    doc["separation"] = separation_report_to_json(report)
    if report.status is not SeparationStatus.SEPARATED:
        doc["status"] = "separation-failed"
        doc["failed_stage"] = "separation"
        _emit(args, "report", doc)
        return EXIT_SEPARATION_FAILURE

    jac = config.get("jacobian")
    if not isinstance(jac, dict):
        raise DomainError("$.jacobian: missing required object")
    count_fp = parse_int(require(jac, "count_fp", "$.jacobian"), "$.jacobian.count_fp")
    jac_g = parse_int(jac.get("g", genus), "$.jacobian.g")
    doc["inputs"]["jacobian"] = {"g": jac_g, "count_fp": count_fp}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = JacobianLocalData(p=p, g=jac_g, count_fp=count_fp)
        n_value = jacobian_order_mod(data, report.modulus)
    t0 = enlarged_prime_set(bad, n_value, budget=args.factor_budget)

    doc["modulus_exponent"] = report.modulus
    doc["annihilator"] = n_value
    doc["enlarged_primes"] = sorted(t0)
    doc["warnings"] = [
        str(w.message) for w in caught if issubclass(w.category, WeilBoundWarning)
    ]
    doc["status"] = "complete"
    _emit(args, "report", doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_output_flags(sub) -> None:
    sub.add_argument(
        "--output",
        choices=("json", "csv", "plain"),
        default="json",
        help="output style (default: canonical json)",
    )
    sub.add_argument("--out", metavar="FILE", help="write output to FILE")


def _add_curve_flags(sub, allow_both_modes: bool = False) -> None:
    sub.add_argument(
        "--genus", "--g", dest="genus", type=int, required=True,
        help="curve genus (>= 2)",
    )
    sub.add_argument("--p", type=int, required=True, help="good working prime")
    sub.add_argument(
        "--rank", required=True, help="Mordell-Weil rank, or a sweep like 0..5"
    )
    sub.add_argument(
        "--bad-primes",
        help="comma-separated primes of bad reduction (e.g. 11,13)",
    )
    sub.add_argument(
        "--bad-count", type=int, help="size of the bad set, if primes are not listed"
    )
    sub.add_argument(
        "--n-cap", type=int, default=64, help="largest level to examine (default 64)"
    )
    modes = ("faithful", "verbatim", "both") if allow_both_modes else (
        "faithful", "verbatim"
    )
    sub.add_argument(
        "--mode",
        choices=modes,
        default="faithful",
        help="parity convention for the minus-part halving (default faithful)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nadescent",
        description="Effective nonabelian descent toolkit: dimension tables, "
        "halting levels, p-adic zero separation, and the descent endgame.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("dims", help="graded Lie dimensions L_n, r_n, dim U_n")
    s.add_argument(
        "--genus", "--g", dest="genus", type=int, required=True,
        help="curve genus (>= 2)",
    )
    s.add_argument(
        "--n-max", "--n", dest="n_max", type=int, required=True,
        help="largest degree to list (0 for a header-only table)",
    )
    s.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_LEVEL_CAP,
        help="refuse degrees beyond this cap (default %(default)s)",
    )
    _add_output_flags(s)
    s.set_defaults(handler=_cmd_dims)

    s = subs.add_parser("bounds", help="upper/lower bound table for one curve")
    _add_curve_flags(s)
    _add_output_flags(s)
    s.set_defaults(handler=_cmd_bounds)

    s = subs.add_parser("halt", help="halting level, optionally swept over ranks")
    _add_curve_flags(s, allow_both_modes=True)
    _add_output_flags(s)
    s.set_defaults(handler=_cmd_halt)

    s = subs.add_parser("separate", help="isolate zeros across charts (JSON input)")
    s.add_argument("--input", required=True, metavar="FILE")
    s.add_argument("--depth-cap", type=int, default=12)
    s.add_argument("--jobs", type=int, default=1, help="worker threads")
    _add_output_flags(s)
    s.set_defaults(handler=_cmd_separate)

    s = subs.add_parser(
        "integrate", help="evaluate a word observable as a series (JSON input)"
    )
    s.add_argument("--input", required=True, metavar="FILE")
    s.add_argument("--trunc", type=int, help="override the truncation degree")
    _add_output_flags(s)
    s.set_defaults(handler=_cmd_integrate)

    s = subs.add_parser("order", help="local group order / annihilator N")
    s.add_argument("--p", type=int, required=True)
    s.add_argument(
        "--genus", "--g", dest="genus", type=int, required=True,
        help="dimension of the local Jacobian (>= 1)",
    )
    s.add_argument("--count-fp", type=int, help="group order over F_p")
    s.add_argument(
        "--l-poly",
        metavar="COEFFS",
        help="comma-separated Frobenius polynomial coefficients; the count "
        "is their sum (value at 1)",
    )
    s.add_argument(
        "--modulus-exponent", type=int, required=True, help="the level M of Z/p^M"
    )
    s.add_argument(
        "--enlarge",
        metavar="PRIMES",
        help="also emit T0 = {given primes} union {primes dividing N}",
    )
    s.add_argument("--factor-budget", type=int, default=DEFAULT_FACTOR_BUDGET)
    _add_output_flags(s)
    s.set_defaults(handler=_cmd_order)

    s = subs.add_parser(
        "descent-sim", help="two-sided search on a tabulated fixture (JSON input)"
    )
    s.add_argument("--input", required=True, metavar="FILE")
    s.add_argument("--n-cap", type=int, default=64)
    s.add_argument("--m-cap", type=int, default=64)
    _add_output_flags(s)
    s.set_defaults(handler=_cmd_descent_sim)

    s = subs.add_parser("report", help="full pipeline from a JSON config")
    s.add_argument("--config", required=True, metavar="FILE")
    s.add_argument("--jobs", type=int, default=1, help="worker threads")
    s.add_argument("--factor-budget", type=int, default=DEFAULT_FACTOR_BUDGET)
    _add_output_flags(s)
    s.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (FactorizationTimeoutError, DigitLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_EXHAUSTED
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEPARATION_FAILURE
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NadescentError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
