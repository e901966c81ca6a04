"""Command-line front end.

Exit codes: 0 all requested checks pass (or value computed), 1 at least
one verification failed, 2 usage errors.  All rationals print as "p/q";
report formats are json, csv, or pretty text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from . import __version__
from . import catalan as cat
from . import hurwitz as hur
from . import schur
from . import wkb
from .cache import MAX_BRANCH_POINTS, export_caches, import_caches, memo_sizes
from .errors import InvalidProfile, SizeMismatch
from .rationals import qstr
from .report import Report, RunConfig, run_checks, run_suite, SUITES, CheckRecord


def _mu_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad profile {text!r}") from exc


def _at_least(low: int) -> Callable[[str], int]:
    """An int option bounded below, so an out-of-range value is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _common_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    default = (lambda v: argparse.SUPPRESS if suppress else v)
    parser.add_argument("--format", choices=("json", "csv", "pretty"),
                        default=default("pretty"), help="report output format")
    parser.add_argument("--cache", type=str, default=default(""),
                        help="JSON cache file to load before and save after")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eo",
        description="Exact computations and verifications for two quantum-curve models")
    top.add_argument("--version", action="version", version=f"eo {__version__}")
    _common_options(top, suppress=False)
    # the same options are accepted after any subcommand
    common = argparse.ArgumentParser(add_help=False)
    _common_options(common, suppress=True)
    sub = top.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalan", help="generalized Catalan model", parents=[common])
    cat_sub = p_cat.add_subparsers(dest="subcommand", required=True)
    p = cat_sub.add_parser("count", help="arrowed cellular-graph count", parents=[common])
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=_mu_list, required=True)
    p = cat_sub.add_parser("free-energy", help="exact n-point free energy", parents=[common])
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = cat_sub.add_parser("s-coeff", help="WKB coefficient S_m in t", parents=[common])
    p.add_argument("--m", type=_at_least(2), required=True)
    p.add_argument("--path", choices=("assembled", "recursive", "both"),
                   default="both")
    p = cat_sub.add_parser("verify-schrodinger",
                           help="order-by-order quantum-curve residuals", parents=[common])
    p.add_argument("--max-order", type=_at_least(1), default=4)

    p_hur = sub.add_parser("hurwitz", help="single Hurwitz model", parents=[common])
    hur_sub = p_hur.add_subparsers(dest="subcommand", required=True)
    p = hur_sub.add_parser("number", help="exact Hurwitz number", parents=[common])
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=_mu_list, required=True)
    p = hur_sub.add_parser("free-energy", help="exact n-point free energy", parents=[common])
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = hur_sub.add_parser("s-coeff", help="WKB coefficient S_m (polynomial)", parents=[common])
    p.add_argument("--m", type=_at_least(2), required=True)
    p = hur_sub.add_parser("verify", help="verification sub-suites", parents=[common])
    p.add_argument("--suite",
                   choices=("recursion", "heat", "zhou", "commutator",
                            "lambert", "all"),
                   default="all")

    p_wkb = sub.add_parser("wkb", help="transport hierarchy on the curve symbol", parents=[common])
    wkb_sub = p_wkb.add_subparsers(dest="subcommand", required=True)
    p = wkb_sub.add_parser("corrections", help="quantization corrections A_k", parents=[common])
    p.add_argument("--model", choices=sorted(wkb.MODELS), required=True)
    p.add_argument("--order", type=_at_least(1), default=4)
    p = wkb_sub.add_parser("s-prime", help="solve the hierarchy for S_n'", parents=[common])
    p.add_argument("--model", choices=sorted(wkb.MODELS), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)

    p_schur = sub.add_parser("schur", help="symmetric-function identities", parents=[common])
    schur_sub = p_schur.add_subparsers(dest="subcommand", required=True)
    p = schur_sub.add_parser("verify", help="graded identity checks", parents=[common])
    p.add_argument("--max-weight", type=_at_least(0), default=6)
    p.add_argument("--s-order", type=_at_least(1), default=6)
    p = schur_sub.add_parser("character", help="irreducible character value", parents=[common])
    p.add_argument("--mu", type=_mu_list, required=True)
    p.add_argument("--lambda", dest="lam", type=_mu_list, required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite", parents=[common])
    p_verify.add_argument("--suite",
                          choices=("catalan", "hurwitz", "wkb", "schur", "all"),
                          default="all")

    return top


def _report_and_exit(report: Report) -> int:
    print(report.render(report.config.output_format))
    return 0 if report.overall == "pass" else 1


def _zero_report(title: str, rows: list, cfg: RunConfig) -> int:
    """Report rows (id, statement, value, residual text); a zero value passes."""
    records = [CheckRecord(check_id, statement, "pass" if value.is_zero() else "fail",
                           residual, 0.0) for check_id, statement, value, residual in rows]
    return _report_and_exit(Report(title, records, cfg))


def _emit(data) -> None:
    print(json.dumps(data, indent=2))


HURWITZ_SUBSUITES = {
    "recursion": ["hurwitz-recursion"],
    "heat": ["hurwitz-heat", "hurwitz-s-cross-paths"],
    "zhou": ["hurwitz-zhou"],
    "commutator": ["hurwitz-pq-commutator"],
    "lambert": ["hurwitz-lambert"],
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command,
                    subcommand=getattr(args, "subcommand", "") or "",
                    suite=getattr(args, "suite", "") or "",
                    params={k: v for k, v in sorted(vars(args).items())
                            if k not in {"command", "subcommand", "format", "cache"}
                            and not callable(v)},
                    output_format=args.format,
                    cache_path=args.cache)

    # the file is rewritten only after a run that passed, and only if it is
    # missing, lost an entry on import or would gain one: a failed run may
    # have computed its new entries from a forged one
    cache_file = Path(args.cache) if args.cache else None
    stale = True
    if cache_file and cache_file.exists():
        stale = import_caches(cache_file)["rejected"] > 0
    sizes = memo_sizes()

    try:
        code = _dispatch(args, cfg)
    except (InvalidProfile, SizeMismatch, RecursionError) as exc:
        # a bad or too large profile is a usage error, reported on one line
        reason = "too large for the recursion" if isinstance(exc, RecursionError) else exc
        profile = ", ".join(f"{k}={v}" for k, v in cfg.params.items())
        print(f"eo: error: {cfg.command} {cfg.subcommand} ({profile}): {reason}",
              file=sys.stderr)
        return 2

    if cache_file and code == 0 and (stale or memo_sizes() != sizes):
        export_caches(cache_file)
    return code


def _dispatch(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.command in wkb.MODELS and args.subcommand == "free-energy":
        fe = wkb.MODELS[args.command].free_energy(args.g, args.n)
        _emit({"g": args.g, "n": args.n, "terms": fe.to_json()})
        return 0

    if args.command == "catalan":
        if args.subcommand == "count":
            print(cat.catalan_count(args.g, args.n, args.mu))
            return 0
        if args.subcommand == "s-coeff":
            out = {}
            if args.path in ("assembled", "both"):
                out["assembled"] = cat.s_coefficient_assembled(args.m).to_json()
            if args.path in ("recursive", "both"):
                out["recursive"] = cat.s_coefficient_recursive(args.m).to_json()
            if args.path == "both":
                out["equal"] = (out["assembled"] == out["recursive"])
            _emit(out)
            return 0 if out.get("equal", True) else 1
        if args.subcommand == "verify-schrodinger":
            residuals = cat.schrodinger_residuals(args.max_order - 1)
            return _zero_report("catalan-schrodinger", [
                (f"order-{k}", "quantum-curve residual", r, "0" if r.is_zero() else "nonzero")
                for k, r in enumerate(residuals)], cfg)

    if args.command == "hurwitz":
        if args.subcommand == "number":
            r = 2 * args.g - 2 + args.n + sum(args.mu)
            if r > MAX_BRANCH_POINTS:
                raise InvalidProfile(f"r = {r} > {MAX_BRANCH_POINTS} branch points")
            print(qstr(hur.hurwitz_number(args.g, args.n, args.mu)))
            return 0
        if args.subcommand == "s-coeff":
            coeffs = hur.s_coefficient(args.m).coefficients()
            _emit({"m": args.m, "coeffs": [qstr(c) for c in coeffs]})
            return 0
        if args.subcommand == "verify":
            if args.suite == "all":
                return _report_and_exit(run_suite("hurwitz", cfg))
            wanted = HURWITZ_SUBSUITES[args.suite]
            checks = [c for c in SUITES["hurwitz"] if c[0] in wanted]
            return _report_and_exit(run_checks("hurwitz:" + args.suite, checks, cfg))

    if args.command == "wkb":
        if args.subcommand == "corrections":
            corr = wkb.recover_corrections(args.model, args.order)
            return _zero_report(f"wkb-corrections-{args.model}", [
                (f"A{k + 1}", "quantization correction", c, json.dumps(c.to_json()))
                for k, c in enumerate(corr)], cfg)
        if args.subcommand == "s-prime":
            f = wkb.s_prime_from_hierarchy(args.model, args.n)
            _emit({"model": args.model, "n": args.n, "s_prime": f.to_json()})
            return 0

    if args.command == "schur":
        if args.subcommand == "character":
            _emit({"dim": schur.dimension(args.mu),
                   "character": schur.character(args.mu, args.lam)})
            return 0
        if args.subcommand == "verify":
            w, r = args.max_weight, args.s_order
            return _zero_report("schur-verify", [
                ("tau-expansion", "character expansion of exp(H)",
                 schur.tau_expansion_residual(w, r), f"weight<={w}, order<={r}"),
                ("heat-flow", "cut-and-join generates the s-flow",
                 schur.heat_consistency_residual(w, r), f"weight<={w}, order<={r - 1}"),
                ("cauchy", "pairing identity",
                 schur.cauchy_residual(min(w, 5)), f"weight<={min(w, 5)}")], cfg)

    if args.command == "verify":
        return _report_and_exit(run_suite(args.suite, cfg))

    return 2


if __name__ == "__main__":
    sys.exit(main())
