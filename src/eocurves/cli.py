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
from .report import RunConfig, run_suite


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

    p_wkb = sub.add_parser("wkb", help="transport hierarchy on the curve symbol", parents=[common])
    wkb_sub = p_wkb.add_subparsers(dest="subcommand", required=True)
    p = wkb_sub.add_parser("s-prime", help="solve the hierarchy for S_n'", parents=[common])
    p.add_argument("--model", choices=sorted(wkb.MODELS), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)

    p_schur = sub.add_parser("schur", help="symmetric-function identities", parents=[common])
    schur_sub = p_schur.add_subparsers(dest="subcommand", required=True)
    p = schur_sub.add_parser("character", help="irreducible character value", parents=[common])
    p.add_argument("--mu", type=_mu_list, required=True)
    p.add_argument("--lambda", dest="lam", type=_mu_list, required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite", parents=[common])
    p_verify.add_argument("--suite",
                          choices=("catalan", "hurwitz", "wkb", "schur", "all"),
                          default="all")

    return top


def _emit(data) -> None:
    print(json.dumps(data, indent=2))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command,
                    subcommand=getattr(args, "subcommand", "") or "",
                    suite=getattr(args, "suite", "") or "",
                    params={k: v for k, v in sorted(vars(args).items())
                            if k not in {"command", "subcommand", "format", "cache"}},
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
            out = {"assembled": cat.s_coefficient_assembled(args.m).to_json(),
                   "recursive": cat.s_coefficient_recursive(args.m).to_json()}
            out["equal"] = out["assembled"] == out["recursive"]
            _emit(out)
            return 0 if out["equal"] else 1

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

    if args.command == "wkb":  # s-prime, its one subcommand
        f = wkb.s_prime_from_hierarchy(args.model, args.n)
        _emit({"model": args.model, "n": args.n, "s_prime": f.to_json()})
        return 0

    if args.command == "schur":  # character, its one subcommand
        _emit({"dim": schur.dimension(args.mu),
               "character": schur.character(args.mu, args.lam)})
        return 0

    if args.command == "verify":
        report = run_suite(args.suite, cfg)
        print(report.render(cfg.output_format))
        return 0 if report.overall == "pass" else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
