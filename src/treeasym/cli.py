"""Command-line interface.

Subcommands::

    counts       exact counting sequence of one variety
    expand       singularity rho, singular and asymptotic coefficients
    estimate     one asymptotic approximation vs the exact count
    error-table  relative-error grid over sizes x orders (+ ratio series)
    verify-oeis  exact comparison against OEIS b-files (bundled fixtures
                 by default; --fetch opts into the network)

Each subcommand takes the variety and only the flags it reads:
``--digits`` (target precision D) and ``--terms`` (series truncation order
N) on ``expand``, ``estimate`` and ``error-table``; ``--format {json,csv}``
on ``counts``, ``expand`` and ``estimate``; ``--cache-dir`` and
``--offline`` on ``verify-oeis``.  Cache directory precedence: flag, then
``TREEASYM_CACHE_DIR``, then ``~/.cache/treeasym``.

Output is deterministic for a fixed configuration: data lines carry no
timestamps and metadata goes into ``#``-prefixed header lines (CSV) or
fixed JSON keys.  Exit codes: 0 success, 1 verification mismatch, 2 invalid
configuration, 3 solver failure.

Sizes are node counts for polya and identity trees and leaf counts for
hierarchies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import hp, oeis
from .counts import VARIETY_NAMES, counts_for
from .expansions import VarietyExpansion, error_table, estimate_count, expand_variety
from .solver import SolverError

DEFAULT_DIGITS = 60
DEFAULT_TERMS = 200
DEFAULT_SIZES = "10,20,50,100,200,500"
DEFAULT_ORDERS = "1,4,8"
MAX_COUNT_REACH = 2000

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    """Invalid run configuration."""


def _add_precision_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                        help=f"target decimal digits D (default {DEFAULT_DIGITS})")
    parser.add_argument("--terms", type=int, default=DEFAULT_TERMS,
                        help=f"series truncation order N (default {DEFAULT_TERMS})")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                        help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeasym",
        description="Exact counts, dominant singularities and full expansions "
                    "for three tree varieties (sizes: nodes for polya/identity, "
                    "leaves for hierarchy).",
    )
    variety = argparse.ArgumentParser(add_help=False)
    variety.add_argument("variety", choices=VARIETY_NAMES, help="tree variety")
    sub = parser.add_subparsers(dest="command", required=True)

    p_counts = sub.add_parser("counts", parents=[variety],
                              help="exact counting sequence")
    _add_format_flag(p_counts)
    p_counts.add_argument("--n", type=int, default=50, help="largest index (default 50)")

    p_expand = sub.add_parser("expand", parents=[variety],
                              help="singularity and expansion coefficients")
    _add_precision_flags(p_expand)
    _add_format_flag(p_expand)
    p_expand.add_argument("--order", type=int, default=4,
                          help="asymptotic order L; singular coefficients go up to "
                               "2L+1 unless --puiseux-terms is larger (default 4)")
    p_expand.add_argument("--puiseux-terms", type=int, default=None,
                          help="override the number K of singular coefficients")
    p_expand.add_argument("--table1", action="store_true",
                          help="also print singular coefficients as plain rows")
    p_expand.add_argument("--table2", action="store_true",
                          help="also print asymptotic coefficients as plain rows")

    p_est = sub.add_parser("estimate", parents=[variety],
                           help="asymptotic approximation vs exact count")
    _add_precision_flags(p_est)
    _add_format_flag(p_est)
    p_est.add_argument("--size", type=int, required=True, help="object size n")
    p_est.add_argument("--order", type=int, default=4, help="approximation order k")
    p_est.add_argument("--max-size", type=int, default=MAX_COUNT_REACH,
                       help=f"largest size allowed (default {MAX_COUNT_REACH})")

    p_err = sub.add_parser("error-table", parents=[variety],
                           help="relative-error grid (CSV) and ratio series")
    _add_precision_flags(p_err)
    p_err.add_argument("--sizes", default=DEFAULT_SIZES,
                       help=f"comma-separated sizes (default {DEFAULT_SIZES})")
    p_err.add_argument("--orders", default=DEFAULT_ORDERS,
                       help=f"comma-separated orders (default {DEFAULT_ORDERS})")
    p_err.add_argument("--ratio-out", type=Path, default=None,
                       help="write the estimate/exact ratio series to this CSV file")
    p_err.add_argument("--max-size", type=int, default=MAX_COUNT_REACH,
                       help=f"largest size allowed (default {MAX_COUNT_REACH})")

    p_ver = sub.add_parser("verify-oeis", parents=[variety],
                           help="exact comparison against an OEIS b-file")
    p_ver.add_argument("--n", type=int, default=500, help="largest index (default 500)")
    p_ver.add_argument("--cache-dir", type=Path, default=None,
                       help="b-file cache directory (default $TREEASYM_CACHE_DIR "
                            "or ~/.cache/treeasym)")
    p_ver.add_argument("--offline", action="store_true",
                       help="never touch the network")
    p_ver.add_argument("--fetch", action="store_true",
                       help="fetch the b-file from oeis.org (cached afterwards)")
    p_ver.add_argument("--offset", type=int, default=None,
                       help="b-file index offset override (default per-sequence)")
    return parser


def _check_precision(args: argparse.Namespace) -> None:
    if args.digits < hp.MIN_DIGITS:
        raise ConfigError(f"--digits must be >= {hp.MIN_DIGITS}, got {args.digits}")
    if args.terms < 1:
        raise ConfigError(f"--terms must be positive, got {args.terms}")


def _print(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def cmd_counts(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ConfigError(f"--n must be non-negative, got {args.n}")
    seq = counts_for(args.variety, args.n)
    if args.fmt == "csv":
        _print(f"# counts variety={seq.variety} n_max={seq.n_max}")
        for n, value in enumerate(seq.values):
            _print(f"{n},{value}")
    else:
        payload = {
            "variety": seq.variety,
            "n_max": seq.n_max,
            "values": [str(v) for v in seq.values],
        }
        _print(json.dumps(payload, indent=2))
    return EXIT_OK


def _decimal(value, certified: int, ctx) -> str:
    # round-trip decimal at certified digits plus 2
    return hp.to_decimal(value, certified + 2, ctx)


def _expansion_payload(result: VarietyExpansion) -> dict:
    rho_result, puiseux, asym = result.rho_result, result.puiseux, result.asym
    ctx = puiseux.ctx
    return {
        "variety": puiseux.variety,
        "n_series": puiseux.n_series,
        "digits": puiseux.digits,
        "rho": _decimal(rho_result.rho, rho_result.certified_digits, ctx),
        "rho_certified_digits": rho_result.certified_digits,
        "solver_iterations": rho_result.iterations,
        "t": [_decimal(v, c, ctx) for v, c in zip(puiseux.t, puiseux.certified_digits)],
        "t_certified_digits": list(puiseux.certified_digits),
        "tau": [_decimal(v, c, ctx) for v, c in zip(asym.tau, asym.certified_digits)],
        "tau_certified_digits": list(asym.certified_digits),
    }


def cmd_expand(args: argparse.Namespace) -> int:
    _check_precision(args)
    if args.order < 0:
        raise ConfigError(f"--order must be non-negative, got {args.order}")
    result = expand_variety(args.variety, L=args.order, K=args.puiseux_terms,
                            N=args.terms, D=args.digits)
    payload = _expansion_payload(result)
    if args.fmt == "csv":
        _print(f"# expand variety={payload['variety']} N={payload['n_series']} "
               f"D={payload['digits']}")
        _print(f"rho,,{payload['rho']},{payload['rho_certified_digits']}")
        for i, (v, c) in enumerate(zip(payload["t"], payload["t_certified_digits"])):
            _print(f"t,{i},{v},{c}")
        for i, (v, c) in enumerate(zip(payload["tau"], payload["tau_certified_digits"])):
            _print(f"tau,{i},{v},{c}")
    else:
        _print(json.dumps(payload, indent=2))
    ctx = result.puiseux.ctx
    if args.table1:
        _print()
        for i, value in enumerate(result.puiseux.t):
            _print(f"t_{i} {hp.to_decimal(value, 19, ctx)}")
    if args.table2:
        _print()
        for i, value in enumerate(result.asym.tau):
            _print(f"tau_{i} {hp.to_decimal(value, 19, ctx)}")
    return EXIT_OK


def _expansion_for_orders(args: argparse.Namespace, max_order: int,
                          n_counts: int) -> VarietyExpansion:
    # raise N to 2K for the default K = 2L+1, so high orders run at small --terms
    N = max(args.terms, 2 * (2 * max_order + 1))
    counts = counts_for(args.variety, max(N, n_counts))
    return expand_variety(args.variety, L=max_order, N=N, D=args.digits, counts=counts)


def cmd_estimate(args: argparse.Namespace) -> int:
    _check_precision(args)
    if args.size < 1:
        raise ConfigError(f"--size must be positive, got {args.size}")
    if args.size > args.max_size:
        raise ConfigError(f"--size {args.size} beyond --max-size {args.max_size}")
    if args.order < 0:
        raise ConfigError(f"--order must be non-negative, got {args.order}")
    result = _expansion_for_orders(args, args.order, args.size)
    estimate = estimate_count(result.asym, args.size, args.order)
    exact = result.counts[args.size]
    ctx = result.asym.ctx
    rel = abs(estimate - ctx.convert(exact)) / ctx.convert(exact) if exact else None
    if args.fmt == "csv":
        _print("# estimate variety=%s size=%d order=%d" % (args.variety, args.size, args.order))
        _print("size,order,estimate,exact,relative_error")
        _print(f"{args.size},{args.order},{ctx.nstr(estimate, 20)},{exact},"
               f"{ctx.nstr(rel, 6) if rel is not None else ''}")
    else:
        _print(json.dumps({
            "variety": args.variety,
            "size": args.size,
            "order": args.order,
            "estimate": ctx.nstr(estimate, 20),
            "exact": str(exact),
            "relative_error": ctx.nstr(rel, 6) if rel is not None else None,
        }, indent=2))
    return EXIT_OK


def cmd_error_table(args: argparse.Namespace) -> int:
    _check_precision(args)
    try:
        sizes = [int(s) for s in str(args.sizes).split(",") if s.strip()]
        orders = [int(s) for s in str(args.orders).split(",") if s.strip()]
    except ValueError:
        raise ConfigError("--sizes and --orders must be comma-separated integers")
    if not sizes or not orders:
        raise ConfigError("--sizes and --orders must be non-empty")
    if max(sizes) > args.max_size:
        raise ConfigError(f"size {max(sizes)} beyond --max-size {args.max_size}")
    result = _expansion_for_orders(args, max(orders), max(sizes))
    table = error_table(result.asym, result.counts, sizes, orders)
    ctx = result.asym.ctx
    _print(f"# error-table variety={args.variety} sizes={args.sizes} orders={args.orders}")
    _print("size,order,relative_error")
    for n, k, rel, _ in table.rows():
        _print(f"{n},{k},{ctx.nstr(rel, 6)}")
    if args.ratio_out is not None:
        lines = ["size,order,ratio"]
        for n, k, _, ratio in table.rows():
            lines.append(f"{n},{k},{ctx.nstr(ratio, 20)}")
        args.ratio_out.parent.mkdir(parents=True, exist_ok=True)
        args.ratio_out.write_text("\n".join(lines) + "\n")
        _print(f"# ratio series written to {args.ratio_out}")
    return EXIT_OK


def cmd_verify_oeis(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ConfigError(f"--n must be non-negative, got {args.n}")
    sequence_id = oeis.SEQUENCE_IDS[args.variety]
    fixture, source = oeis.get_sequence(
        sequence_id,
        cache_dir=args.cache_dir,
        offline=args.offline,
        fetch=args.fetch,
    )
    seq = counts_for(args.variety, args.n)
    report = oeis.verify_counts(seq, fixture, index_offset=args.offset, source=source)
    _print(report.summary())
    for n, ours, ref in report.mismatches[:10]:
        _print(f"  n={n}: computed {ours} != reference {ref}")
    return EXIT_OK if report.ok else EXIT_MISMATCH


_COMMANDS = {
    "counts": cmd_counts,
    "expand": cmd_expand,
    "estimate": cmd_estimate,
    "error-table": cmd_error_table,
    "verify-oeis": cmd_verify_oeis,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
