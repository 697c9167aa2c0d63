"""Command-line interface.

Subcommands::

    counts       exact counting sequence of one variety
    expand       singularity rho, singular and asymptotic coefficients
    estimate     one asymptotic approximation vs the exact count
    error-table  relative-error grid over sizes x orders (+ ratio series)
    verify-oeis  exact comparison against OEIS b-files (bundled fixtures
                 by default; --fetch opts into the network)

Each subcommand takes the variety and only the flags it reads:
``--digits`` (target precision D) and ``--terms`` (count reach N, at most:
the exponents of ``zeta`` go to degrees 2n and 4n, ``n <= N`` the counts
visible at D) on ``expand``, ``estimate`` and ``error-table``;
``--format {json,csv}`` on ``counts``, ``expand`` and ``estimate``;
``--fetch`` on ``verify-oeis``.  The three pipeline
commands run at ``N = max(--terms, 2K)``, with ``K`` the larger of ``2L+1``
for the highest order ``L`` and ``expand``'s ``--puiseux-terms``.  A count
reach above ``MAX_COUNT_REACH`` (2000), from ``--n``, ``--terms``, a size
or the ``N`` that ``--order`` or ``--puiseux-terms`` implies, is an invalid
configuration, and so are a ``--digits`` above ``MAX_DIGITS`` (1000) and
an unwritable ``--ratio-out``.

Output is deterministic for a fixed configuration: data lines carry no
timestamps and metadata goes into ``#``-prefixed header lines (CSV) or
fixed JSON keys.  Warnings, such as a truncation order too small for the
requested digits, go to stderr as one ``warning: ...`` line each.  Exit
codes: 0 success, 1 verification mismatch, 2 invalid configuration
(including a verification that compares nothing), 3 solver or
exact-arithmetic failure.

Sizes are node counts for polya and identity trees and leaf counts for
hierarchies.

Each subcommand imports the layers it runs when it runs.  Only ``expand``,
``estimate`` and ``error-table`` load the expansion pipeline
(``expansions``, ``solver``, ``series``, ``varieties``, ``kernels`` and
``hp``) and with it mpmath; ``counts`` runs on ``counts`` alone and
``verify-oeis`` adds ``oeis``.  ``expand_variety``, ``error_table`` and
``estimate_count`` still resolve on this module, on first access.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .counts import VARIETY_NAMES, counts_for
from .errors import SolverError, TruncationWarning

if TYPE_CHECKING:
    from .expansions import VarietyExpansion

DEFAULT_DIGITS = 60
DEFAULT_TERMS = 200
DEFAULT_SIZES = "10,20,50,100,200,500"
DEFAULT_ORDERS = "1,4,8"
MAX_COUNT_REACH = 2000
#: Cap on ``--digits``.  Count reach 1500 certifies all 1000 digits of
#: every polya value, and 2000 those of all three varieties; a far larger
#: target can take minutes or exhaust memory in its working precision,
#: which would end in a traceback.
MAX_DIGITS = 1000

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _add_precision_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                        help=f"target decimal digits D (default {DEFAULT_DIGITS})")
    parser.add_argument("--terms", type=int, default=DEFAULT_TERMS,
                        help=f"count reach N, at most; zeta's exponents read the counts "
                             f"visible at --digits, to N (default {DEFAULT_TERMS})")


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

    p_err = sub.add_parser("error-table", parents=[variety],
                           help="relative-error grid (CSV) and ratio series")
    _add_precision_flags(p_err)
    p_err.add_argument("--sizes", default=DEFAULT_SIZES,
                       help=f"comma-separated sizes (default {DEFAULT_SIZES})")
    p_err.add_argument("--orders", default=DEFAULT_ORDERS,
                       help=f"comma-separated orders (default {DEFAULT_ORDERS})")
    p_err.add_argument("--ratio-out", type=Path, default=None,
                       help="write the estimate/exact ratio series to this CSV file")

    p_ver = sub.add_parser("verify-oeis", parents=[variety],
                           help="exact comparison against an OEIS b-file")
    p_ver.add_argument("--n", type=int, default=500, help="largest index (default 500)")
    p_ver.add_argument("--fetch", action="store_true",
                       help="compare with the b-file from oeis.org, not the bundled one")
    return parser


def _check_precision(args: argparse.Namespace) -> None:
    from . import hp

    if args.digits < hp.MIN_DIGITS:
        raise ValueError(f"--digits must be >= {hp.MIN_DIGITS}, got {args.digits}")
    if args.digits > MAX_DIGITS:
        raise ValueError(f"--digits {args.digits} is beyond the limit {MAX_DIGITS}")
    if args.terms < 1:
        raise ValueError(f"--terms must be positive, got {args.terms}")
    _check_reach("--terms", args.terms)


def _check_reach(flag: str, reach: int) -> None:
    # one cap on every count reach read from input: far beyond it the counts
    # alone exhaust memory, which would end in a traceback
    if reach > MAX_COUNT_REACH:
        raise ValueError(f"{flag} reaches counts to n={reach}, "
                         f"beyond the limit {MAX_COUNT_REACH}")


def _print(line: str = "") -> None:
    _to_stdout(sys.stdout.write, line + "\n")


def _to_stdout(call, *args) -> None:
    try:
        call(*args)
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point fd 1 at the null device,
        # so the later writes and flushes succeed, and the command ends with
        # its own exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_counts(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    _check_reach("--n", args.n)
    seq = counts_for(args.variety, args.n)
    if args.fmt == "csv":
        _print(f"# counts variety={seq.variety} n_max={seq.n_max}")
        for n, value in enumerate(seq.values):
            _print(f"{n},{value}")
    else:
        import json

        payload = {
            "variety": seq.variety,
            "n_max": seq.n_max,
            "values": [str(v) for v in seq.values],
        }
        _print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    from . import hp

    _check_precision(args)
    if args.order < 0:
        raise ValueError(f"--order must be non-negative, got {args.order}")
    result = _expansion_for_orders(args, args.order, 0, args.puiseux_terms)
    rho_result, puiseux = result.rho_result, result.puiseux
    ctx = puiseux.ctx
    # (value, certified digits) of each coefficient, read once for every format
    table = {"t": list(zip(puiseux.t, puiseux.certified_digits)),
             "tau": list(zip(result.asym.tau, result.asym.certified_digits))}
    # data lines round-trip at the certified digits plus 2
    rho = hp.to_decimal(rho_result.rho, rho_result.certified_digits + 2, ctx)
    if args.fmt == "csv":
        _print(f"# expand variety={puiseux.variety} N={puiseux.n_series} D={puiseux.digits}")
        _print(f"rho,,{rho},{rho_result.certified_digits}")
        for name, rows in table.items():
            for i, (value, c) in enumerate(rows):
                _print(f"{name},{i},{hp.to_decimal(value, c + 2, ctx)},{c}")
    else:
        import json

        payload = {
            "variety": puiseux.variety,
            "n_series": puiseux.n_series,
            "digits": puiseux.digits,
            "rho": rho,
            "rho_certified_digits": rho_result.certified_digits,
            "solver_iterations": rho_result.iterations,
        }
        for name, rows in table.items():
            payload[name] = [hp.to_decimal(value, c + 2, ctx) for value, c in rows]
            payload[f"{name}_certified_digits"] = [c for _, c in rows]
        _print(json.dumps(payload, indent=2))
    # plain rows: 19 significant digits at most, and never more than the data lines
    for wanted, (name, rows) in zip((args.table1, args.table2), table.items()):
        if wanted:
            _print()
            for i, (value, c) in enumerate(rows):
                _print(f"{name}_{i} {hp.to_decimal(value, min(19, c + 2), ctx)}")
    return EXIT_OK


def _expansion_for_orders(args: argparse.Namespace, max_order: int, n_counts: int,
                          K: int | None = None) -> VarietyExpansion:
    from .expansions import expand_variety
    from .solver import MIN_SERIES_ORDER

    # raise N to 2K, K = 2L+1 unless --puiseux-terms is larger, so high orders
    # run at small --terms; a reach error names the flag that raised N
    flag, top = f"--order {max_order}", 2 * max_order + 1
    if K is not None and K > top:
        flag, top = f"--puiseux-terms {K}", K
    N = max(args.terms, 2 * top)
    _check_reach(flag, N)
    if N < MIN_SERIES_ORDER:
        if N == args.terms:
            flag = f"--terms {N}"
        raise ValueError(f"{flag} sets count reach N={N}, below the minimum "
                         f"{MIN_SERIES_ORDER}; pass --terms {MIN_SERIES_ORDER} or more")
    _check_reach(f"size {n_counts}", n_counts)
    # counts for the sizes compared; the expansion continues them to its reach
    counts = counts_for(args.variety, n_counts) if n_counts else None
    return expand_variety(args.variety, L=max_order, K=K, N=N, D=args.digits, counts=counts)


def cmd_estimate(args: argparse.Namespace) -> int:
    from .expansions import estimate_count

    _check_precision(args)
    if args.size < 1:
        raise ValueError(f"--size must be positive, got {args.size}")
    if args.order < 0:
        raise ValueError(f"--order must be non-negative, got {args.order}")
    result = _expansion_for_orders(args, args.order, args.size)
    estimate = estimate_count(result.asym, args.size, args.order)
    exact = result.counts[args.size]
    ctx = result.asym.ctx
    rel = abs(estimate - ctx.convert(exact)) / ctx.convert(exact)
    if args.fmt == "csv":
        _print("# estimate variety=%s size=%d order=%d" % (args.variety, args.size, args.order))
        _print("size,order,estimate,exact,relative_error")
        _print(f"{args.size},{args.order},{ctx.nstr(estimate, 20)},{exact},{ctx.nstr(rel, 6)}")
    else:
        import json

        _print(json.dumps({
            "variety": args.variety,
            "size": args.size,
            "order": args.order,
            "estimate": ctx.nstr(estimate, 20),
            "exact": str(exact),
            "relative_error": ctx.nstr(rel, 6),
        }, indent=2))
    return EXIT_OK


def cmd_error_table(args: argparse.Namespace) -> int:
    from .expansions import error_table

    _check_precision(args)
    try:
        sizes = [int(s) for s in str(args.sizes).split(",") if s.strip()]
        orders = [int(s) for s in str(args.orders).split(",") if s.strip()]
    except ValueError:
        raise ValueError("--sizes and --orders must be comma-separated integers")
    if not sizes or not orders:
        raise ValueError("--sizes and --orders must be non-empty")
    if min(sizes) < 1:
        raise ValueError(f"--sizes must be positive, got {min(sizes)}")
    if min(orders) < 0:
        raise ValueError(f"--orders must be non-negative, got {min(orders)}")
    result = _expansion_for_orders(args, max(orders), max(sizes))
    table = error_table(result.asym, result.counts, sizes, orders)
    ctx = result.asym.ctx
    if args.ratio_out is not None:
        # written before any output, so an unwritable path prints nothing
        lines = ["size,order,ratio"]
        for n, k, _, ratio in table.rows():
            lines.append(f"{n},{k},{ctx.nstr(ratio, 20)}")
        try:
            args.ratio_out.parent.mkdir(parents=True, exist_ok=True)
            args.ratio_out.write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --ratio-out {args.ratio_out}: {exc}") from exc
    _print(f"# error-table variety={args.variety} sizes={args.sizes} orders={args.orders}")
    _print("size,order,relative_error")
    for n, k, rel, _ in table.rows():
        _print(f"{n},{k},{ctx.nstr(rel, 6)}")
    if args.ratio_out is not None:
        _print(f"# ratio series written to {args.ratio_out}")
    return EXIT_OK


def cmd_verify_oeis(args: argparse.Namespace) -> int:
    from . import oeis

    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    _check_reach("--n", args.n)
    sequence_id = oeis.SEQUENCE_IDS[args.variety]
    fixture, source = oeis.get_sequence(sequence_id, fetch=args.fetch)
    # counts past the reference's last index would be computed and compared with nothing
    last = fixture.pairs[-1][0] if fixture.pairs else 0
    seq = counts_for(args.variety, max(0, min(args.n, last)))
    report = oeis.verify_counts(seq, fixture, source=source)
    note = f"; the reference ends at n={last}, before --n {args.n}" if args.n > last else ""
    if report.empty:
        raise ValueError(report.summary(note))
    _print(report.summary(note))
    for n, ours, ref in report.mismatches[:10]:
        _print(f"  n={n}: computed {ours} != reference {ref}")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def __getattr__(name: str):
    # perfbench/layers.py wraps these names on this module as well as in
    # expansions; the commands above look them up in expansions.  The first
    # access binds the name here, so restoring a wrapper restores that value.
    if name not in ("expand_variety", "error_table", "estimate_count"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import expansions

    value = globals()[name] = getattr(expansions, name)
    return value


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        try:
            code = _COMMANDS[args.command](args)
            # flushed here, not at exit, so a reader gone by now is handled too
            _to_stdout(sys.stdout.flush)
            return code
        except ValueError as exc:
            failure, code = f"error: {exc}", EXIT_CONFIG
        except SolverError as exc:
            failure, code = f"solver failure: {exc}", EXIT_SOLVER
        except ArithmeticError as exc:
            failure, code = f"exact-arithmetic failure: {exc}", EXIT_SOLVER
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
