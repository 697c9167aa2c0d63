#!/usr/bin/env python3
"""Recompute the headline numbers for all three varieties in one run.

Prints, per variety: the dominant singularity to 50 digits; the singular
expansion coefficients t_0..t_18 and the asymptotic coefficients
tau_0..tau_18, each to its certified digits plus two (at most 19), as
`treeasym expand --table1/--table2` prints them; and (for hierarchies) the
relative-error grid of the order-1/4/8 approximations at sizes 10..500.  Writes the estimate/exact ratio series to
ratio_hierarchy.csv for plotting.

Usage: python scripts/reproduce_tables.py [--terms N] [--digits D]
"""

import argparse
import time
import warnings

from treeasym.counts import counts_for
from treeasym.expansions import error_table, expand_variety
from treeasym.hp import to_decimal
from treeasym.series import TruncationWarning

VARIETIES = ("polya", "identity", "hierarchy")
SIZES = (10, 20, 50, 100, 200, 500)
ORDERS = (1, 4, 8)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--terms", type=int, default=300, help="series order N (default 300)")
    parser.add_argument("--digits", type=int, default=80, help="target digits D (default 80)")
    args = parser.parse_args()
    warnings.simplefilter("ignore", TruncationWarning)

    results = {}
    for variety in VARIETIES:
        start = time.perf_counter()
        results[variety] = expand_variety(variety, L=18, N=args.terms, D=args.digits)
        print(f"{variety}: pipeline (N={args.terms}, D={args.digits}) "
              f"in {time.perf_counter() - start:.2f}s")
    print()

    print("=== dominant singularities (50 digits; certified digits in brackets) ===")
    for variety in VARIETIES:
        r = results[variety].rho_result
        print(f"{variety:10s} rho = {to_decimal(r.rho, 50, r.ctx)}  [{r.certified_digits}]")
    print()

    print("=== singular-expansion coefficients t_n (certified digits + 2, at most 19) ===")
    header = f"{'n':>3s} " + "".join(f"{v:>26s}" for v in VARIETIES)
    print(header)
    for n in range(19):
        row = f"{n:>3d} "
        for variety in VARIETIES:
            p = results[variety].puiseux
            row += f"{to_decimal(p.t[n], min(19, p.certified_digits[n] + 2), p.ctx):>26s}"
        print(row)
    print()

    print("=== asymptotic-expansion coefficients tau_l (certified digits + 2, at most 19) ===")
    print(header)
    for ell in range(19):
        row = f"{ell:>3d} "
        for variety in VARIETIES:
            a = results[variety].asym
            row += f"{to_decimal(a.tau[ell], min(19, a.certified_digits[ell] + 2), a.ctx):>26s}"
        print(row)
    print()

    print("=== hierarchy relative errors |estimate - exact| / exact ===")
    counts = counts_for("hierarchy", max(SIZES))
    table = error_table(results["hierarchy"].asym, counts, SIZES, ORDERS)
    ctx = results["hierarchy"].asym.ctx
    print(f"{'order':>6s} " + "".join(f"{n:>12d}" for n in SIZES))
    for k in ORDERS:
        cells = "".join(f"{ctx.nstr(table.relative_errors[(n, k)], 4):>12s}" for n in SIZES)
        print(f"{k:>6d} {cells}")
    print()

    with open("ratio_hierarchy.csv", "w") as handle:
        handle.write("size,order,ratio\n")
        for n, k, _, ratio in table.rows():
            handle.write(f"{n},{k},{ctx.nstr(ratio, 20)}\n")
    print("ratio series written to ratio_hierarchy.csv")


if __name__ == "__main__":
    main()
