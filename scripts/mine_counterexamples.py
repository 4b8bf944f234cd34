#!/usr/bin/env python3
"""Run the seeded counterexample searches for the product no-go claims.

Each target scans random factor pairs for a configuration that the
structural results rule out (an orthomodular separated product with two
non-Boolean factors, a minimal product admitting a compatible
orthocomplementation or satisfying the covering law with nontrivial
factors).  Each target gets one summary line; a hit is printed as the
search report's ``hit`` lines, which hold its replayable inputs, and
makes the script exit 1.  An error ends the run with one ``error`` line
on stderr, as in the ``orthlab`` command: exit 3 when a capacity or a
search budget runs out, 2 for an invalid setting or any other error.
"""

import argparse
import sys

from orthlab.cli import error_exit
from orthlab.search import SearchSpec, TARGETS, render_report, run_search


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200,
                    help="factor pairs per target (default 200)")
    ap.add_argument("--nmax", type=int, default=4,
                    help="largest factor state count (default 4)")
    ap.add_argument("--density", type=float, default=0.5,
                    help="orthogonality density (default 0.5)")
    ap.add_argument("--seed", type=int, default=1,
                    help="base seed (default 1)")
    ap.add_argument("--target", choices=sorted(TARGETS), action="append",
                    help="repeatable; default: every target")
    ap.add_argument("--full-report", action="store_true",
                    help="print the per-instance report, not just summaries")
    args = ap.parse_args()

    exit_code = 0
    for target in args.target or sorted(TARGETS):
        try:
            report = run_search(SearchSpec(target, args.count, nmax=args.nmax,
                                           density=args.density, seed=args.seed))
        except Exception as exc:
            return error_exit(exc)
        lines = render_report(report).splitlines(keepends=True)
        if args.full_report:  # the summary line below replaces the report's own
            sys.stdout.writelines(line for line in lines if not line.startswith("summary\t"))
        print(f"{target}\tcount\t{len(report.instances)}"
              f"\thits\t{len(report.hits)}\tinvalid\t{report.invalid}")
        if not args.full_report:
            sys.stdout.writelines(line for line in lines if line.startswith("hit\t"))
        if report.hits:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
