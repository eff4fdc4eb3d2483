"""Time the principal term-sign table both ways around `_LAPLACE_PLAN_ORDER`.

`pattern.principal_term_signs` builds the table from one pass over the
static Laplace plan up to `pattern._LAPLACE_PLAN_ORDER` and from the
memoized `_term_signs` recursion above it.  This script moves the module
constant for the length of each timing, so both sides run the library's own
code, checks that they give the same tables, and prints one JSON line per
(order, density): microseconds per pattern for each side, the best of
`--repeats` passes over `--patterns` seeded random +/- patterns.  The plan
is built before it is timed (the library keeps it for the life of the
process); its build time and the process's peak RSS are printed apart.

    PYTHONPATH=src python tools/plan_cutover.py --orders 6 7 8 9
"""
from __future__ import annotations

import argparse
import json
import random
import resource
from time import perf_counter

from seprkit import pattern
from seprkit.pattern import SignPattern, principal_term_signs


def _patterns(n: int, density: float, count: int, seed: int) -> list[SignPattern]:
    rng = random.Random(f"{seed}/{n}/{density}")
    return [SignPattern.from_rows([[rng.choice((1, -1)) if rng.random() < density else 0
                                    for _ in range(n)] for _ in range(n)])
            for _ in range(count)]


def _best_us(patterns: list[SignPattern], cutover: int, repeats: int) -> tuple[float, list]:
    saved = pattern._LAPLACE_PLAN_ORDER
    pattern._LAPLACE_PLAN_ORDER = cutover
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            tables = [principal_term_signs(P) for P in patterns]
            best = min(best, perf_counter() - t0)
    finally:
        pattern._LAPLACE_PLAN_ORDER = saved
    return best / len(patterns) * 1e6, tables


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--orders", type=int, nargs="+", default=[6, 7, 8, 9])
    ap.add_argument("--densities", type=float, nargs="+", default=[1.0, 0.7, 0.4])
    ap.add_argument("--patterns", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for n in args.orders:
        saved = pattern._LAPLACE_PLAN_ORDER
        pattern._LAPLACE_PLAN_ORDER = n
        try:
            t0 = perf_counter()
            pattern._laplace_plan(n)
            build_s = perf_counter() - t0
        finally:
            pattern._LAPLACE_PLAN_ORDER = saved
        print(json.dumps({"order": n, "plan_build_s": round(build_s, 3)}))
        for density in args.densities:
            patterns = _patterns(n, density, args.patterns, args.seed)
            plan_us, plan_tables = _best_us(patterns, n, args.repeats)
            rec_us, rec_tables = _best_us(patterns, 0, args.repeats)
            if plan_tables != rec_tables:
                raise SystemExit(f"order {n}, density {density}: the two tables differ")
            print(json.dumps({"order": n, "density": density, "plan_us": round(plan_us, 1),
                              "recursion_us": round(rec_us, 1),
                              "faster": "plan" if plan_us < rec_us else "recursion"}))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": round(peak_mb, 1)}))


if __name__ == "__main__":
    main()
