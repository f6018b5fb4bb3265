"""Check solve_exact against HiGHS on instances past the brute-force oracle.

Usage, from anywhere:

    python3 tools/highs_sweep.py [--n 10 11 12] [--k 3] [--seeds 0 1 2 3] \
        [--regimes u t p pt] [--highs-limit 60] [--exact-cap 60] [--out FILE]

For every MID instance ``gen.generate(n, k, DegreeScheme.MID,
random.Random(seed))`` and regime, it solves the emitted LP
(``emit_lp(build_model(h, c))``) with HiGHS through ``scipy.optimize.milp``
(tests/highs.py), and the same instance with ``solve_exact`` under a time
cap. It prints both lengths, HiGHS's status, solve_exact's nodes and
``proven_optimal``, and the root bound: the sum over hyperedges of the MST
under shares length(e) / h(e), where h(e) counts the hyperedges holding e,
computed here apart from the solver.

A row disagrees when a side's proven optimum is longer than the other
side's length by more than 1e-6, when HiGHS's support breaks the regime, or
when the root bound lies above a proven optimum by more than 1e-6. The tool
exits 1 on any disagreement. --out writes the rows and totals as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from highs import highs_solve  # noqa: E402
from plane_supports.exact import SolveLimits, solve_exact  # noqa: E402
from plane_supports.gen import DegreeScheme, generate  # noqa: E402
from plane_supports.model import ConstraintSet, satisfies, total_length  # noqa: E402

TOL = 1e-6


def root_bound(h) -> float:
    """Sum over hyperedges of the MST of its members under shares."""
    total = 0.0
    for hyp in h.hyperedges:
        mem = sorted(hyp)
        dist = {v: math.inf for v in mem[1:]}
        last = mem[0]
        while dist:
            for v in dist:
                holders = sum(last in s and v in s for s in h.hyperedges)
                dist[v] = min(dist[v], h.edge_length(last, v) / holders)
            last = min(dist, key=dist.get)
            total += dist.pop(last)
    return total


def sweep_one(h, label: str, args) -> dict:
    c = ConstraintSet.from_label(label)
    t0 = time.perf_counter()
    res, g = highs_solve(h, c, args.highs_limit)
    highs_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    exact = solve_exact(h, c, SolveLimits(time_cap=args.exact_cap))
    exact_s = time.perf_counter() - t0
    row = {"highs_length": None if g is None else res.fun,
           "highs_proven": res.status == 0, "highs_s": round(highs_s, 3),
           "exact_length": exact.length, "nodes": exact.nodes_explored,
           "proven_optimal": exact.proven_optimal, "exact_s": round(exact_s, 3),
           "root_bound": root_bound(h)}
    problems = []
    if g is not None:
        if not satisfies(g, h, c) or abs(total_length(g, h) - res.fun) > TOL:
            problems.append("HiGHS support breaks the regime or its length")
        if row["highs_proven"] and exact.length < res.fun - TOL:
            problems.append("solve_exact beats HiGHS's optimum")
        if exact.proven_optimal and res.fun < exact.length - TOL:
            problems.append("HiGHS beats solve_exact's optimum")
    optima = [exact.length] if exact.proven_optimal else []
    if row["highs_proven"] and g is not None:
        optima.append(res.fun)
    if optima and row["root_bound"] > min(optima) + TOL:
        problems.append("root bound above the optimum")
    row["problems"] = problems
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[10, 11, 12])
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--regimes", nargs="+", default=["u", "t", "p", "pt"])
    parser.add_argument("--highs-limit", type=float, default=60.0,
                        help="HiGHS time limit per solve, seconds")
    parser.add_argument("--exact-cap", type=float, default=60.0,
                        help="solve_exact time cap per solve, seconds")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    rows = []
    print(f"{'instance':14s} {'HiGHS':>11s} {'exact':>11s} {'root':>11s} "
          f"{'nodes':>8s} {'proven H/e':>10s} {'seconds H/e':>14s}")
    for n in args.n:
        for seed in args.seeds:
            h = generate(n, args.k, DegreeScheme.MID, random.Random(seed))
            for label in args.regimes:
                row = {"n": n, "k": args.k, "seed": seed, "regime": label,
                       **sweep_one(h, label, args)}
                rows.append(row)
                highs = "-" if row["highs_length"] is None else f"{row['highs_length']:.4f}"
                proven = f"{row['highs_proven']:d}/{row['proven_optimal']:d}"
                times = f"{row['highs_s']:.2f}/{row['exact_s']:.2f}"
                print(f"{f'{n}/{args.k}/{seed} {label}':14s} {highs:>11s} "
                      f"{row['exact_length']:11.4f} {row['root_bound']:11.4f} "
                      f"{row['nodes']:8d} {proven:>10s} {times:>14s}  "
                      + "; ".join(row["problems"]), flush=True)
    bad = [r for r in rows if r["problems"]]
    totals = {"solves": len(rows), "disagreements": len(bad),
              "both_proven": sum(r["highs_proven"] and r["proven_optimal"] for r in rows),
              "nodes": sum(r["nodes"] for r in rows),
              "highs_s": round(sum(r["highs_s"] for r in rows), 2),
              "exact_s": round(sum(r["exact_s"] for r in rows), 2)}
    print(json.dumps(totals))
    if args.out:
        args.out.write_text(json.dumps({"totals": totals, "rows": rows}, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
