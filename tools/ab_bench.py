"""A/B runs of the benchmark: one workload, two checkouts, alternating order.

Usage, from anywhere:

    python3 tools/ab_bench.py --parent DIR --change DIR --workload ls-plane \
        --seed 7 --pairs 10 [--seconds 40] [--out FILE]

Pair i runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones, one run at a time. Every run must report the same
output digest and no failed operation. For each end-to-end metric of the
change checkout's BENCHMARK.json the script prints both sides' median and
quartiles (statistics.quantiles, inclusive), the gap between the medians,
the parent's interquartile range and how many pairs the change won. --out
writes the same summary, plus every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2].removeprefix("meta "))
    result = json.loads(lines[-1])
    return {"digest": meta["digest"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(runs: dict[str, list[dict]], directions: dict[str, str]) -> dict:
    out = {}
    for name, better in directions.items():
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        sign = 1 if better == "higher" else -1
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {
            "better": better,
            "parent_q1_median_q3": [round(v, 6) for v in pq],
            "change_q1_median_q3": [round(v, 6) for v in cq],
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "median_gap": round(cq[1] - pq[1], 6),
            "parent_iqr": round(pq[2] - pq[0], 6),
            "rel_change": round((cq[1] - pq[1]) / pq[1], 4) if pq[1] else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least two pairs for quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(checkouts[side], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs}: ops_per_s parent "
              f"{runs['parent'][-1]['metrics']['ops_per_s']:.1f}, change "
              f"{runs['change'][-1]['metrics']['ops_per_s']:.1f}", file=sys.stderr)

    digests = {r["digest"] for side in runs.values() for r in side}
    failed = sum(r["failed"] for side in runs.values() for r in side)
    metrics = summarize(runs, directions)
    for name, m in metrics.items():
        print(f"{name:12s} parent {m['parent_q1_median_q3']}  change {m['change_q1_median_q3']}"
              f"  gap {m['median_gap']:+g}  parent IQR {m['parent_iqr']:g}"
              f"  change wins {m['change_wins']}/{args.pairs}")
    print(f"digests: {sorted(digests)}; failed ops: {failed}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "digests": sorted(digests), "failed": failed,
            "metrics": metrics, "runs": runs}, indent=1) + "\n")
    if len(digests) != 1 or failed:
        print("error: outputs differ between runs, or operations failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
