"""CPU time of one star-seeded local-search climb per regime, for two checkouts.

Usage, from anywhere:

    python3 tools/climb_times.py --parent DIR --change DIR --n 400 --k 4 \
        --seed 1 [--scheme mid] [--rounds 3] [--out FILE]

Each round starts one worker process per checkout, one at a time, the
parent first in even rounds and the change first in odd ones. A worker
imports that checkout's package from its ``src`` directory, generates the
instance (``gen.generate(n, k, DegreeScheme(scheme), random.Random(seed))``)
and runs ``local_search_seeded`` from the star support once per regime (u,
t, p, pt), timing each call with ``time.process_time``. A regime whose star
violates it is reported as skipped. The script prints, per regime, both
sides' fastest CPU time over the rounds, their ratio, the committed rounds
and ``repr`` of the length. It exits 1 if the two sides' supports, rounds
or lengths differ in any regime, or a side's differ between rounds. --out
writes the same summary, plus every round's times, as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path


def worker(n: int, k: int, seed: int, scheme: str) -> dict:
    """{regime label: {cpu_s, rounds, length, support}} for one climb each."""
    import random
    import time

    from plane_supports.gen import DegreeScheme, generate
    from plane_supports.heuristics import local_search_seeded
    from plane_supports.model import ALL_CONSTRAINTS, satisfies
    from plane_supports.mst import star_support

    h = generate(n, k, DegreeScheme(scheme), random.Random(seed))
    star = star_support(h)
    out = {}
    for c in ALL_CONSTRAINTS:
        if not satisfies(star, h, c):
            out[c.label] = None
            continue
        t0 = time.process_time()
        rep = local_search_seeded(h, star, c)
        cpu = time.process_time() - t0
        edges = repr(rep.support.sorted_edges()).encode()
        out[c.label] = {"cpu_s": cpu, "rounds": rep.rounds_or_passes,
                        "length": repr(rep.length),
                        "support": hashlib.sha256(edges).hexdigest()}
    return out


def run_worker(checkout: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", "--n", str(args.n), "--k", str(args.k),
         "--seed", str(args.seed), "--scheme", args.scheme],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scheme", default="mid")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.n, args.k, args.seed, args.scheme)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_worker(checkouts[side], args))

    def outcome(run: dict, label: str):
        r = run[label]
        return None if r is None else (r["support"], r["rounds"], r["length"])

    same = True
    summary = {}
    for label in runs["parent"][0]:
        outcomes = {outcome(run, label) for side in runs.values() for run in side}
        same &= len(outcomes) == 1
        first = runs["change"][0][label]
        if first is None:
            summary[label] = None
            print(f"{label:2s}  skipped: the star violates the regime")
            continue
        best = {side: min(run[label]["cpu_s"] for run in side_runs)
                for side, side_runs in runs.items()}
        summary[label] = {"parent_cpu_s": round(best["parent"], 4),
                          "change_cpu_s": round(best["change"], 4),
                          "speedup": round(best["parent"] / best["change"], 2),
                          "rounds": first["rounds"], "length": first["length"],
                          "same_outcome": len(outcomes) == 1}
        print(f"{label:2s}  parent {best['parent']:.3f} s  change {best['change']:.3f} s  "
              f"x{best['parent'] / best['change']:.2f}  rounds {first['rounds']}  "
              f"length {first['length']}" + ("" if len(outcomes) == 1 else "  DIFFERENT"))
    if args.out:
        args.out.write_text(json.dumps({
            "n": args.n, "k": args.k, "seed": args.seed, "scheme": args.scheme,
            "rounds": args.rounds, "regimes": summary, "runs": runs}, indent=1) + "\n")
    if not same:
        print("error: supports, rounds or lengths differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
