"""CPU time of one star-seeded local-search climb per regime, for two checkouts.

Usage, from anywhere:

    python3 tools/climb_times.py --parent DIR --change DIR --n 400 --k 4 \
        --seed 1 [--scheme mid] [--rounds 3] [--interleave] [--out FILE]

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

With --interleave there are no worker processes. The script imports both
checkouts' packages into its own process, under the names
``plane_supports_parent`` and ``plane_supports_change`` (see
``tools/shape_times.py``), generates the instance once for each, and in
every round climbs each regime on both sides back to back, the parent first
when round + regime position is even. A climb in its own process moves by
10-15% from run to run with where the process lands in memory and how busy
the machine is; side by side, both sides share those conditions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from shape_times import load_as


MODULES = ("gen", "heuristics", "model", "mst")


def instance(ps, n: int, k: int, seed: int, scheme: str):
    """The instance and its star support, built by the package modules `ps`."""
    h = ps.gen.generate(n, k, ps.gen.DegreeScheme(scheme), random.Random(seed))
    return h, ps.mst.star_support(h)


def climb(ps, h, star, c) -> dict | None:
    """{cpu_s, rounds, length, support} of one star-seeded climb under c, or
    None when the star violates c."""
    if not ps.model.satisfies(star, h, c):
        return None
    t0 = time.process_time()
    rep = ps.heuristics.local_search_seeded(h, star, c)
    cpu = time.process_time() - t0
    edges = repr(rep.support.sorted_edges()).encode()
    return {"cpu_s": cpu, "rounds": rep.rounds_or_passes, "length": repr(rep.length),
            "support": hashlib.sha256(edges).hexdigest()}


def worker(n: int, k: int, seed: int, scheme: str) -> dict:
    """{regime label: climb(...)} for one climb each, in this process."""
    ps = SimpleNamespace(**{m: importlib.import_module(f"plane_supports.{m}") for m in MODULES})
    h, star = instance(ps, n, k, seed, scheme)
    return {c.label: climb(ps, h, star, c) for c in ps.model.ALL_CONSTRAINTS}


def run_worker(checkout: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", "--n", str(args.n), "--k", str(args.k),
         "--seed", str(args.seed), "--scheme", args.scheme],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def by_worker(checkouts: dict[str, Path], args) -> dict[str, list[dict]]:
    """Every round's climbs per side, one worker process per side and round."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_worker(checkouts[side], args))
    return runs


def interleaved(checkouts: dict[str, Path], args) -> dict[str, list[dict]]:
    """Every round's climbs per side, both sides in this process, regime by
    regime (see --interleave)."""
    sides = {side: load_as(checkout, f"plane_supports_{side}", MODULES)
             for side, checkout in checkouts.items()}
    cases = {side: instance(ps, args.n, args.k, args.seed, args.scheme)
             for side, ps in sides.items()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for r in range(args.rounds):
        for side in runs:
            runs[side].append({})
        for j, c in enumerate(sides["change"].model.ALL_CONSTRAINTS):
            for side in ("parent", "change") if (r + j) % 2 == 0 else ("change", "parent"):
                ps = sides[side]
                own = ps.model.ConstraintSet(c.require_plane, c.require_acyclic)
                runs[side][-1][c.label] = climb(ps, *cases[side], own)
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scheme", default="mid")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--interleave", action="store_true",
                        help="run both checkouts in this process, regime by regime")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.n, args.k, args.seed, args.scheme)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    if args.rounds < 1:
        parser.error("need at least one round")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = (interleaved if args.interleave else by_worker)(checkouts, args)

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
            "rounds": args.rounds, "interleave": args.interleave,
            "regimes": summary, "runs": runs}, indent=1) + "\n")
    if not same:
        print("error: supports, rounds or lengths differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
