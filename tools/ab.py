"""A/B timing of two checkouts of this repository, a parent and a change.

Usage, from anywhere:

    python3 tools/ab.py bench --parent DIR --change DIR --workload ls-plane \
        --seed 7 [--rounds 10] [--seconds 40] [--out FILE]
    python3 tools/ab.py climbs --parent DIR --change DIR --n 400 --k 4 --seed 1 \
        [--scheme mid] [--rounds 3] [--out FILE]
    python3 tools/ab.py shapes --parent DIR --change DIR --workload grid-u \
        --seed 7 [--rounds 10] [--out FILE]
    python3 tools/ab.py exact --parent DIR --change DIR [--solve-n 20 40 80] \
        [--model-n 40 60] [--k 4] [--seed 0] [--node-cap 200] [--rounds 3] [--out FILE]

Every command alternates the two sides: the parent goes first when the round
number (plus, in process, the case position) is even, the change otherwise.

bench runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout, one run at a time, once per side and round. Every run must
report the same output digest and no failed operation. For each end-to-end
metric of the change checkout's BENCHMARK.json it prints both sides' median
and quartiles (statistics.quantiles, inclusive), the gap between the
medians, the parent's interquartile range and how many rounds the change won.

climbs, shapes and exact import both checkouts' packages into this process,
as ``plane_supports_parent`` and ``plane_supports_change``, and in every
round run each case on both sides back to back. Side by side, both sides
share the machine's conditions; a call in a process of its own moves by
10-15% from run to run with where the process lands in memory. Each case
keeps each side's fastest per-thread CPU time (``time.thread_time``), which
leaves out waits for a processor. Its output must be the same on both sides
and in every round.

- climbs: ``local_search_seeded`` from the star support of
  ``gen.generate(n, k, DegreeScheme(scheme), random.Random(seed))``, once
  per regime; compared are the support, the rounds and ``repr`` of the length.
- shapes: the operations of one benchmark workload (``bench/run.py`` and
  ``bench/workloads.py`` of the change checkout, read-only), summed per
  shape; compared is the workload's ``fingerprint(capture(op, output))``.
- exact: ``solve_exact`` under p and pt with ``SolveLimits(node_cap)`` for
  each --solve-n, and ``emit_lp(build_model(...))`` under p for each
  --model-n, on MID instances; compared are the support, length, nodes and
  proven_optimal of a solve, and the LP text of a model.

Each command exits 1 when outputs differ. --out writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import pkgutil
import random
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

SIDES = ("parent", "change")


def order(i: int) -> tuple[str, str]:
    return SIDES if i % 2 == 0 else SIDES[::-1]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# bench: each side's own benchmark, one process per run.

def bench_run(checkout: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2].removeprefix("meta "))
    result = json.loads(lines[-1])
    return {"digest": meta["digest"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


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


def bench(args, checkouts: dict[str, Path]) -> int:
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.rounds):
        for side in order(i):
            runs[side].append(bench_run(checkouts[side], args))
        print(f"round {i + 1}/{args.rounds}: ops_per_s parent "
              f"{runs['parent'][-1]['metrics']['ops_per_s']:.1f}, change "
              f"{runs['change'][-1]['metrics']['ops_per_s']:.1f}", file=sys.stderr)
    digests = sorted({r["digest"] for side in runs.values() for r in side})
    failed = sum(r["failed"] for side in runs.values() for r in side)
    metrics = summarize(runs, directions)
    for name, m in metrics.items():
        print(f"{name:12s} parent {m['parent_q1_median_q3']}  change {m['change_q1_median_q3']}"
              f"  gap {m['median_gap']:+g}  parent IQR {m['parent_iqr']:g}"
              f"  change wins {m['change_wins']}/{args.rounds}")
    print(f"digests: {digests}; failed ops: {failed}")
    write_out(args, {"digests": digests, "failed": failed, "metrics": metrics, "runs": runs})
    if len(digests) != 1 or failed:
        print("error: outputs differ between runs, or operations failed", file=sys.stderr)
        return 1
    return 0


# climbs, shapes, exact: both packages in this process, case by case.

def load_as(checkout: Path, alias: str) -> SimpleNamespace:
    """Import the checkout's ``src/plane_supports`` under the top-level name
    `alias`, with every public submodule. The package's imports are
    relative, so its modules bind to this copy only."""
    pkg_dir = checkout / "src" / "plane_supports"
    spec = importlib.util.spec_from_file_location(
        alias, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    names = [m.name for m in pkgutil.iter_modules([str(pkg_dir)]) if not m.name.startswith("_")]
    return SimpleNamespace(**{m: importlib.import_module(f"{alias}.{m}") for m in names})


# A case generator yields (name, call, outcome) per case: call() is timed,
# and outcome(call()) is what must agree across sides and rounds.

def climbs(args, ps, workdir: Path):
    """Per regime: one star-seeded climb, or none when the star violates it."""
    h = ps.gen.generate(args.n, args.k, ps.gen.DegreeScheme(args.scheme), random.Random(args.seed))
    star = ps.mst.star_support(h)

    def outcome(rep):
        if rep is None:
            return "skipped: the star violates the regime"
        return rep.rounds_or_passes, repr(rep.length), digest(rep.support.sorted_edges())

    for c in ps.model.ALL_CONSTRAINTS:
        fits = ps.model.satisfies(star, h, c)
        yield (c.label, partial(ps.heuristics.local_search_seeded, h, star, c) if fits
               else lambda: None, outcome)


def exact(args, ps, workdir: Path):
    def make(n):
        return ps.gen.generate(n, args.k, ps.gen.DegreeScheme.MID, random.Random(args.seed))

    def solved(r):
        return digest(r.support.sorted_edges()), repr(r.length), r.nodes_explored, r.proven_optimal

    def lp(h):
        return ps.exact.emit_lp(ps.exact.build_model(h, ps.model.PLANE))

    limits = ps.exact.SolveLimits(node_cap=args.node_cap)
    for n in args.solve_n:
        h = make(n)
        for c in (ps.model.PLANE, ps.model.PLANE_TREE):
            yield f"solve {c.label} n={n}", partial(ps.exact.solve_exact, h, c, limits), solved
    for n in args.model_n:
        yield f"model p n={n}", partial(lp, make(n)), digest


def shapes(args, ps, workdir: Path):
    """The workload's operations, labelled by shape: algorithm, regime and
    size for a trial, the regime for an exact CLI case."""
    sys.path.insert(0, str(args.change.resolve() / "bench"))
    run = importlib.import_module("run")
    wl = run.WORKLOADS[args.workload]()
    ops = wl.prepare(ps, args.seed, workdir)
    wl.warm_up()

    def fingerprint(op, out):
        return wl.fingerprint(wl.capture(op, out))

    for op in ops:
        shape = (f"{op.algorithm} {op.constraints.label} n={op.n} k={op.k}"
                 if hasattr(op, "algorithm") else f"exact-cli {op.constraints}")
        yield shape, partial(wl.run, op), partial(fingerprint, op)


def race(cases: list[tuple[str, dict]], rounds: int) -> list[tuple[dict, dict]]:
    """Per case: each side's fastest CPU seconds, and {repr: output} over
    both sides and every round. A case maps each side to (call, outcome)."""
    best = [dict.fromkeys(SIDES, math.inf) for _ in cases]
    seen: list[dict] = [{} for _ in cases]
    for r in range(rounds):
        for j, (_, sides) in enumerate(cases):
            for side in order(r + j):
                call, outcome = sides[side]
                t0 = time.thread_time()
                result = call()
                best[j][side] = min(best[j][side], time.thread_time() - t0)
                out = outcome(result)
                seen[j].setdefault(repr(out), out)
        print(f"round {r + 1}/{rounds} done", file=sys.stderr)
    return list(zip(best, seen))


def in_process(args, checkouts: dict[str, Path]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        per_side = {}
        for side, checkout in checkouts.items():
            workdir = Path(tmp) / side
            workdir.mkdir()
            ps = load_as(checkout, f"plane_supports_{side}")
            per_side[side] = list(args.cases(args, ps, workdir))
        names = [name for name, _, _ in per_side["change"]]
        if names != [name for name, _, _ in per_side["parent"]]:
            print("error: the two checkouts prepare different cases", file=sys.stderr)
            return 1
        cases = [(name, {side: per_side[side][j][1:] for side in SIDES})
                 for j, name in enumerate(names)]
        results = race(cases, args.rounds)

    # A name shared by several cases (a shape) is one row of summed minima.
    rows: dict[str, dict] = {}
    differ = 0
    for (name, _), (best, seen) in zip(cases, results):
        row = rows.setdefault(name, {"cases": 0, "parent_ms": 0.0, "change_ms": 0.0,
                                     "same_output": True})
        row["cases"] += 1
        for side in SIDES:
            row[f"{side}_ms"] += best[side] * 1000
        row["same_output"] &= len(seen) == 1
        differ += len(seen) != 1
        row["output"] = next(iter(seen.values())) if row["cases"] == 1 else None
    print(f"{'case':34s} {'n':>4s} {'parent ms':>10s} {'change ms':>10s} {'speedup':>7s}")
    for name, row in rows.items():
        row["speedup"] = row["parent_ms"] / row["change_ms"] if row["change_ms"] else None
        shown = row["output"] if row["same_output"] else "DIFFERENT"
        print(f"{name:34s} {row['cases']:4d} {row['parent_ms']:10.2f} {row['change_ms']:10.2f}"
              f" {row['speedup'] or math.nan:7.3f}  {'' if shown is None else shown}")
    write_out(args, {"unit": "sum over the row's cases of each one's fastest per-thread "
                             "CPU time, ms", "rows": rows})
    if differ:
        print(f"error: outputs differ in {differ} of {len(cases)} cases", file=sys.stderr)
        return 1
    return 0


def write_out(args, summary: dict) -> None:
    if args.out:
        options = {k: v for k, v in vars(args).items()
                   if k not in ("parent", "change", "out", "cases", "main")}
        args.out.write_text(json.dumps({**options, **summary}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--parent", type=Path, required=True)
    common.add_argument("--change", type=Path, required=True)
    common.add_argument("--rounds", type=int)
    common.add_argument("--out", type=Path)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, helptext, run, rounds, cases=None):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.set_defaults(main=run, cases=cases, rounds=rounds)
        return p

    p = command("bench", "end-to-end benchmark runs, one process each", bench, 10)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=40)
    p = command("climbs", "one star-seeded climb per regime", in_process, 3, climbs)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scheme", default="mid")
    p = command("shapes", "a benchmark workload's operations, per shape", in_process, 10, shapes)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p = command("exact", "capped solve_exact, and a model's LP text", in_process, 3, exact)
    p.add_argument("--solve-n", type=int, nargs="*", default=[20, 40, 80])
    p.add_argument("--model-n", type=int, nargs="*", default=[40, 60])
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node-cap", type=int, default=200)
    args = parser.parse_args(argv)
    if args.rounds < (2 if args.cmd == "bench" else 1):
        parser.error("bench needs two rounds for quartiles, the others one")
    return args.main(args, {side: getattr(args, side).resolve() for side in SIDES})


if __name__ == "__main__":
    sys.exit(main())
