"""Per-shape CPU times of one benchmark workload, for two checkouts.

Usage, from anywhere:

    python3 tools/shape_times.py --parent DIR --change DIR --workload grid-u \
        --seed 7 [--rounds 10] [--out FILE]

Each round starts one worker process per checkout, one at a time, the
parent first in even rounds and the change first in odd ones. A worker
imports that checkout's package and its benchmark modules read-only
(``bench/run.py`` for the workload table and the package loader,
``bench/workloads.py`` for the operations), prepares the workload's
operations for the seed, warms up, runs every operation once and reports
each one's per-thread CPU time (``time.thread_time``). For each operation
the script keeps the fastest time over the rounds; per shape it prints the
sum of those minima for both checkouts and their ratio.

Per-thread CPU time leaves out the time a process waits for a processor,
which on a shared machine moves wall-clock rates by tens of percent from
run to run. It shows which shape a change moved; the claim itself is for
``tools/ab_bench.py`` and the benchmark's own metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def shape_of(op) -> str:
    """A label shared by the operations of one shape: algorithm, regime and
    size for a trial, the regime for an exact CLI case."""
    if hasattr(op, "algorithm"):
        return f"{op.algorithm} {op.constraints.label} n={op.n} k={op.k}"
    return f"exact-cli {op.constraints}"


def worker(checkout: Path, workload: str, seed: int) -> list[list]:
    """[shape, CPU seconds] for each operation of one pass, in order."""
    sys.path.insert(0, str(checkout / "bench"))
    run = importlib.import_module("run")
    wl = run.WORKLOADS[workload]()
    with tempfile.TemporaryDirectory() as tmp:
        ops = wl.prepare(run.load_package(), seed, Path(tmp))
        wl.warm_up()
        out = []
        for op in ops:
            t0 = time.thread_time()
            wl.run(op)
            out.append([shape_of(op), time.thread_time() - t0])
    return out


def run_worker(checkout: Path, workload: str, seed: int) -> list[list]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(args.worker.resolve(), args.workload, args.seed)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    if args.rounds < 1:
        parser.error("need at least one round")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    fastest: dict[str, list[list]] = {}
    for i in range(args.rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times = run_worker(checkouts[side], args.workload, args.seed)
            best = fastest.setdefault(side, times)
            if len(best) != len(times):
                raise SystemExit(f"{side}: operation count changed between rounds")
            for entry, (_, t) in zip(best, times):
                entry[1] = min(entry[1], t)
        print(f"round {i + 1}/{args.rounds} done", file=sys.stderr)

    shapes: dict[str, dict] = {}
    for shape, _ in fastest["parent"]:
        shapes.setdefault(shape, {"ops": 0, "parent": 0.0, "change": 0.0})["ops"] += 1
    for side, times in fastest.items():
        for shape, t in times:
            shapes[shape][side] += t * 1000
    print(f"{'shape':34s} {'ops':>4s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>6s}")
    for shape, row in shapes.items():
        row["ratio"] = row["change"] / row["parent"] if row["parent"] else None
        print(f"{shape:34s} {row['ops']:4d} {row['parent']:10.1f} {row['change']:10.1f} "
              f"{row['ratio']:6.3f}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": args.rounds,
            "unit": "sum over the shape's operations of each one's fastest "
                    "per-thread CPU time, ms",
            "shapes": {s: {k: round(v, 3) if isinstance(v, float) else v
                           for k, v in row.items()} for s, row in shapes.items()}},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
