"""Per-shape CPU times of one benchmark workload, for two checkouts.

Usage, from anywhere:

    python3 tools/shape_times.py --parent DIR --change DIR --workload grid-u \
        --seed 7 [--rounds 10] [--interleave] [--out FILE]

Each round starts one worker process per checkout, one at a time, the
parent first in even rounds and the change first in odd ones. A worker
imports that checkout's package and its benchmark modules read-only
(``bench/run.py`` for the workload table and the package loader,
``bench/workloads.py`` for the operations), prepares the workload's
operations for the seed, warms up, runs every operation once and reports
each one's per-thread CPU time (``time.thread_time``). For each operation
the script keeps the fastest time over the rounds; per shape it prints the
sum of those minima for both checkouts and their ratio.

With --interleave there are no worker processes. The script imports both
checkouts' packages into its own process, under the names
``plane_supports_parent`` and ``plane_supports_change``, prepares the
workload once for each (the benchmark modules come from the change
checkout) and, in every round, runs operation i of both sides back to
back, the parent first when round + i is even. Identical code timed in
separate processes differs by up to about 12% per shape, from where each
process lands in memory and when the machine is busy; side by side, both
sides share those conditions.

Per-thread CPU time leaves out the time a process waits for a processor,
which on a shared machine moves wall-clock rates by tens of percent from
run to run. It shows which shape a change moved; the claim itself is for
``tools/ab_bench.py`` and the benchmark's own metrics.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace


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


def by_worker(checkouts: dict[str, Path], workload: str, seed: int,
              rounds: int) -> dict[str, list[list]]:
    """[shape, fastest CPU seconds] per operation and side, one worker
    process per side and round."""
    fastest: dict[str, list[list]] = {}
    for i in range(rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times = run_worker(checkouts[side], workload, seed)
            best = fastest.setdefault(side, times)
            if len(best) != len(times):
                raise SystemExit(f"{side}: operation count changed between rounds")
            for entry, (_, t) in zip(best, times):
                entry[1] = min(entry[1], t)
        print(f"round {i + 1}/{rounds} done", file=sys.stderr)
    return fastest


def load_as(checkout: Path, alias: str, modules) -> SimpleNamespace:
    """Import the checkout's ``src/plane_supports`` under the top-level
    name `alias`, and its submodules `modules` under it. The package's
    imports are relative, so its modules bind to this copy only."""
    pkg_dir = checkout / "src" / "plane_supports"
    spec = importlib.util.spec_from_file_location(
        alias, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return SimpleNamespace(**{m: importlib.import_module(f"{alias}.{m}") for m in modules})


def interleaved(checkouts: dict[str, Path], workload: str, seed: int,
                rounds: int) -> dict[str, list[list]]:
    """[shape, fastest CPU seconds] per operation and side, both sides run
    in this process, operation by operation (see --interleave)."""
    sys.path.insert(0, str(checkouts["change"] / "bench"))
    run = importlib.import_module("run")
    sides = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, checkout in checkouts.items():
            wl = run.WORKLOADS[workload]()
            workdir = Path(tmp) / side
            workdir.mkdir()
            ps = load_as(checkout, f"plane_supports_{side}", run.MODULES)
            ops = wl.prepare(ps, seed, workdir)
            wl.warm_up()
            sides[side] = (wl, ops)
        count = len(sides["parent"][1])
        if len(sides["change"][1]) != count:
            raise SystemExit("the two checkouts prepare different operation counts")
        fastest = {side: [[shape_of(op), math.inf] for op in ops]
                   for side, (_, ops) in sides.items()}
        for r in range(rounds):
            for i in range(count):
                for side in ("parent", "change") if (r + i) % 2 == 0 else ("change", "parent"):
                    wl, ops = sides[side]
                    t0 = time.thread_time()
                    wl.run(ops[i])
                    entry = fastest[side][i]
                    entry[1] = min(entry[1], time.thread_time() - t0)
            print(f"round {r + 1}/{rounds} done", file=sys.stderr)
    return fastest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--interleave", action="store_true",
                        help="run both checkouts in this process, operation by operation")
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
    if args.interleave:
        fastest = interleaved(checkouts, args.workload, args.seed, args.rounds)
    else:
        fastest = by_worker(checkouts, args.workload, args.seed, args.rounds)

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
            "interleave": args.interleave,
            "unit": "sum over the shape's operations of each one's fastest "
                    "per-thread CPU time, ms",
            "shapes": {s: {k: round(v, 3) if isinstance(v, float) else v
                           for k, v in row.items()} for s, row in shapes.items()}},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
