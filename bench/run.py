"""Benchmark for the plane_supports package.

Usage, from the repository root:

    python3 bench/run.py --workload ls-plane --seed 1 --seconds 40 --trace 0

One process drives the package from ``src/`` through its public surface
(``harness.run_trial`` and in-process ``cli.main``), one operation at a
time. ``--trace 0`` reports the end-to-end metrics of an untraced timed
phase. ``--trace 1`` alternates untraced and traced passes over the same
operations and reports per-layer metrics from the spans. Both modes
check every output. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it (``meta ...``) holds the run metadata and the output digest.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

from tracer import PACKAGE, Tracer, package_modules  # noqa: E402
from workloads import Checked, ExactCliWorkload, Shape, TrialWorkload  # noqa: E402

MODULES = ("geom", "model", "mst", "heuristics", "exact", "gen", "harness", "fileio", "cli")

# The timed phase cycles over the operations for --seconds, and at least this
# many passes; each operation's latency is the fastest of its passes, and
# setup_s is the fastest of one set-up before the phase and one more in each
# pass. On a shared machine speed drops by up to 40% for stretches of
# seconds to minutes, and single calls are slowed by up to 2x in between.
# The fastest of many calls spread over the whole window tracks the program
# rather than its neighbours; stretches that outlast a whole run still show
# as run-to-run spread.
TIMED_PASSES = 3

# A traced run alternates this many untraced and traced passes. Overhead
# compares each operation's fastest traced and untraced time; per-layer
# metrics are totals over the traced passes.
TRACE_PASSES = 3

# Sizes are set by steadiness. A pass holds 100 operations, so that 10 lie
# beyond p90, and takes 1-2.5 s on a 2-core x86 container at the commit
# that defined the benchmark, so a 40 s window times each operation
# 15-50 times; the fastest of fewer calls moved by 10-25% from run to run.
# Instance sizes are therefore smaller than the paper's experiments. The
# exact workload uses the LOW scheme only, since MID instances have a much
# heavier cost tail, and n=8, the smallest size at which the solver rather
# than the CLI around it takes most of the time.
WORKLOADS = {
    # The paper's headline plane regimes: local search's conflict scan and
    # the segment predicate dominate.
    "ls-plane": lambda: TrialWorkload("ls-plane", (
        Shape("local-search", "p", 14, 4),
        Shape("local-search", "pt", 14, 4),
    ), trials=50),
    # Unrestricted regimes: Prim and the cached swap search, with no segment
    # predicate at all, so geometry or plane changes should not move it. The
    # sizes give the four shapes similar costs: a median falling between
    # clusters of differently priced operations would jump from run to run.
    "grid-u": lambda: TrialWorkload("grid-u", (
        Shape("mst-approx", "u", 100, 8),
        Shape("mst-iter", "u", 50, 8),
        Shape("local-search", "u", 24, 4),
        Shape("local-search", "t", 22, 4),
    ), trials=25),
    # Exact branch and bound through the CLI, with file I/O and LP emission.
    "exact-cli": lambda: ExactCliWorkload("exact-cli", 8, instances=25),
}

# Metric names and units, in report order, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class PackageMissing(Exception):
    pass


def load_package() -> SimpleNamespace:
    """Import plane_supports from this checkout's src/ afresh.

    Earlier imports are dropped first so every set-up pays the import.
    An installed copy elsewhere is refused: the benchmark measures the
    source tree it ships with.
    """
    for name in list(package_modules()):
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module(PACKAGE)
    except ImportError as exc:
        raise PackageMissing(f"cannot import {PACKAGE} from {SRC}: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise PackageMissing(f"{PACKAGE} resolved to {pkg.__file__}, outside {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: context for machine noise, never
    used to scale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def set_up(workload, seed: int, workdir: Path):
    """Import the package afresh, prepare the operations and warm up.
    Returns the operations and the seconds taken."""
    t0 = time.perf_counter()
    ops = workload.prepare(load_package(), seed, workdir)
    workload.warm_up()
    return ops, time.perf_counter() - t0


def set_up_again(workload, seed: int, workdir: Path) -> float:
    """Time one more set-up, on a copy of `workload`, then put back the
    package modules the timed operations were prepared with."""
    saved = package_modules()
    try:
        return set_up(copy.copy(workload), seed, workdir)[1]
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


class Outcomes:
    """The verdict on every execution, in memory that does not grow with the
    number of passes.

    The first output of each operation is kept for the full check after the
    timed phase. A later output is compared with the first as it arrives and
    then dropped: kept, the outputs of a faster program's extra passes would
    count in peak_rss_mb."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, tuple] = {}  # op index -> (output, fingerprint)
        self.repeats: Counter = Counter()  # op index -> later outputs equal to the first
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, idx: int, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            self.failed += 1
            self.problems.append(f"op {idx}: raised {out!r}")
        elif idx not in self.first:
            self.first[idx] = (out, self.workload.fingerprint(out))
        elif self.workload.fingerprint(out) != self.first[idx][1]:
            self.failed += 1
            self.problems.append(f"op {idx}: output differs from its first run")
        else:
            self.repeats[idx] += 1


def run_ops(workload, ops, seconds: float, passes: int, outcomes: Outcomes, times,
            between=None) -> float:
    """Run operations in list order, cycling, until `passes` full passes are
    done and `seconds` have elapsed, recording each output in `outcomes` and
    appending its seconds to its list in `times`. `between`, if given, is
    called once per pass, one operation later in each pass than in the one
    before, so it does not always precede the same operation. Returns the
    phase wall time."""
    clock = time.perf_counter
    n = len(ops)
    start = clock()
    i = 0
    while i < passes * n or clock() - start < seconds:
        pass_no, idx = divmod(i, n)
        if between is not None and idx == pass_no % n:
            between()
        op = ops[idx]
        t0 = clock()
        try:
            raw = workload.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            times[idx].append(clock() - t0)
            outcomes.record(idx, exc)
        else:
            times[idx].append(clock() - t0)
            outcomes.record(idx, workload.capture(op, raw))
        i += 1
    return clock() - start


def verify(workload, ops, outcomes: Outcomes):
    """Check the first output of every operation; the later outputs equal to
    it share its verdict. Adds the failures to `outcomes` and returns the
    SHA-256 digest of the canonical outputs in operation order and the total
    support length."""
    digest = hashlib.sha256()
    length_sum = 0.0
    for idx in range(len(ops)):
        if idx not in outcomes.first:
            digest.update(b"<failed>\n")
            continue
        try:
            checked = workload.check(ops[idx], outcomes.first[idx][0])
        except Exception as exc:  # malformed output fails the op, not the run
            checked = Checked(b"<unchecked>\n", 0.0, [f"check raised {exc!r}"])
        if checked.problems:
            outcomes.failed += 1 + outcomes.repeats[idx]
            outcomes.problems += [f"op {idx}: {p}" for p in checked.problems]
        digest.update(checked.canonical)
        length_sum += checked.length
    return digest.hexdigest(), length_sum


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def per_layer_metrics(summary: dict, overhead_frac: float, traced_op_s: float,
                      traced_wall: float, unpatched_refs: int) -> dict:
    calls, self_s, probe = summary["calls"], summary["self_s"], summary["probe"]
    values = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[fn]
        elif stat == "self_s":
            values[name] = self_s[fn]
    conflict_calls = calls["geom.segments_conflict"]
    values["geom.segments_conflict.us_per_call"] = (
        self_s["geom.segments_conflict"] / conflict_calls * 1e6 if conflict_calls else 0.0)
    rounds = probe["heuristics.local_search"]
    values["heuristics.local_search.rounds"] = rounds
    values["heuristics.local_search.ms_per_round"] = (
        self_s["heuristics.local_search"] / rounds * 1e3 if rounds else 0.0)
    values["heuristics.mst_iteration.passes"] = probe["heuristics.mst_iteration"]
    nodes = probe["exact.solve_exact"]
    values["exact.solve_exact.nodes"] = nodes
    exact_self = self_s["exact.solve_exact"]
    values["exact.solve_exact.nodes_per_s"] = nodes / exact_self if exact_self else 0.0
    values["exact.solve_exact.incumbent_s"] = sum(
        (t for (parent, child), t in summary["edge_s"].items()
        if parent == "exact.solve_exact" and child.startswith("heuristics.")), 0.0)
    values["exact.emit_lp.bytes"] = probe["exact.emit_lp"]
    values["trace.overhead_frac"] = overhead_frac
    # Operation time outside every span, over traced wall time. Every
    # operation enters the program through a traced function (run_trial or
    # cli.main), so this is the benchmark's own per-operation overhead, such
    # as output redirection. Time under an alias the tracer missed would land
    # in its caller's self time instead; trace.unpatched_refs checks for that.
    values["trace.coverage_gap_frac"] = (traced_op_s - sum(self_s.values())) / traced_wall
    values["trace.unpatched_refs"] = unpatched_refs
    return values


def _attributes(mods) -> dict:
    return {(name, attr): value for name, mod in mods.items() for attr, value in vars(mod).items()}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result, meta). The result holds the keys
    of the benchmark's last output line."""
    meta = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "src_lines": src_lines(),
            "calibration_before_s": calibrate()}
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, first_setup_s = set_up(workload, seed, workdir)
        setup_times = [first_setup_s]
        outcomes = Outcomes(workload)
        times: list[list[float]] = [[] for _ in ops]
        if not trace:
            again_dir = workdir / "set-up"
            again_dir.mkdir()
            wall = run_ops(
                workload, ops, seconds, TIMED_PASSES, outcomes, times,
                between=lambda: setup_times.append(set_up_again(workload, seed, again_dir)))
        else:
            untraced_times: list[list[float]] = [[] for _ in ops]
            traced_wall = 0.0
            mods = package_modules()
            tracer = Tracer()
            for _ in range(TRACE_PASSES):
                run_ops(workload, ops, 0.0, 1, outcomes, untraced_times)
                before = _attributes(mods)
                with tracer:
                    traced_wall += run_ops(workload, ops, 0.0, 1, outcomes, times)
                if _attributes(mods) != before:
                    raise RuntimeError("tracer left module attributes changed")
        digest, length_sum = verify(workload, ops, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = outcomes.attempted, outcomes.failed
    best = [min(t) for t in times]
    meta.update({"distinct_ops": len(ops), "ops_timed": sum(map(len, times)),
                 "fewest_timings_per_op": min(map(len, times)),
                 "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
                 "digest": digest, "setup_repeats_s": setup_times,
                 "calibration_after_s": calibrate(), "problems": outcomes.problems[:20]})
    if not trace:
        meta["timed_phase_s"] = wall
        if len(best) < 100:
            meta["warning"] = f"only {len(best)} operations; p90 has <10 beyond it"
        # Throughput is operations over their summed fastest latencies.
        values = {
            "setup_s": min(setup_times),
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": statistics.median(best) * 1e3,
            "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "length_sum": length_sum,
        }
        units = END_TO_END
    else:
        summary = tracer.summary()
        spans_file = WORK / f"spans-{workload.name}-seed{seed}.tsv.gz"
        tracer.write(spans_file)
        overhead_frac = sum(best) / sum(min(t) for t in untraced_times) - 1.0
        meta.update({"spans": summary["spans"], "spans_file": str(spans_file.relative_to(ROOT)),
                     "traced_passes_s": traced_wall})
        values = per_layer_metrics(summary, overhead_frac, sum(map(sum, times)), traced_wall,
                                   tracer.unpatched_refs)
        units = PER_LAYER
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result, meta = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds,
                                    bool(args.trace))
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
