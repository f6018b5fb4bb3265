"""Experiment harness: grids of trials, timing, ratio statistics, CSV.

Each trial generates its instance from (n, k, scheme, seed), runs one solver
and validates the output against the requested constraint set; a validation
failure is a solver bug and raises. Trial t of a template uses seed
base_seed + t, so different algorithms meet the exact same instances and
paired ratios are meaningful.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, replace

from .exact import InfeasibleError, LimitsExceededError, SolveLimits, solve_exact
from .gen import DegreeScheme, generate
from .heuristics import local_search, local_search_seeded, mst_approximation, mst_iteration
from .model import ConstraintSet, Hypergraph, SupportGraph, UNRESTRICTED, satisfies
from .mst import EmptyCoreError

ALGORITHMS = ("mst-approx", "mst-iter", "local-search", "exact")
# The two MST heuristics know nothing about planarity or acyclicity.
_UNRESTRICTED_ONLY = {"mst-approx", "mst-iter"}

CSV_COLUMNS = ("trial_id", "seed", "n", "k", "scheme", "algorithm", "constraints",
               "status", "length", "time_ms", "rounds", "proven_optimal")


def combination_supported(algorithm: str, constraints: ConstraintSet) -> bool:
    if algorithm not in ALGORITHMS:
        return False
    # By label: constraints may come from another import of the package,
    # whose ConstraintSet compares unequal to this one's constants.
    if algorithm in _UNRESTRICTED_ONLY and constraints.label != UNRESTRICTED.label:
        return False
    return True


def solve(h: Hypergraph, algorithm: str, constraints: ConstraintSet,
          limits: SolveLimits | None = None, start: SupportGraph | None = None):
    """Run the solver named `algorithm` on h under `constraints`.

    Returns (support, length, rounds, proven_optimal): rounds counts the
    heuristics' passes or rounds and solve_exact's nodes; proven_optimal is
    None for the heuristics. `limits` caps solve_exact; `start` seeds one
    local-search climb (local_search_seeded) instead of the star seed.
    Raises ValueError for a name or constraint set the solver does not
    take; each solver's own exceptions pass through. Solvers are module
    globals looked up at call time, not a table of functions, so a wrapper
    rebound onto this module (the benchmark's tracer) is the one called.
    """
    if not combination_supported(algorithm, constraints):
        raise ValueError(f"unsupported combination: {algorithm} under "
                         f"'{constraints.label}'")
    if start is not None and algorithm != "local-search":
        raise ValueError("a start support only applies to local-search")
    if algorithm == "exact":
        result = solve_exact(h, constraints, limits)
        return result.support, result.length, result.nodes_explored, result.proven_optimal
    if algorithm == "mst-approx":
        report = mst_approximation(h)
    elif algorithm == "mst-iter":
        report = mst_iteration(h)
    elif start is None:
        report = local_search(h, constraints)
    else:
        report = local_search_seeded(h, start, constraints)
    return report.support, report.length, report.rounds_or_passes, None


@dataclass(frozen=True)
class TrialConfig:
    n: int
    k: int
    scheme: DegreeScheme
    algorithm: str
    constraints: ConstraintSet = UNRESTRICTED
    seed: int = 0
    node_cap: int | None = None
    time_cap: float | None = None

    def __post_init__(self):
        if not combination_supported(self.algorithm, self.constraints):
            raise ValueError(f"unsupported combination: {self.algorithm} under "
                             f"'{self.constraints.label}'")


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    seed: int
    n: int
    k: int
    scheme: str
    algorithm: str
    constraints: str
    status: str                      # ok | infeasible | limits
    length: float | None             # present iff status == ok
    time_ms: float
    rounds: int                      # passes/rounds; node count for exact
    proven_optimal: bool | None      # exact only


def run_trial(cfg: TrialConfig, trial_id: int = 0) -> TrialRecord:
    rng = random.Random(cfg.seed)
    h = generate(cfg.n, cfg.k, cfg.scheme, rng)

    status = "ok"
    length = None
    rounds = 0
    proven = None
    support = None

    t0 = time.perf_counter()
    try:
        support, length, rounds, proven = solve(
            h, cfg.algorithm, cfg.constraints, SolveLimits(cfg.node_cap, cfg.time_cap))
    except (EmptyCoreError, InfeasibleError):
        status = "infeasible"
    except LimitsExceededError:
        status = "limits"
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    if status == "ok":
        if not satisfies(support, h, cfg.constraints):
            raise RuntimeError(f"solver bug: {cfg.algorithm} output violates "
                               f"'{cfg.constraints.label}' on seed {cfg.seed}")

    return TrialRecord(trial_id, cfg.seed, cfg.n, cfg.k, DegreeScheme(cfg.scheme).value,
                       cfg.algorithm, cfg.constraints.label, status, length,
                       elapsed_ms, rounds, proven)


def run_grid(templates, trials: int, base_seed: int, parallel: int = 1) -> list[TrialRecord]:
    """Run every template for `trials` seeds; trial t uses base_seed + t.

    Records come back sorted by (template index, trial index) regardless of
    execution order, so output is deterministic up to the timing fields.
    """
    if trials < 1:
        raise ValueError("need at least one trial per template")
    jobs = []
    for t_idx, template in enumerate(templates):
        for trial in range(trials):
            cfg = replace(template, seed=base_seed + trial)
            jobs.append((t_idx, trial, cfg))

    results: dict[tuple[int, int], TrialRecord] = {}
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = {pool.submit(run_trial, cfg, 0): (t_idx, trial)
                       for t_idx, trial, cfg in jobs}
            for fut, key in futures.items():
                results[key] = fut.result()
    else:
        for t_idx, trial, cfg in jobs:
            results[(t_idx, trial)] = run_trial(cfg, 0)

    records = []
    for running_id, (t_idx, trial, _cfg) in enumerate(jobs):
        rec = results[(t_idx, trial)]
        records.append(replace(rec, trial_id=running_id))
    return records


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        length = f"{r.length:.6f}" if r.length is not None else ""
        proven = "" if r.proven_optimal is None else str(r.proven_optimal).lower()
        lines.append(",".join([
            str(r.trial_id), str(r.seed), str(r.n), str(r.k), r.scheme,
            r.algorithm, r.constraints, r.status, length,
            f"{r.time_ms:.3f}", str(r.rounds), proven,
        ]))
    return "\n".join(lines) + "\n"


def _percentile(sorted_xs: list[float], q: float) -> float:
    if not sorted_xs:
        raise ValueError("no data")
    if len(sorted_xs) == 1:
        return sorted_xs[0]
    pos = (len(sorted_xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    frac = pos - lo
    return sorted_xs[lo] * (1 - frac) + sorted_xs[hi] * frac


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean: float
    median: float
    p90: float
    p95: float
    p99: float


@dataclass(frozen=True)
class PairStats:
    """Paired comparison of solver a against solver b on shared seeds."""

    a: tuple[str, str]               # (algorithm, constraints label)
    b: tuple[str, str]
    count: int
    wins_a: int                      # strictly shorter; ties are not wins
    win_rate: float
    mean_ratio: float                # mean of length_a / length_b, ties included
    max_ratio: float


@dataclass(frozen=True)
class SummaryStats:
    groups: dict
    pairs: tuple[PairStats, ...]


def summarize(records, ratio_pairs=()) -> SummaryStats:
    """Per-group length statistics plus paired ratios for requested solver
    pairs. Ratios only ever combine records with identical (n, k, scheme,
    seed), so both sides saw the same instance.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to summarise")

    by_group: dict[tuple, list[float]] = {}
    for r in records:
        if r.status != "ok":
            continue
        by_group.setdefault((r.n, r.k, r.scheme, r.algorithm, r.constraints), []).append(r.length)
    groups = {}
    for key, lengths in sorted(by_group.items()):
        xs = sorted(lengths)
        groups[key] = GroupStats(len(xs), statistics.fmean(xs), statistics.median(xs),
                                 _percentile(xs, 90), _percentile(xs, 95),
                                 _percentile(xs, 99))

    by_solver: dict[tuple[str, str], dict[tuple, float]] = {}
    for r in records:
        if r.status != "ok":
            continue
        by_solver.setdefault((r.algorithm, r.constraints), {})[(r.n, r.k, r.scheme, r.seed)] = r.length

    pairs = []
    for a, b in ratio_pairs:
        la = by_solver.get(tuple(a), {})
        lb = by_solver.get(tuple(b), {})
        shared = sorted(set(la) & set(lb))
        if not shared:
            continue
        ratios = [la[key] / lb[key] for key in shared]
        wins = sum(1 for key in shared if la[key] < lb[key] - 1e-9)
        pairs.append(PairStats(tuple(a), tuple(b), len(shared), wins,
                               wins / len(shared), statistics.fmean(ratios), max(ratios)))
    return SummaryStats(groups, tuple(pairs))
