"""Experiment harness: grids of trials, timing, CSV.

Each trial generates its instance from (n, k, scheme, seed), runs one solver
and validates the output against the requested constraint set; a validation
failure is a solver bug and raises. Trial t of a template uses seed
base_seed + t, so different algorithms meet the exact same instances.
"""

from __future__ import annotations

import random
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
        SolveLimits(self.node_cap, self.time_cap)  # rejects invalid caps up front


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


def run_trial(cfg: TrialConfig) -> TrialRecord:
    """One validated solve of cfg's instance, as trial 0 (run_grid numbers by position)."""
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

    return TrialRecord(0, cfg.seed, cfg.n, cfg.k, DegreeScheme(cfg.scheme).value,
                       cfg.algorithm, cfg.constraints.label, status, length,
                       elapsed_ms, rounds, proven)


def run_grid(templates, trials: int, base_seed: int, parallel: int = 1) -> list[TrialRecord]:
    """Run every template for `trials` seeds; trial t uses base_seed + t.

    Records come back in (template index, trial index) order, numbered by
    position, so output is deterministic up to the timing fields.
    """
    if trials < 1:
        raise ValueError("need at least one trial per template")
    cfgs = [replace(template, seed=base_seed + trial)
            for template in templates for trial in range(trials)]
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            records = list(pool.map(run_trial, cfgs))
    else:
        records = list(map(run_trial, cfgs))
    return [replace(rec, trial_id=i) for i, rec in enumerate(records)]


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

