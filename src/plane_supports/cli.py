"""Command-line surface.

Exit codes: 0 success, 2 infeasible (empty core, provably no support, or a
checked support that violates its constraints), 1 any other error.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from pathlib import Path

from .exact import InfeasibleError, LimitsExceededError, SolveLimits, build_model, emit_lp, solve_exact
from .fileio import ParseError, parse_hypergraph, parse_support, render_svg, serialize_hypergraph, serialize_support
from .gen import DegreeScheme, adversarial_family, generate
from .harness import TrialConfig, combination_supported, records_to_csv, run_grid
from .heuristics import local_search, local_search_seeded, mst_approximation, mst_iteration
from .model import ConstraintSet, crossing_count, hyperedge_induced_connected, is_acyclic, total_length
from .mst import EmptyCoreError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, which this CLI reserves for
    # infeasible instances; route usage problems through exit code 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_instance(path: str):
    return parse_hypergraph(_read(path))


def _cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    h = generate(args.n, args.k, DegreeScheme(args.scheme), rng)
    _write(args.out, serialize_hypergraph(h))
    return EXIT_OK


def _cmd_family(args) -> int:
    _write(args.out, serialize_hypergraph(adversarial_family(args.n)))
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.seed_support is not None and args.algo != "local-search":
        raise _UsageError("--seed-support only applies to --algo local-search")
    if (args.node_cap is not None or args.time_cap is not None) and args.algo != "exact":
        raise _UsageError("--node-cap and --time-cap only apply to --algo exact")
    h = _load_instance(args.infile)
    constraints = ConstraintSet.from_label(args.constraints)
    if not combination_supported(args.algo, constraints):
        raise _UsageError(f"{args.algo} only supports --constraints u")
    proven = None
    t0 = time.perf_counter()
    try:
        if args.algo == "mst-approx":
            report = mst_approximation(h)
        elif args.algo == "mst-iter":
            report = mst_iteration(h)
        elif args.algo == "local-search":
            if args.seed_support:
                g0 = parse_support(_read(args.seed_support), h)
                report = local_search_seeded(h, g0, constraints)
            else:
                report = local_search(h, constraints)
        else:
            result = solve_exact(h, constraints, SolveLimits(args.node_cap, args.time_cap))
            proven = result.proven_optimal
            support, length, rounds = result.support, result.length, result.nodes_explored
    except EmptyCoreError:
        print("infeasible: no vertex occurs in every hyperedge "
              "(local search needs a nonempty core)", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LimitsExceededError as exc:
        print(f"limits exceeded: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if args.algo != "exact":
        support, length, rounds = report.support, report.length, report.rounds_or_passes
    _write(args.out, serialize_support(support))
    if args.report:
        print(f"algorithm {args.algo}")
        print(f"constraints {constraints.label}")
        print(f"length {length:.6f}")
        print(f"edges {len(support)}")
        print(f"rounds {rounds}")
        print(f"time_ms {elapsed_ms:.3f}")
        if proven is not None:
            print(f"proven_optimal {str(proven).lower()}")
    return EXIT_OK


def _cmd_check(args) -> int:
    h = _load_instance(args.infile)
    g = parse_support(_read(args.support), h)
    print(f"length {total_length(g, h):.6f}")
    crossings = crossing_count(g, h)
    print(f"crossings {crossings}")
    acyclic = is_acyclic(g)
    print(f"acyclic {str(acyclic).lower()}")
    # With an empty core, 'acyclic' can only ever mean a forest, never a
    # single spanning tree; worth surfacing when reading results.
    print(f"core_size {len(h.core())}")
    connected = [hyperedge_induced_connected(g, h, s) for s in range(h.k)]
    for s, ok in enumerate(connected):
        print(f"hyperedge {s} {'connected' if ok else 'DISCONNECTED'}")
    support = all(connected)
    print(f"support {str(support).lower()}")
    if args.constraints:
        constraints = ConstraintSet.from_label(args.constraints)
        # model.satisfies, read off the values printed above: is_plane is
        # crossings == 0 and is_support is every hyperedge connected.
        ok = (support and (not constraints.require_plane or crossings == 0)
              and (not constraints.require_acyclic or acyclic))
        print(f"satisfies {constraints.label} {str(ok).lower()}")
        if not ok:
            return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_render(args) -> int:
    h = _load_instance(args.infile)
    g = parse_support(_read(args.support), h) if args.support else None
    _write(args.out, render_svg(h, g))
    return EXIT_OK


def _cmd_emit_lp(args) -> int:
    h = _load_instance(args.infile)
    constraints = ConstraintSet.from_label(args.constraints)
    _write(args.out, emit_lp(build_model(h, constraints)))
    return EXIT_OK


def _cmd_bench(args) -> int:
    templates = []
    skipped = []
    for n in args.n:
        for k in args.k:
            for scheme in args.scheme:
                for algo in args.algo:
                    for label in args.constraints:
                        constraints = ConstraintSet.from_label(label)
                        if not combination_supported(algo, constraints):
                            skipped.append(f"{algo}/{label}")
                            continue
                        templates.append(TrialConfig(
                            n=n, k=k, scheme=DegreeScheme(scheme), algorithm=algo,
                            constraints=constraints, node_cap=args.node_cap,
                            time_cap=args.time_cap))
    for combo in sorted(set(skipped)):
        print(f"skipping unsupported combination {combo}", file=sys.stderr)
    if not templates:
        raise _UsageError("no runnable (algorithm, constraints) combination")
    records = run_grid(templates, args.trials, args.seed, parallel=args.parallel)
    _write(args.out, records_to_csv(records))
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the process-wide parser, built on the first call.

    Every later call, and so every ``main`` call, reuses it: parsing keeps no
    state on the parser, since each ``parse_args`` returns a fresh namespace.
    """
    parser = _Parser(prog="plane-supports",
                     description="Short supports of spatial hypergraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scheme", choices=[s.value for s in DegreeScheme], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("family", help="emit an adversarial chain instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("solve", help="compute a support")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--algo", choices=["mst-approx", "mst-iter", "local-search", "exact"],
                   required=True)
    p.add_argument("--constraints", choices=["u", "t", "p", "pt"], default="u")
    p.add_argument("--seed-support", dest="seed_support")
    p.add_argument("--node-cap", type=int)
    p.add_argument("--time-cap", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="validate a support file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--constraints", choices=["u", "t", "p", "pt"])
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("render", help="render instance (and support) to SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--support")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("emit-lp", help="write the integer model as an LP file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--constraints", choices=["u", "t", "p", "pt"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_emit_lp)

    p = sub.add_parser("bench", help="run a trial grid and write CSV")
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--k", type=_int_list, required=True)
    p.add_argument("--scheme", type=_str_list, required=True)
    p.add_argument("--algo", type=_str_list, required=True)
    p.add_argument("--constraints", type=_str_list, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--node-cap", type=int)
    p.add_argument("--time-cap", type=float)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
