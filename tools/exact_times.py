"""Wall time of capped solve_exact calls and of build_model, for two checkouts.

Usage, from anywhere:

    python3 tools/exact_times.py --parent DIR --change DIR [--solve-n 20 40 80] \
        [--model-n 40 60] [--k 4] [--seed 0] [--node-cap 200] [--rounds 3] [--out FILE]

Both checkouts' packages are imported into this process (see
``tools/shape_times.py``). The instances are ``gen.generate(n, k,
DegreeScheme.MID, random.Random(seed))``. In every round, each case runs on
both sides back to back, the parent first when round + case position is
even: ``solve_exact`` under p and under pt with ``SolveLimits(node_cap)`` for
each --solve-n, and ``build_model`` under p for each --model-n. The script
prints, per case, both sides' fastest ``time.perf_counter`` time of the call
over the rounds and their ratio. It exits 1 if the two sides' outputs differ: for a
solve, the support, ``repr`` of the length, the node count and
proven_optimal; for a model, ``emit_lp``'s text. --out writes the summary,
plus every round's times, as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from shape_times import load_as

MODULES = ("gen", "model", "exact")


def run_case(ps, kind: str, h, label: str, node_cap: int):
    """The timed call: a capped solve_exact or a build_model."""
    c = ps.model.ConstraintSet.from_label(label)
    if kind == "solve":
        return ps.exact.solve_exact(h, c, ps.exact.SolveLimits(node_cap=node_cap))
    return ps.exact.build_model(h, c)


def outcome(ps, kind: str, result) -> list:
    """What must agree across sides, with the support and LP text hashed."""
    if kind == "solve":
        edges = repr(result.support.sorted_edges()).encode()
        return [hashlib.sha256(edges).hexdigest(), repr(result.length),
                result.nodes_explored, result.proven_optimal]
    return [hashlib.sha256(ps.exact.emit_lp(result).encode()).hexdigest()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--solve-n", type=int, nargs="*", default=[20, 40, 80])
    ap.add_argument("--model-n", type=int, nargs="*", default=[40, 60])
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--node-cap", type=int, default=200)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    sides = {side: load_as(path.resolve(), f"plane_supports_{side}", MODULES)
             for side, path in (("parent", args.parent), ("change", args.change))}
    cases = [("solve", n, label) for n in args.solve_n for label in ("p", "pt")]
    cases += [("model", n, "p") for n in args.model_n]
    inputs = {side: {n: ps.gen.generate(n, args.k, ps.gen.DegreeScheme.MID,
                                        random.Random(args.seed))
                     for n in set(args.solve_n) | set(args.model_n)}
              for side, ps in sides.items()}
    times = {f"{kind} {label} n={n}": {"parent": [], "change": []} for kind, n, label in cases}
    outputs: dict[str, dict[str, list]] = {name: {} for name in times}
    for rnd in range(args.rounds):
        for pos, (kind, n, label) in enumerate(cases):
            name = f"{kind} {label} n={n}"
            order = ("parent", "change") if (rnd + pos) % 2 == 0 else ("change", "parent")
            for side in order:
                start = time.perf_counter()
                result = run_case(sides[side], kind, inputs[side][n], label, args.node_cap)
                times[name][side].append(time.perf_counter() - start)
                outputs[name].setdefault(side, outcome(sides[side], kind, result))

    same = True
    summary = {}
    for name, by_side in times.items():
        parent, change = min(by_side["parent"]), min(by_side["change"])
        match = outputs[name]["parent"] == outputs[name]["change"]
        same &= match
        summary[name] = {"parent_s": round(parent, 4), "change_s": round(change, 4),
                         "speedup": round(parent / change, 2), "same_output": match,
                         "output": outputs[name]["change"], "rounds_s": by_side}
        print(f"{name:<18} parent {parent:8.4f} s  change {change:8.4f} s  "
              f"x{parent / change:5.2f}  {'same' if match else 'DIFFERENT'} output")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
