"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Instance pools are shared
across criteria through session fixtures so paired comparisons always see
identical instances.
"""

import random
import statistics

import pytest

from plane_supports.exact import brute_force_oracle, solve_exact
from plane_supports.fileio import parse_hypergraph, serialize_hypergraph
from plane_supports.gen import DegreeScheme, adversarial_family, generate
from plane_supports.harness import CSV_COLUMNS, TrialConfig, records_to_csv, run_grid
from plane_supports.heuristics import (local_search, local_search_all, mst_approximation,
                                       mst_iteration)
from plane_supports.model import (ALL_CONSTRAINTS, UNRESTRICTED, satisfies,
                                  total_length)
from plane_supports.mst import emst, mst_with_free_edges, star_support

SCHEMES = (DegreeScheme.EVEN, DegreeScheme.MID, DegreeScheme.LOW, DegreeScheme.HIGH)

# Every solver output produced while building the pools lands here and is
# re-validated by criterion 10.
_VALIDATED_OUTPUTS = []


def _note_output(h, support, constraints):
    _VALIDATED_OUTPUTS.append((h, support, constraints))


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def pool_big():
    """500 instances spanning n in {20, 60}, k in {2, 4}, all four schemes,
    with the two MST heuristics and one local-search sweep (all four
    regimes) run on each."""
    entries = []
    for i in range(500):
        n = (20, 60)[i % 2]
        k = (2, 4)[(i // 2) % 2]
        scheme = SCHEMES[(i // 4) % 4]
        h = generate(n, k, scheme, random.Random(3000 + i))
        approx = mst_approximation(h)
        iterated = mst_iteration(h)
        ls = local_search_all(h)
        for rep in (approx, iterated):
            _note_output(h, rep.support, UNRESTRICTED)
        for c in ALL_CONSTRAINTS:
            _note_output(h, ls[c.label].support, c)
        entries.append({"h": h, "approx": approx, "iter": iterated, "ls_u": ls["u"], "ls": ls})
    return entries


@pytest.fixture(scope="session")
def pool_small():
    """50 instances with n <= 7, k in {2, 3}; exact solver and oracle run
    under all four regimes."""
    entries = []
    for i in range(50):
        n = (5, 6, 7)[i % 3]
        k = (2, 3)[i % 2]
        scheme = SCHEMES[i % 4]
        h = generate(n, k, scheme, random.Random(4000 + i))
        exact = {}
        oracle = {}
        for c in ALL_CONSTRAINTS:
            exact[c.label] = solve_exact(h, c)
            oracle[c.label] = brute_force_oracle(h, c)
            _note_output(h, exact[c.label].support, c)
            _note_output(h, oracle[c.label].support, c)
        entries.append({"h": h, "exact": exact, "oracle": oracle,
                        "approx": mst_approximation(h)})
    return entries


@pytest.fixture(scope="session")
def pool_mid():
    """200 instances with n = 10, k = 2 under LOW and MID; local search and
    the exact solver run under all four regimes."""
    entries = []
    for i in range(200):
        scheme = (DegreeScheme.LOW, DegreeScheme.MID)[i % 2]
        h = generate(10, 2, scheme, random.Random(6000 + i))
        ls = local_search_all(h)
        exact = {}
        for c in ALL_CONSTRAINTS:
            exact[c.label] = solve_exact(h, c)
            _note_output(h, ls[c.label].support, c)
            _note_output(h, exact[c.label].support, c)
        entries.append({"h": h, "ls": ls, "exact": exact, "scheme": scheme})
    return entries


def test_criterion_1_iteration_dominates_approximation(pool_big):
    wins = sum(1 for e in pool_big if e["iter"].length <= e["approx"].length + 1e-9)
    _report(1, wins == len(pool_big),
            f"mst_iteration <= mst_approximation in {wins}/{len(pool_big)} trials")


def test_criterion_2_three_step_stabilisation():
    stable = 0
    trials = 1000
    for i in range(trials):
        h = generate(12, 2, SCHEMES[i % 4], random.Random(2000 + i))
        a = mst_iteration(h, [0, 1, 0]).support
        b = mst_iteration(h, [0, 1, 0, 1, 0]).support
        if a == b:
            stable += 1
    _report(2, stable == trials,
            f"<r,b,r> equals <r,b,r,b,r> on {stable}/{trials} instances")


def test_criterion_3_zero_weight_mst_containment():
    from plane_supports.model import Hypergraph
    good = 0
    trials = 1000
    for i in range(trials):
        rng = random.Random(5000 + i)
        n = rng.randint(3, 10)
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
        h = Hypergraph.build(pts, [set(range(n))])
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        free = {p for p in pairs if rng.random() < 0.3}
        tree = mst_with_free_edges(range(n), free, h)
        if tree.edges <= free | set(emst(range(n), h).edges):
            good += 1
    _report(3, good == trials,
            f"zero-weight MST inside free-union-EMST on {good}/{trials} draws")


def test_criterion_4_exact_matches_oracle(pool_small):
    mismatches = 0
    checks = 0
    for e in pool_small:
        for c in ALL_CONSTRAINTS:
            a = e["exact"][c.label]
            b = e["oracle"][c.label]
            checks += 1
            if abs(a.length - b.length) > 1e-9 or not a.proven_optimal:
                mismatches += 1
            if not (satisfies(a.support, e["h"], c) and satisfies(b.support, e["h"], c)):
                mismatches += 1
    _report(4, mismatches == 0,
            f"solve_exact equals brute_force_oracle on {checks - mismatches}/{checks} "
            f"(instance, regime) pairs")


def test_criterion_5_k_approximation_bound(pool_small):
    violations = 0
    for e in pool_small:
        opt_u = e["exact"]["u"].length
        if e["approx"].length > e["h"].k * opt_u + 1e-9:
            violations += 1
    _report(5, violations == 0,
            f"mst_approximation within k x OPT_U on {len(pool_small) - violations}"
            f"/{len(pool_small)} instances")


def test_criterion_6_local_search_vs_optimum(pool_mid):
    worst_ratio = 0.0
    hit_rates = {}
    ratios_all = []
    for c in ALL_CONSTRAINTS:
        hits = 0
        for e in pool_mid:
            ls_len = e["ls"][c.label].length
            opt_len = e["exact"][c.label].length
            ratio = ls_len / opt_len if opt_len > 0 else 1.0
            ratios_all.append(ratio)
            worst_ratio = max(worst_ratio, ratio)
            if ls_len <= opt_len + 1e-6:
                hits += 1
        hit_rates[c.label] = hits / len(pool_mid)
    ratios_all.sort()
    p95 = ratios_all[int(0.95 * (len(ratios_all) - 1))]
    if p95 > 1.09 + 0.05:
        print(f"\n[criterion  6] FLAG - p95 ratio {p95:.3f} exceeds 1.14")
    ok = worst_ratio <= 1.61 and all(rate >= 0.5 for rate in hit_rates.values())
    detail = (f"optimum hit rates {' '.join(f'{k}={v:.2f}' for k, v in hit_rates.items())}, "
              f"worst LS/OPT ratio {worst_ratio:.3f}, p95 {p95:.3f}")
    _report(6, ok, detail)


def test_criterion_7_local_search_vs_iteration(pool_big):
    wins = 0
    ratios = []
    for e in pool_big:
        ls_len = e["ls_u"].length
        it_len = e["iter"].length
        ratios.append(ls_len / it_len)
        if ls_len <= it_len + 1e-9:
            wins += 1
    win_rate = wins / len(pool_big)
    mean_ratio = statistics.fmean(ratios)
    ok = win_rate >= 0.90 and mean_ratio <= 0.95
    _report(7, ok, f"LS-U at or below MSTIteration in {100 * win_rate:.1f}% of trials, "
                   f"mean paired ratio {mean_ratio:.3f}")


def test_criterion_8_adversarial_growth():
    ratios = []
    for n in (8, 16, 32):
        h = adversarial_family(n)
        star_len = total_length(star_support(h), h)
        ls = local_search(h, UNRESTRICTED)
        _note_output(h, ls.support, UNRESTRICTED)
        ratios.append(star_len / ls.length)
    ok = ratios[0] < ratios[1] < ratios[2] and ratios[2] > 2
    _report(8, ok, "star/LS ratios " + ", ".join(f"{r:.2f}" for r in ratios)
            + " for n = 8, 16, 32")


def test_criterion_9_constraint_nesting(pool_small, pool_mid, pool_big):
    """Lengths nest across regimes, u <= p <= pt and u <= t <= pt: for the
    exact solver because the feasible sets nest, for local search because
    each regime's result is never longer than the stricter regimes'."""
    stats = {"exact": [0, 0], "local-search": [0, 0]}
    examples = []

    def check(solver, h, lens):
        stats[solver][1] += 1
        if not (lens["u"] <= lens["p"] + 1e-9 and lens["p"] <= lens["pt"] + 1e-9
                and lens["u"] <= lens["t"] + 1e-9 and lens["t"] <= lens["pt"] + 1e-9):
            stats[solver][0] += 1
            if len(examples) < 5:
                examples.append(f"{solver} n={h.n} k={h.k}: " +
                                " ".join(f"{lab}={val:.2f}" for lab, val in lens.items()))

    for e in pool_small:
        check("exact", e["h"], {lab: res.length for lab, res in e["exact"].items()})
    for e in pool_mid:
        check("exact", e["h"], {lab: res.length for lab, res in e["exact"].items()})
        check("local-search", e["h"], {lab: rep.length for lab, rep in e["ls"].items()})
    for e in pool_big:
        check("local-search", e["h"], {lab: rep.length for lab, rep in e["ls"].items()})

    for line in examples:
        print(f"\n[criterion  9] inversion: {line}")
    exact_bad, exact_all = stats["exact"]
    ls_bad, ls_all = stats["local-search"]
    _report(9, exact_bad == 0 and ls_bad == 0,
            f"exact solver nests on {exact_all - exact_bad}/{exact_all} runs, "
            f"local search on {ls_all - ls_bad}/{ls_all} runs")


def test_criterion_10_every_output_validates(pool_small, pool_mid, pool_big):
    bad = 0
    for h, support, constraints in _VALIDATED_OUTPUTS:
        if not satisfies(support, h, constraints):
            bad += 1
    ok = bad == 0 and len(_VALIDATED_OUTPUTS) > 3000
    _report(10, ok, f"{len(_VALIDATED_OUTPUTS) - bad}/{len(_VALIDATED_OUTPUTS)} "
                    f"solver outputs satisfy their requested regime")


def test_criterion_11_determinism():
    templates = [
        TrialConfig(12, 2, DegreeScheme.MID, "mst-approx"),
        TrialConfig(12, 2, DegreeScheme.MID, "mst-iter"),
        TrialConfig(12, 2, DegreeScheme.MID, "local-search"),
        TrialConfig(7, 2, DegreeScheme.LOW, "exact"),
    ]
    drop = CSV_COLUMNS.index("time_ms")

    def stripped(records):
        rows = [line.split(",") for line in records_to_csv(records).splitlines()]
        return [row[:drop] + row[drop + 1:] for row in rows]

    csv_a = stripped(run_grid(templates, trials=5, base_seed=900))
    csv_b = stripped(run_grid(templates, trials=5, base_seed=900))

    from plane_supports.exact import build_model, emit_lp
    h = generate(8, 3, DegreeScheme.MID, random.Random(901))
    lp_same = all(emit_lp(build_model(h, c)) == emit_lp(build_model(h, c))
                  for c in ALL_CONSTRAINTS)
    hg_same = serialize_hypergraph(parse_hypergraph(serialize_hypergraph(h))) \
        == serialize_hypergraph(h)
    ok = csv_a == csv_b and lp_same and hg_same
    _report(11, ok, "bench CSV (timing column excluded) and emitted LP files "
                    "are byte-identical across repeated runs")
