import dataclasses
import random

import pytest

from plane_supports.exact import SolveLimits, solve_exact
from plane_supports.gen import DegreeScheme, generate
from plane_supports.harness import (ALGORITHMS, CSV_COLUMNS, TrialConfig,
                                    combination_supported, records_to_csv, run_grid,
                                    run_trial, solve)
from plane_supports.heuristics import (local_search, local_search_seeded, mst_approximation,
                                       mst_iteration)
from plane_supports.model import ALL_CONSTRAINTS, PLANE, PLANE_TREE, UNRESTRICTED
from plane_supports.mst import star_support

from oracle import brute_force_oracle


def test_unsupported_combinations_rejected():
    assert combination_supported("local-search", PLANE_TREE)
    assert combination_supported("exact", PLANE_TREE)
    assert not combination_supported("mst-approx", PLANE_TREE)
    assert not combination_supported("mst-iter", PLANE_TREE)
    with pytest.raises(ValueError):
        TrialConfig(10, 2, DegreeScheme.MID, "mst-approx", PLANE_TREE, seed=0)


def test_solve_dispatches_by_name():
    h = generate(8, 2, DegreeScheme.MID, random.Random(4))
    direct = {"mst-approx": lambda c: mst_approximation(h),
              "mst-iter": lambda c: mst_iteration(h),
              "local-search": lambda c: local_search(h, c)}
    for algo in ALGORITHMS:
        for c in ALL_CONSTRAINTS:
            if not combination_supported(algo, c):
                with pytest.raises(ValueError):
                    solve(h, algo, c)
                continue
            got = solve(h, algo, c)
            if algo == "exact":
                res = solve_exact(h, c)
                assert got == (res.support, res.length, res.nodes_explored, True)
            else:
                rep = direct[algo](c)
                assert got == (rep.support, rep.length, rep.rounds_or_passes, None)
    start = mst_iteration(h).support
    rep = local_search_seeded(h, start, UNRESTRICTED)
    seeded = solve(h, "local-search", UNRESTRICTED, start=start)
    assert seeded == (rep.support, rep.length, rep.rounds_or_passes, None)
    assert seeded != solve(h, "local-search", UNRESTRICTED)
    capped = solve(h, "exact", UNRESTRICTED, SolveLimits(node_cap=3))
    assert capped[2:] == (4, False)
    with pytest.raises(ValueError):
        solve(h, "mst-iter", UNRESTRICTED, start=star_support(h))
    with pytest.raises(ValueError):
        solve(h, "nonsense", UNRESTRICTED)


def test_run_trial_iteration_dominates_approximation():
    for seed in range(10):
        a = run_trial(TrialConfig(15, 3, DegreeScheme.MID, "mst-iter", seed=seed))
        b = run_trial(TrialConfig(15, 3, DegreeScheme.MID, "mst-approx", seed=seed))
        assert a.status == b.status == "ok"
        assert a.length <= b.length + 1e-9


def test_run_trial_validates_output_and_reports_regime():
    rec = run_trial(TrialConfig(12, 2, DegreeScheme.LOW, "local-search",
                                PLANE_TREE, seed=3))
    assert rec.status == "ok"
    assert rec.constraints == "pt"
    assert rec.proven_optimal is None


def test_run_trial_exact_matches_oracle():
    cfg = TrialConfig(7, 2, DegreeScheme.MID, "exact", UNRESTRICTED, seed=11)
    rec = run_trial(cfg)
    h = generate(7, 2, DegreeScheme.MID, random.Random(11))
    assert rec.length == pytest.approx(brute_force_oracle(h, UNRESTRICTED).length)
    assert rec.proven_optimal is True


def test_run_grid_ordering_and_determinism():
    templates = [
        TrialConfig(10, 2, DegreeScheme.MID, "mst-approx"),
        TrialConfig(10, 2, DegreeScheme.MID, "mst-iter"),
    ]
    records = run_grid(templates, trials=3, base_seed=500)
    assert len(records) == 6
    assert [r.trial_id for r in records] == list(range(6))
    assert [r.seed for r in records] == [500, 501, 502, 500, 501, 502]
    again = run_grid(templates, trials=3, base_seed=500)

    def strip_time(csv_text):
        rows = [line.split(",") for line in csv_text.splitlines()]
        drop = CSV_COLUMNS.index("time_ms")
        return [row[:drop] + row[drop + 1:] for row in rows]

    assert strip_time(records_to_csv(records)) == strip_time(records_to_csv(again))


def test_run_grid_parallel_matches_serial():
    # The process pool returns the serial run's records, time_ms aside:
    # ids, order, lengths, rounds and proofs (node_cap stops two of three).
    templates = [
        TrialConfig(10, 2, DegreeScheme.MID, "mst-iter"),
        TrialConfig(9, 3, DegreeScheme.MID, "local-search", PLANE),
        TrialConfig(7, 2, DegreeScheme.LOW, "exact", PLANE_TREE, node_cap=15),
    ]

    def untimed(records):
        return [dataclasses.replace(r, time_ms=0.0) for r in records]

    serial = run_grid(templates, trials=3, base_seed=60)
    assert untimed(run_grid(templates, trials=3, base_seed=60, parallel=2)) == untimed(serial)
    assert [r.trial_id for r in serial] == list(range(9))


def test_csv_layout():
    records = run_grid([TrialConfig(8, 2, DegreeScheme.LOW, "mst-iter")],
                       trials=2, base_seed=1)
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    length_field = first[CSV_COLUMNS.index("length")]
    assert len(length_field.split(".")[1]) == 6

