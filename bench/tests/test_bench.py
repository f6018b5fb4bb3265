"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402
from workloads import ExactCliWorkload, Shape, TrialWorkload  # noqa: E402



def tiny(name: str):
    """The named workload with its shapes shrunk so a run takes about a second."""
    return {
        "ls-plane": lambda: TrialWorkload("ls-plane", (
            Shape("local-search", "p", 12, 3), Shape("local-search", "pt", 12, 3)), trials=2),
        "grid-u": lambda: TrialWorkload("grid-u", (
            Shape("mst-approx", "u", 30, 4), Shape("mst-iter", "u", 30, 4),
            Shape("local-search", "u", 15, 3), Shape("local-search", "t", 15, 3)), trials=1),
        "exact-cli": lambda: ExactCliWorkload("exact-cli", 6, instances=3),
    }[name]()


def test_tiny_workloads_cover_every_benchmark_workload():
    names = {w["name"] for w in run.SPEC["workloads"]}
    assert names == set(run.WORKLOADS)
    assert {tiny(name).name for name in names} == names


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    result, meta = run.run_workload(tiny(name), seed=3, seconds=0, trace=trace)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, meta["problems"]
    assert result["attempted"] == meta["distinct_ops"] * (
        2 * run.TRACE_PASSES if trace else run.TIMED_PASSES)


def test_digest_and_lengths_repeat_across_runs():
    first, meta1 = run.run_workload(tiny("exact-cli"), seed=5, seconds=0, trace=False)
    second, meta2 = run.run_workload(tiny("exact-cli"), seed=5, seconds=0, trace=False)
    traced, meta3 = run.run_workload(tiny("exact-cli"), seed=5, seconds=0, trace=True)
    assert meta1["digest"] == meta2["digest"] == meta3["digest"]
    assert first["metrics"]["length_sum"] == second["metrics"]["length_sum"]
    other, meta4 = run.run_workload(tiny("exact-cli"), seed=6, seconds=0, trace=False)
    assert meta4["digest"] != meta1["digest"]


def test_tracer_rebinds_every_alias_and_restores_it():
    ps = run.load_package()
    mods = package_modules()
    before = run._attributes(mods)
    original = ps.geom.segments_conflict
    workload = tiny("ls-plane")
    ops = workload.prepare(ps, 1, BENCH)
    with Tracer() as tracer:
        # Modules import functions by name; each alias must see the wrapper.
        assert ps.heuristics.segments_conflict is not original
        assert ps.model.segments_conflict is ps.geom.segments_conflict
        workload.run(ops[0])
    after = run._attributes(mods)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    summary = tracer.summary()
    assert summary["calls"]["harness.run_trial"] == 1
    assert summary["calls"]["geom.segments_conflict"] > 0
    assert tracer.unpatched_refs == 0


def test_tracer_reports_an_alias_it_cannot_rebind(monkeypatch):
    ps = run.load_package()
    monkeypatch.setattr(ps.harness, "REGISTRY", {"local-search": ps.heuristics.local_search},
                        raising=False)
    with Tracer() as tracer:
        pass
    assert tracer.unpatched_refs == 1


def test_corrupted_support_is_counted_not_raised():
    workload = tiny("ls-plane")
    honest = workload.reference

    def drop_one_edge(cfg):
        h, report = honest(cfg)
        edges = sorted(report.support.edges)[1:]
        return h, dataclasses.replace(report, support=type(report.support)(frozenset(edges)))

    workload.reference = drop_one_edge
    result, meta = run.run_workload(workload, seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == meta["distinct_ops"] * run.TIMED_PASSES
    assert meta["failed_frac"] == 1.0
    assert any("recomputed" in p for p in meta["problems"])


def test_raising_operation_is_counted_not_raised():
    workload = tiny("grid-u")
    honest = workload.run

    def broken(cfg):
        if cfg.seed == 0:  # warm-up runs on seed 0 and must still succeed
            return honest(cfg)
        raise RuntimeError("solver bug")

    workload.run = broken
    result, meta = run.run_workload(workload, seed=3, seconds=0, trace=False)
    assert result["failed"] == result["attempted"] > 0
    assert "solver bug" in meta["problems"][0]


def test_output_that_changes_between_passes_is_counted():
    workload = tiny("grid-u")
    honest = workload.run
    calls = []

    def drifting(cfg):
        calls.append(cfg)
        record = honest(cfg)
        return dataclasses.replace(record, rounds=record.rounds + len(calls))

    workload.run = drifting
    result, meta = run.run_workload(workload, seed=3, seconds=0, trace=False)
    # Each operation's first output is checked in full; the two later passes
    # differ from it.
    assert result["failed"] >= 2 * meta["distinct_ops"]
    assert any("differs from its first run" in p for p in meta["problems"])
