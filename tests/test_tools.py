"""tools/ab.py and tools/highs_sweep.py, run as subprocesses: each
in-process command of ab.py imports its checkouts under fixed aliases,
which one process can do only once."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"

TINY = {
    "climbs": ["--n", "30", "--k", "3", "--seed", "1"],
    "exact": ["--solve-n", "20", "--model-n", "8"],
    "shapes": ["--workload", "exact-cli", "--seed", "7"],
}


def ab(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(AB), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def weaker(tmp_path_factory) -> Path:
    """A copy of src/ whose swaps add at most one pair: u and p climbs, and
    the exact seed they give, change."""
    root = tmp_path_factory.mktemp("weaker")
    shutil.copytree(ROOT / "src" / "plane_supports", root / "src" / "plane_supports",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = root / "src" / "plane_supports" / "heuristics.py"
    text = path.read_text()
    assert "\n_MAX_REPLACEMENT = 3\n" in text
    path.write_text(text.replace("\n_MAX_REPLACEMENT = 3\n", "\n_MAX_REPLACEMENT = 1\n"))
    return root


@pytest.mark.parametrize("cmd", sorted(TINY))
def test_identical_checkouts_agree(cmd, tmp_path):
    out = tmp_path / "out.json"
    proc = ab(tmp_path, cmd, "--parent", str(ROOT), "--change", str(ROOT), "--rounds", "1",
              "--out", str(out), *TINY[cmd])
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["rows"]
    assert rows and all(row["same_output"] for row in rows.values())


@pytest.mark.parametrize("cmd, args", [
    ("climbs", TINY["climbs"]),
    ("exact", TINY["exact"]),
    ("shapes", ["--workload", "ls-plane", "--seed", "7"]),
])
def test_a_changed_output_exits_1(cmd, args, weaker, tmp_path):
    # The weaker copy is the parent, so shapes reads the benchmark of ROOT.
    proc = ab(tmp_path, cmd, "--parent", str(weaker), "--change", str(ROOT), "--rounds", "1",
              *args)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "DIFFERENT" in proc.stdout and "outputs differ" in proc.stderr


FAKE_RUN = """\
import json
from pathlib import Path

values = json.loads(Path("values.json").read_text())
calls = Path("calls")
i = int(calls.read_text()) if calls.exists() else 0
calls.write_text(str(i + 1))
with open("../order", "a") as log:
    log.write(Path.cwd().name)
ops, p50, digest = values[i]
print("meta " + json.dumps({"digest": digest}))
print(json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": {
    "ops_per_s": {"value": ops}, "op_p50_ms": {"value": p50}}}))
"""


def fake_checkout(root: Path, values: list) -> Path:
    """A checkout whose bench/run.py reports the next of `values` per run."""
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(FAKE_RUN)
    (root / "values.json").write_text(json.dumps(values))
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_ms", "better": "lower"}]}))
    return root


def test_bench_summary(tmp_path):
    parent = fake_checkout(tmp_path / "p", [[100, 2, "d"], [110, 2, "d"], [120, 2, "d"],
                                            [130, 2, "d"]])
    change = fake_checkout(tmp_path / "c", [[115, 1, "d"], [105, 1, "d"], [140, 3, "d"],
                                            [135, 1, "d"]])
    out = tmp_path / "out.json"
    proc = ab(tmp_path, "bench", "--parent", str(parent), "--change", str(change),
              "--workload", "w", "--seed", "7", "--seconds", "1", "--rounds", "4",
              "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "order").read_text() == "pccppccp"
    summary = json.loads(out.read_text())
    assert (summary["digests"], summary["failed"]) == (["d"], 0)
    ops, p50 = summary["metrics"]["ops_per_s"], summary["metrics"]["op_p50_ms"]
    assert ops["parent_q1_median_q3"] == [107.5, 115, 122.5]
    assert ops["change_q1_median_q3"] == [112.5, 125, 136.25]
    assert (ops["median_gap"], ops["parent_iqr"], ops["change_wins"]) == (10, 15, 3)
    assert ops["rel_change"] == pytest.approx(10 / 115, abs=1e-4)
    assert p50["change_q1_median_q3"] == [1, 1, 1.5]
    assert (p50["median_gap"], p50["parent_iqr"], p50["change_wins"]) == (-1, 0, 3)


def test_bench_different_digests_exit_1(tmp_path):
    parent = fake_checkout(tmp_path / "p", [[100, 2, "d"], [110, 2, "d"]])
    change = fake_checkout(tmp_path / "c", [[100, 2, "d"], [110, 2, "e"]])
    proc = ab(tmp_path, "bench", "--parent", str(parent), "--change", str(change),
              "--workload", "w", "--seed", "7", "--rounds", "2")
    assert proc.returncode == 1
    assert "outputs differ" in proc.stderr


def test_highs_sweep_agrees_on_a_small_instance(tmp_path):
    pytest.importorskip("scipy.optimize")
    out = tmp_path / "sweep.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "highs_sweep.py"), "--n", "7",
                           "--k", "2", "--seeds", "99", "--out", str(out)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sweep = json.loads(out.read_text())
    totals = sweep["totals"]
    assert (totals["solves"], totals["disagreements"], totals["both_proven"]) == (4, 0, 4)
    assert all(row["root_bound"] <= row["exact_length"] + 1e-6 for row in sweep["rows"])
