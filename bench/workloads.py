"""The benchmark's workloads: how each builds its operations from the seed,
runs one operation through the package's public surface, and checks the
outputs.

A workload's life in one run: ``prepare`` builds the operation list from the
seed (and writes any input files), ``warm_up`` runs every code path once on
a fixed tiny input, ``run`` is the timed call, ``capture`` collects what the
call left behind (untimed, right after it), and ``check`` validates one
captured output independently of the call that produced it.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

REGIMES = ("u", "t", "p", "pt")

# Share of each run's instances that is the same in every run. Single solves
# vary widely in cost (coefficient of variation about 0.4 for local search;
# exact search has a heavy tail), so with a hundred operations per run,
# runs of fully fresh instances differ by 10-15% from seed to seed from the
# inputs alone, more than the program changes a benchmark must resolve. The
# fixed reference set keeps runs on different seeds comparable; the fresh
# tenth still gives every seed inputs no other seed has.
FIXED_SHARE = 0.9


def instance_seeds(name: str, seed: int, count: int) -> list[int]:
    """Generator seeds for `count` instances of workload `name`: a fixed
    reference set plus fresh seeds drawn from `seed`, in an order `seed`
    shuffles."""
    fixed = round(count * FIXED_SHARE)
    reference = random.Random(f"{name}:reference")
    rng = random.Random(f"{name}:{seed}")
    seeds = [reference.randrange(2 ** 31) for _ in range(fixed)]
    seeds += [rng.randrange(2 ** 31) for _ in range(count - fixed)]
    rng.shuffle(seeds)
    return seeds


@dataclass
class Checked:
    """One validated output: canonical bytes for the digest, the recomputed
    support length, and every violation found (empty when correct)."""

    canonical: bytes
    length: float
    problems: list[str] = field(default_factory=list)


def _close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@dataclass(frozen=True)
class Shape:
    """One solver call shape of a trial workload: algorithm, regime, size.
    Instances use the MID degree scheme."""

    algorithm: str
    constraints: str
    n: int
    k: int


class TrialWorkload:
    """Operations are ``harness.run_trial`` calls, one per shape per trial.

    All shapes of a trial share one instance seed. The check regenerates the
    instance, re-solves it with the solver the trial dispatches to, validates
    that support, and requires run_trial's length and rounds to match it.
    """

    def __init__(self, name: str, shapes, trials: int):
        self.name = name
        self.shapes = tuple(shapes)
        self.trials = trials

    def _config(self, shape: Shape, n: int, k: int, seed: int):
        ps = self.ps
        return ps.harness.TrialConfig(
            n, k, ps.gen.DegreeScheme.MID, shape.algorithm,
            ps.model.ConstraintSet.from_label(shape.constraints), seed=seed)

    def prepare(self, ps, seed: int, workdir: Path) -> list:
        self.ps = ps
        # Originals bound now, before any tracing, so checks never show up
        # in the program's spans.
        approx, iterate = ps.heuristics.mst_approximation, ps.heuristics.mst_iteration
        self._solvers = {"mst-approx": lambda g, c: approx(g),
                         "mst-iter": lambda g, c: iterate(g),
                         "local-search": ps.heuristics.local_search}
        self._generate = ps.gen.generate
        self._satisfies = ps.model.satisfies
        self._total_length = ps.model.total_length
        self._serialize = ps.fileio.serialize_support
        ops = []
        for instance_seed in instance_seeds(self.name, seed, self.trials):
            for shape in self.shapes:
                ops.append(self._config(shape, shape.n, shape.k, instance_seed))
        return ops

    def warm_up(self) -> None:
        for shape in self.shapes:
            self.run(self._config(shape, 12, min(shape.k, 3), 0))

    def run(self, cfg):
        return self.ps.harness.run_trial(cfg)

    def capture(self, cfg, record):
        return record

    def fingerprint(self, record):
        return (record.status, record.length, record.rounds, record.proven_optimal)

    def reference(self, cfg):
        """The instance and the solver's own report for one trial."""
        h = self._generate(cfg.n, cfg.k, cfg.scheme, random.Random(cfg.seed))
        return h, self._solvers[cfg.algorithm](h, cfg.constraints)

    def check(self, cfg, record) -> Checked:
        h, report = self.reference(cfg)
        support = report.support
        length = self._total_length(support, h)
        out = Checked(self._serialize(support).encode("utf-8"), length)
        label = cfg.constraints.label
        if record.status != "ok":
            out.problems.append(f"run_trial status {record.status}")
        if not self._satisfies(support, h, cfg.constraints):
            out.problems.append(f"support violates '{label}'")
        if not _close(length, report.length):
            out.problems.append(f"reported length {report.length} != recomputed {length}")
        if not _close(record.length, length):
            out.problems.append(f"run_trial length {record.length} != recomputed {length}")
        if record.rounds != report.rounds_or_passes:
            out.problems.append(f"run_trial rounds {record.rounds} != {report.rounds_or_passes}")
        return out


@dataclass(frozen=True)
class CliCase:
    instance: int
    constraints: str
    hg: str
    sup: str
    lp: str | None


@dataclass(frozen=True)
class CliOutput:
    rc_solve: int
    solve_out: str
    rc_lp: int | None
    rc_check: int
    check_out: str
    stderr: str
    sup_text: str | None = None
    lp_text: str | None = None


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, rest)
    return out


def _read(path: str | None) -> str | None:
    if path is None:
        return None
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


class ExactCliWorkload:
    """Operations are in-process ``cli.main`` calls on ``.hg`` files written
    during set-up: ``solve --algo exact --report`` then ``check
    --constraints``, one operation per instance and regime. The p operation
    of each instance also runs ``emit-lp``. Instances have two hyperedges
    and the LOW degree scheme."""

    def __init__(self, name: str, n: int, instances: int):
        self.name = name
        self.n = n
        self.instances = instances

    def _write_cases(self, tag: str, h, workdir: Path, index: int) -> list[CliCase]:
        hg = workdir / f"{tag}.hg"
        hg.write_text(self.ps.fileio.serialize_hypergraph(h), encoding="utf-8")
        return [CliCase(index, c, str(hg), str(workdir / f"{tag}-{c}.sup"),
                        str(workdir / f"{tag}.lp") if c == "p" else None)
                for c in REGIMES]

    def prepare(self, ps, seed: int, workdir: Path) -> list:
        self.ps = ps
        self.workdir = workdir
        self._parse_support = ps.fileio.parse_support
        self._satisfies = ps.model.satisfies
        self._total_length = ps.model.total_length
        self._from_label = ps.model.ConstraintSet.from_label
        self.hypergraphs = []
        ops = []
        for i, instance_seed in enumerate(instance_seeds(self.name, seed, self.instances)):
            h = ps.gen.generate(self.n, 2, ps.gen.DegreeScheme.LOW, random.Random(instance_seed))
            self.hypergraphs.append(h)
            ops += self._write_cases(f"inst{i}", h, workdir, i)
        return ops

    def warm_up(self) -> None:
        h = self.ps.gen.generate(6, 2, self.ps.gen.DegreeScheme.MID, random.Random(0))
        for case in self._write_cases("warm", h, self.workdir, -1):
            self.run(case)

    def run(self, case: CliCase) -> CliOutput:
        main = self.ps.cli.main
        solve_out, check_out, err = io.StringIO(), io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            with redirect_stdout(solve_out):
                rc_solve = main(["solve", "--in", case.hg, "--algo", "exact",
                                 "--constraints", case.constraints, "--out", case.sup,
                                 "--report"])
            rc_lp = None
            if case.lp is not None:
                with redirect_stdout(err):
                    rc_lp = main(["emit-lp", "--in", case.hg, "--constraints",
                                  case.constraints, "--out", case.lp])
            with redirect_stdout(check_out):
                rc_check = main(["check", "--in", case.hg, "--support", case.sup,
                                 "--constraints", case.constraints])
        return CliOutput(rc_solve, solve_out.getvalue(), rc_lp, rc_check,
                         check_out.getvalue(), err.getvalue())

    def capture(self, case: CliCase, out: CliOutput) -> CliOutput:
        return CliOutput(out.rc_solve, out.solve_out, out.rc_lp, out.rc_check,
                         out.check_out, out.stderr, _read(case.sup), _read(case.lp))

    def fingerprint(self, out: CliOutput):
        report = _fields(out.solve_out)
        report.pop("time_ms", None)
        return (out.rc_solve, sorted(report.items()), out.rc_lp, out.rc_check,
                out.check_out, out.sup_text, out.lp_text)

    def check(self, case: CliCase, out: CliOutput) -> Checked:
        canonical = (out.sup_text or "") + (out.lp_text or "")
        res = Checked(canonical.encode("utf-8"), 0.0)
        for cmd, rc in (("solve", out.rc_solve), ("emit-lp", out.rc_lp),
                        ("check", out.rc_check)):
            if rc not in (0, None):
                res.problems.append(f"{cmd} exited {rc}: {out.stderr.strip()}")
        if case.lp is not None and not out.lp_text:
            res.problems.append("emit-lp wrote no LP file")
        report, checked = _fields(out.solve_out), _fields(out.check_out)
        c = case.constraints
        if report.get("proven_optimal") != "true":
            res.problems.append("exact solve not proven optimal")
        if report.get("length") is None or report.get("length") != checked.get("length"):
            res.problems.append(f"solve length {report.get('length')} != "
                                f"check length {checked.get('length')}")
        if checked.get("satisfies") != f"{c} true":
            res.problems.append(f"check does not confirm '{c}'")
        if out.sup_text is None:
            res.problems.append("solve wrote no support file")
            return res
        h = self.hypergraphs[case.instance]
        support = self._parse_support(out.sup_text, h)
        if not self._satisfies(support, h, self._from_label(c)):
            res.problems.append(f"support violates '{c}'")
        res.length = self._total_length(support, h)
        if f"{res.length:.6f}" != report.get("length"):
            res.problems.append(f"reported length {report.get('length')} != "
                                f"recomputed {res.length:.6f}")
        return res
