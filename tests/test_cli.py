import random
import xml.etree.ElementTree as ET

import pytest

from plane_supports import cli
from plane_supports.cli import main
from plane_supports.fileio import (parse_hypergraph, parse_support, serialize_hypergraph,
                                   serialize_support)
from plane_supports.gen import DegreeScheme, generate
from plane_supports.model import (ALL_CONSTRAINTS, ConstraintSet, Hypergraph, SupportGraph,
                                  candidate_edges, crossing_count, hyperedge_induced_connected,
                                  is_acyclic, is_support, satisfies, total_length)
from plane_supports.mst import star_support


X_CONFIG_HG = ("H 4 2\n"
               "V 0 0 0 1 0\n"
               "V 1 1 1 1 0\n"
               "V 2 0 1 1 1\n"
               "V 3 1 0 1 1\n")


def run(*argv):
    return main(list(argv))


def test_generate_solve_check_round_trip(tmp_path):
    hg_path = tmp_path / "inst.hg"
    sup_path = tmp_path / "inst.sup"
    assert run("generate", "--n", "14", "--k", "2", "--scheme", "mid",
               "--seed", "7", "--out", str(hg_path)) == 0
    assert run("solve", "--in", str(hg_path), "--algo", "local-search",
               "--constraints", "pt", "--out", str(sup_path), "--report") == 0
    h = parse_hypergraph(hg_path.read_text())
    g = parse_support(sup_path.read_text(), h)
    assert satisfies(g, h, ConstraintSet.from_label("pt"))
    assert run("check", "--in", str(hg_path), "--support", str(sup_path),
               "--constraints", "pt") == 0


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.hg"
    b = tmp_path / "b.hg"
    for out in (a, b):
        assert run("generate", "--n", "10", "--k", "3", "--scheme", "low",
                   "--seed", "5", "--out", str(out)) == 0
    assert a.read_text() == b.read_text()


def test_solve_exact_and_emit_lp(tmp_path):
    hg_path = tmp_path / "x.hg"
    hg_path.write_text(X_CONFIG_HG)
    sup_path = tmp_path / "x.sup"
    assert run("solve", "--in", str(hg_path), "--algo", "exact",
               "--constraints", "u", "--out", str(sup_path)) == 0
    h = parse_hypergraph(X_CONFIG_HG)
    g = parse_support(sup_path.read_text(), h)
    assert g.sorted_edges() == [(0, 1), (2, 3)]

    lp1 = tmp_path / "m1.lp"
    lp2 = tmp_path / "m2.lp"
    for lp in (lp1, lp2):
        assert run("emit-lp", "--in", str(hg_path), "--constraints", "p",
                   "--out", str(lp)) == 0
    assert lp1.read_bytes() == lp2.read_bytes()
    assert "cx_0" in lp1.read_text()


def test_infeasible_exit_codes(tmp_path):
    hg_path = tmp_path / "x.hg"
    hg_path.write_text(X_CONFIG_HG)
    sup_path = tmp_path / "x.sup"
    # plane support provably impossible
    assert run("solve", "--in", str(hg_path), "--algo", "exact",
               "--constraints", "p", "--out", str(sup_path)) == 2
    # local search needs a core
    assert run("solve", "--in", str(hg_path), "--algo", "local-search",
               "--out", str(sup_path)) == 2
    # check against a regime the support violates
    sup_path.write_text("E 0 1\nE 2 3\n")
    assert run("check", "--in", str(hg_path), "--support", str(sup_path),
               "--constraints", "p") == 2
    assert run("check", "--in", str(hg_path), "--support", str(sup_path)) == 0


def test_check_output_matches_model_predicates(tmp_path, capsys):
    # Random edge subsets of random instances: crossing, cyclic and
    # disconnected supports, checked in all four regimes. The expected
    # output is built from the model's own predicates, satisfies included.
    rng = random.Random(61)
    hg_path = tmp_path / "inst.hg"
    sup_path = tmp_path / "inst.sup"
    seen = {"plane tree support": 0, "crossing support": 0, "cyclic support": 0,
            "not a support": 0}
    for trial in range(24):
        h = generate(rng.randint(6, 10), rng.randint(2, 3), DegreeScheme.MID, rng)
        keep = rng.choice((0.2, 0.5, 0.9, None))
        if keep is None:  # a plane support tree
            g = star_support(h)
        else:
            g = SupportGraph(frozenset(e for e in candidate_edges(h) if rng.random() < keep))
        hg_path.write_text(serialize_hypergraph(h))
        sup_path.write_text(serialize_support(g))
        support, crossings, acyclic = is_support(g, h), crossing_count(g, h), is_acyclic(g)
        seen["plane tree support"] += support and crossings == 0 and acyclic
        seen["crossing support"] += support and crossings > 0
        seen["cyclic support"] += support and not acyclic
        seen["not a support"] += not support
        common = [f"length {total_length(g, h):.6f}", f"crossings {crossings}",
                  f"acyclic {str(acyclic).lower()}", f"core_size {len(h.core())}"]
        common += [f"hyperedge {s} "
                   f"{'connected' if hyperedge_induced_connected(g, h, s) else 'DISCONNECTED'}"
                   for s in range(h.k)]
        common.append(f"support {str(support).lower()}")
        for c in ALL_CONSTRAINTS:
            ok = satisfies(g, h, c)
            rc = run("check", "--in", str(hg_path), "--support", str(sup_path),
                     "--constraints", c.label)
            assert rc == (0 if ok else 2), (trial, c.label)
            expected = common + [f"satisfies {c.label} {str(ok).lower()}"]
            assert capsys.readouterr().out == "\n".join(expected) + "\n", (trial, c.label)
        assert run("check", "--in", str(hg_path), "--support", str(sup_path)) == 0
        assert capsys.readouterr().out == "\n".join(common) + "\n"
    assert all(seen.values()), seen


def test_usage_and_parse_errors_exit_one(tmp_path):
    assert run("solve", "--algo", "nonsense") == 1
    assert run("nope") == 1
    bad = tmp_path / "bad.hg"
    bad.write_text("H x y\n")
    out = tmp_path / "o.sup"
    assert run("solve", "--in", str(bad), "--algo", "mst-iter", "--out", str(out)) == 1
    # mst heuristics only run unrestricted
    good = tmp_path / "g.hg"
    assert run("generate", "--n", "8", "--k", "2", "--scheme", "even",
               "--seed", "1", "--out", str(good)) == 0
    assert run("solve", "--in", str(good), "--algo", "mst-approx",
               "--constraints", "pt", "--out", str(out)) == 1
    # flags that only one algorithm reads are refused for the others
    seed_sup = tmp_path / "seed.sup"
    assert run("solve", "--in", str(good), "--algo", "mst-iter", "--out", str(seed_sup)) == 0
    for algo in ("mst-approx", "mst-iter", "exact"):
        assert run("solve", "--in", str(good), "--algo", algo,
                   "--seed-support", str(seed_sup), "--out", str(out)) == 1
    for algo in ("mst-approx", "mst-iter", "local-search"):
        for flag, value in (("--node-cap", "100"), ("--time-cap", "1.5")):
            assert run("solve", "--in", str(good), "--algo", algo,
                       flag, value, "--out", str(out)) == 1
    assert not out.exists()


def test_invalid_choice_lists_the_package_names(capsys):
    # The choices come from harness.ALGORITHMS and model.ALL_CONSTRAINTS, in
    # their order.
    assert run("solve", "--in", "x.hg", "--algo", "bogus", "--out", "x.sup") == 1
    assert capsys.readouterr().err == (
        "error: argument --algo: invalid choice: 'bogus' "
        "(choose from 'mst-approx', 'mst-iter', 'local-search', 'exact')\n")
    assert run("emit-lp", "--in", "x.hg", "--constraints", "tp", "--out", "x.lp") == 1
    assert capsys.readouterr().err == (
        "error: argument --constraints: invalid choice: 'tp' "
        "(choose from 'u', 't', 'p', 'pt')\n")


def test_flag_combination_errors_name_the_algorithm(tmp_path, capsys):
    hg_path = tmp_path / "x.hg"
    hg_path.write_text(X_CONFIG_HG)
    out = tmp_path / "x.sup"
    assert run("solve", "--in", str(hg_path), "--algo", "exact",
               "--seed-support", str(out), "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: --seed-support only applies to --algo local-search\n"
    assert run("solve", "--in", str(hg_path), "--algo", "mst-iter",
               "--node-cap", "5", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: --node-cap and --time-cap only apply to --algo exact\n"
    # the exact solver still takes both caps
    assert run("solve", "--in", str(hg_path), "--algo", "exact", "--node-cap", "1000",
               "--time-cap", "10", "--out", str(out)) == 0


def test_repeated_main_calls_reuse_one_parser(tmp_path, monkeypatch, capsys):
    used = []
    parse_args = cli._Parser.parse_args

    def spy(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", spy)
    hg_path = tmp_path / "x.hg"
    hg_path.write_text(X_CONFIG_HG)
    sup_path = tmp_path / "x.sup"
    lp_path = tmp_path / "x.lp"

    def sequence():
        codes = [run("solve", "--in", str(hg_path), "--algo", "exact", "--constraints", "t",
                     "--out", str(sup_path), "--report"),
                 run("emit-lp", "--in", str(hg_path), "--constraints", "p",
                     "--out", str(lp_path)),
                 run("check", "--in", str(hg_path), "--support", str(sup_path),
                     "--constraints", "t")]
        out = [line for line in capsys.readouterr().out.splitlines()
               if not line.startswith("time_ms ")]
        return codes, out, sup_path.read_bytes(), lp_path.read_bytes()

    first = sequence()
    assert first[0] == [0, 0, 0]
    bad = tmp_path / "bad.hg"
    bad.write_text("H x y\n")
    assert run("nope") == 1
    assert run("solve", "--algo", "nonsense") == 1
    assert run("solve", "--in", str(hg_path), "--algo", "exact") == 1
    assert run("check", "--in", str(bad), "--support", str(sup_path)) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 4 and all(e.startswith("error: ") for e in errors)
    assert "--out" in errors[2]
    assert sequence() == first
    assert len(used) == 10
    assert all(parser is used[0] for parser in used)


def test_family_and_render(tmp_path):
    hg_path = tmp_path / "fam.hg"
    assert run("family", "--n", "12", "--out", str(hg_path)) == 0
    h = parse_hypergraph(hg_path.read_text())
    assert h.n == 12 and h.k == 2
    sup_path = tmp_path / "fam.sup"
    assert run("solve", "--in", str(hg_path), "--algo", "mst-iter",
               "--out", str(sup_path)) == 0
    svg_path = tmp_path / "fam.svg"
    assert run("render", "--in", str(hg_path), "--support", str(sup_path),
               "--out", str(svg_path)) == 0
    ET.fromstring(svg_path.read_text())


def test_seeded_solve(tmp_path):
    hg_path = tmp_path / "i.hg"
    assert run("generate", "--n", "12", "--k", "2", "--scheme", "mid",
               "--seed", "9", "--out", str(hg_path)) == 0
    seed_sup = tmp_path / "seed.sup"
    assert run("solve", "--in", str(hg_path), "--algo", "mst-iter",
               "--out", str(seed_sup)) == 0
    out_sup = tmp_path / "out.sup"
    assert run("solve", "--in", str(hg_path), "--algo", "local-search",
               "--seed-support", str(seed_sup), "--out", str(out_sup)) == 0
    h = parse_hypergraph(hg_path.read_text())
    seeded_len = total_length(parse_support(out_sup.read_text(), h), h)
    base_len = total_length(parse_support(seed_sup.read_text(), h), h)
    assert seeded_len <= base_len + 1e-9


def test_bench_csv_deterministic(tmp_path):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    for out in (csv_a, csv_b):
        assert run("bench", "--n", "10", "--k", "2", "--scheme", "mid,low",
                   "--algo", "mst-approx,mst-iter,local-search",
                   "--constraints", "u", "--trials", "3", "--seed", "77",
                   "--out", str(out)) == 0

    def strip_time(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        return [row[:9] + row[10:] for row in rows]

    assert strip_time(csv_a) == strip_time(csv_b)
    assert len(csv_a.read_text().splitlines()) == 1 + 2 * 3 * 3


def test_bench_skips_unsupported_combos(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run("bench", "--n", "8", "--k", "2", "--scheme", "mid",
               "--algo", "mst-iter,local-search", "--constraints", "u,t",
               "--trials", "2", "--seed", "3", "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "skipping unsupported combination mst-iter/t" in captured.err
    # grid ran: mst-iter/u, local-search/u, local-search/t
    assert len(out.read_text().splitlines()) == 1 + 3 * 2
