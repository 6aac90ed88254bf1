import json
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import mcis.bench
from mcis import (
    Graph,
    GraphParseError,
    SearchStats,
    Solution,
    SolverConfig,
    aggregate_reports,
    run_batch,
    run_instance,
    solve,
)
from mcis.bench import _curve_bounds, load_graph, read_manifest
from mcis.cli import main
from known_instance import BRANCHES, graph_g, graph_h
from reference import to_lad

K3_LAD = "3\n2 1 2\n2 0 2\n2 0 1\n"
P3_LAD = "3\n1 1\n2 0 2\n1 1\n"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def k3_pair(tmp_path):
    g = write(tmp_path / "g.lad", K3_LAD)
    h = write(tmp_path / "h.lad", K3_LAD)
    return g, h


# -- single runs ---------------------------------------------------------------


def test_run_instance_triangles(k3_pair):
    rep = run_instance(*k3_pair, SolverConfig("dual"))
    assert rep.incumbent_size == 3
    assert rep.completed
    assert rep.config == "dual"
    assert rep.error is None
    assert rep.verified
    assert rep.branches >= rep.branches_to_best
    assert sorted(rep.mapping) == [["0", "0"], ["1", "1"], ["2", "2"]]
    # the report carries every counter of the solve, under the same name
    g, h = (load_graph(p) for p in k3_pair)
    stats = vars(solve(g, h, SolverConfig("dual")).stats)
    stats.pop("time_to_best")
    assert {k: vars(rep)[k] for k in stats} == stats
    assert list(vars(rep))[: len(fields(SearchStats))] == [f.name for f in fields(SearchStats)]


def test_run_instance_reports_broken_mapping_unverified(tmp_path, monkeypatch):
    g = write(tmp_path / "g.lad", K3_LAD)
    h = write(tmp_path / "h.lad", P3_LAD)
    # 0 and 2 are adjacent in K3 but not in P3
    broken = Solution(mapping=[(0, 0), (2, 2)], stats=SearchStats(incumbent_size=2))
    monkeypatch.setattr(mcis.bench, "solve", lambda *args: broken)
    rep = run_instance(g, h, SolverConfig())
    assert rep.mapping == [["0", "0"], ["2", "2"]]
    assert rep.verified is False


def test_run_instance_star_dual_prunes_more(tmp_path):
    star = Graph(7, [(0, i) for i in range(1, 7)])
    path = write(tmp_path / "star.lad", to_lad(star))
    dual = run_instance(path, path, SolverConfig("dual"))
    none = run_instance(path, path, SolverConfig("none"))
    assert dual.incumbent_size == none.incumbent_size == 7
    assert dual.branches < none.branches


def test_run_instance_timeout_path(tmp_path):
    rng = random.Random(5)
    n = 40
    text = to_lad(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]))
    g = write(tmp_path / "a.lad", text)
    rng = random.Random(6)
    text = to_lad(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]))
    h = write(tmp_path / "b.lad", text)
    rep = run_instance(g, h, SolverConfig(timeout=0.05))
    assert not rep.completed
    assert rep.incumbent_size >= 0
    assert rep.wall_time >= 0.05


def test_run_instance_named_edgelist(tmp_path):
    g = write(tmp_path / "g.txt", "2 1\nx y\n")
    h = write(tmp_path / "h.txt", "2 1\np q\n")
    rep = run_instance(g, h, SolverConfig(), fmt="edgelist")
    assert rep.incumbent_size == 2
    assert all(a in ("x", "y") and b in ("p", "q") for a, b in rep.mapping)


def test_load_graph_validates_format():
    with pytest.raises(ValueError, match="undirected only"):
        load_graph("whatever.lad", fmt="lad", directed=True)
    with pytest.raises(ValueError, match="unknown format"):
        load_graph("whatever", fmt="gml")


# a symbolic-name edge list whose names are not ASCII
NAMED_TEXT = "3 2\nÅsa bjørn\nbjørn 李\n"


def test_load_graph_reads_crlf_utf8_as_its_lf_twin(tmp_path):
    lf = tmp_path / "lf.txt"
    crlf = tmp_path / "crlf.txt"
    lf.write_bytes(NAMED_TEXT.encode("utf-8"))
    crlf.write_bytes(NAMED_TEXT.replace("\n", "\r\n").encode("utf-8"))
    a, b = load_graph(lf, "edgelist"), load_graph(crlf, "edgelist")
    assert a == b
    assert a.names == b.names == ["Åsa", "bjørn", "李"]
    man = tmp_path / "måns.txt"
    man.write_bytes("# første\r\nlf.txt crlf.txt\r\n".encode("utf-8"))
    assert read_manifest(man) == [(str(lf), str(crlf))]
    # a byte-order mark is no part of the first token, of a graph or a manifest
    bom = tmp_path / "bom.txt"
    bom.write_bytes(NAMED_TEXT.encode("utf-8-sig"))
    assert load_graph(bom, "edgelist") == a
    bom_lad = tmp_path / "bom.lad"
    bom_lad.write_bytes(K3_LAD.replace("\n", "\r\n").encode("utf-8-sig"))
    assert load_graph(bom_lad) == load_graph(write(tmp_path / "k3.lad", K3_LAD))
    man.write_bytes("lf.txt bom.txt\r\n".encode("utf-8-sig"))
    assert read_manifest(man) == [(str(lf), str(bom))]


def test_load_graph_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # lines as splitlines numbers them: a CRLF is one break, a form feed one
    cases = [
        ("bad.lad", "lad", b"2\n\xff 1\n1 0\n", 2),
        ("bom.lad", "lad", b"\xef\xbb\xbf2\r\n1 1\r\n1\xff0\r\n", 3),
        ("bad.txt", "edgelist", b"3 2\n0 1\n1 caf\xe9\n", 3),
        ("ff.txt", "edgelist", b"3 2\x0c0 1\n\xe9 2\n", 3),
        ("first.txt", "edgelist", b"\xff", 1),
    ]
    for name, fmt, data, line in cases:
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(GraphParseError, match=f"^line {line}: byte 0x") as info:
            load_graph(path, fmt)
        assert info.value.line_no == line, name


def test_load_graph_ignores_the_locale_encoding(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(NAMED_TEXT.encode("utf-8"))
    src = str(Path(mcis.bench.__file__).parents[1])
    code = (
        "import locale, sys; from mcis.bench import load_graph; "
        "print(locale.getpreferredencoding(False)); print(ascii(load_graph(sys.argv[1], 'edgelist').names))"
    )
    # the C locale without coercion or UTF-8 mode decodes text files as ASCII
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    if "utf" in out[0].lower().replace("-", ""):
        pytest.skip(f"this platform's C locale reads {out[0]}")
    assert out[1] == ascii(["Åsa", "bjørn", "李"])


# -- manifests -------------------------------------------------------------------


def test_read_manifest_skips_comments_and_resolves(tmp_path):
    man = tmp_path / "runs" / "m.txt"
    man.parent.mkdir()
    man.write_text("# header\n\ng.lad h.lad\n  a.lad\tb.lad  \n")
    pairs = read_manifest(man)
    assert pairs == [
        (str(man.parent / "g.lad"), str(man.parent / "h.lad")),
        (str(man.parent / "a.lad"), str(man.parent / "b.lad")),
    ]


def test_read_manifest_rejects_odd_lines(tmp_path):
    man = write(tmp_path / "m.txt", "one.lad\n")
    with pytest.raises(ValueError, match="two paths"):
        read_manifest(man)


def test_read_manifest_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    man = tmp_path / "m.txt"
    man.write_bytes(b"# header\r\ng.lad h\xff.lad\n")
    with pytest.raises(ValueError, match=r"m\.txt:2: byte 0xff is not UTF-8$"):
        read_manifest(man)


# -- aggregation -----------------------------------------------------------------


def report(
    instance, config, wall=1.0, completed=True, size=3, err=None, var=0, val=0, bound=1, branches=10
):
    return {
        "instance": instance,
        "config": config,
        "incumbent_size": size,
        "completed": completed,
        "wall_time": wall,
        "branches": branches,
        "bound_prunes": bound,
        "var_sym_prunes": var,
        "val_sym_prunes": val,
        "time_to_best": 0.0,
        "branches_to_best": 1,
        "mapping": [],
        "error": err,
    }


def test_aggregate_speedups_on_co_solved():
    reports = [
        report("a", "dual", wall=1.0),
        report("a", "none", wall=4.0),
        report("b", "dual", wall=2.0),
        report("b", "none", wall=2.0),
    ]
    summary = aggregate_reports(reports, ["dual", "none"], timeout=10.0)
    row = summary["comparisons"][0]
    assert row["candidate"] == "dual" and row["baseline"] == "none"
    assert row["co_solved"] == 2
    assert row["mean_speedup"] == pytest.approx(2.5)
    assert row["max_speedup"] == pytest.approx(4.0)
    assert row["co_unsolved"] == 0


def test_aggregate_branch_ratio_sums_co_solved_pairs():
    reports = [
        report("a", "dual", branches=10),
        report("a", "none", branches=100),
        report("b", "dual", branches=30),
        report("b", "none", branches=60),
        # neither is co-solved, so neither counts
        report("c", "dual", branches=1, completed=False),
        report("c", "none", branches=1000),
        report("d", "dual", branches=1),
        report("d", "none", branches=1000, err="boom"),
    ]
    summary = aggregate_reports(reports, ["dual", "none"], timeout=10.0)
    # summed, not averaged: (100 + 60) / (10 + 30), where the mean ratio is 6
    assert summary["comparisons"][0]["branch_ratio"] == pytest.approx(4.0)
    only_unsolved = aggregate_reports(reports[4:6], ["dual", "none"], timeout=10.0)
    assert only_unsolved["comparisons"][0]["branch_ratio"] == 0.0


def test_aggregate_incumbent_deltas_on_co_unsolved():
    reports = [
        report("a", "dual", completed=False, size=5),
        report("a", "none", completed=False, size=3),
    ]
    summary = aggregate_reports(reports, ["dual", "none"], timeout=10.0)
    row = summary["comparisons"][0]
    assert row["co_unsolved"] == 1
    assert row["deltas"] == [2]
    assert row["mean_delta"] == pytest.approx(2.0)


def test_aggregate_errors_are_excluded_from_pairwise():
    reports = [
        report("a", "dual", err="boom"),
        report("a", "none"),
        report("b", "dual"),
        report("b", "none"),
    ]
    summary = aggregate_reports(reports, ["dual", "none"], timeout=10.0)
    assert summary["per_config"]["dual"]["errors"] == 1
    assert summary["per_config"]["dual"]["solved"] == 1
    assert summary["comparisons"][0]["co_solved"] == 1


def test_aggregate_curves_are_monotone():
    reports = [report(str(i), "dual", wall=w) for i, w in enumerate((0.004, 0.04, 0.4, 4.0))]
    summary = aggregate_reports(reports, ["dual"], timeout=10.0)
    curve = summary["curves"]["dual"]
    assert curve == sorted(curve)
    assert curve[-1] == 4


def test_curve_bounds_grid():
    bounds = _curve_bounds(1800.0)
    assert bounds[0] == pytest.approx(0.001)
    assert bounds[-1] == 1800.0
    assert bounds == sorted(bounds)


# -- whole batches ----------------------------------------------------------------


def test_run_batch_end_to_end(tmp_path):
    write(tmp_path / "k3.lad", K3_LAD)
    write(tmp_path / "p3.lad", P3_LAD)
    man = write(
        tmp_path / "manifest.txt",
        "k3.lad k3.lad\np3.lad k3.lad\nk3.lad p3.lad\n",
    )
    out = tmp_path / "results"
    summary = run_batch(man, configs=["dual", "none"], jobs=1, out_dir=out, timeout=5.0)

    lines = (out / "reports.jsonl").read_text().splitlines()
    assert len(lines) == 6
    rows = [json.loads(line) for line in lines]
    # manifest order preserved: instance ids ascend pairwise
    assert [r["instance"] for r in rows] == sorted(r["instance"] for r in rows)
    assert {r["config"] for r in rows} == {"dual", "none"}
    assert all(r["completed"] and r["error"] is None for r in rows)

    stored = json.loads((out / "summary.json").read_text())
    assert stored["per_config"]["dual"]["solved"] == 3
    assert stored["comparisons"][0]["co_solved"] == 3
    assert stored["comparisons"][0]["mean_speedup"] >= 0.0
    assert summary["per_config"] == stored["per_config"]

    cumulative = (out / "cumulative.csv").read_text().splitlines()
    assert cumulative[0] == "time_bound_s,solved_dual,solved_none"
    assert len(cumulative) > 1
    comparison = (out / "comparison.csv").read_text().splitlines()
    assert comparison[0].startswith("candidate,baseline")
    assert len(comparison) == 2


def test_run_batch_branch_ratio_on_known_counts(tmp_path):
    g_path = write(tmp_path / "g.lad", to_lad(graph_g()))
    h_path = write(tmp_path / "h.lad", to_lad(graph_h()))
    star = Graph(7, [(0, i) for i in range(1, 7)])
    write(tmp_path / "star.lad", to_lad(star))
    man = write(tmp_path / "manifest.txt", "g.lad h.lad\nstar.lad star.lad\n")
    out = tmp_path / "results"
    summary = run_batch(man, configs=["dual", "none"], jobs=1, out_dir=out, timeout=5.0)
    star_none = solve(star, star, SolverConfig("none")).stats.branches
    star_dual = solve(star, star, SolverConfig("dual")).stats.branches
    want = (BRANCHES["none"] + star_none) / (BRANCHES["dual"] + star_dual)
    row = summary["comparisons"][0]
    assert row["co_solved"] == 2
    assert row["branch_ratio"] == pytest.approx(want)
    comparison = (out / "comparison.csv").read_text().splitlines()
    assert comparison[0].endswith(",mean_delta,branch_ratio")
    assert float(comparison[1].split(",")[-1]) == pytest.approx(want, rel=1e-5)
    assert json.loads((out / "summary.json").read_text())["comparisons"][0]["branch_ratio"] == row["branch_ratio"]


def test_run_batch_empty_manifest_writes_headers_only(tmp_path):
    man = write(tmp_path / "empty.txt", "# nothing\n")
    out = tmp_path / "results"
    run_batch(man, configs=["dual", "none"], jobs=1, out_dir=out, timeout=5.0)
    assert (out / "cumulative.csv").read_text() == "time_bound_s,solved_dual,solved_none\n"
    assert (
        out / "comparison.csv"
    ).read_text() == "candidate,baseline,co_solved,mean_speedup,max_speedup,co_unsolved,mean_delta,branch_ratio\n"
    assert (out / "reports.jsonl").read_text() == ""


def test_run_batch_records_failures_and_continues(tmp_path):
    write(tmp_path / "k3.lad", K3_LAD)
    man = write(tmp_path / "m.txt", "k3.lad missing.lad\nk3.lad k3.lad\n")
    out = tmp_path / "results"
    summary = run_batch(man, configs=["dual"], jobs=1, out_dir=out, timeout=5.0)
    rows = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["error"] is not None
    assert rows[1]["error"] is None and rows[1]["incumbent_size"] == 3
    assert list(rows[0]) == list(rows[1])
    failed = {k: v for k, v in rows[0].items() if k not in ("instance", "config", "error")}
    assert not any(failed.values())
    assert failed["completed"] is False and failed["verified"] is False and failed["mapping"] == []
    assert summary["per_config"]["dual"]["errors"] == 1


def test_run_batch_records_a_graph_that_is_not_utf8(tmp_path):
    write(tmp_path / "k3.lad", K3_LAD)
    (tmp_path / "bad.lad").write_bytes(b"3\n2 1 2\n2 0\xff2\n2 0 1\n")
    man = write(tmp_path / "m.txt", "bad.lad k3.lad\nk3.lad k3.lad\n")
    run_batch(man, configs=["dual"], jobs=1, out_dir=tmp_path / "o", timeout=5.0)
    rows = [json.loads(line) for line in (tmp_path / "o" / "reports.jsonl").read_text().splitlines()]
    assert rows[0]["error"].startswith("GraphParseError: line 3:")
    assert rows[1]["error"] is None and rows[1]["incumbent_size"] == 3


def test_run_batch_makes_its_out_dir_before_any_solve(tmp_path, monkeypatch):
    write(tmp_path / "k3.lad", K3_LAD)
    man = write(tmp_path / "m.txt", "k3.lad k3.lad\n")
    write(tmp_path / "notadir", "")
    solves = []

    def spy(*args):
        solves.append(args)
        return run_instance(*args)

    monkeypatch.setattr(mcis.bench, "run_instance", spy)
    with pytest.raises(NotADirectoryError):
        run_batch(man, configs=["dual", "none"], jobs=1, out_dir=tmp_path / "notadir" / "sub", timeout=5.0)
    assert solves == []


def test_run_batch_parallel_matches_serial(tmp_path):
    write(tmp_path / "k3.lad", K3_LAD)
    write(tmp_path / "p3.lad", P3_LAD)
    man = write(tmp_path / "m.txt", "k3.lad p3.lad\np3.lad p3.lad\nk3.lad k3.lad\n")

    run_batch(man, configs=["dual", "none"], jobs=1, out_dir=tmp_path / "serial", timeout=5.0)
    run_batch(man, configs=["dual", "none"], jobs=2, out_dir=tmp_path / "par", timeout=5.0)

    def rows(d):
        out = []
        for line in (d / "reports.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wall_time")
            rec.pop("time_to_best")
            out.append(rec)
        return out

    assert rows(tmp_path / "serial") == rows(tmp_path / "par")


def test_run_batch_rejects_unknown_config(tmp_path):
    man = write(tmp_path / "m.txt", "")
    with pytest.raises(ValueError, match="unknown config"):
        run_batch(man, configs=["fancy"], jobs=1, out_dir=tmp_path / "o")


def test_run_batch_rejects_duplicate_config(tmp_path):
    write(tmp_path / "k3.lad", K3_LAD)
    man = write(tmp_path / "m.txt", "k3.lad k3.lad\n")
    with pytest.raises(ValueError, match="duplicate config"):
        run_batch(man, configs=["dual", "none", "dual"], jobs=1, out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_run_batch_rejects_empty_config_list(tmp_path):
    man = write(tmp_path / "m.txt", "")
    with pytest.raises(ValueError, match="at least one config"):
        run_batch(man, configs=[], jobs=1, out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_run_batch_rejects_nan_timeout(tmp_path):
    man = write(tmp_path / "m.txt", "")
    with pytest.raises(ValueError, match="timeout"):
        run_batch(man, configs=["dual"], jobs=1, out_dir=tmp_path / "o", timeout=float("nan"))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_batch_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    # checked before the manifest is read or the output directory made, and
    # mcis bench --jobs reports it as an error, not as a serial run
    write(tmp_path / "k3.lad", K3_LAD)
    man = write(tmp_path / "m.txt", "k3.lad k3.lad\n")
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        run_batch(man, configs=["dual"], jobs=jobs, out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()
    assert main(["bench", man, "--jobs", str(jobs), "--out", str(tmp_path / "o")]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_batch_rejects_infinite_timeout(tmp_path):
    # the solved-curve grid would never end, and summary.json would hold
    # a bare Infinity
    man = write(tmp_path / "m.txt", "")
    with pytest.raises(ValueError, match="timeout must be finite"):
        run_batch(man, configs=["dual"], jobs=1, out_dir=tmp_path / "o", timeout=float("inf"))
    assert not (tmp_path / "o").exists()
