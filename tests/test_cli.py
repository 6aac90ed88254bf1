import json
import random
import subprocess
import sys

import pytest

from mcis import CONFIG_NAMES, Graph
from mcis.cli import main
from reference import to_lad

K3_LAD = "3\n2 1 2\n2 0 2\n2 0 1\n"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def k3(tmp_path):
    return write(tmp_path / "k3.lad", K3_LAD)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solve ----------------------------------------------------------------------


def test_solve_triangles(capsys, k3):
    code, out, _ = run(capsys, "solve", k3, k3)
    assert code == 0
    payload = json.loads(out)
    assert payload["incumbent_size"] == 3
    assert payload["completed"] is True
    assert payload["config"] == "dual"


def test_solve_rule_flags(capsys, k3):
    for name in CONFIG_NAMES:
        code, out, _ = run(capsys, "solve", k3, k3, "--config", name)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"] == name
        assert payload["incumbent_size"] == 3
        # a rule that is off prunes nothing
        if name in ("none", "val"):
            assert payload["var_sym_prunes"] == 0
        if name in ("none", "var"):
            assert payload["val_sym_prunes"] == 0


@pytest.mark.parametrize("flag", [["--config", "all"], ["--no-var-sym"]])
def test_solve_rejects_unknown_rule_option(capsys, k3, flag):
    # --no-var-sym was replaced by --config, not kept as a second spelling
    with pytest.raises(SystemExit) as exc:
        main(["solve", k3, k3, *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cached_parser_keeps_no_state_between_calls(capsys, tmp_path, k3):
    # the parser is built once per process; flags of one call must not leak
    code, out, _ = run(capsys, "solve", k3, k3, "--config", "val")
    assert code == 0 and json.loads(out)["config"] == "val"
    code, out, _ = run(capsys, "solve", k3, k3)
    assert code == 0 and json.loads(out)["config"] == "dual"
    star = write(tmp_path / "star.lad", to_lad(Graph(3, [(0, 1), (0, 2)])))
    code, out, _ = run(capsys, "symmetry", star)
    assert code == 0
    assert json.loads(out) == {"classes": [{"kind": "negative", "members": ["1", "2"]}]}


def test_solve_writes_stats_json(capsys, tmp_path, k3):
    stats = tmp_path / "stats.json"
    code, out, _ = run(capsys, "solve", k3, k3, "--stats-json", str(stats))
    assert code == 0
    assert json.loads(stats.read_text()) == json.loads(out)


def test_solve_timeout_exit_code(capsys, tmp_path):
    rng = random.Random(3)
    n = 40
    paths = []
    for name in ("a", "b"):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        paths.append(write(tmp_path / f"{name}.lad", to_lad(Graph(n, edges))))
    code, out, _ = run(capsys, "solve", *paths, "--timeout", "0.05")
    assert code == 2
    assert json.loads(out)["completed"] is False


def test_solve_accepts_infinite_timeout(capsys, k3):
    code, out, _ = run(capsys, "solve", k3, k3, "--timeout", "inf")
    assert code == 0
    assert json.loads(out)["incumbent_size"] == 3


def test_solve_parse_error_goes_to_stderr(capsys, tmp_path):
    bad = write(tmp_path / "bad.lad", "2\n1 7\n1 0\n")
    good = write(tmp_path / "k3.lad", K3_LAD)
    code, out, err = run(capsys, "solve", bad, good)
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2:")


def test_solve_input_that_is_not_utf8_names_its_line(capsys, tmp_path, k3):
    bad = tmp_path / "bad.lad"
    bad.write_bytes(b"2\n\xff 1\n1 0\n")
    code, out, err = run(capsys, "solve", str(bad), k3)
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2:")


def test_solve_missing_file(capsys, k3):
    code, _, err = run(capsys, "solve", k3, "nope.lad")
    assert code == 1
    assert "error:" in err


def test_solve_edgelist_directed(capsys, tmp_path):
    g = write(tmp_path / "g.txt", "2 1\n0 1\n")
    h = write(tmp_path / "h.txt", "2 2\n0 1\n1 0\n")
    code, out, _ = run(
        capsys, "solve", g, h, "--format", "edgelist", "--directed"
    )
    assert code == 0
    assert json.loads(out)["incumbent_size"] == 1


@pytest.mark.parametrize("flag", [[], ["--loops"]])
def test_solve_lad_reads_own_vertex_as_loop_with_or_without_loops_flag(capsys, tmp_path, flag):
    # vertex 0 of G lists itself: a looped vertex maps only to a looped one,
    # so K2 with one loop shares one vertex with K2; --loops is for edge lists
    looped = write(tmp_path / "looped.lad", "2\n2 0 1\n1 0\n")
    k2 = write(tmp_path / "k2.lad", "2\n1 1\n1 0\n")
    code, out, _ = run(capsys, "solve", looped, k2, *flag)
    assert code == 0
    payload = json.loads(out)
    assert payload["incumbent_size"] == 1
    assert payload["mapping"] == [["1", "0"]]
    code, out, _ = run(capsys, "solve", k2, k2, *flag)
    assert json.loads(out)["incumbent_size"] == 2


def test_solve_edgelist_rejects_loop_without_loops_flag(capsys, tmp_path):
    looped = write(tmp_path / "looped.txt", "2 2\n0 0\n0 1\n")
    code, _, err = run(capsys, "solve", looped, looped, "--format", "edgelist")
    assert code == 1
    assert "line 2" in err
    code, out, _ = run(capsys, "solve", looped, looped, "--format", "edgelist", "--loops")
    assert json.loads(out)["incumbent_size"] == 2


# -- other subcommands -------------------------------------------------------------


def test_symmetry_star(capsys, tmp_path):
    star = write(tmp_path / "star.lad", to_lad(Graph(5, [(0, i) for i in range(1, 5)])))
    code, out, _ = run(capsys, "symmetry", star)
    assert code == 0
    assert json.loads(out) == {"classes": [{"kind": "negative", "members": ["1", "2", "3", "4"]}]}


def test_symmetry_lists_classes_by_smallest_member(capsys, tmp_path):
    # detection finds the negative class {3, 4} before the positive {0, 1};
    # the output still lists classes in order of their smallest member
    g = write(tmp_path / "g.lad", to_lad(Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)])))
    code, out, _ = run(capsys, "symmetry", g)
    assert code == 0
    assert out == (
        '{"classes": [{"kind": "positive", "members": ["0", "1"]}, '
        '{"kind": "negative", "members": ["3", "4"]}]}\n'
    )



def test_symmetry_prints_display_names(capsys, tmp_path):
    # members are named as solve and oracle name mapped vertices
    star = write(tmp_path / "star.txt", "4 3\nhub a\nhub b\nhub c\n")
    code, out, _ = run(capsys, "symmetry", star, "--format", "edgelist")
    assert code == 0
    assert json.loads(out) == {"classes": [{"kind": "negative", "members": ["a", "b", "c"]}]}

def test_oracle_triangles(capsys, k3):
    code, out, _ = run(capsys, "oracle", k3, k3, "--max-witnesses", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 3
    assert payload["witness_count"] == 6  # 3! relabellings of a triangle
    assert len(payload["witnesses"]) == 2
    assert payload["witnesses"][0] == [["0", "0"], ["1", "1"], ["2", "2"]]


def test_oracle_counts_witnesses_past_the_cap(capsys, tmp_path):
    k5 = write(tmp_path / "k5.lad", to_lad(Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])))
    code, out, _ = run(capsys, "oracle", k5, k5, "--max-witnesses", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 5
    assert payload["witness_count"] == 120  # 5! relabellings, one kept
    assert len(payload["witnesses"]) == 1
    assert payload["witnesses_capped"] is True


def test_oracle_rejects_negative_max_witnesses(capsys, k3):
    code, out, err = run(capsys, "oracle", k3, k3, "--max-witnesses", "-1")
    assert code == 1
    assert out == ""
    assert "--max-witnesses" in err


def test_oracle_guard_is_reported(capsys, tmp_path):
    big = write(tmp_path / "big.lad", to_lad(Graph(11)))
    code, _, err = run(capsys, "oracle", big, big)
    assert code == 1
    assert "error:" in err


def test_bench_writes_outputs(capsys, tmp_path):
    write(tmp_path / "k3.lad", K3_LAD)
    man = write(tmp_path / "m.txt", "k3.lad k3.lad\n")
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "bench", man, "--configs", "dual,none", "--jobs", "1", "--out", str(out_dir)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["configs"] == ["dual", "none"]
    assert payload["per_config"]["dual"]["solved"] == 1
    for name in ("reports.jsonl", "summary.json", "cumulative.csv", "comparison.csv"):
        assert (out_dir / name).exists()


# -- argument handling ---------------------------------------------------------------


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_entry_point_runs_in_subprocess(tmp_path):
    path = write(tmp_path / "k3.lad", K3_LAD)
    proc = subprocess.run(
        [sys.executable, "-m", "mcis.cli", "solve", path, path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["incumbent_size"] == 3


def test_import_loads_no_process_pool():
    # only a parallel batch needs the pool; a single solve never does
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mcis.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
