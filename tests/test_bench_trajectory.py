"""The counter comparison of ``tools/bench_trajectory.py``, on made-up files."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def bench(created, branches, var_branches, extra=None, var_completed=2):
    counters = {"branches": branches, "solver.bound_prunes": 7}
    counters.update(extra or {})
    var = {"branches": var_branches, "completed": var_completed, "instances": 2}
    return {
        "created": created,
        "workloads": {
            "random-undirected": {"counters": counters},
            "large-sparse": {"counters": {"branches": 5}},
        },
        "rules": {"workload": "twins-symmetric", "seed": 1, "configs": {"var": var}},
    }


def test_drift_names_each_changed_or_missing_counter():
    old = bench("2026-01-01T00:00:00+00:00", 100, 30)
    new = bench("2026-01-02T00:00:00+00:00", 90, 30, extra={"solver.val_sym_prunes": 4})
    assert bench_trajectory.drift(old, new) == [
        {"scope": "random-undirected", "counter": "branches", "previous": 100, "current": 90},
        {"scope": "random-undirected", "counter": "solver.val_sym_prunes", "previous": None, "current": 4},
    ]
    newer = bench("2026-01-03T00:00:00+00:00", 90, 31, extra={"solver.val_sym_prunes": 4})
    assert bench_trajectory.drift(new, newer) == [
        {"scope": "twins-symmetric seed 1", "counter": "var.branches", "previous": 30, "current": 31}
    ]
    assert bench_trajectory.drift(newer, newer) == []
    # a timed-out run makes its branch total depend on the machine
    timed_out = bench("2026-01-04T00:00:00+00:00", 90, 31, extra={"solver.val_sym_prunes": 4}, var_completed=1)
    assert bench_trajectory.drift(newer, timed_out) == [
        {"scope": "twins-symmetric seed 1", "counter": "var.completed", "previous": 2, "current": 1}
    ]


def test_previous_file_is_the_latest_created_other_than_the_target(tmp_path):
    for label, created in (("a", "2026-01-03"), ("b", "2026-01-01"), ("c", "2026-01-02")):
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps(bench(created, 1, 1)))
    assert bench_trajectory.latest(tmp_path, tmp_path / "BENCH_new.json").name == "BENCH_a.json"
    # a rerun of a label compares with the file before it, not with itself
    assert bench_trajectory.latest(tmp_path, tmp_path / "BENCH_a.json").name == "BENCH_c.json"
    assert bench_trajectory.latest(tmp_path / "missing", tmp_path / "BENCH_a.json") is None


@pytest.mark.parametrize("var_completed, code", [(2, 0), (1, 1)])
def test_main_fails_when_a_rules_run_times_out(monkeypatch, tmp_path, var_completed, code):
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    spec = {"run_seconds": 1, "workloads": [{"name": "large-sparse"}]}
    (checkout / "BENCHMARK.json").write_text(json.dumps(spec))
    verdict = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"branches": {"value": 5, "unit": "count"}}}
    configs = bench("", 0, 30, var_completed=var_completed)["rules"]["configs"]
    monkeypatch.setattr(bench_trajectory, "run_workload", lambda *args: verdict)
    monkeypatch.setattr(bench_trajectory, "rule_totals", lambda root: configs)
    assert bench_trajectory.main([str(checkout), "x", "--out", str(tmp_path)]) == code
    written = json.loads((tmp_path / "BENCH_x.json").read_bytes())
    assert written["rules"]["configs"] == configs and written["drift"] == []


def test_check_fails_on_one_moved_counter(monkeypatch, tmp_path, capsys):
    spec = {"run_seconds": 25, "workloads": [{"name": "large-sparse"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    verdict = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"branches": {"value": 5, "unit": "count"}}}
    configs = bench("", 0, 30)["rules"]["configs"]
    seconds = []
    monkeypatch.setattr(bench_trajectory, "run_workload", lambda root, w, seed, s, trace: seconds.append(s) or verdict)
    monkeypatch.setattr(bench_trajectory, "rule_totals", lambda root: configs)
    measured, ok = bench_trajectory.measure(tmp_path, 1)
    assert ok and seconds == [1, 1]
    recorded = {"created": "2026-01-01T00:00:00+00:00", **measured}
    (tmp_path / "BENCH_a.json").write_text(json.dumps(recorded))
    assert bench_trajectory.check(tmp_path) == 0
    assert seconds == [1, 1, 1, 1]
    assert capsys.readouterr().out == "every counter equals BENCH_a.json\n"
    # a later file with one workload counter or one rule total moved fails the
    # gate, which names the counter
    for edit, named in (
        (lambda d: d["workloads"]["large-sparse"]["counters"].update(branches=6), "large-sparse branches: BENCH_b.json 6, this run 5"),
        (lambda d: d["rules"]["configs"]["var"].update(branches=31), "twins-symmetric seed 1 var.branches: BENCH_b.json 31, this run 30"),
    ):
        moved = json.loads(json.dumps(recorded))
        moved["created"] = "2026-01-02T00:00:00+00:00"
        edit(moved)
        (tmp_path / "BENCH_b.json").write_text(json.dumps(moved))
        assert bench_trajectory.check(tmp_path) == 1
        assert f"drift: {named}\n" in capsys.readouterr().out
    # so does an incorrect run with every counter equal
    monkeypatch.setattr(bench_trajectory, "run_workload", lambda *args: {**verdict, "correct": False})
    assert bench_trajectory.check(tmp_path) == 1
