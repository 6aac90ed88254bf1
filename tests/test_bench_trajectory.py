"""The counter comparison of ``tools/bench_trajectory.py``, on made-up files."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def bench(created, branches, var_branches, extra=None):
    counters = {"branches": branches, "solver.bound_prunes": 7}
    counters.update(extra or {})
    return {
        "created": created,
        "workloads": {
            "random-undirected": {"counters": counters},
            "large-sparse": {"counters": {"branches": 5}},
        },
        "rules": {"workload": "twins-symmetric", "seed": 1, "configs": {"var": {"branches": var_branches}}},
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


def test_previous_file_is_the_latest_created_other_than_the_target(tmp_path):
    for label, created in (("a", "2026-01-03"), ("b", "2026-01-01"), ("c", "2026-01-02")):
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps(bench(created, 1, 1)))
    assert bench_trajectory.latest(tmp_path, tmp_path / "BENCH_new.json").name == "BENCH_a.json"
    # a rerun of a label compares with the file before it, not with itself
    assert bench_trajectory.latest(tmp_path, tmp_path / "BENCH_a.json").name == "BENCH_c.json"
    assert bench_trajectory.latest(tmp_path / "missing", tmp_path / "BENCH_a.json") is None
