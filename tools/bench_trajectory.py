"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

Usage:

    python3 tools/bench_trajectory.py CHECKOUT LABEL [--out DIR]

For each workload that ``CHECKOUT/BENCHMARK.json`` declares, the checkout's
own ``mcisbench/run.py`` runs with ``--trace 0`` and then ``--trace 1``, at
seed 1000 and for the declared run length. Then, in a separate process
that imports only the checkout's ``mcis``, the ``var`` and ``dual``
configurations solve every ``twins-symmetric`` instance of seed 1,
straight from ``mcisbench/gen.py``: variable-side reasoning against both
sides, the paper's headline claim, as branch totals.

The file, written to DIR (default: the directory above this script), holds:

* the end-to-end and per-layer metrics of every workload, as run.py prints
  them, and whether each run was correct;
* the deterministic counters: every metric counted in ``count`` units, and
  each rule configuration's branch total and count of completed runs;
* an environment block: Python version, CPU count, ``git describe``;
* the counters that differ from the previous BENCH file, the one in DIR
  with the latest ``created`` time.

Counters that drift are printed to standard error as well. The exit code is
1 when a run was not correct, or when a rule configuration's run timed out
(its branch total then depends on the machine's speed), else 0.

``check(root)`` is the counter gate CI runs on its own checkout: the same
measurement with 1-s runs, failing also when a counter differs from the
latest BENCH file in ``root``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 1000
RULES_SEED = 1
RULES_WORKLOAD = "twins-symmetric"
RULES = ("var", "dual")

# run in a fresh interpreter: argv is the checkout, the seed and the configs
RULES_CODE = """
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/mcisbench"]
import gen
from mcis import Graph, SolverConfig, solve
instances = gen.WORKLOADS[sys.argv[2]](int(sys.argv[3]))
out = {}
for name in sys.argv[4:]:
    branches = completed = 0
    for inst in instances:
        g, h = (Graph(n, edges, directed=directed) for n, edges, directed in (inst.g, inst.h))
        stats = solve(g, h, SolverConfig(name, timeout=60)).stats
        branches += stats.branches
        completed += stats.completed
    out[name] = {"branches": branches, "completed": completed, "instances": len(instances)}
print(json.dumps(out))
"""


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """run.py's verdict line for one workload, as a dict."""
    cmd = [sys.executable, "mcisbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def rule_totals(root: Path) -> dict:
    cmd = [sys.executable, "-c", RULES_CODE, str(root), RULES_WORKLOAD, str(RULES_SEED), *RULES]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: rule totals failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout)


def git_describe(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=root, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def counters(bench: dict) -> dict:
    """Every deterministic counter of a BENCH dict, keyed by (scope, name)."""
    out = {}
    for workload, data in bench["workloads"].items():
        for name, value in data["counters"].items():
            out[(workload, name)] = value
    rules = bench["rules"]
    for name, data in rules["configs"].items():
        scope = f"{rules['workload']} seed {rules['seed']}"
        out[(scope, f"{name}.branches")] = data["branches"]
        out[(scope, f"{name}.completed")] = data["completed"]
    return out


def drift(previous: dict, current: dict) -> list[dict]:
    """The counters whose values differ, or that only one of the two has."""
    old, new = counters(previous), counters(current)
    return [
        {"scope": scope, "counter": name, "previous": old.get((scope, name)), "current": new.get((scope, name))}
        for scope, name in sorted(old.keys() | new.keys())
        if old.get((scope, name)) != new.get((scope, name))
    ]


def latest(out_dir: Path, exclude: Path) -> Path | None:
    """The BENCH file in out_dir with the latest ``created`` time."""
    found = []
    for path in out_dir.glob("BENCH_*.json"):
        if path.resolve() != exclude.resolve():
            found.append((json.loads(path.read_bytes())["created"], path))
    return max(found)[1] if found else None


def measure(root: Path, seconds: float) -> tuple[dict, bool]:
    """The checkout's ``workloads`` and ``rules`` blocks of a BENCH file,
    from runs of ``seconds`` each, and whether every run was correct with no
    failed instance and every rules run completed."""
    spec = json.loads((root / "BENCHMARK.json").read_bytes())
    workloads = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        data = {"runs": {}, "end_to_end": {}, "per_layer": {}, "counters": {}}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            verdict = run_workload(root, workload, SEED, seconds, trace)
            data["runs"][key] = {k: verdict[k] for k in ("correct", "attempted", "failed")}
            if verdict["correct"] is not True or verdict["failed"] != 0:
                print(f"error: {workload} --trace {trace}: {data['runs'][key]}", file=sys.stderr)
                ok = False
            data[key] = verdict["metrics"]
            for name, metric in verdict["metrics"].items():
                if metric["unit"] == "count":
                    data["counters"][name] = metric["value"]
        workloads[workload] = data

    print(f"{RULES_WORKLOAD} seed {RULES_SEED} in-process {', '.join(RULES)} ...", file=sys.stderr, flush=True)
    configs = rule_totals(root)
    for name, data in configs.items():
        if data["completed"] < data["instances"]:
            print(f"error: {name} completed {data['completed']} of {data['instances']} runs", file=sys.stderr)
            ok = False
    return {"workloads": workloads, "rules": {"workload": RULES_WORKLOAD, "seed": RULES_SEED, "configs": configs}}, ok


def check(root: Path) -> int:
    """The counter gate: 1-s runs of the checkout at ``root``, whose counters
    must all equal those of its BENCH file with the latest ``created`` time.
    Returns 1 on any drift, incorrect run or timed-out rules run, else 0."""
    measured, ok = measure(root, 1)
    # BENCHMARK.json is no BENCH_*.json file, so no file is excluded
    path = latest(root, root / "BENCHMARK.json")
    moved = drift(json.loads(path.read_bytes()), measured)
    for d in moved:
        print(f"drift: {d['scope']} {d['counter']}: {path.name} {d['previous']}, this run {d['current']}")
    if ok and not moved:
        print(f"every counter equals {path.name}")
    return 0 if ok and not moved else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="root of the checkout to measure")
    ap.add_argument("label", help="names the file BENCH_<label>.json")
    ap.add_argument("--out", type=Path, default=HERE, help="directory of the BENCH files")
    args = ap.parse_args(argv)

    root = args.checkout.resolve()
    seconds = json.loads((root / "BENCHMARK.json").read_bytes())["run_seconds"]
    target = args.out / f"BENCH_{args.label}.json"
    measured, ok = measure(root, seconds)
    bench = {
        "label": args.label,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": SEED,
        "seconds": seconds,
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_describe": git_describe(root),
        },
        **measured,
    }
    previous = latest(args.out, target)
    bench["previous"] = previous.name if previous else None
    bench["drift"] = drift(json.loads(previous.read_bytes()), bench) if previous else []
    for d in bench["drift"]:
        print(f"drift: {d['scope']} {d['counter']}: {d['previous']} -> {d['current']}", file=sys.stderr)

    args.out.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(bench, indent=2) + "\n")
    print(target)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
