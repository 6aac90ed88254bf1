"""Instance runner and batch benchmark harness.

``run_instance`` parses one graph pair, solves it under one rule
configuration and flattens everything a results table needs into an
:class:`InstanceReport`. ``run_batch`` maps that over a manifest of pairs
times a set of configurations, in parallel across processes, then writes
per-run JSON lines plus aggregate CSVs: cumulative solved-over-time curves,
per-configuration comparisons (speedups and branch ratios where both
solved, incumbent-size deltas where neither did).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from .graph import Graph, GraphParseError, is_isomorphism, parse_edgelist, parse_lad
from .solver import SearchStats, SolverConfig, solve

FORMATS = ("lad", "edgelist")

# geometric-ish grid for the cumulative solved curves, in seconds
_CURVE_STEPS = (1, 2, 5)


@dataclass(kw_only=True)
class InstanceReport(SearchStats):
    """A run's search counters, then what the run was on and how it ended."""

    # an error record has no search behind it, so it must not read completed
    completed: bool = False
    instance: str
    config: str
    wall_time: float = 0.0
    verified: bool = False
    mapping: list = field(default_factory=list)
    error: str | None = None


def load_graph(path: str | Path, fmt: str = "lad", directed: bool = False, loops: bool = False) -> Graph:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if fmt == "lad" and directed:
        raise ValueError("the lad format is undirected only")
    text = _read_utf8(path)
    if fmt == "lad":
        return parse_lad(text)
    return parse_edgelist(text, directed=directed, allow_loops=loops)


def _read_utf8(path: str | Path) -> str:
    """A file's text decoded as UTF-8, whatever the locale, without a
    leading byte-order mark. CRLF and CR line ends stay in it:
    ``splitlines`` takes each as one break. A byte that is not UTF-8 raises
    ``GraphParseError`` on its line, as ``splitlines`` numbers them."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object holds the bytes after any byte-order mark; a character
        # put in the bad byte's place falls on the bad byte's line
        head = exc.object[: exc.start].decode("utf-8")
        line_no = len((head + "?").splitlines())
        raise GraphParseError(line_no, f"byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None


def run_instance(
    g_path: str | Path,
    h_path: str | Path,
    config: SolverConfig,
    fmt: str = "lad",
    directed: bool = False,
    loops: bool = False,
    instance_id: str | None = None,
) -> InstanceReport:
    """Solve one pair and report every counter as a flat record.

    Wall time wraps the whole solve, including the interchangeability-class
    computation. ``verified`` records that the returned mapping was checked
    as an induced isomorphism of the two graphs. Parse and validation errors
    propagate to the caller.
    """
    g = load_graph(g_path, fmt, directed, loops)
    h = load_graph(h_path, fmt, directed, loops)
    t0 = perf_counter()
    sol = solve(g, h, config)
    wall = perf_counter() - t0
    st = sol.stats
    if instance_id is None:
        instance_id = f"{g_path}:{h_path}"
    return InstanceReport(
        **vars(st),
        instance=str(instance_id),
        config=config.name,
        wall_time=wall,
        verified=is_isomorphism(g, h, sol.mapping),
        mapping=[[g.display_name(v), h.display_name(u)] for v, u in sol.mapping],
    )


def read_manifest(path: str | Path) -> list[tuple[str, str]]:
    """Pairs of graph paths, one per line, resolved against the manifest dir.

    Blank lines and lines starting with ``#`` are skipped.
    """
    mpath = Path(path)
    base = mpath.parent
    try:
        text = _read_utf8(mpath)
    except GraphParseError as exc:
        raise ValueError(f"{mpath}:{exc.line_no}: {exc.message}") from None
    pairs = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"{mpath}:{i}: expected two paths per line")
        pairs.append((str(base / toks[0]), str(base / toks[1])))
    return pairs


def _run_task(task) -> dict:
    g_path, h_path, config, fmt, directed, loops, instance_id = task
    try:
        report = run_instance(g_path, h_path, config, fmt, directed, loops, instance_id)
    except Exception as exc:  # recorded, the batch keeps going
        report = InstanceReport(
            instance=str(instance_id), config=config.name, error=f"{type(exc).__name__}: {exc}"
        )
    return vars(report)


def _curve_bounds(timeout: float) -> list[float]:
    bounds = []
    scale = 0.001
    while scale <= timeout:
        for step in _CURVE_STEPS:
            b = step * scale
            if b >= timeout:
                break
            bounds.append(b)
        scale *= 10
    bounds.append(timeout)
    return bounds


def aggregate_reports(reports: list[dict], configs: list[str], timeout: float) -> dict:
    """Summary statistics over per-run report dicts.

    The first configuration is the candidate; every other one serves as a
    baseline for speedup and branch-ratio (both solved) and incumbent-delta
    (neither solved) comparisons. The branch ratio is the baseline's
    branches summed over the co-solved pairs over the candidate's, so a
    ratio of 2 means the candidate searched half the tree. Errored runs
    count as unsolved and are excluded from the pairwise rows.
    """
    by_config: dict[str, dict[str, dict]] = {c: {} for c in configs}
    for rep in reports:
        if rep["config"] in by_config:
            by_config[rep["config"]][rep["instance"]] = rep

    bounds = _curve_bounds(timeout)
    curves = {}
    per_config = {}
    for c in configs:
        runs = list(by_config[c].values())
        solved = [r for r in runs if r["completed"] and not r["error"]]
        curves[c] = [sum(1 for r in solved if r["wall_time"] <= b) for b in bounds]
        per_config[c] = {
            "runs": len(runs),
            "errors": sum(1 for r in runs if r["error"]),
            "solved": len(solved),
        }

    comparisons = []
    candidate = configs[0]
    for baseline in configs[1:]:
        speedups = []
        deltas = []
        a_branches = b_branches = 0
        for inst, a in by_config[candidate].items():
            b = by_config[baseline].get(inst)
            if b is None or a["error"] or b["error"]:
                continue
            if a["completed"] and b["completed"]:
                speedups.append(b["wall_time"] / max(a["wall_time"], 1e-9))
                a_branches += a["branches"]
                b_branches += b["branches"]
            elif not a["completed"] and not b["completed"]:
                deltas.append(a["incumbent_size"] - b["incumbent_size"])
        comparisons.append(
            {
                "candidate": candidate,
                "baseline": baseline,
                "co_solved": len(speedups),
                "mean_speedup": sum(speedups) / len(speedups) if speedups else 0.0,
                "max_speedup": max(speedups) if speedups else 0.0,
                # a completed search counts its root, so a_branches > 0 here
                "branch_ratio": b_branches / a_branches if speedups else 0.0,
                "co_unsolved": len(deltas),
                "mean_delta": sum(deltas) / len(deltas) if deltas else 0.0,
                "deltas": deltas,
            }
        )

    return {
        "configs": list(configs),
        "timeout": timeout,
        "curve_bounds": bounds,
        "curves": curves,
        "per_config": per_config,
        "comparisons": comparisons,
    }


def run_batch(
    manifest_path: str | Path,
    configs: list[str] | None = None,
    jobs: int | None = None,
    out_dir: str | Path = "bench_out",
    timeout: float = 1800.0,
    fmt: str = "lad",
    directed: bool = False,
    loops: bool = False,
) -> dict:
    """Run every manifest pair under every configuration and write results.

    Produces ``reports.jsonl``, ``summary.json``, ``cumulative.csv`` and
    ``comparison.csv`` under ``out_dir``. Reports keep manifest order
    regardless of worker scheduling. Returns the summary dict.
    """
    if configs is None:
        configs = ["dual", "none"]
    if not configs:
        raise ValueError("at least one config is required")
    # checked before anything is written, so a bad name, timeout or worker
    # count writes nothing; the solved-curve grid and summary.json need a
    # finite timeout, and the per-config tables one run per pair and name
    solver_configs = [SolverConfig(c, timeout=timeout) for c in configs]
    if len(set(configs)) < len(configs):
        raise ValueError(f"duplicate config in {configs}")
    if not math.isfinite(timeout):
        raise ValueError("timeout must be finite")
    if jobs is None:
        jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    pairs = read_manifest(manifest_path)
    # made before any task runs, so a bad path loses no solve
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    for i, (g_path, h_path) in enumerate(pairs):
        for config in solver_configs:
            tasks.append((g_path, h_path, config, fmt, directed, loops, f"{i:04d}:{Path(g_path).name}:{Path(h_path).name}"))

    if jobs == 1 or len(tasks) <= 1:
        reports = [_run_task(t) for t in tasks]
    else:
        # imported here, so a serial batch or a single solve loads no pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_task, tasks))

    with open(out / "reports.jsonl", "w") as f:
        for rep in reports:
            f.write(json.dumps(rep) + "\n")

    summary = aggregate_reports(reports, configs, timeout)
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2)

    with open(out / "cumulative.csv", "w") as f:
        f.write("time_bound_s," + ",".join(f"solved_{c}" for c in configs) + "\n")
        if reports:
            for i, b in enumerate(summary["curve_bounds"]):
                f.write(f"{b:g}," + ",".join(str(summary["curves"][c][i]) for c in configs) + "\n")

    with open(out / "comparison.csv", "w") as f:
        f.write(
            "candidate,baseline,co_solved,mean_speedup,max_speedup,co_unsolved,mean_delta,branch_ratio\n"
        )
        rows = summary["comparisons"] if reports else []
        for row in rows:
            f.write(
                f"{row['candidate']},{row['baseline']},{row['co_solved']},"
                f"{row['mean_speedup']:g},{row['max_speedup']:g},"
                f"{row['co_unsolved']},{row['mean_delta']:g},{row['branch_ratio']:g}\n"
            )

    return summary
