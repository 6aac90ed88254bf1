"""Benchmark of ``mcis solve`` on three seeded workloads.

Usage, from the root of a checkout:

    python3 mcisbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, no pool, no threads. The run generates the workload's instances
from the seed, writes them to files under ``mcisbench_out/`` and computes
each optimum with ``reference.py``, which shares no code with ``mcis``. It
then calls ``mcis.cli.main(["solve", ...])`` on every instance, in whole
rounds, until ``S`` seconds have passed. Each printed report is checked: exit
code 0, a completed search, the independent optimum, a mapping that is an
induced isomorphism of the generator's own edge lists, and counters that
repeat exactly from round to round.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced rounds and prints the per-layer metrics, with the spans written
to ``mcisbench_out/<workload>-seed<N>/spans.jsonl``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
import reference
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "mcisbench_out"
SOLVE_TIMEOUT_S = "60"
# counters that must repeat exactly every time an instance is solved
COUNTERS = (
    "incumbent_size",
    "branches",
    "bound_prunes",
    "var_sym_prunes",
    "val_sym_prunes",
    "branches_to_best",
)
# report fields summed over a round; reports themselves are not kept, so
# memory does not grow with the number of rounds
SUMMED = COUNTERS[1:] + ("time_to_best",)


def load_program():
    """Import ``mcis`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mcis" / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no mcis package to benchmark")
    sys.path.insert(0, str(src))
    from mcis import bench, cli, graph, solver, symmetry

    return bench, cli, graph, solver, symmetry


@dataclass
class Case:
    """An instance with its files, its command line and what to check."""

    inst: gen.Instance
    g_path: str
    h_path: str
    optimum: int
    g_adj: tuple = field(repr=False)
    h_adj: tuple = field(repr=False)

    @property
    def argv(self) -> list[str]:
        return self.inst.solve_args(self.g_path, self.h_path) + ["--timeout", SOLVE_TIMEOUT_S]


@dataclass
class Round:
    call_s: list[float] = field(default_factory=list)
    solved: int = 0
    failed: int = 0
    wrong: int = 0
    sums: dict = field(default_factory=lambda: dict.fromkeys(SUMMED, 0))

    @property
    def total_s(self) -> float:
        return sum(self.call_s)


def prepare(workload: str, seed: int) -> list[Case]:
    instances = gen.WORKLOADS[workload](seed)
    paths = gen.write_files(instances, OUT / f"{workload}-seed{seed}" / "inputs")
    return [
        Case(inst, g, h, reference.optimum(inst), reference.adjacency(inst.g), reference.adjacency(inst.h))
        for inst, (g, h) in zip(instances, paths)
    ]


def check(case: Case, report: dict, seen: dict) -> str | None:
    """Why ``report`` is wrong for ``case``, or None when it is right."""
    if not report.get("completed"):
        return "search did not complete"
    if report.get("incumbent_size") != case.optimum:
        return f"size {report.get('incumbent_size')} != optimum {case.optimum}"
    try:
        pairs = [(int(a), int(b)) for a, b in report["mapping"]]
    except (KeyError, TypeError, ValueError):
        return "mapping is not a list of vertex-id pairs"
    if len(pairs) != case.optimum or not reference.is_induced_isomorphism(case.g_adj, case.h_adj, pairs):
        return "mapping is not an induced isomorphism of the optimum's size"
    counters = tuple(report.get(k) for k in COUNTERS)
    if seen.setdefault(case.inst.name, counters) != counters:
        return "counters differ from an earlier solve of the same instance"
    return None


def run_round(cases: list[Case], main, seen: dict) -> Round:
    rnd = Round()
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = main(case.argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                rc = exc.code if isinstance(exc.code, int) else 1
            rnd.call_s.append(perf_counter() - t0)
        if rc != 0:
            rnd.failed += 1
            print(f"{case.inst.name}: exit code {rc}: {err.getvalue().strip()}", file=sys.stderr)
            continue
        try:
            report = json.loads(out.getvalue().strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {}
        problem = check(case, report, seen)
        if problem:
            rnd.failed += 1
            rnd.wrong += 1
            print(f"{case.inst.name}: {problem}", file=sys.stderr)
            continue
        rnd.solved += 1
        for key in SUMMED:
            rnd.sums[key] += report[key]
    return rnd


def setup_pass(cases: list[Case], bench, symmetry) -> float:
    """Seconds of load and symmetry detection, both graphs of every case."""
    total = 0.0
    for case in cases:
        inst = case.inst
        t0 = perf_counter()
        g = bench.load_graph(case.g_path, inst.fmt, inst.g[2], inst.loops)
        h = bench.load_graph(case.h_path, inst.fmt, inst.g[2], inst.loops)
        symmetry.compute_symmetry_classes(g)
        symmetry.compute_symmetry_classes(h)
        total += perf_counter() - t0
    return total


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop that does not touch ``mcis``."""
    t0 = perf_counter()
    x = 0
    for i in range(500_000):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - t0


def end_to_end(rounds: list[Round], setups: list[float]) -> dict:
    calls = [t for r in rounds for t in r.call_s]
    rates = [r.solved / r.total_s for r in rounds]
    return {
        "inst_per_s": (statistics.median(rates), "1/s"),
        "solve_s.p50": (statistics.median(calls), "s"),
        "branches": (rounds[0].sums["branches"], "count"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(
    cases: list[Case], plain: list[Round], traced: list[tuple[Round, dict]], calibs: list[float]
) -> dict:
    sums = traced[0][0].sums
    branches = sums["branches"]
    file_mb = sum(Path(c.g_path).stat().st_size + Path(c.h_path).stat().st_size for c in cases) / 1e6

    def med(fn):
        return statistics.median(fn(t) for _, t in traced)

    load_s = med(lambda t: t["bench.load_graph"]["total_s"])
    detect_s = med(lambda t: t["symmetry.compute_symmetry_classes"]["total_s"])
    search_s = med(lambda t: t["solver.solve"]["self_s"])
    notes = traced[0][1]["symmetry.compute_symmetry_classes"]["notes"]
    vertices = sum(n for n, _ in notes)
    return {
        "graph.load_s": (load_s, "s"),
        "graph.build_s": (med(lambda t: t["graph.Graph"]["total_s"]), "s"),
        "graph.parse_mb_per_s": (file_mb / load_s, "MB/s"),
        "graph.edges": (sum(len(c.inst.g[1]) + len(c.inst.h[1]) for c in cases), "count"),
        "symmetry.detect_s": (detect_s, "s"),
        "symmetry.vertices_per_s": (vertices / detect_s, "1/s"),
        "symmetry.twin_share": (sum(k for _, k in notes) / vertices, "ratio"),
        "solver.solve_s": (med(lambda t: t["solver.solve"]["total_s"]), "s"),
        "solver.search_s": (search_s, "s"),
        "solver.branches_per_s": (branches / search_s, "1/s"),
        "solver.var_sym_prunes": (sums["var_sym_prunes"], "count"),
        "solver.val_sym_prunes": (sums["val_sym_prunes"], "count"),
        "solver.bound_prunes": (sums["bound_prunes"], "count"),
        "solver.bound_prune_ratio": (sums["bound_prunes"] / branches, "ratio"),
        "solver.time_to_best_s": (statistics.median(r.sums["time_to_best"] for r, _ in traced), "s"),
        "solver.branches_to_best": (sums["branches_to_best"], "count"),
        "bench.self_s": (med(lambda t: t["bench.run_instance"]["self_s"]), "s"),
        "cli.self_s": (med(lambda t: t["cli.main"]["self_s"]), "s"),
        "env.calib_s": (statistics.median(calibs), "s"),
        "trace.overhead_s": (
            statistics.median(r.total_s for r, _ in traced) - statistics.median(r.total_s for r in plain),
            "s",
        ),
    }


def twin_count(classes) -> tuple[int, int]:
    return classes.n, sum(len(m) for m in classes.class_members.values() if len(m) > 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench, cli, graph, solver, symmetry = load_program()
    t0 = perf_counter()
    cases = prepare(args.workload, args.seed)
    print(f"{len(cases)} instances and their optima in {perf_counter() - t0:.1f}s", file=sys.stderr)

    seen: dict = {}
    plain: list[Round] = []
    traced: list[tuple[Round, dict]] = []
    setups: list[float] = []
    calibs: list[float] = []
    tracer = Tracer()
    targets = [
        (bench, "load_graph", "bench.load_graph", None),
        (graph.Graph, "__init__", "graph.Graph", None),
        (solver, "compute_symmetry_classes", "symmetry.compute_symmetry_classes", twin_count),
        (bench, "solve", "solver.solve", None),
        (cli, "run_instance", "bench.run_instance", None),
    ]
    # set-up passes and calibration loops alternate with the rounds, so they
    # see the same spells of machine speed
    start = perf_counter()
    while perf_counter() - start < args.seconds or not plain or (args.trace and not traced):
        if args.trace and len(traced) < len(plain):
            mark = tracer.mark()
            with tracer.installed(targets):
                rnd = run_round(cases, tracer.wrap("cli.main", cli.main), seen)
            traced.append((rnd, tracer.totals(mark)))
        else:
            plain.append(run_round(cases, cli.main, seen))
            if args.trace:
                calibs.append(calibrate())
            else:
                setups.append(setup_pass(cases, bench, symmetry))

    rounds = plain + [r for r, _ in traced]
    failed = sum(r.failed for r in rounds)
    if failed == len(cases) * len(rounds):
        metrics = {}
    elif args.trace:
        metrics = per_layer(cases, plain, traced, calibs)
        run_dir = OUT / f"{args.workload}-seed{args.seed}"
        tracer.write(run_dir / "spans.jsonl")
    else:
        metrics = end_to_end(plain, setups)
    print(
        json.dumps(
            {
                "correct": not any(r.wrong for r in rounds),
                "attempted": len(cases) * len(rounds),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
