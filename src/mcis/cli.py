"""Command-line front end.

Subcommands: ``solve`` one pair, ``bench`` a manifest of pairs, ``symmetry``
to inspect a graph's interchangeability classes, ``oracle`` for the
brute-force reference on tiny inputs. ``solve`` exits 0 when the search
completed, 2 on timeout and 1 on any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bench import FORMATS, load_graph, run_batch, run_instance
from .oracle import brute_force_mcis
from .solver import CONFIG_NAMES, SolverConfig
from .symmetry import compute_symmetry_classes


def _add_format_args(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=FORMATS, default="lad", help="input file format")
    p.add_argument("--directed", action="store_true", help="treat edge lists as directed")
    p.add_argument("--loops", action="store_true", help="allow self-loops in edge lists")


# built once per process: parse_args keeps no state on the parser
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mcis", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one graph pair exactly")
    p.add_argument("g_path")
    p.add_argument("h_path")
    _add_format_args(p)
    p.add_argument("--config", choices=CONFIG_NAMES, default="dual", help="rule configuration")
    p.add_argument("--timeout", type=float, default=1800.0, help="seconds before giving up")
    p.add_argument("--stats-json", metavar="PATH", help="also write the report to this file")

    p = sub.add_parser("bench", help="run a manifest of graph pairs")
    p.add_argument("manifest")
    _add_format_args(p)
    p.add_argument(
        "--configs",
        default="dual,none",
        help=f"comma-separated rule configurations ({','.join(CONFIG_NAMES)})",
    )
    p.add_argument("--jobs", type=int, default=None, help="parallel workers (default: cpu count)")
    p.add_argument("--out", default="bench_out", help="output directory")
    p.add_argument("--timeout", type=float, default=1800.0, help="per-run timeout in seconds")

    p = sub.add_parser("symmetry", help="print a graph's interchangeability classes")
    p.add_argument("g_path")
    _add_format_args(p)

    p = sub.add_parser("oracle", help="brute-force reference solver (tiny graphs)")
    p.add_argument("g_path")
    p.add_argument("h_path")
    _add_format_args(p)
    p.add_argument("--max-witnesses", type=int, default=100, help="cap on listed witnesses")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "symmetry":
            return _cmd_symmetry(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except BrokenPipeError:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_solve(args) -> int:
    config = SolverConfig(args.config, timeout=args.timeout)
    report = run_instance(
        args.g_path, args.h_path, config, args.format, args.directed, args.loops
    )
    payload = vars(report)
    print(json.dumps(payload))
    if args.stats_json:
        with open(args.stats_json, "w") as f:
            json.dump(payload, f, indent=2)
    return 0 if report.completed else 2


def _cmd_bench(args) -> int:
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    summary = run_batch(
        args.manifest,
        configs=configs,
        jobs=args.jobs,
        out_dir=args.out,
        timeout=args.timeout,
        fmt=args.format,
        directed=args.directed,
        loops=args.loops,
    )
    print(json.dumps({k: summary[k] for k in ("configs", "per_config", "comparisons")}, indent=2))
    return 0


def _cmd_symmetry(args) -> int:
    g = load_graph(args.g_path, args.format, args.directed, args.loops)
    classes = compute_symmetry_classes(g)
    payload = {
        "classes": [
            {"kind": kind, "members": [g.display_name(v) for v in members]}
            for kind, members in classes.nontrivial()
        ]
    }
    print(json.dumps(payload))
    return 0


def _cmd_oracle(args) -> int:
    if args.max_witnesses < 0:
        raise ValueError("--max-witnesses must be non-negative")
    g = load_graph(args.g_path, args.format, args.directed, args.loops)
    h = load_graph(args.h_path, args.format, args.directed, args.loops)
    result = brute_force_mcis(g, h, witness_cap=args.max_witnesses)
    payload = {
        "size": result.size,
        "witness_count": result.witness_count,
        "witnesses_capped": result.witnesses_capped,
        "witnesses": [
            [[g.display_name(v), h.display_name(u)] for v, u in w] for w in result.witnesses
        ],
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
