"""Hold every configuration of ``mcis.solve`` to brute force on every small pair.

Usage:

    python3 tools/sweep.py

Two sweeps over undirected graphs without loops, each pair solved under
every configuration:

* every ordered pair of class graphs on 2-6 vertices, one graph of each
  isomorphism class (207 ** 2 pairs), so every entry of the solver's
  small-bidomain table caps some root;
* every labelled pair of a graph on 1-4 vertices and one on 5 (75 * 1,024
  pairs), since the rules break ties by vertex id, so one graph per class
  would leave most orders untried.

A run passes when its size equals ``mcis.oracle.brute_force_size`` of the
pair, which shares no code with the search, and its mapping is an induced
isomorphism of that size. A pair with 2-6 vertices a side must also find
that size in the solver's small-bidomain table: a 6-vertex side here is a
whole graph, so it caps a root only, where a cap one too low prunes only
if the MCIS is 1, and the runs alone would pass such an entry. The first
pair that fails is printed as its two edge lists, with each failing
configuration, and the exit code is 1. Else one line per sweep gives its
pair count and seconds, and the exit code is 0.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from mcis import CONFIG_NAMES, Graph, SolverConfig, is_isomorphism, solve  # noqa: E402
from mcis.oracle import brute_force_size  # noqa: E402
from mcis.solver import _SMALL_INDEX, _SMALL_LOSS, _SMALL_WIDTH, _side_key  # noqa: E402
from reference import edge_list, graph_classes  # noqa: E402


def labelled_graphs(n: int) -> list[Graph]:
    """Every undirected graph without loops on vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    return [
        Graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
        for mask in range(1 << len(pairs))
    ]


def failures(g: Graph, h: Graph) -> list[str]:
    """Each configuration whose run on (g, h) is wrong, with what it found,
    and the small-bidomain table if its cap for (g, h) is wrong."""
    size = brute_force_size(g, h)
    wrong = []
    if 1 < g.n < 7 and 1 < h.n < 7:
        g_at, h_at = (_SMALL_INDEX[_side_key((1 << x.n) - 1, x.out_bits)] for x in (g, h))
        cap = min(g.n, h.n) - _SMALL_LOSS[g_at * _SMALL_WIDTH + h_at]
        if cap != size:
            wrong.append(f"table: cap {cap}, brute force {size}")
    for name in CONFIG_NAMES:
        sol = solve(g, h, SolverConfig(name))
        found = sol.stats.incumbent_size
        if found != size or len(sol.mapping) != size or not is_isomorphism(g, h, sol.mapping):
            wrong.append(f"{name}: size {found}, mapping {sol.mapping}, brute force {size}")
    return wrong


def sweep(label: str, pairs) -> bool:
    """Check every pair; print the first that fails, else the pair count."""
    start = perf_counter()
    count = 0
    for g, h in pairs:
        wrong = failures(g, h)
        if wrong:
            print(f"{label}: pair {count} fails")
            print(f"  G: {g.n} vertices, edges {edge_list(g)}")
            print(f"  H: {h.n} vertices, edges {edge_list(h)}")
            for line in wrong:
                print(f"  {line}")
            return False
        count += 1
    print(f"{label}: {count} pairs, all configs and table caps equal brute force ({perf_counter() - start:.1f} s)")
    return True


def main() -> int:
    classes = graph_classes(6)
    graphs = [g for n in range(2, 7) for g in classes[n]]
    smaller = [g for n in range(1, 5) for g in labelled_graphs(n)]
    ok = sweep("class pairs on 2-6 vertices", itertools.product(graphs, graphs)) and sweep(
        "labelled pairs of 1-4 against 5 vertices", itertools.product(smaller, labelled_graphs(5))
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
