"""Hold every configuration of ``mcis.solve`` to brute force on every small pair.

Usage:

    python3 tools/sweep.py

Four sweeps, each pair solved under every configuration. Three are over
undirected graphs without loops:

* every ordered pair of class graphs on 2-6 vertices, one graph of each
  isomorphism class (207 ** 2 pairs), so every pair of the solver's small
  classes on up to 6 vertices caps some root;
* every labelled pair of a graph on 1-4 vertices and one on 5 (75 * 1,024
  pairs), since the rules break ties by vertex id, so one graph per class
  would leave most orders untried;
* a seeded sample of pairs with a 7-vertex side, the other of 2-7
  vertices, each side relabelled at random. A 7-vertex graph is drawn
  from the 156 class graphs on 6 vertices, each joined by a seventh vertex
  to every subset of it (9,984 graphs), which holds every class on 7.

The fourth is over directed graphs with loops: every labelled pair of a
graph on 2 vertices and one on 3, both ways round (16 * 512 * 2 pairs).
It reaches the root's split by loop flag, the in-row split, the
complement rows of dense directed pairs and the swap of a larger G.

A run passes when its size equals ``mcis.oracle.brute_force_size`` of the
pair, which shares no code with the search, and its mapping is an induced
isomorphism of that size. An undirected pair with 2-7 vertices a side
must also get that size as the solver's small-bidomain cap, the size of
the largest class both sides induce: a 6- or 7-vertex side here is a
whole graph, so it caps a root only, where a cap one too low prunes only
if the MCIS is 1, and the runs alone would pass such a cap. The first
pair that fails is printed as its two edge lists, with each failing
configuration, and the exit code is 1. Else one line per sweep gives its
pair count and seconds, and the exit code is 0.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from mcis import CONFIG_NAMES, Graph, SolverConfig, is_isomorphism, solve  # noqa: E402
from mcis.oracle import brute_force_size  # noqa: E402
from mcis.solver import _SMALL_MASK, _SMALL_SIZE, _side_key  # noqa: E402
from reference import edge_list, extensions, graph_classes  # noqa: E402


# pairs with a 7-vertex side, and the seed that draws them
SEVEN_PAIRS = 10_000
SEVEN_SEED = 27


def labelled_graphs(n: int, directed: bool = False) -> list[Graph]:
    """Every graph on vertices 0..n-1: undirected without loops, or
    directed with any arcs and loops."""
    pairs = list(itertools.product(range(n), repeat=2) if directed else itertools.combinations(range(n), 2))
    return [
        Graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1], directed=directed)
        for mask in range(1 << len(pairs))
    ]


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a random permutation."""
    perm = rng.sample(range(g.n), g.n)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in edge_list(g)])


def seven_vertex_pairs(six: list[Graph], others: list[Graph], count: int, seed: int):
    """``count`` seeded pairs of a 7-vertex graph and one of ``others`` or
    another 7-vertex graph, in either order, each side relabelled."""
    seven = [new for g in six for new in extensions(g)]
    rng = random.Random(seed)
    for _ in range(count):
        g = rng.choice(seven)
        h = rng.choice(seven) if rng.random() < 0.5 else rng.choice(others)
        g, h = relabelled(g, rng), relabelled(h, rng)
        yield (g, h) if rng.random() < 0.5 else (h, g)


def failures(g: Graph, h: Graph) -> list[str]:
    """Each configuration whose run on (g, h) is wrong, with what it found,
    and the small-bidomain cap if it is wrong for (g, h)."""
    size = brute_force_size(g, h)
    wrong = []
    # directed bidomains are not capped
    if not g.directed and 1 < g.n < 8 and 1 < h.n < 8:
        g_mask, h_mask = (_SMALL_MASK[_side_key((1 << x.n) - 1, x.out_bits)] for x in (g, h))
        cap = _SMALL_SIZE[(g_mask & h_mask).bit_length()]
        if cap != size:
            wrong.append(f"small-bidomain cap {cap}, brute force {size}")
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
    print(f"{label}: {count} pairs, every config and undirected cap equals brute force ({perf_counter() - start:.1f} s)")
    return True


def main() -> int:
    classes = graph_classes(6)
    graphs = [g for n in range(2, 7) for g in classes[n]]
    smaller = [g for n in range(1, 5) for g in labelled_graphs(n)]
    two, three = labelled_graphs(2, directed=True), labelled_graphs(3, directed=True)
    ok = (
        sweep("class pairs on 2-6 vertices", itertools.product(graphs, graphs))
        and sweep("labelled pairs of 1-4 against 5 vertices", itertools.product(smaller, labelled_graphs(5)))
        and sweep(
            f"seeded pairs with a 7-vertex side (seed {SEVEN_SEED})",
            seven_vertex_pairs(classes[6], graphs, SEVEN_PAIRS, SEVEN_SEED),
        )
        and sweep(
            "labelled directed pairs with loops of 2 against 3 vertices, both ways",
            itertools.chain(itertools.product(two, three), itertools.product(three, two)),
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
