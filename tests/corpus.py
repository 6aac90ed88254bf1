"""Seeded random instances shared by the test modules.

``corpus_pairs`` is the fixed 500-pair acceptance corpus: sides of 2..8
vertices, edge probability cycling through sparse/medium/dense, and the
four directedness x loops combinations in round-robin. Everything is
derived from one seed so reruns see byte-identical instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mcis import Graph

CORPUS_SEED = 20250819
EDGE_PROBS = (0.2, 0.5, 0.8)
MODES = ((False, False), (False, True), (True, False), (True, True))


def random_graph(rng, n, p, directed=False, loops=False) -> Graph:
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                if loops and rng.random() < p:
                    edges.append((i, i))
            elif (directed or i < j) and rng.random() < p:
                edges.append((i, j))
    return Graph(n, edges, directed=directed)


@dataclass
class CorpusPair:
    index: int
    p: float
    directed: bool
    loops: bool
    g: Graph
    h: Graph


def corpus_pairs(count=500, seed=CORPUS_SEED, max_n=8, min_n=2) -> list[CorpusPair]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p = EDGE_PROBS[i % len(EDGE_PROBS)]
        directed, loops = MODES[i % len(MODES)]
        n_g = rng.randint(min_n, max_n)
        n_h = rng.randint(min_n, max_n)
        g = random_graph(rng, n_g, p, directed, loops)
        h = random_graph(rng, n_h, p, directed, loops)
        out.append(CorpusPair(i, p, directed, loops, g, h))
    return out
