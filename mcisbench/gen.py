"""Seeded instances for the three workloads, and the files the program reads.

A graph is a ``(n, edges, directed)`` triple; an edge ``(v, v)`` is a
self-loop. Every workload is a function of the seed alone: the same seed
gives the same instances, byte for byte, in the same order. Nothing here
imports ``mcis``; the program sees only the files ``write_files`` makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Instance:
    """One ``mcis solve`` call: a pattern G, a target H and how to check it.

    ``kind`` names the source of the optimum (see ``reference.optimum``):
    ``clique`` for the modular-product search, ``family`` for a closed form
    keyed by ``family``, ``planted`` for a pattern copied out of its target,
    with ``planted`` holding the copy as (pattern vertex, target vertex) pairs.
    """

    name: str
    kind: str
    g: tuple
    h: tuple
    fmt: str = "lad"
    loops: bool = False
    family: tuple | None = None
    planted: list | None = None

    def solve_args(self, g_path: str, h_path: str) -> list[str]:
        args = ["solve", g_path, h_path, "--format", self.fmt]
        if self.g[2]:
            args.append("--directed")
        if self.loops:
            args.append("--loops")
        return args


def gnm(rng: random.Random, n: int, p: float) -> tuple:
    """Undirected graph without loops: round(p * n(n-1)/2) edges drawn at random.

    A fixed edge count, G(n, m) rather than G(n, p), takes the spread of the
    edge count out of the spread of the search cost.
    """
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return (n, sorted(rng.sample(pairs, round(p * len(pairs)))), False)


def blow_up(rng: random.Random, base_n: int, p: float, max_class: int, directed: bool) -> tuple:
    """Each vertex of a random base graph becomes a class of 1..max_class twins.

    A class is open (no edges inside) or closed (all edges inside, both
    ways when directed) at random. A directed base also puts a loop on about
    a third of its vertices, and on every member of their classes, so the
    members stay interchangeable.
    """
    sizes = [rng.randint(1, max_class) for _ in range(base_n)]
    closed = [rng.random() < 0.5 for _ in range(base_n)]
    looped = [directed and rng.random() < 0.3 for _ in range(base_n)]
    arcs = [
        (i, j)
        for i in range(base_n)
        for j in range(base_n)
        if i != j and (directed or i < j) and rng.random() < p
    ]
    first = [0]
    for s in sizes:
        first.append(first[-1] + s)
    members = [range(first[i], first[i + 1]) for i in range(base_n)]
    edges = []
    for i in range(base_n):
        for x in members[i]:
            if looped[i]:
                edges.append((x, x))
            if closed[i]:
                edges.extend((x, y) for y in members[i] if x != y and (directed or x < y))
    for i, j in arcs:
        edges.extend((x, y) for x in members[i] for y in members[j])
    return (first[-1], edges, directed)


def star(k: int) -> tuple:
    return (k + 1, [(0, i) for i in range(1, k + 1)], False)


def complete_bipartite(a: int, b: int) -> tuple:
    return (a + b, [(i, a + j) for i in range(a) for j in range(b)], False)


def clique_union(sizes) -> tuple:
    edges, base = [], 0
    for s in sizes:
        edges.extend((base + i, base + j) for i in range(s) for j in range(i + 1, s))
        base += s
    return (base, edges, False)


def sparse_target(rng: random.Random, n: int, hub_degree: int, directed: bool) -> tuple:
    """Forest-like graph: a random recursive tree, n/2 extra edges, twin leaves.

    Vertex 0 is a hub joined to ``hub_degree`` random tree vertices, which
    makes it the one vertex of highest degree. Every tenth vertex gets two
    to four extra leaves, which are open twins of each other. Directed
    targets orient each edge at random.
    """
    edges = set()
    core = n - (n // 10) * 3

    def add(a, b):
        if a != b and (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))

    for v in range(1, core):
        add(rng.randrange(v), v)
    for v in rng.sample(range(1, core), hub_degree):
        add(0, v)
    while len(edges) < core - 1 + n // 2:
        add(rng.randrange(core), rng.randrange(core))
    v = core
    while v < n:
        parent = rng.randrange(core)
        for _ in range(min(rng.randint(2, 4), n - v)):
            edges.add((parent, v))
            v += 1
    if directed:
        edges = {(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges}
    return (n, sorted(edges), directed)


def planted_pattern(rng: random.Random, target: tuple, k: int) -> tuple[tuple, list]:
    """Induced copy of vertex 0 and k - 1 of its pairwise non-adjacent neighbours.

    The copy is a star, so the solver's first descent always completes it
    and the branch count does not hinge on a lucky first guess. The vertices
    are relabelled at random. Returns the pattern and the copy as (pattern,
    target) pairs: the pattern maps into the target whole, so the optimum is
    its size.
    """
    n, edges, directed = target
    linked = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    chosen = [0]
    for v in sorted(b if a == 0 else a for a, b in edges if 0 in (a, b)):
        if len(chosen) < k and not any((v, w) in linked for w in chosen[1:]):
            chosen.append(v)
    label = list(range(len(chosen)))
    rng.shuffle(label)
    index = {v: label[i] for i, v in enumerate(chosen)}
    sub = sorted((index[a], index[b]) for a, b in edges if a in index and b in index)
    return (len(chosen), sub, directed), sorted((index[v], v) for v in chosen)


# (p, n, count): G has n vertices and H n + 1. An instance takes
# milliseconds, so a run holds hundreds and the workload's totals vary
# little from seed to seed, while the clique reference still fits in every
# run. Sparse and dense pairs have heavy-tailed branch counts, so p = 0.5
# gets the larger share.
RANDOM_STRATA = ((0.2, 11, 100), (0.5, 12, 150), (0.8, 11, 100))


def random_undirected(seed: int) -> list[Instance]:
    rng = random.Random(f"random-undirected/{seed}")
    out = []
    for p, n, count in RANDOM_STRATA:
        for _ in range(count):
            name = f"{len(out):03d}-gnm{n}-p{p}"
            out.append(Instance(name, "clique", gnm(rng, n, p), gnm(rng, n + 1, p)))
    return out


BLOWUPS_UNDIRECTED = 150
BLOWUPS_DIRECTED = 100
FAMILY_MEMBERS = 8


def twins_symmetric(seed: int) -> list[Instance]:
    rng = random.Random(f"twins-symmetric/{seed}")
    out = []
    for _ in range(BLOWUPS_UNDIRECTED):
        g, h = blow_up(rng, 10, 0.5, 2, False), blow_up(rng, 10, 0.5, 2, False)
        out.append(Instance(f"{len(out):03d}-blowup{g[0]}v{h[0]}", "clique", g, h))
    for _ in range(BLOWUPS_DIRECTED):
        g, h = blow_up(rng, 10, 0.4, 3, True), blow_up(rng, 10, 0.4, 3, True)
        out.append(
            Instance(f"{len(out):03d}-dblowup{g[0]}v{h[0]}", "clique", g, h, "edgelist", True)
        )
    for _ in range(FAMILY_MEMBERS):
        k, m = rng.randint(20, 60), rng.randint(20, 60)
        out.append(
            Instance(f"{len(out):03d}-star{k}v{m}", "family", star(k), star(m), family=("star", (k, m)))
        )
        a, b, c, d = (rng.randint(4, 12) for _ in range(4))
        out.append(
            Instance(
                f"{len(out):03d}-bipartite{a},{b}v{c},{d}",
                "family",
                complete_bipartite(a, b),
                complete_bipartite(c, d),
                family=("bipartite", (a, b, c, d)),
            )
        )
        parts_g = [rng.randint(3, 7) for _ in range(rng.randint(3, 5))]
        parts_h = [rng.randint(3, 7) for _ in range(rng.randint(3, 5))]
        out.append(
            Instance(
                f"{len(out):03d}-cliques{'+'.join(map(str, parts_g))}v{'+'.join(map(str, parts_h))}",
                "family",
                clique_union(parts_g),
                clique_union(parts_h),
                family=("cliques", (parts_g, parts_h)),
            )
        )
    return out


# (target size, file format, directed); the pattern is the first graph, so
# the recursive search is only as deep as the pattern is large.
LARGE_TARGETS = (
    (1000, "lad", False),
    (1250, "edgelist", True),
    (1500, "edgelist", False),
    (1750, "lad", False),
    (2000, "edgelist", True),
)
PATTERN_SIZE = 24


def large_sparse(seed: int) -> list[Instance]:
    rng = random.Random(f"large-sparse/{seed}")
    out = []
    for n, fmt, directed in LARGE_TARGETS:
        h = sparse_target(rng, n, PATTERN_SIZE + 8, directed)
        g, copy = planted_pattern(rng, h, PATTERN_SIZE)
        name = f"{len(out):03d}-planted{g[0]}in{n}{'-directed' if directed else ''}"
        out.append(Instance(name, "planted", g, h, fmt, planted=copy))
    return out


WORKLOADS = {
    "random-undirected": random_undirected,
    "twins-symmetric": twins_symmetric,
    "large-sparse": large_sparse,
}


def lad_text(graph: tuple) -> str:
    n, edges, directed = graph
    if directed:
        raise ValueError("LAD is undirected only")
    rows = [[] for _ in range(n)]
    for a, b in edges:
        rows[a].append(b)
        if a != b:
            rows[b].append(a)
    return f"{n}\n" + "".join(f"{len(r)} {' '.join(map(str, sorted(r)))}\n" for r in rows)


def edgelist_text(graph: tuple) -> str:
    n, edges, _ = graph
    return f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def write_files(instances: list[Instance], directory: Path) -> list[tuple[str, str]]:
    """Write each instance's two graphs; returns their paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst in instances:
        text = lad_text if inst.fmt == "lad" else edgelist_text
        pair = []
        for side, graph in (("g", inst.g), ("h", inst.h)):
            path = directory / f"{inst.name}.{side}.{inst.fmt}"
            path.write_text(text(graph))
            pair.append(str(path))
        paths.append((pair[0], pair[1]))
    return paths
