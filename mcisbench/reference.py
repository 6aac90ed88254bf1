"""Optima for the benchmark's instances, computed apart from ``mcis``.

Nothing here imports the package under test. Graphs are the generator's own
``(n, edges, directed)`` triples, so a fault in parsing, in ``Graph`` or in
the solver cannot leak into the answer the solver is checked against.

Three sources of truth:

* ``clique_optimum``: exact maximum common induced subgraph size as the
  largest clique of the modular product, found by a branch and bound with a
  greedy-colouring bound (Tomita's MCQ order, bitset rows).
* ``FAMILY_OPTIMA``: closed forms for stars, complete bipartite graphs and
  disjoint unions of cliques.
* planted optima: a pattern that is an induced copy of part of its target
  has the pattern's size as optimum; the generator records the copy, and
  it is checked here like any returned mapping.

``is_induced_isomorphism`` checks a returned mapping against the edge lists.

Run ``python3 mcisbench/reference.py --workload NAME --seed N`` to recompute
and print the optimum of every instance of a workload.
"""

from __future__ import annotations

import argparse
import json
import sys

import gen


def adjacency(graph):
    """(out-neighbour sets, in-neighbour sets, loop flags) of a graph triple."""
    n, edges, directed = graph
    out = [set() for _ in range(n)]
    inn = [set() for _ in range(n)] if directed else out
    loops = [False] * n
    for a, b in edges:
        if a == b:
            loops[a] = True
            continue
        out[a].add(b)
        inn[b].add(a)
        if not directed:
            out[b].add(a)
    return out, inn, loops


def modular_product(g, h) -> tuple[list[int], int]:
    """Modular product of two ``(n, edges, directed)`` graphs.

    Vertex ``i * h_n + j`` pairs g-vertex i with h-vertex j. Returns the
    bitset rows and the bitset of pairs with equal loop flags, the only
    pairs a mapping may use. Two pairs are adjacent when they use distinct
    vertices on both sides and agree on every edge between them, in both
    directions.
    """
    gn, hn = g[0], h[0]
    if g[2] != h[2]:
        raise ValueError("graphs must agree on directedness")
    g_out, g_in, g_loop = adjacency(g)
    h_out, h_in, h_loop = adjacency(h)

    def kind(out, inn, a, b):
        return (b in out[a]) + 2 * (b in inn[a])

    # same[j][t][loop]: h-vertices m != j with edge kind t from j and that loop flag
    same = []
    for j in range(hn):
        masks = [[0, 0] for _ in range(4)]
        for m in range(hn):
            if m != j:
                masks[kind(h_out, h_in, j, m)][h_loop[m]] |= 1 << m
        same.append(masks)
    rows = [0] * (gn * hn)
    valid = 0
    for i in range(gn):
        kinds = [kind(g_out, g_in, i, k) for k in range(gn)]
        for j in range(hn):
            if g_loop[i] != h_loop[j]:
                continue
            valid |= 1 << (i * hn + j)
            masks = same[j]
            row = 0
            for k in range(gn):
                if k != i:
                    row |= masks[kinds[k]][g_loop[k]] << (k * hn)
            rows[i * hn + j] = row
    return rows, valid


def max_clique(rows: list[int], allowed: int) -> list[int]:
    """A maximum clique among the ``allowed`` vertices of bitset rows ``rows``."""
    n = len(rows)
    # renumber by degree, highest first, so colouring sees hubs early
    order = sorted(range(n), key=lambda v: (-bin(rows[v]).count("1"), v))
    pos = {v: i for i, v in enumerate(order)}
    adj = [0] * n
    for v in range(n):
        bits = rows[v]
        row = 0
        while bits:
            low = bits & -bits
            row |= 1 << pos[low.bit_length() - 1]
            bits ^= low
        adj[pos[v]] = row

    non_adj = [~row for row in adj]
    best: list[int] = []
    clique: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best
        # greedy colouring: colour k holds an independent set, so a clique
        # in cand takes at most one vertex per colour; vertices whose colour
        # cannot lift the clique past the incumbent are never branched on
        verts, bounds = [], []
        rest, colour = cand, 0
        need = len(best) - len(clique)
        while rest:
            colour += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= non_adj[v] & ~low
                rest &= ~low
                if colour > need:
                    verts.append(v)
                    bounds.append(colour)
        for i in range(len(verts) - 1, -1, -1):
            if len(clique) + bounds[i] <= len(best):
                return
            v = verts[i]
            clique.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(nxt)
            elif len(clique) > len(best):
                best = list(clique)
            clique.pop()
            cand &= ~(1 << v)

    start = sum(1 << pos[v] for v in range(n) if allowed >> v & 1)
    if start:
        expand(start)
    return [order[v] for v in best]


def clique_optimum(g, h) -> int:
    return len(max_clique(*modular_product(g, h)))


def clique_union_optimum(a, b) -> int:
    """Disjoint unions of cliques: pair the parts largest with largest."""
    return sum(min(x, y) for x, y in zip(sorted(a, reverse=True), sorted(b, reverse=True)))


def bipartite_optimum(a, b, c, d) -> int:
    """K_{a,b} against K_{c,d}: a complete bipartite graph or an independent set."""
    return max(min(a, c) + min(b, d), min(a, d) + min(b, c), min(max(a, b), max(c, d)))


def star_optimum(k, m) -> int:
    """K_{1,k} against K_{1,m}: the centre plus the shorter row of leaves."""
    return min(k, m) + 1


FAMILY_OPTIMA = {
    "star": star_optimum,
    "bipartite": bipartite_optimum,
    "cliques": clique_union_optimum,
}


def is_induced_isomorphism(g_adj, h_adj, pairs) -> bool:
    """True iff ``pairs`` is injective and g[A] equals h[B] edge for edge.

    ``g_adj`` and ``h_adj`` come from ``adjacency``; every ordered pair is
    compared, so arcs are checked in both directions.
    """
    g_out, _, g_loop = g_adj
    h_out, _, h_loop = h_adj
    left = [v for v, _ in pairs]
    right = [u for _, u in pairs]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        return False
    if not all(0 <= v < len(g_out) for v in left) or not all(0 <= u < len(h_out) for u in right):
        return False
    for v, u in pairs:
        if g_loop[v] != h_loop[u]:
            return False
        for w, y in pairs:
            if w != v and (w in g_out[v]) != (y in h_out[u]):
                return False
    return True


def optimum(inst) -> int:
    """The independent optimum of one generated instance."""
    if inst.kind == "family":
        family, args = inst.family
        return FAMILY_OPTIMA[family](*args)
    if inst.kind == "planted":
        if len(inst.planted) != inst.g[0] or not is_induced_isomorphism(
            adjacency(inst.g), adjacency(inst.h), inst.planted
        ):
            raise ValueError(f"{inst.name}: the planted copy is not an induced subgraph")
        return inst.g[0]
    return clique_optimum(inst.g, inst.h)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    for inst in gen.WORKLOADS[args.workload](args.seed):
        print(json.dumps({"instance": inst.name, "optimum": optimum(inst)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
