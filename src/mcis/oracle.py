"""Brute-force maximum common induced subgraph, for validating the solver.

The search here shares nothing with the production solver: no partitions,
no bound, no symmetry reasoning. It enumerates subsets of the first graph's
vertices in decreasing size and, per subset, every injection into the second
graph, keeping only those that induce isomorphic subgraphs. Injections are
generated by a plain backtracking walk that abandons a partial assignment as
soon as one adjacency or loop flag disagrees; that changes nothing about
which mappings are found, only how fast the hopeless ones are discarded.

Intentionally restricted to tiny graphs (n <= 10 each side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graph import Graph, is_isomorphism

MAX_ORACLE_N = 10
DEFAULT_WITNESS_CAP = 10_000


@dataclass
class OracleResult:
    size: int
    witnesses: list[tuple[tuple[int, int], ...]] = field(default_factory=list)
    witnesses_capped: bool = False
    # maximum mappings found, kept or not
    witness_count: int = 0


def brute_force_mcis(g: Graph, h: Graph, witness_cap: int = DEFAULT_WITNESS_CAP) -> OracleResult:
    """Exact optimum plus all maximum mappings (up to ``witness_cap``).

    Witnesses are tuples of (g_vertex, h_vertex) pairs sorted by g_vertex.
    ``witness_count`` counts every maximum mapping, also those past the cap.
    """
    if g.n > MAX_ORACLE_N or h.n > MAX_ORACLE_N:
        raise ValueError(f"oracle accepts at most {MAX_ORACLE_N} vertices per graph")
    if g.directed != h.directed:
        raise ValueError("graphs must agree on directedness")
    if witness_cap < 0:
        raise ValueError("witness_cap must be non-negative")

    for k in range(min(g.n, h.n), 0, -1):
        witnesses: list[tuple[tuple[int, int], ...]] = []
        # counted apart from the witnesses kept: a size with mappings but
        # none stored (cap 0) is still the optimum
        found = 0
        for subset in combinations(range(g.n), k):
            for image in _consistent_images(g, h, subset):
                mapping = tuple(zip(subset, image))
                assert is_isomorphism(g, h, mapping)
                found += 1
                if len(witnesses) < witness_cap:
                    witnesses.append(mapping)
        if found:
            return OracleResult(k, witnesses, found > len(witnesses), found)
    # the empty mapping is the one maximum mapping
    return OracleResult(0, [()] if witness_cap else [], witness_cap == 0, 1)


def _consistent_images(g: Graph, h: Graph, subset: tuple[int, ...]):
    """Yield every injective image of ``subset`` preserving edges and loops."""
    k = len(subset)
    image: list[int] = []
    used = [False] * h.n

    def extend(i: int):
        if i == k:
            yield tuple(image)
            return
        v = subset[i]
        for u in range(h.n):
            if used[u] or g.loops[v] != h.loops[u]:
                continue
            ok = True
            for j in range(i):
                w, y = subset[j], image[j]
                if g.has_edge(w, v) != h.has_edge(y, u):
                    ok = False
                    break
                if g.directed and g.has_edge(v, w) != h.has_edge(u, y):
                    ok = False
                    break
            if not ok:
                continue
            used[u] = True
            image.append(u)
            yield from extend(i + 1)
            image.pop()
            used[u] = False

    yield from extend(0)
