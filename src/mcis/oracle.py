"""Brute-force maximum common induced subgraph, for validating the solver.

The search here shares nothing with the production solver: no partitions,
no bound, no symmetry reasoning. It enumerates subsets of the first graph's
vertices and, per subset, every injection into the second graph, keeping
only those that induce isomorphic subgraphs. Injections are generated by a
plain backtracking walk that offers each vertex only the unused vertices
whose loop flag and adjacency to the assignment so far agree with its own;
that changes nothing about which mappings are found, only how fast the
hopeless ones are discarded.

``brute_force_size`` finds the optimum. It tries the sizes upward, and a
subset only when every subset one vertex smaller has a mapping. It looks
for a subset's mapping first among the extensions of those smaller ones'
mappings, and walks the subset's injections only when none extends; each
walk stops at its first mapping. So a pair with millions of maximum
mappings costs it one mapping per subset, and the size past the optimum
walks in full only the subsets whose smaller ones all map.
``brute_force_mcis`` takes the optimum from it and then enumerates the
mappings of that size alone.

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
    _check_pair(g, h)
    if witness_cap < 0:
        raise ValueError("witness_cap must be non-negative")

    k = brute_force_size(g, h)
    witnesses: list[tuple[tuple[int, int], ...]] = []
    # counted apart from the witnesses kept, which the cap may stop short
    found = 0
    # at size 0 the one subset is empty and has the one empty mapping
    for subset in combinations(range(g.n), k):
        for image in _consistent_images(g, h, subset):
            mapping = tuple(zip(subset, image))
            assert is_isomorphism(g, h, mapping)
            found += 1
            if len(witnesses) < witness_cap:
                witnesses.append(mapping)
    return OracleResult(k, witnesses, found > len(witnesses), found)


def brute_force_size(g: Graph, h: Graph) -> int:
    """Exact optimum alone, without counting the maximum mappings."""
    _check_pair(g, h)
    # a mapping restricts to every sub-mapping, so a k-subset has an image
    # only when each of its (k-1)-subsets has one, and the optimum is the
    # size below the first with no subset that has an image
    images = {(): ()}
    for k in range(1, min(g.n, h.n) + 1):
        smaller, images = images, {}
        for subset in smaller:
            for w in range(subset[-1] + 1 if subset else 0, g.n):
                grown = subset + (w,)
                if not all(grown[:i] + grown[i + 1 :] in smaller for i in range(k - 1)):
                    continue
                # most often the image of a subset one vertex smaller
                # extends to the vertex it lacks
                for i in range(k - 1, -1, -1):
                    rest = grown[:i] + grown[i + 1 :]
                    found = next(_consistent_images(g, h, rest + grown[i : i + 1], smaller[rest]), None)
                    if found is not None:
                        found = found[:i] + found[-1:] + found[i:-1]
                        break
                else:
                    found = next(_consistent_images(g, h, grown), None)
                if found is not None:
                    assert is_isomorphism(g, h, tuple(zip(grown, found)))
                    images[grown] = found
        if not images:
            return k - 1
    return min(g.n, h.n)


def _check_pair(g: Graph, h: Graph) -> None:
    if g.n > MAX_ORACLE_N or h.n > MAX_ORACLE_N:
        raise ValueError(f"oracle accepts at most {MAX_ORACLE_N} vertices per graph")
    if g.directed != h.directed:
        raise ValueError("graphs must agree on directedness")


def _consistent_images(g: Graph, h: Graph, subset: tuple[int, ...], head: tuple[int, ...] = ()):
    """Yield every injective image of ``subset`` preserving edges and loops
    that starts with ``head``, the image of as many of its first vertices,
    in increasing order of the images' vertex ids."""
    k = len(subset)
    image = list(head)
    looped = sum(1 << u for u in range(h.n) if h.loops[u])
    unlooped = (1 << h.n) - 1 ^ looped

    def extend(i: int, free: int):
        if i == k:
            yield tuple(image)
            return
        v = subset[i]
        # the unused vertices whose loop flag and arcs to the images so far
        # agree with v's
        cands = free & (looped if g.loops[v] else unlooped)
        for j in range(i):
            w, y = subset[j], image[j]
            cands &= h.out_bits[y] if g.has_edge(w, v) else ~h.out_bits[y]
            if g.directed:
                cands &= h.in_bits[y] if g.has_edge(v, w) else ~h.in_bits[y]
        while cands:
            low = cands & -cands
            image.append(low.bit_length() - 1)
            yield from extend(i + 1, free ^ low)
            image.pop()
            cands ^= low

    yield from extend(len(head), (1 << h.n) - 1 ^ sum(1 << u for u in head))
