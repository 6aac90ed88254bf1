"""The independent oracles the tests hold the package to.

Plain-list search: ``Bidomain`` through ``refine_partition`` spell every
decision of ``mcis.solve`` over vertex lists, as McSplit writes its
bidomain search (McCreesh, Prosser and Trimble, IJCAI 2017).
``reference_solve`` runs them as one search, on the pair
``reference_orient`` picks (the smaller graph first, and the complements
of a dense pair); differential tests hold it and the bitset engine to
identical counters. ``small_bidomain_bound`` is the bound that search
prunes by, with each small bidomain's MCIS found by brute force.
``enumerate_tree`` walks the complete unpruned search tree of tiny
instances, as given, reporting each node's bound and each terminal branch
together with whether either pruning rule would have fired on it.

Tuple keys: ``negative_neighborhood`` / ``positive_neighborhood`` are the
readable definition of interchangeability, as sorted neighbor ids. A
self-loop appends a reserved sentinel id (``n``, one past the largest
vertex id); for directed graphs a key holds the pair of in- and
out-neighbor tuples, with the sentinel on both sides.
``reference_classes`` groups vertices by these keys, the oracle for the
bitset-row grouping of ``compute_symmetry_classes``.
``verify_swap_automorphism`` checks a transposition against the edge set
directly.

Value order and mapping check: ``reference_ranks`` places each H-vertex in
the value order ``order_values`` defines, the ranks the reference search
and the acceptance checks compare values by. ``reference_is_isomorphism``
checks a mapping pair against pair with ``has_edge``, the readable
definition the row check of ``mcis.is_isomorphism`` is held to.

Line-by-line parsers: ``reference_parse_lad`` / ``reference_parse_edgelist``
convert and check each token on its own and build the Graph from an edge
list, as the package's parsers did before they read in bulk. The tests hold
those to them, graph for graph and error line for error line.

Isomorphism classes: ``canonical_form`` names an undirected graph's class
by the least edge mask over relabellings, and ``graph_classes`` grows one
graph of each class on up to n vertices by ``extensions``. They never read
``_side_key``, so the tests and ``tools/sweep.py`` hold the small-bidomain
masks to them.

Test-only helpers: ``degree``, ``neighbors``, ``in_neighbors``,
``edge_list``, ``has_loops``, ``are_symmetric``, ``kind_of``, ``to_lad``,
``to_edgelist`` and ``induced_subgraph`` build inputs and state
expectations; the package does not use them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from mcis import (
    Graph,
    GraphParseError,
    SymmetryClasses,
    compute_symmetry_classes,
)
from mcis.oracle import brute_force_size
from mcis.symmetry import NEGATIVE, POSITIVE


@dataclass
class Bidomain:
    """Unmatched vertices with one shared adjacency pattern, per side."""

    gs: list[int]
    hs: list[int]


def initial_partition(g: Graph, h: Graph) -> list[Bidomain]:
    """Starting partition: everything matchable, split only by loop flag.

    A vertex with a self-loop can never map to one without, so the two
    groups start in separate bidomains. This is the only point where the
    solver consults loop flags; refinement preserves the separation.
    """
    parts = []
    for want_loop in (False, True):
        gs = [v for v in range(g.n) if g.loops[v] == want_loop]
        hs = [u for u in range(h.n) if h.loops[u] == want_loop]
        if gs and hs:
            parts.append(Bidomain(gs, hs))
    return parts


def upper_bound(mapping: list[tuple[int, int | None]], partition: list[Bidomain]) -> int:
    """Matched pairs so far plus min(side sizes) over the bidomains."""
    matched = sum(1 for _, u in mapping if u is not None)
    return matched + sum(min(len(bd.gs), len(bd.hs)) for bd in partition)


def small_bidomain_bound(
    mapping: list[tuple[int, int | None]],
    partition: list[Bidomain],
    g: Graph,
    h: Graph,
    caps: dict,
) -> int:
    """``upper_bound`` with each small bidomain capped by its own optimum.

    Pairs never leave their bidomain, and those one bidomain gives induce
    isomorphic subgraphs of its two sides, so it gives at most the MCIS of
    the subgraphs its sides induce. For undirected graphs, a bidomain with
    2-7 vertices a side counts that MCIS, found by brute force, in place
    of min(side sizes). ``caps`` keeps the MCIS of sides already seen, by
    their vertex tuples, for calls on the same g and h.
    """
    bound = upper_bound(mapping, partition)
    if g.directed:
        return bound
    for bd in partition:
        if 2 <= len(bd.gs) <= 7 and 2 <= len(bd.hs) <= 7:
            sides = (tuple(bd.gs), tuple(bd.hs))
            if sides not in caps:
                caps[sides] = brute_force_size(induced_subgraph(g, bd.gs), induced_subgraph(h, bd.hs))
            bound -= min(len(bd.gs), len(bd.hs)) - caps[sides]
    return bound


def select_bidomain(partition: list[Bidomain]) -> int:
    """Index of the bidomain with the smallest larger side; first wins ties."""
    if not partition:
        raise ValueError("cannot select from an empty partition")
    return min(range(len(partition)), key=lambda i: max(len(partition[i].gs), len(partition[i].hs)))


def select_vertex(bd: Bidomain, g: Graph) -> int:
    """Branching vertex: maximum degree in G, ties to the lowest id."""
    return max(bd.gs, key=lambda v: (degree(g, v), -v))


def order_values(bd: Bidomain, h: Graph, classes_h: SymmetryClasses) -> list[int]:
    """Candidate values of the bidomain in the fixed value order."""
    return sorted(bd.hs, key=lambda u: (-degree(h, u), classes_h.class_id[u], u))


def reference_ranks(h: Graph) -> list[int]:
    """Each vertex's position in the reference value order over all of h.

    Lower rank means tried earlier and considered smaller by the pruning
    rules; ``None`` (unmatched) is larger than every rank.
    """
    order = order_values(Bidomain([], list(range(h.n))), h, compute_symmetry_classes(h))
    return [order.index(u) for u in range(h.n)]


def var_sym_prunable(
    mapping: list[tuple[int, int | None]],
    v: int,
    u: int | None,
    classes_g: SymmetryClasses,
    value_rank: list[int],
) -> bool:
    """Candidate (v, u) loses to a swap with an earlier interchangeable pair.

    True iff some (v', u') in the mapping has v' interchangeable with v and
    u strictly smaller than u' in the value order (None largest): exchanging
    the two values would give an equivalent branch that sorts earlier.
    """
    cid = classes_g.class_id[v]
    if cid not in classes_g.class_members:
        return False
    bot = len(value_rank)
    ur = bot if u is None else value_rank[u]
    for pv, pu in mapping:
        if pv != v and classes_g.class_id[pv] == cid:
            if ur < (bot if pu is None else value_rank[pu]):
                return True
    return False


def val_sym_prunable(bd: Bidomain, u: int, classes_h: SymmetryClasses) -> bool:
    """An interchangeable candidate earlier in the value order is still here.

    Interchangeable vertices share degree and class id, so among them the
    value order reduces to vertex id.
    """
    cid = classes_h.class_id[u]
    if cid not in classes_h.class_members:
        return False
    return any(w != u and w < u and classes_h.class_id[w] == cid for w in bd.hs)


def refine_partition(
    partition: list[Bidomain], v: int, u: int, g: Graph, h: Graph
) -> list[Bidomain]:
    """Split every bidomain by adjacency to the new pair (v, u).

    Expects v and u to have been removed from their bidomain already. For
    directed graphs each side splits four ways, keyed by the (outgoing,
    incoming) edge pattern; children with an empty side are dropped. Bucket
    order (no-edge first) fixes the indices later selections depend on.
    """
    out = []
    nbuckets = 4 if g.directed else 2
    for bd in partition:
        gb: list[list[int]] = [[] for _ in range(nbuckets)]
        hb: list[list[int]] = [[] for _ in range(nbuckets)]
        for w in bd.gs:
            gb[_bucket(g, v, w)].append(w)
        for y in bd.hs:
            hb[_bucket(h, u, y)].append(y)
        for k in range(nbuckets):
            if gb[k] and hb[k]:
                out.append(Bidomain(gb[k], hb[k]))
    return out


def _bucket(g: Graph, v: int, w: int) -> int:
    if not g.directed:
        return (g.out_bits[v] >> w) & 1
    return (((g.out_bits[v] >> w) & 1) << 1) | ((g.in_bits[v] >> w) & 1)


class NeighborhoodKey(NamedTuple):
    """Canonical neighborhood of one vertex, comparable across vertices.

    For undirected graphs ``in_members`` and ``out_members`` are identical.
    The kind tag participates in equality and hashing, so negative keys can
    never collide with positive ones.
    """

    kind: str
    in_members: tuple[int, ...]
    out_members: tuple[int, ...]

    @property
    def members(self) -> tuple[int, ...]:
        return self.out_members


def _neighborhood_key(g: Graph, v: int, kind: str) -> NeighborhoodKey:
    sentinel = g.n
    ins = in_neighbors(g, v)
    outs = neighbors(g, v) if g.directed else ins
    if kind == POSITIVE:
        ins = sorted(ins + [v])
        outs = sorted(outs + [v]) if g.directed else ins
    if g.loops[v]:
        # the sentinel joins both directions so a loop stays a single marker
        ins = ins + [sentinel]
        outs = outs + [sentinel] if g.directed else ins
    return NeighborhoodKey(kind, tuple(ins), tuple(outs))


def negative_neighborhood(g: Graph, v: int) -> NeighborhoodKey:
    """Open-neighborhood key of v (the vertex itself excluded)."""
    return _neighborhood_key(g, v, NEGATIVE)


def positive_neighborhood(g: Graph, v: int) -> NeighborhoodKey:
    """Closed-neighborhood key of v (the vertex itself included)."""
    return _neighborhood_key(g, v, POSITIVE)


def verify_swap_automorphism(g: Graph, u: int, v: int) -> bool:
    """Check directly that transposing u and v maps the edge set onto itself.

    Independent of the key-based detection; used to cross-validate it.
    """
    if u == v:
        raise ValueError("swap requires two distinct vertices")
    if g.loops[u] != g.loops[v]:
        return False
    mask = ~((1 << u) | (1 << v))
    if (g.out_bits[u] & mask) != (g.out_bits[v] & mask):
        return False
    if g.directed:
        if (g.in_bits[u] & mask) != (g.in_bits[v] & mask):
            return False
        # the u-v edges themselves swap places
        if g.has_edge(u, v) != g.has_edge(v, u):
            return False
    return True


def reference_is_isomorphism(g: Graph, h: Graph, mapping) -> bool:
    """``mcis.is_isomorphism`` as its definition: every pair of matched
    pairs is compared with two edge tests, and both ways for directed
    graphs, after the loop-flag and injectivity rules."""
    pairs = [(v, u) for v, u in mapping if u is not None]
    if len({v for v, _ in pairs}) < len(pairs) or len({u for _, u in pairs}) < len(pairs):
        return False
    for v, u in pairs:
        if g.loops[v] != h.loops[u]:
            return False
    for i in range(len(pairs)):
        v1, u1 = pairs[i]
        for j in range(i + 1, len(pairs)):
            v2, u2 = pairs[j]
            if g.has_edge(v1, v2) != h.has_edge(u1, u2):
                return False
            if g.directed and g.has_edge(v2, v1) != h.has_edge(u2, u1):
                return False
    return True


def _without(partition, i, v, u):
    """Copy of the partition with v and u dropped from bidomain i."""
    out = []
    for j, bd in enumerate(partition):
        if j == i:
            out.append(Bidomain([w for w in bd.gs if w != v], [y for y in bd.hs if y != u]))
        else:
            out.append(bd)
    return out


def reference_orient(g: Graph, h: Graph) -> tuple[Graph, Graph, bool]:
    """The pair ``mcis.solve`` searches, and whether g and h swapped places.

    The smaller graph branches, so g and h swap when g has more vertices.
    A pair with more than half of all possible arcs between distinct
    vertices is then replaced by its complements, edge set by edge set,
    with the loops and names kept.
    """
    swapped = g.n > h.n
    if swapped:
        g, h = h, g
    if 2 * (arc_count(g) + arc_count(h)) > g.n * (g.n - 1) + h.n * (h.n - 1):
        g, h = complement(g), complement(h)
    return g, h, swapped


def arc_count(g: Graph) -> int:
    """Arcs between distinct vertices; an undirected edge counts as two."""
    return sum(1 if g.directed else 2 for a, b in edge_list(g) if a != b)


def complement(g: Graph) -> Graph:
    """g with each pair of distinct vertices joined exactly when it was not
    (each ordered pair, when directed); loops and names are kept."""
    edges = set(edge_list(g))
    flipped = [
        (a, b)
        for a in range(g.n)
        for b in range(g.n)
        if a != b and (g.directed or a < b) and (a, b) not in edges
    ]
    flipped += [(v, v) for v in range(g.n) if g.loops[v]]
    return Graph(g.n, flipped, directed=g.directed, names=g.names)


def reference_solve(g, h, config):
    """Same search as mcis.solve, on plain list bidomains. Returns (mapping, stats).

    The search runs on the pair ``reference_orient`` picks, and the mapping
    is reported in g-to-h order.
    """
    g, h, swapped = reference_orient(g, h)
    classes_g = compute_symmetry_classes(g)
    classes_h = compute_symmetry_classes(h)
    rank = reference_ranks(h)
    stats = {"branches": 0, "bound_prunes": 0, "var_sym_prunes": 0, "val_sym_prunes": 0,
             "incumbent_size": 0, "branches_to_best": 0}
    best_mapping: list[tuple[int, int]] = []
    mapping: list[tuple[int, int | None]] = []
    # spelled out here rather than read from the package's table
    use_var = config.name in ("var", "dual")
    use_val = config.name in ("val", "dual")
    caps: dict = {}

    def search(partition):
        nonlocal best_mapping
        stats["branches"] += 1
        matched = sum(1 for _, u in mapping if u is not None)
        if matched > stats["incumbent_size"]:
            stats["incumbent_size"] = matched
            stats["branches_to_best"] = stats["branches"]
            best_mapping = [(v, u) for v, u in mapping if u is not None]
        if small_bidomain_bound(mapping, partition, g, h, caps) <= stats["incumbent_size"]:
            stats["bound_prunes"] += 1
            return
        i = select_bidomain(partition)
        bd = partition[i]
        v = select_vertex(bd, g)
        rest = _without(partition, i, v, None)
        if use_var:
            # once v is unmatched the var rule gives its class-mates no
            # value, so they are left out with it
            cid = classes_g.class_id[v]
            rest[i].gs = [w for w in rest[i].gs if classes_g.class_id[w] != cid]
        if not rest[i].gs:
            rest.pop(i)
        # the unmatched child is searched only if its bound beats the
        # incumbent of the node's own entry
        rest_alive = small_bidomain_bound(mapping, rest, g, h, caps) > stats["incumbent_size"]
        for u in order_values(bd, h, classes_h):
            if use_var and var_sym_prunable(mapping, v, u, classes_g, rank):
                stats["var_sym_prunes"] += 1
                continue
            if use_val and val_sym_prunable(bd, u, classes_h):
                stats["val_sym_prunes"] += 1
                continue
            children = refine_partition(_without(partition, i, v, u), v, u, g, h)
            mapping.append((v, u))
            search(children)
            mapping.pop()
        if rest_alive:
            mapping.append((v, None))
            search(rest)
            mapping.pop()

    search(initial_partition(g, h))
    if swapped:
        best_mapping = [(u, v) for v, u in best_mapping]
    return best_mapping, stats


def enumerate_tree(g, h, on_node=None, collect_branches=None, bound=upper_bound):
    """Walk the complete (unpruned) search tree.

    ``on_node(mapping, ub, parent_ub, subtree_best)`` is called once per node
    after its subtree finished, where ``ub`` is ``bound(mapping, partition)``
    at the node and ``subtree_best`` is the largest full mapping reachable
    from the node. When ``collect_branches`` is a list,
    every terminal branch appends a record ``(pairs, var_fired, val_fired)``
    where the booleans say whether the corresponding rule would have skipped
    any step of the branch. Returns the largest full-mapping size overall.
    """
    classes_g = compute_symmetry_classes(g)
    classes_h = compute_symmetry_classes(h)
    rank = reference_ranks(h)
    mapping: list[tuple[int, int | None]] = []

    def walk(partition, parent_ub, var_fired, val_fired):
        ub = bound(mapping, partition)
        snapshot = list(mapping)
        best = sum(1 for _, u in mapping if u is not None)
        if not partition:
            if collect_branches is not None:
                collect_branches.append((tuple(mapping), var_fired, val_fired))
        else:
            i = select_bidomain(partition)
            bd = partition[i]
            v = select_vertex(bd, g)
            for u in order_values(bd, h, classes_h):
                vf = var_fired or var_sym_prunable(mapping, v, u, classes_g, rank)
                lf = val_fired or val_sym_prunable(bd, u, classes_h)
                children = refine_partition(_without(partition, i, v, u), v, u, g, h)
                mapping.append((v, u))
                best = max(best, walk(children, ub, vf, lf))
                mapping.pop()
            rest = _without(partition, i, v, None)
            if not rest[i].gs:
                rest.pop(i)
            mapping.append((v, None))
            best = max(best, walk(rest, ub, var_fired, val_fired))
            mapping.pop()
        if on_node is not None:
            on_node(snapshot, ub, parent_ub, best)
        return best

    return walk(initial_partition(g, h), None, False, False)


def reference_classes(g):
    """(class_id, class_members, class_kind) grouped by the tuple keys.

    Each vertex joins its ``negative_neighborhood`` group if that has a
    second member, else its ``positive_neighborhood`` group if that does,
    else a singleton; ids follow each class's smallest member. As in
    ``SymmetryClasses``, the member and kind dicts hold only the classes
    of two or more vertices, in id order.
    """
    neg_keys = [negative_neighborhood(g, v) for v in range(g.n)]
    pos_keys = [positive_neighborhood(g, v) for v in range(g.n)]
    neg_groups, pos_groups = {}, {}
    for v in range(g.n):
        neg_groups.setdefault(neg_keys[v], []).append(v)
        pos_groups.setdefault(pos_keys[v], []).append(v)
    class_id = [-1] * g.n
    class_members, class_kind = {}, {}
    next_id = 0
    for v in range(g.n):
        if class_id[v] != -1:
            continue
        if len(neg_groups[neg_keys[v]]) > 1:
            group, kind = neg_groups[neg_keys[v]], "negative"
        elif len(pos_groups[pos_keys[v]]) > 1:
            group, kind = pos_groups[pos_keys[v]], "positive"
        else:
            group, kind = [v], "singleton"
        for w in group:
            class_id[w] = next_id
        if len(group) > 1:
            class_members[next_id] = tuple(group)
            class_kind[next_id] = kind
        next_id += 1
    return class_id, class_members, class_kind


# -- test-only graph helpers -------------------------------------------------


def degree(g: Graph, v: int) -> int:
    """Neighbor count; for directed graphs, in-degree plus out-degree."""
    d = g.out_bits[v].bit_count()
    if g.directed:
        d += g.in_bits[v].bit_count()
    return d


def neighbors(g: Graph, v: int) -> list[int]:
    """Out-neighbors of v in ascending order (loops excluded)."""
    return [w for w in range(g.n) if g.out_bits[v] >> w & 1]


def in_neighbors(g: Graph, v: int) -> list[int]:
    """In-neighbors of v in ascending order (loops excluded)."""
    return [w for w in range(g.n) if g.in_bits[v] >> w & 1]


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Edge list in canonical order: loops as (v, v), undirected once."""
    out = []
    for v in range(g.n):
        for w in neighbors(g, v):
            if g.directed or v < w:
                out.append((v, w))
        if g.loops[v]:
            out.append((v, v))
    out.sort()
    return out


def has_loops(g: Graph) -> bool:
    return any(g.loops)


def are_symmetric(classes: SymmetryClasses, u: int, v: int) -> bool:
    """O(1) interchangeability test; false for u == v and for singletons."""
    if u == v:
        return False
    return classes.class_id[u] == classes.class_id[v]


def kind_of(classes: SymmetryClasses, v: int) -> str:
    return classes.class_kind.get(classes.class_id[v], "singleton")


def to_lad(g: Graph) -> str:
    """Serialize an undirected graph to LAD text; parse_lad round-trips it."""
    if g.directed:
        raise ValueError("LAD format is undirected only")
    rows = [str(g.n)]
    for v in range(g.n):
        nbrs = neighbors(g, v)
        if g.loops[v]:
            nbrs = sorted(nbrs + [v])
        rows.append(" ".join([str(len(nbrs))] + [str(w) for w in nbrs]))
    return "\n".join(rows) + "\n"


def to_edgelist(g: Graph) -> str:
    """Serialize to edge-list text; parse_edgelist round-trips it.

    Always emits numeric ids: symbolic names cannot in general be re-interned
    to the same ids, so they are treated as display metadata only.
    """
    edges = edge_list(g)
    rows = [f"{g.n} {len(edges)}"]
    rows.extend(f"{a} {b}" for a, b in edges)
    return "\n".join(rows) + "\n"



def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabelled 0.. in ascending order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(vs)}
    edges = []
    for v in vs:
        if g.loops[v]:
            edges.append((index[v], index[v]))
        for w in neighbors(g, v):
            if w in index and (g.directed or v < w):
                edges.append((index[v], index[w]))
    names = [g.display_name(v) for v in vs] if g.names is not None else None
    return Graph(len(vs), edges, directed=g.directed, names=names)


# -- isomorphism classes -----------------------------------------------------


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, the least edge mask of g over every relabelling that lists its
    vertices by degree, largest first), for an undirected g without loops.

    Bit i * n + j of a mask is the edge (i, j), i < j. Degrees are the same
    in isomorphic graphs, so they relabel alike and share the form, and two
    graphs with one form are both isomorphic to the graph that mask spells.
    """
    n = g.n
    edges = edge_list(g)
    deg = [degree(g, v) for v in range(n)]
    groups = [[v for v in range(n) if deg[v] == d] for d in sorted(set(deg), reverse=True)]
    best = None
    for parts in itertools.product(*map(itertools.permutations, groups)):
        pos = [0] * n
        for i, v in enumerate(itertools.chain.from_iterable(parts)):
            pos[v] = i
        mask = 0
        for a, b in edges:
            a, b = sorted((pos[a], pos[b]))
            mask |= 1 << (a * n + b)
        if best is None or mask < best:
            best = mask
    return n, best


def extensions(g: Graph) -> list[Graph]:
    """g plus a new vertex joined to each subset of g's vertices.

    Deleting the last vertex of a graph on n vertices leaves a graph on n - 1
    isomorphic to some class's, so the extensions of one graph of each class
    on n - 1 hold a graph of every class on n.
    """
    edges = edge_list(g)
    return [Graph(g.n + 1, edges + [(v, g.n) for v in range(g.n) if mask >> v & 1]) for mask in range(1 << g.n)]


def graph_classes(max_n: int) -> dict[int, list[Graph]]:
    """One undirected graph without loops of each isomorphism class, by
    vertex count from 1 to ``max_n``, found among the ``extensions`` of the
    classes one vertex smaller."""
    classes = {1: [Graph(1, [])]}
    for n in range(2, max_n + 1):
        grown = {}
        for g in classes[n - 1]:
            for new in extensions(g):
                grown.setdefault(canonical_form(new), new)
        classes[n] = list(grown.values())
    return classes


# -- line-by-line parsers ----------------------------------------------------


def _split_lines(text: str) -> list[tuple[int, list[str]]]:
    """Non-blank lines as (1-based line number, tokens)."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if toks:
            out.append((i, toks))
    return out


def reference_parse_lad(text: str) -> Graph:
    """Line-by-line LAD parser: one int() and one range check per token."""
    lines = _split_lines(text)
    if not lines:
        raise GraphParseError(1, "empty input, expected a vertex count")
    ln, toks = lines[0]
    if len(toks) != 1:
        raise GraphParseError(ln, "expected a single vertex-count token")
    try:
        n = int(toks[0])
    except ValueError:
        raise GraphParseError(ln, f"vertex count is not an integer: {toks[0]!r}") from None
    if n < 0:
        raise GraphParseError(ln, "vertex count must be non-negative")
    if len(lines) - 1 < n:
        raise GraphParseError(
            lines[-1][0], f"truncated input: expected {n} adjacency rows, found {len(lines) - 1}"
        )
    if len(lines) - 1 > n:
        raise GraphParseError(lines[n + 1][0], f"unexpected extra row, expected {n} adjacency rows")

    edges = []
    for v in range(n):
        ln, toks = lines[v + 1]
        try:
            row = [int(t) for t in toks]
        except ValueError:
            raise GraphParseError(ln, f"non-integer token in adjacency row {v}") from None
        if row[0] != len(row) - 1:
            raise GraphParseError(
                ln, f"row {v} declares {row[0]} neighbors but lists {len(row) - 1}"
            )
        for w in row[1:]:
            if not 0 <= w < n:
                raise GraphParseError(ln, f"neighbor index {w} out of range for n={n}")
            edges.append((v, w))
    return Graph(n, edges)


def reference_parse_edgelist(text: str, directed: bool = False, allow_loops: bool = False) -> Graph:
    """Line-by-line edge-list parser: every token is classified and checked
    on its own, in order.

    Vertex tokens must be either all numeric (interpreted as ids below n)
    or all symbolic names, which are interned in order of first appearance.
    A line ``a a`` is only accepted when ``allow_loops`` is set.
    """
    lines = _split_lines(text)
    if not lines:
        raise GraphParseError(1, "empty input, expected an 'n m' header")
    ln, toks = lines[0]
    if len(toks) != 2:
        raise GraphParseError(ln, "expected header with exactly two tokens: n m")
    try:
        n, m = int(toks[0]), int(toks[1])
    except ValueError:
        raise GraphParseError(ln, "header tokens must be integers") from None
    if n < 0 or m < 0:
        raise GraphParseError(ln, "header counts must be non-negative")
    if len(lines) - 1 != m:
        raise GraphParseError(
            lines[-1][0] if len(lines) > 1 else ln,
            f"expected {m} edge lines, found {len(lines) - 1}",
        )

    numeric: bool | None = None
    names: dict[str, int] = {}

    def vertex(tok: str, ln: int) -> int:
        nonlocal numeric
        is_num = tok.lstrip("-").isdigit()
        if numeric is None:
            numeric = is_num
        elif numeric != is_num:
            raise GraphParseError(ln, "cannot mix numeric ids and symbolic names")
        if is_num:
            try:
                v = int(tok)
            except ValueError:
                raise GraphParseError(ln, f"vertex id {tok!r} is not an integer") from None
            if not 0 <= v < n:
                raise GraphParseError(ln, f"vertex id {v} out of range for n={n}")
            return v
        if tok not in names:
            if len(names) == n:
                raise GraphParseError(ln, f"more than {n} distinct vertex names")
            names[tok] = len(names)
        return names[tok]

    edges = []
    for ln, toks in lines[1:]:
        if len(toks) != 2:
            raise GraphParseError(ln, "expected exactly two vertex tokens")
        a = vertex(toks[0], ln)
        b = vertex(toks[1], ln)
        if a == b and not allow_loops:
            raise GraphParseError(ln, f"self-loop {toks[0]!r} not allowed here")
        edges.append((a, b))

    name_table = None
    if names:
        name_table = [""] * n
        for tok, v in names.items():
            name_table[v] = tok
        for v in range(n):
            if not name_table[v]:
                name_table[v] = str(v)
    return Graph(n, edges, directed=directed, names=name_table)
