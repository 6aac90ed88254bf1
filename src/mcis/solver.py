"""Branch-and-bound search for a maximum common induced subgraph.

The search grows a mapping pair by pair. All unmatched vertices are kept in
a partition of bidomains: a bidomain pairs the G-vertices and H-vertices
whose adjacency pattern towards the already-matched pairs is identical, so
any vertex on the left side may still be matched to any vertex on the right
side. Matching v to u splits every bidomain by adjacency to v and u;
deciding to leave v unmatched (recorded as the pair ``(v, None)``) removes v
and searches the rest. The incumbent is the best mapping seen so far and
a branch is abandoned whenever matched-count plus the sum of min(side sizes)
cannot beat it.

Two optional pruning rules exploit interchangeable vertices (see
:mod:`mcis.symmetry`):

* variable rule: if an interchangeable sibling of v was already assigned a
  value u' earlier in the branch, candidates that precede u' in the fixed
  value order are skipped; the swapped branch was, or will be, explored via
  the sibling. Unmatched counts as the largest value, so once a sibling was
  left unmatched, v accepts no real value at all.
* value rule: among interchangeable candidates living in the same bidomain,
  only the first in the fixed value order is tried.

One fixed value order (degree descending, then class id, then vertex id) is
used both to iterate candidates and to compare values inside the pruning
rules, in every configuration. Keeping the two aligned means a skipped
branch's surviving twin is always explored earlier in depth-first order,
which in turn makes branch counts shrink monotonically as rules are added.

Module layout: ``solve`` relabels both graphs into bitset rows and runs
the search as one loop over a stack of pending nodes; the counters go
straight into its ``SearchStats``. The choice of bidomain and vertex, the
bound and both pruning rules are spelled inline in that loop, and
``_split`` is its one partition operation. The same decisions over plain
vertex lists, as McSplit writes them, live in ``tests/reference.py``: they
are the independent reference the tests hold the search to, counter for
counter and pair for pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from .graph import Graph, _bits_to_list
from .symmetry import SymmetryClasses, compute_symmetry_classes

# (var_sym, val_sym) of each standard rule combination, by name
_CONFIG_RULES = {
    "none": (False, False),
    "var": (True, False),
    "val": (False, True),
    "dual": (True, True),
}
CONFIG_NAMES = tuple(_CONFIG_RULES)
_CONFIG_BY_RULES = {rules: name for name, rules in _CONFIG_RULES.items()}

# search nodes between two reads of the clock when a timeout is set
_CHECK_INTERVAL = 1024


@dataclass
class SolverConfig:
    var_sym: bool = True
    val_sym: bool = True
    timeout: float | None = None

    def __post_init__(self):
        # written so that NaN fails too: it compares false with everything
        if self.timeout is not None and not self.timeout >= 0:
            raise ValueError("timeout must be non-negative")

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "SolverConfig":
        """Build one of the standard rule combinations by name."""
        try:
            var_sym, val_sym = _CONFIG_RULES[name]
        except KeyError:
            raise ValueError(f"unknown config {name!r}, expected one of {CONFIG_NAMES}") from None
        return cls(var_sym=var_sym, val_sym=val_sym, **kwargs)

    @property
    def name(self) -> str:
        return _CONFIG_BY_RULES[(self.var_sym, self.val_sym)]


@dataclass
class SearchStats:
    branches: int = 0
    bound_prunes: int = 0
    var_sym_prunes: int = 0
    val_sym_prunes: int = 0
    incumbent_size: int = 0
    time_to_best: float = 0.0
    branches_to_best: int = 0
    completed: bool = True


@dataclass
class Solution:
    mapping: list[tuple[int, int]]
    stats: SearchStats

    @property
    def size(self) -> int:
        return len(self.mapping)


def value_order_ranks(h: Graph, classes_h: SymmetryClasses) -> list[int]:
    """Position of each H-vertex in the fixed value order.

    Lower rank means tried earlier and considered smaller by the pruning
    rules; ``None`` (unmatched) is larger than every rank. Interchangeable
    vertices share degree and class, so they are consecutive and fall back
    to id order among themselves.
    """
    order = sorted(range(h.n), key=lambda u: (-h.degree(u), classes_h.class_id[u], u))
    ranks = [0] * h.n
    for i, u in enumerate(order):
        ranks[u] = i
    return ranks


def _split(bds, g_row, h_row):
    """Every bidomain halved by adjacency to one row per side.

    The no-edge half comes first, and a half with an empty side is dropped:
    none of its vertices can be matched any more.
    """
    out = []
    for gb, hb, _, _ in bds:
        g1 = gb & g_row
        h1 = hb & h_row
        g0 = gb ^ g1
        h0 = hb ^ h1
        if g0 and h0:
            out.append((g0, h0, g0.bit_count(), h0.bit_count()))
        if g1 and h1:
            out.append((g1, h1, g1.bit_count(), h1.bit_count()))
    return out


def _relabel(rows: list[int], order: list[int], new_id: list[int]) -> list[int]:
    """Adjacency rows renumbered: row i is old vertex order[i], bits by new_id."""
    out = []
    for old in order:
        row = 0
        for w in _bits_to_list(rows[old]):
            row |= 1 << new_id[w]
        out.append(row)
    return out


def solve(g: Graph, h: Graph, config: SolverConfig | None = None) -> Solution:
    """Find a maximum common induced subgraph of g and h.

    Interchangeability classes for both graphs are computed here, inside the
    measured solve, and drive the two pruning rules when enabled. On timeout
    the incumbent found so far is returned with ``stats.completed`` false.

    The search runs on bitsets. Both graphs are relabelled once, up front.
    G is relabelled by (-degree, id), so the branching vertex of a bidomain
    is its lowest set bit. H is relabelled by the value order, so a vertex's
    label is its rank, and walking a bidomain's H bits upward yields the
    candidates in value order. A bidomain is a ``(g_bits, h_bits, g_len,
    h_len)`` tuple, and :func:`_split` is the one partition operation: it
    halves every bidomain by one row per side. The root is the whole vertex
    sets split by loop flag; a match splits by the out-rows of the pair and,
    for directed graphs, then by the in-rows. Pairs are mapped back to the
    original ids only when an incumbent is recorded.

    The search pops pending nodes off a stack, so memory, not the recursion
    limit, bounds its depth. An entry holds a node's bidomains, matched
    count, path length above it and the pair leading to it. A node pushes
    its unmatched child, then its candidates from the top rank down, so they
    pop in value order with the unmatched child last, as the counters expect.
    """
    if config is None:
        config = SolverConfig()
    if g.n == 0 or h.n == 0:
        raise ValueError("solve requires non-empty graphs")
    if g.directed != h.directed:
        raise ValueError("graphs must agree on directedness")

    t0 = perf_counter()
    classes_g = compute_symmetry_classes(g)
    classes_h = compute_symmetry_classes(h)

    g_ids = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    rank = value_order_ranks(h, classes_h)
    h_ids = sorted(range(h.n), key=rank.__getitem__)
    g_new = [0] * g.n
    for i, v in enumerate(g_ids):
        g_new[v] = i
    g_out = _relabel(g.out_bits, g_ids, g_new)
    h_out = _relabel(h.out_bits, h_ids, rank)
    directed = g.directed
    if directed:
        g_in = _relabel(g.in_bits, g_ids, g_new)
        h_in = _relabel(h.in_bits, h_ids, rank)
    gclass = [classes_g.class_id[v] for v in g_ids]
    hclass = [classes_h.class_id[u] for u in h_ids]
    g_peers = [len(classes_g.peers(v)) > 1 for v in g_ids]
    bot_rank = h.n
    use_var = config.var_sym
    use_val = config.val_sym
    deadline = None if config.timeout is None else t0 + config.timeout
    tick = 1

    # a looped vertex can only match a looped one
    g_loops = sum(1 << i for i, v in enumerate(g_ids) if g.loops[v])
    h_loops = sum(1 << i for i, u in enumerate(h_ids) if h.loops[u])
    root = _split([((1 << g.n) - 1, (1 << h.n) - 1, g.n, h.n)], g_loops, h_loops)

    mapping: list[tuple[int, int | None]] = []
    best: list[tuple[int, int]] = []
    stats = SearchStats()
    # pending nodes: (bidomains, matched count, path length above, pair)
    stack = [(root, 0, 0, None)]

    while stack:
        bds, mc, depth, pair = stack.pop()
        stats.branches += 1
        tick -= 1
        if tick <= 0:
            tick = _CHECK_INTERVAL
            if deadline is not None and perf_counter() >= deadline:
                stats.completed = False
                break

        bound = mc
        for _, _, gl, hl in bds:
            bound += gl if gl < hl else hl
        if bound > stats.incumbent_size:
            # only a node the bound keeps reads the path, and a new
            # incumbent is such a node, since mc <= bound
            del mapping[depth:]
            if pair is not None:
                mapping.append(pair)
            if mc > stats.incumbent_size:
                stats.incumbent_size = mc
                best = [(g_ids[v], h_ids[u]) for v, u in mapping if u is not None]
                stats.time_to_best = perf_counter() - t0
                stats.branches_to_best = stats.branches
        if bound <= stats.incumbent_size:
            stats.bound_prunes += 1
            continue
        path_len = len(mapping)

        best_i = 0
        best_k = 1 << 60
        for i, (_, _, gl, hl) in enumerate(bds):
            k = gl if gl >= hl else hl
            if k < best_k:
                best_k = k
                best_i = i
        gb, hb, gl, hl = bds[best_i]
        low = gb & -gb
        v = low.bit_length() - 1
        gb ^= low
        gl -= 1

        var_bound = -1
        if use_var and g_peers[v]:
            cls = gclass[v]
            for pv, pu in mapping:
                if gclass[pv] == cls:
                    rk = bot_rank if pu is None else pu
                    if rk > var_bound:
                        var_bound = rk

        # the unmatched child goes below its siblings, so it pops last
        rest = bds.copy()
        if gl == 0:
            del rest[best_i]
        else:
            rest[best_i] = (gb, hb, gl, hl)
        stack.append((rest, mc, path_len, (v, None)))

        prev_class = -1
        cands = hb
        if var_bound > 0:
            # every candidate ranked below the bound loses to a swap
            skipped = cands & ((1 << var_bound) - 1)
            if skipped:
                stats.var_sym_prunes += skipped.bit_count()
                prev_class = hclass[skipped.bit_length() - 1]
                cands ^= skipped
        v_out = g_out[v]
        v_in = g_in[v] if directed else 0
        # from the top rank down: the next lower candidate (or the var seed)
        # is the one visited just before this one
        while cands:
            u = cands.bit_length() - 1
            ubit = 1 << u
            cands ^= ubit
            if use_val and hclass[u] == (hclass[cands.bit_length() - 1] if cands else prev_class):
                # an interchangeable candidate comes first in this bidomain
                stats.val_sym_prunes += 1
                continue
            bds[best_i] = (gb, hb ^ ubit, gl, hl - 1)
            child = _split(bds, v_out, h_out[u])
            if directed:
                # (out, in) buckets in the order 00, 01, 10, 11
                child = _split(child, v_in, h_in[u])
            stack.append((child, mc + 1, path_len, (v, u)))

    return Solution(best, stats)
