"""Branch-and-bound search for a maximum common induced subgraph.

The search grows a mapping pair by pair. All unmatched vertices are kept in
a partition of bidomains: a bidomain pairs the G-vertices and H-vertices
whose adjacency pattern towards the already-matched pairs is identical, so
any vertex on the left side may still be matched to any vertex on the right
side. Matching v to u splits every bidomain by adjacency to v and u;
deciding to leave v unmatched removes v and searches the rest. The
incumbent is the best mapping seen so far and a branch is abandoned
whenever matched-count plus the sum of min(side sizes) cannot beat it
(McSplit's bound: McCreesh, Prosser and Trimble, IJCAI 2017).

That sum ignores the edges inside a bidomain. Pairs never leave their
bidomain, and the pairs one bidomain gives induce isomorphic subgraphs of
its two sides, so it gives at most the MCIS of those subgraphs. For
undirected graphs on at most 4 vertices, the sorted degree sequence fixes
the isomorphism class; on 5 and 6 vertices it does with the triangle count
and the sum over edges of the product of their ends' degrees, and on 7
with the triangle count and two sums over the vertices of the squared sum
of their neighbours' degrees, one of them weighted by degree: 1,251
classes on 2-7 vertices in all. Each class has an index, ascending with
its size, and a mask with a bit for each class it induces. So the MCIS of
two classes is the size of the class at the top bit of their masks' AND,
and a bidomain of an undirected pair with 2-7 vertices on each side is
capped by one AND of its sides' masks. Its loss, min(side sizes) less that cap,
comes off the node's lead over the incumbent. The masks are derived at
import from one graph of each class on 1-7 vertices and its one-vertex
deletions, all keyed by the scan's own key, so the two never disagree on a
key. The losses are taken at each node the plain bound keeps and are not
passed on: a child's bidomains are split anew, and the splits below rely
on the plain sum, which alone never grows from parent to child. A side's
mask is kept by its bits, since most small sides recur at many nodes; a
search keeps at most ``_KEYS_KEPT`` of them per graph and starts over when
full.

Two optional pruning rules exploit interchangeable vertices (see
:mod:`mcis.symmetry`):

* variable rule: if an interchangeable sibling of v was already assigned a
  value u' earlier in the branch, candidates that precede u' in the fixed
  value order are skipped; the swapped branch was, or will be, explored via
  the sibling. Unmatched counts as the largest value, so once v is left
  unmatched, its twins accept no real value at all. They leave with v: the
  unmatched child takes them out of v's bidomain, where every unmatched
  twin of v still lies, and its bound falls at once instead of as each
  twin is chosen.
* value rule: among interchangeable candidates living in the same bidomain,
  only the first in the fixed value order is tried.

One fixed value order (degree descending, then class id, then vertex id) is
used both to iterate candidates and to compare values inside the pruning
rules, in every configuration. Keeping the two aligned means a skipped
branch's surviving twin is always explored earlier in depth-first order,
which in turn makes branch counts shrink monotonically as rules are added.

The search runs on the pair in its cheaper orientation; neither step
changes the optimum. The smaller graph branches: when G has more vertices
than H, the search runs on (H, G), and each reported pair is swapped back.
A dense pair, one with more than half of all arcs between distinct
vertices (an undirected edge is two arcs), runs on the complement rows of
both graphs, loops kept; an induced isomorphism of the complements is one
of the originals. The value order, both rules and the search then run on
those rows unchanged, so every counter is the oriented search's.

The search runs on bitsets. G is relabelled by (-degree, id), so the
branching vertex of a bidomain is its lowest set bit. H is relabelled by
the value order, so a vertex's label is its rank, and walking a bidomain's
H bits upward yields the candidates in value order. G's rows are
relabelled up front; an H row the first time a split reads it, since most
H vertices of a large sparse target never become a candidate that gets
split. A bidomain is a ``(g_bits, h_bits, g_len, h_len)`` tuple, and
:func:`_split`, the one partition operation, halves every bidomain by one
row per side. The root is the whole vertex sets split by loop flag; a
match splits by the out-rows of the pair and, for directed graphs, then by
the in-rows. Pairs are mapped back to the original ids only when an
incumbent is recorded.

``solve`` runs the search as one loop over a stack of pending nodes, so
memory, not the recursion limit, bounds its depth. An entry holds four
fields: bidomains, matched count, candidate and bound. The candidate is
``None`` for the root and for an unmatched child, whose lists are already
split; a candidate not yet split holds its pair (v, u) and the index of
the bidomain it comes from. The path above a node holds only its matched
pairs. Only the incumbent's record and the variable rule read the path,
and the rule never needs an unmatched pair there: a vertex left unmatched
takes its twins with it, so no node below branches on one of them.

A child's bound never exceeds its parent's: the chosen bidomain's min
falls by one, the match adds one back, and splitting only lowers the sum.
So a popped node is first pruned, and counted as such, when the bound it
was pushed with does not beat the incumbent. A candidate that passes is
split: it takes u out of the chosen bidomain, splits the list and puts the
bidomain back. The split stops, and the candidate is pruned, as soon as
the halves have lost more of the list's min sides than the bound's lead
over the incumbent allows, so a candidate that survives it still beats
the incumbent.

Each node the bound keeps updates the incumbent, then scans its list
once. The scan takes each small bidomain's loss off the node's lead, and
the node is pruned once no lead is left; it also finds the bidomain to
branch on, the first with the smallest max side, as McSplit does. The
node takes v out of that bidomain, and its unmatched child, under the
variable rule, v's twins too. That child's lead is the node's, with the
bidomain's min side and loss traded for those of what is left of it, as
the child's own scan will take them. The child is pushed, on a copy of
the list and with its plain bound, only when that lead is positive: the
incumbent only grows, so a child without one would be popped only to be
pruned. Then the node pushes its candidates from the top rank down, so
they pop in value order with the unmatched child last, as the counters
expect. A kept node owns its list (the root's, a split's result or its
own copy), and its candidates share it, each taking u out and putting it
back around its own split.

The counters live in locals of the loop and reach its ``SearchStats``
once, when the loop ends, which a timeout does by ``break``. The choice of
bidomain and vertex, the bound and both pruning rules are spelled inline
in that loop. The same decisions over plain vertex lists, as McSplit
writes them, live in ``tests/reference.py``: they are the independent
reference the tests hold the search to, counter for counter and pair for
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, neg
from time import perf_counter

from .graph import Graph, _relabel_row
from .symmetry import SymmetryClasses, compute_symmetry_classes

# (var rule, val rule) of each configuration, by name
_CONFIG_RULES = {
    "none": (False, False),
    "var": (True, False),
    "val": (False, True),
    "dual": (True, True),
}
CONFIG_NAMES = tuple(_CONFIG_RULES)

# search nodes between two reads of the clock when a timeout is set
_CHECK_INTERVAL = 1024

# a side's key is the sum of 8 ** degree over its vertices; no degree occurs
# more than 7 times, so the sum spells out the degree sequence below bit 21.
# On 5 and 6 vertices it adds the triangle count << 21, at most 20, and the
# sum over edges of deg(a) * deg(b) << 26, at most 375. On 7 vertices it adds
# the triangle count << 21, at most 35, and over the vertices the sum of s * s
# << 27, at most 9,072, and of deg * s * s << 41, at most 54,432, where s is
# the sum of a vertex's neighbours' degrees; so every key lies below 1 << 57
_EIGHT_POW = (1, 8, 64, 512, 4096, 32768, 262144)
# small sides whose class mask a search keeps per graph before it starts over
_KEYS_KEPT = 4096


def _side_key(bits: int, rows: list[int]) -> int:
    """The key of the subgraph induced by the at most 7 vertices in ``bits``."""
    key = 0
    n = bits.bit_count()
    rest = bits
    if n == 7:
        # each vertex's row, the bits of its degree as three planes of
        # vertices, and each triangle once, from its lowest vertex and its
        # middle one
        side_rows = []
        ones = twos = fours = 0
        while rest:
            low = rest & -rest
            rest ^= low
            row = rows[low.bit_length() - 1] & bits
            d = row.bit_count()
            key += _EIGHT_POW[d]
            if d & 1:
                ones |= low
            if d & 2:
                twos |= low
            if d & 4:
                fours |= low
            side_rows.append(row)
            up = row & rest
            while up:
                mid = up & -up
                up ^= mid
                key += (rows[mid.bit_length() - 1] & up).bit_count() << 21
        for row in side_rows:
            # the sum of the vertex's neighbours' degrees, plane by plane
            s = (row & ones).bit_count() + 2 * (row & twos).bit_count() + 4 * (row & fours).bit_count()
            s *= s
            key += (s << 27) + (row.bit_count() * s << 41)
        return key
    big = n > 4
    while rest:
        low = rest & -rest
        rest ^= low
        row = rows[low.bit_length() - 1] & bits
        d = row.bit_count()
        key += _EIGHT_POW[d]
        if big:
            # each edge once, from its lower end, and each triangle once,
            # from its lowest vertex and its middle one
            up = row & rest
            while up:
                mid = up & -up
                up ^= mid
                mid_row = rows[mid.bit_length() - 1]
                key += ((mid_row & up).bit_count() << 21) + (d * (mid_row & bits).bit_count() << 26)
    return key


def _small_classes() -> tuple[dict[int, int], list[int]]:
    """Each class's mask by its key, and each class's size by the bit length
    of its mask.

    One undirected graph of each class on 1-7 vertices is keyed by
    ``_side_key``, and class i is the i-th found, so indices ascend with
    size and the one-vertex graph is class 0. Every graph has a vertex of
    least degree, so the classes on n vertices are found among those on
    n - 1 plus a vertex joined to any subset of them that leaves it of
    least degree. Bit i of a class's mask is set when the class induces a
    subgraph of class i: its own bit, and the bits of its one-vertex
    deletions' masks. The key is an invariant and finds 2, 4, 11, 34, 156
    and 1,044 classes on 2-7 vertices, as many as there are, so it fixes
    the class. Two graphs' MCIS is then the size of the largest class both
    induce, whose bit is the top one of their masks' AND.
    """
    # the one-vertex graph's key is 8 ** 0; sizes[0] is no class's
    masks = {1: 1}
    sizes = [0, 1]
    classes = [[0]]
    for n in range(2, 8):
        full = (1 << n) - 1
        grown = {}
        for rows in classes:
            degrees = [row.bit_count() for row in rows]
            least = min(degrees)
            # k neighbours leave the new vertex of least degree when k is at
            # most the least, or one more and they hold every vertex of it
            need = sum(1 << i for i, d in enumerate(degrees) if d == least)
            for mask in range(1 << (n - 1)):
                k = mask.bit_count()
                if k <= least or k == least + 1 and mask & need == need:
                    new = [row | (mask >> i & 1) << (n - 1) for i, row in enumerate(rows)]
                    new.append(mask)
                    grown.setdefault(_side_key(full, new), new)
        for key, rows in grown.items():
            mask = 1 << len(sizes) - 1
            for v in range(n):
                mask |= masks[_side_key(full ^ 1 << v, rows)]
            masks[key] = mask
            sizes.append(n)
        classes = grown.values()
    return masks, sizes


# a small side's class mask by its key, and a class's size by the bit length
# of its mask
_SMALL_MASK, _SMALL_SIZE = _small_classes()


def _keep(keys: dict[int, int], bits: int, key: int) -> int:
    """Keep and return the class mask of the side ``bits``, whose key is
    ``key``; a full ``keys`` starts over. A mask is never 0, so a lookup
    falls back to this with ``or``."""
    if len(keys) == _KEYS_KEPT:
        keys.clear()
    mask = keys[bits] = _SMALL_MASK[key]
    return mask


@dataclass
class SolverConfig:
    """A rule configuration, by name, and an optional timeout in seconds.

    ``none`` is the plain bidomain search, ``var`` adds the variable rule,
    ``val`` the value rule and ``dual`` both.
    """

    name: str = "dual"
    timeout: float | None = None

    def __post_init__(self):
        if self.name not in _CONFIG_RULES:
            raise ValueError(f"unknown config {self.name!r}, expected one of {CONFIG_NAMES}")
        # written so that NaN fails too: it compares false with everything
        if self.timeout is not None and not self.timeout >= 0:
            raise ValueError("timeout must be non-negative")


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


def _degrees(g: Graph) -> list[int]:
    """Neighbor count of every vertex; for directed graphs, in plus out."""
    deg = list(map(int.bit_count, g.out_bits))
    if g.directed:
        deg = list(map(add, deg, map(int.bit_count, g.in_bits)))
    return deg


def _complement(g: Graph) -> tuple[list[int], list[int]]:
    """The (out, in) rows of g with every arc between two distinct vertices
    flipped. Loop flags sit in no row, so the complement keeps g's."""
    full = (1 << g.n) - 1
    out = [full ^ row ^ 1 << v for v, row in enumerate(g.out_bits)]
    inn = [full ^ row ^ 1 << v for v, row in enumerate(g.in_bits)] if g.directed else out
    return out, inn


def _positions(order: list[int]) -> list[int]:
    """The inverse permutation: ``order[_positions(order)[v]] == v``."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def _value_order(deg: list[int], classes_h: SymmetryClasses) -> list[int]:
    """H's vertices in the fixed value order, given their degrees: degree
    descending, then class id, then id. Class ids lie below n, so one int
    key orders by the first two, and the stable sort keeps id order among
    equal keys.

    A vertex's position in this order is its rank: lower means tried
    earlier and considered smaller by the pruning rules, and unmatched,
    rank n, is larger than every vertex's. Interchangeable vertices share
    degree and class, so they are consecutive and fall back to id order
    among themselves.
    """
    n = len(deg)
    keys = [c - d * n for d, c in zip(deg, classes_h.class_id)]
    return sorted(range(n), key=keys.__getitem__)


def _split(bds, g_row, h_row, slack):
    """Every bidomain halved by adjacency to one row per side.

    The no-edge half comes first, and a half with an empty side is dropped:
    none of its vertices can be matched any more. ``slack`` is how much of
    the sum of min(g_len, h_len) over ``bds`` the halves may lose. Returns
    ``None`` as soon as they have lost more, else the halves and the slack
    left.
    """
    out = []
    for gb, hb, gl, hl in bds:
        g1 = gb & g_row
        h1 = hb & h_row
        g0 = gb ^ g1
        h0 = hb ^ h1
        slack -= gl if gl < hl else hl
        if g0 and h0:
            gl = g0.bit_count()
            hl = h0.bit_count()
            slack += gl if gl < hl else hl
            out.append((g0, h0, gl, hl))
        if g1 and h1:
            gl = g1.bit_count()
            hl = h1.bit_count()
            slack += gl if gl < hl else hl
            out.append((g1, h1, gl, hl))
        if slack < 0:
            return None
    return out, slack


def solve(g: Graph, h: Graph, config: SolverConfig | None = None) -> Solution:
    """Find a maximum common induced subgraph of g and h.

    Interchangeability classes of both graphs are computed here, inside the
    measured solve, and drive the pruning rules the config enables. The
    search runs on the pair in its cheaper orientation (see the module
    docstring), so the counters are those of that search, while the
    mapping is always (g-vertex, h-vertex) pairs. Hence when the sizes
    differ, ``solve(h, g)`` gives the same counters as ``solve(g, h)`` and
    the mirrored mapping.

    With a timeout, the clock is read at the root and then every
    ``_CHECK_INTERVAL`` nodes; past the deadline, the incumbent found so
    far is returned with ``stats.completed`` false. Raises ``ValueError``
    when a graph is empty or the two differ in directedness.
    """
    if config is None:
        config = SolverConfig()
    if g.n == 0 or h.n == 0:
        raise ValueError("solve requires non-empty graphs")
    if g.directed != h.directed:
        raise ValueError("graphs must agree on directedness")

    t0 = perf_counter()
    # the optimum is the same either way round and on both complements
    swapped = g.n > h.n
    if swapped:
        g, h = h, g
    deg_g, deg_h = _degrees(g), _degrees(h)
    g_rows, h_rows = (g.out_bits, g.in_bits), (h.out_bits, h.in_bits)
    # top is the largest degree (in plus out when directed), so a complete
    # graph's degrees sum to n * top, and a complement's degrees are top - d
    ways = 2 if g.directed else 1
    top_g, top_h = (g.n - 1) * ways, (h.n - 1) * ways
    if 2 * (sum(deg_g) + sum(deg_h)) > g.n * top_g + h.n * top_h:
        g_rows, h_rows = _complement(g), _complement(h)
        deg_g = [top_g - d for d in deg_g]
        deg_h = [top_h - d for d in deg_h]
    # complementing swaps every vertex's open and closed neighbourhoods, so
    # a complement has its graph's class_id and class_members; only
    # class_kind flips, and the search never reads it
    classes_g = compute_symmetry_classes(g)
    classes_h = compute_symmetry_classes(h)

    # a stable sort keeps id order among equal degrees
    g_ids = sorted(range(g.n), key=list(map(neg, deg_g)).__getitem__)
    h_ids = _value_order(deg_h, classes_h)
    g_new = _positions(g_ids)
    rank = _positions(h_ids)
    directed = g.directed
    g_out = [_relabel_row(g_rows[0][v], g_new) for v in g_ids]
    g_in = [_relabel_row(g_rows[1][v], g_new) for v in g_ids] if directed else None
    # relabelled on first use, indexed by rank
    h_out = [None] * h.n
    h_in = [None] * h.n if directed else None
    gclass = [classes_g.class_id[v] for v in g_ids]
    hclass = [classes_h.class_id[u] for u in h_ids]
    # the other members of each vertex's class, as a mask of relabelled ids
    g_twins = [0] * g.n
    for members in classes_g.class_members.values():
        mask = sum(1 << g_new[w] for w in members)
        for w in members:
            g_twins[g_new[w]] = mask ^ 1 << g_new[w]
    # each small side's class mask by its bits; most sides recur at many
    # nodes
    g_keys: dict[int, int] = {}
    h_keys: dict[int, int] = {}
    use_var, use_val = _CONFIG_RULES[config.name]
    deadline = None if config.timeout is None else t0 + config.timeout

    # a looped vertex can only match a looped one
    g_loops = sum(1 << i for i, v in enumerate(g_ids) if g.loops[v]) if any(g.loops) else 0
    h_loops = sum(1 << i for i, u in enumerate(h_ids) if h.loops[u]) if any(h.loops) else 0
    # with its whole min side as slack, the root's slack left is its bound
    everything = [((1 << g.n) - 1, (1 << h.n) - 1, g.n, h.n)]
    root, root_bound = _split(everything, g_loops, h_loops, min(g.n, h.n))

    # the matched (v, rank) pairs on the path to the node
    mapping: list[tuple[int, int]] = []
    best: list[tuple[int, int]] = []
    branches = bound_prunes = var_sym_prunes = val_sym_prunes = 0
    incumbent = 0
    time_to_best = 0.0
    branches_to_best = 0
    completed = True
    # pending nodes: (bidomains, matched count, candidate, bound); the
    # candidate is None for the root and an unmatched child, whose lists
    # are already split, else the pair (v, u) with the index of the
    # bidomain it is split from
    stack = [(root, 0, None, root_bound)]

    while stack:
        bds, mc, cand, bound = stack.pop()
        branches += 1
        if deadline is not None and (branches - 1) % _CHECK_INTERVAL == 0 and perf_counter() >= deadline:
            completed = False
            break
        # an unsplit candidate holds its parent's bound, which its own
        # cannot exceed, so this one test comes before any split
        if bound <= incumbent:
            bound_prunes += 1
            continue

        # only a node the bound keeps reads the path; its parent's pairs still
        # head it, mc of them, or mc - 1 before a candidate's own
        if cand is None:
            del mapping[mc:]
        else:
            v, u, bi = cand
            chosen = bds[bi]
            gb, hb, gl, hl = chosen
            bds[bi] = (gb, hb ^ (1 << u), gl, hl - 1)
            h_row = h_out[u]
            if h_row is None:
                h_row = h_out[u] = _relabel_row(h_rows[0][h_ids[u]], rank)
            # the list's min sides sum to bound - mc, so bound - incumbent - 1
            # is what they may lose with the bound still above the incumbent
            child = _split(bds, g_out[v], h_row, bound - incumbent - 1)
            if directed and child is not None:
                h_row = h_in[u]
                if h_row is None:
                    h_row = h_in[u] = _relabel_row(h_rows[1][h_ids[u]], rank)
                # (out, in) buckets in the order 00, 01, 10, 11
                child = _split(child[0], g_in[v], h_row, child[1])
            bds[bi] = chosen
            if child is None:
                bound_prunes += 1
                continue
            bds, slack = child
            bound = incumbent + 1 + slack
            del mapping[mc - 1 :]
            mapping.append((v, u))
        if mc > incumbent:
            incumbent = mc
            best = [(g_ids[v], h_ids[u]) for v, u in mapping]
            time_to_best = perf_counter() - t0
            branches_to_best = branches

        # one scan takes each small bidomain's loss off the lead and finds
        # the first bidomain with the smallest max side to branch on, with
        # its loss and H mask; a node with nothing left to match has no
        # lead once it is the incumbent, so a node that branches has a
        # bidomain
        lead = bound - incumbent
        best_k = 1 << 60
        for i, (gb, hb, gl, hl) in enumerate(bds):
            k = gl if gl >= hl else hl
            # undirected sides of 2-7 vertices are capped by the size of
            # the largest class both induce
            if k < 8 and gl > 1 and hl > 1 and not directed:
                g_at = g_keys.get(gb) or _keep(g_keys, gb, _side_key(gb, g_out))
                # on H's own rows, since most are not relabelled
                h_at = h_keys.get(hb) or _keep(h_keys, hb, _side_key(_relabel_row(hb, h_ids), h_rows[0]))
                loss = (gl if gl < hl else hl) - _SMALL_SIZE[(g_at & h_at).bit_length()]
                lead -= loss
                if lead <= 0:
                    break
                if k < best_k:
                    best_k = k
                    best_i = i
                    best_loss = loss
                    best_h_at = h_at
            elif k < best_k:
                best_k = k
                best_i = i
                best_loss = best_h_at = 0
        if lead <= 0:
            bound_prunes += 1
            continue

        gb, hb, gl, hl = bds[best_i]
        low = gb & -gb
        v = low.bit_length() - 1
        gb ^= low
        gl -= 1

        var_bound = -1
        if use_var and g_twins[v]:
            cls = gclass[v]
            for pv, pu in mapping:
                if pu > var_bound and gclass[pv] == cls:
                    var_bound = pu

        # every child lacks v; the candidates share this list and take u out
        # of it around their own splits, the unmatched child, if pushed, owns
        # a copy
        bds[best_i] = (gb, hb, gl, hl)
        # leaving v out lowers the chosen min by one exactly when G's side,
        # now short of v, is the smaller
        rest_bound = bound - (gl < hl)
        twins = gb & g_twins[v] if use_var else 0
        if twins:
            # below v's unmatched child the var rule gives v's twins no
            # value, so they leave with v
            gb ^= twins
            left = gl - twins.bit_count()
            rest_bound -= (gl if gl < hl else hl) - (left if left < hl else hl)
            gl = left
        # the unmatched child's lead, as its own scan will find it: the
        # node's, with the chosen bidomain's min side and loss traded for
        # those of what is left of it; a child without one is never pushed
        rest_lead = lead - bound + rest_bound + best_loss
        if gl > 1 and hl > 1 and gl < 8 and hl < 8 and not directed:
            g_at = g_keys.get(gb) or _keep(g_keys, gb, _side_key(gb, g_out))
            h_at = best_h_at or h_keys.get(hb) or _keep(h_keys, hb, _side_key(_relabel_row(hb, h_ids), h_rows[0]))
            rest_lead -= (gl if gl < hl else hl) - _SMALL_SIZE[(g_at & h_at).bit_length()]
        if rest_lead > 0:
            rest = bds.copy()
            if gl:
                rest[best_i] = (gb, hb, gl, hl)
            else:
                del rest[best_i]
            stack.append((rest, mc, None, rest_bound))

        prev_class = -1
        cands = hb
        if var_bound > 0:
            # every candidate ranked below the bound loses to a swap
            skipped = cands & ((1 << var_bound) - 1)
            if skipped:
                var_sym_prunes += skipped.bit_count()
                prev_class = hclass[skipped.bit_length() - 1]
                cands ^= skipped
        # from the top rank down: the next lower candidate (or the var seed)
        # is the one visited just before this one
        while cands:
            u = cands.bit_length() - 1
            cands ^= 1 << u
            if use_val and hclass[u] == (hclass[cands.bit_length() - 1] if cands else prev_class):
                # an interchangeable candidate comes first in this bidomain
                val_sym_prunes += 1
                continue
            stack.append((bds, mc + 1, (v, u, best_i), bound))

    if swapped:
        best = [(u, v) for v, u in best]
    stats = SearchStats(
        branches=branches,
        bound_prunes=bound_prunes,
        var_sym_prunes=var_sym_prunes,
        val_sym_prunes=val_sym_prunes,
        incumbent_size=incumbent,
        time_to_best=time_to_best,
        branches_to_best=branches_to_best,
        completed=completed,
    )
    return Solution(best, stats)
