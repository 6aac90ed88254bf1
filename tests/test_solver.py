import gc
import itertools
import random
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from corpus import MODES, corpus_pairs
from known_instance import BRANCHES, OPTIMUM, graph_g, graph_h
from mcis import (
    CONFIG_NAMES,
    Graph,
    SolverConfig,
    compute_symmetry_classes,
    is_isomorphism,
    solve,
)
from mcis.oracle import brute_force_size
from mcis.solver import _SMALL_MASK, _SMALL_SIZE, _degrees, _side_key, _split, _value_order
from reference import (
    Bidomain,
    arc_count,
    canonical_form,
    complement,
    degree,
    enumerate_tree,
    extensions,
    graph_classes,
    induced_subgraph,
    initial_partition,
    order_values,
    reference_orient,
    reference_ranks,
    reference_solve,
    refine_partition,
    select_bidomain,
    select_vertex,
    small_bidomain_bound,
    upper_bound,
    val_sym_prunable,
    var_sym_prunable,
)


def k(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# -- configuration -----------------------------------------------------------


def test_config_names_round_trip():
    # every name constructs and keeps its name; anything else raises
    for name in CONFIG_NAMES:
        assert SolverConfig(name).name == name
    assert SolverConfig().name == "dual"
    with pytest.raises(ValueError, match="unknown config 'all'"):
        SolverConfig("all")


def test_config_rejects_unknown_name():
    for bad in ("all", "", "DUAL", "var,val"):
        with pytest.raises(ValueError, match="unknown config"):
            SolverConfig(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(timeout=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(timeout=float("nan"))


# -- bound -------------------------------------------------------------------


def test_upper_bound_single_bidomain():
    assert upper_bound([], [Bidomain(list(range(10)), list(range(10)))]) == 10


def test_upper_bound_known_instance_partition():
    # two matched pairs plus bidomains of min-sizes 1 and 3
    mapping = [(0, 0), (3, 3)]
    partition = [Bidomain([1], [1, 2]), Bidomain([4, 5, 7, 9], [5, 7, 8])]
    assert upper_bound(mapping, partition) == 6


def test_upper_bound_empty():
    assert upper_bound([], []) == 0


def test_upper_bound_ignores_unmatched_pairs():
    assert upper_bound([(0, None), (1, 2)], []) == 1


def _induced_forms(g):
    """The canonical form of every subgraph g induces on a nonempty vertex set."""
    return {
        canonical_form(induced_subgraph(g, vs))
        for size in range(1, g.n + 1)
        for vs in itertools.combinations(range(g.n), size)
    }


def _relabelled_rows(g, perm):
    """g's rows with each vertex v renamed perm[v]."""
    rows = [0] * g.n
    for v, row in enumerate(g.out_bits):
        for w in range(g.n):
            if row >> w & 1:
                rows[perm[v]] |= 1 << perm[w]
    return rows


def test_small_class_masks_match_brute_force():
    classes = graph_classes(6)
    # 1, 2, 4, 11, 34 and 156 isomorphism classes on 1 to 6 vertices, and
    # the derivation finds as many, and 1,044 on 7; each class's index, its
    # mask's top bit, ascends with its size
    assert [len(classes[n]) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    assert [_SMALL_SIZE.count(n) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert sorted(mask.bit_length() for mask in _SMALL_MASK.values()) == list(range(1, 1253))
    assert _SMALL_SIZE[1:] == sorted(_SMALL_SIZE[1:])
    # each relabelling of a class's graph on 1-6 vertices, so each graph of
    # the class, has one key
    graphs = {}
    for n in range(1, 7):
        for g in classes[n]:
            (key,) = {_side_key((1 << n) - 1, _relabelled_rows(g, perm)) for perm in itertools.permutations(range(n))}
            graphs[key] = g
    # every graph on 7 vertices is one on 6 plus a vertex joined to some of
    # them; each key it gives keeps under a seeded sample of relabellings
    rng = random.Random(27)
    seven = {}
    for g in classes[6]:
        for new in extensions(g):
            seven.setdefault(_side_key((1 << 7) - 1, new.out_bits), new)
    for key, g in seven.items():
        assert {_side_key((1 << 7) - 1, _relabelled_rows(g, rng.sample(range(7), 7))) for _ in range(20)} == {key}
    # so the 1,044 keys on 7 vertices, as many as there are classes, are one
    # class each, and the masks hold a key for every class on 1-7 vertices
    graphs.update(seven)
    assert graphs.keys() == _SMALL_MASK.keys()
    # each class graph keys the same on scattered ids of a wide row list,
    # as a side of a large target does, with edges out of the side
    wide = random.Random(29)
    width = 200
    noise = [wide.getrandbits(width) for _ in range(width)]
    for key, g in graphs.items():
        ids = wide.sample(range(width), g.n)
        bits = sum(1 << i for i in ids)
        rows = noise.copy()
        for a, row in enumerate(g.out_bits):
            rows[ids[a]] &= ~bits
            rows[ids[a]] |= sum(1 << ids[b] for b in range(g.n) if row >> b & 1)
        assert _side_key(bits, rows) == key, (g, ids)
    # a mask on up to 6 vertices has the bit of each class its graph
    # induces, and one on 7 its own bit and the masks of its one-vertex
    # deletions, each found by its canonical form
    by_bit = {_SMALL_MASK[key].bit_length() - 1: g for key, g in graphs.items()}
    mask_by_form = {}
    for key, g in graphs.items():
        if g.n < 7:
            mask = mask_by_form[canonical_form(g)] = _SMALL_MASK[key]
            assert {canonical_form(by_bit[i]) for i in range(mask.bit_length()) if mask >> i & 1} == _induced_forms(g), g
    for key, g in seven.items():
        mask = 1 << _SMALL_MASK[key].bit_length() - 1
        for v in range(7):
            mask |= mask_by_form[canonical_form(induced_subgraph(g, [w for w in range(7) if w != v]))]
        assert _SMALL_MASK[key] == mask, g
    # the cap, the size of the largest class both induce, against brute
    # force on every pair of 2-5 vertices and seeded samples of the pairs
    # with a side of 6 and of 7
    by_n = {n: [key for key, g in graphs.items() if g.n == n] for n in range(2, 8)}
    small = [key for n in range(2, 6) for key in by_n[n]]
    pairs = list(itertools.product(small, small))
    for n, count in ((6, 300), (7, 600)):
        others = small + by_n[6] + (by_n[7] if n == 7 else [])
        for _ in range(count):
            pair = (rng.choice(by_n[n]), rng.choice(others))
            pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    for g_key, h_key in pairs:
        cap = _SMALL_SIZE[(_SMALL_MASK[g_key] & _SMALL_MASK[h_key]).bit_length()]
        assert cap == brute_force_size(graphs[g_key], graphs[h_key]), (graphs[g_key], graphs[h_key])


def test_small_bidomain_bound_is_sound(corpus):
    # over complete unpruned trees of the small undirected pairs: the bound
    # never falls below the best full mapping under a node, nor rises above
    # the sum of min sides, and it is the lower of the two at some nodes,
    # some of them by a bidomain with 5 vertices on a side, some by one with
    # 6 and some by one with 7
    small = [p for p in corpus if not p.directed and p.g.n <= 7 and p.h.n <= 7]
    tighter = 0
    tighter_by = {5: 0, 6: 0, 7: 0}
    for pair in small:
        caps = {}

        def bound(mapping, partition, pair=pair, caps=caps):
            nonlocal tighter
            ub = small_bidomain_bound(mapping, partition, pair.g, pair.h, caps)
            assert ub <= upper_bound(mapping, partition), pair.index
            tighter += ub < upper_bound(mapping, partition)
            for k in tighter_by:
                tighter_by[k] += any(
                    caps[tuple(bd.gs), tuple(bd.hs)] < min(len(bd.gs), len(bd.hs))
                    for bd in partition
                    if max(len(bd.gs), len(bd.hs)) == k and min(len(bd.gs), len(bd.hs)) > 1
                )
            return ub

        def on_node(mapping, ub, parent_ub, subtree_best, pair=pair):
            assert ub >= subtree_best, (pair.index, mapping)

        enumerate_tree(pair.g, pair.h, on_node=on_node, bound=bound)
    assert len(small) > 100 and tighter >= max(tighter_by.values()) and min(tighter_by.values()) > 0


# -- selection heuristics ----------------------------------------------------


def test_select_bidomain_smallest_max_side():
    p = [Bidomain([0, 1, 2], [0, 1, 2, 3, 4]), Bidomain([3, 4], [5, 6])]
    assert select_bidomain(p) == 1


def test_select_bidomain_tie_goes_first():
    p = [Bidomain([0], [0]), Bidomain([1], [1])]
    assert select_bidomain(p) == 0


def test_select_bidomain_single():
    assert select_bidomain([Bidomain([0, 1, 2, 3], [0, 1])]) == 0


def test_select_bidomain_empty_partition():
    with pytest.raises(ValueError):
        select_bidomain([])


def test_select_vertex_prefers_degree():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert select_vertex(Bidomain([0, 1], []), p3) == 1
    assert select_vertex(Bidomain([0, 2], []), p3) == 0  # degree tie, lowest id


def test_select_vertex_singleton():
    assert select_vertex(Bidomain([5], []), Graph(6)) == 5


# -- value ordering ----------------------------------------------------------


def test_order_values_uniform_degree_no_symmetry_is_id_order():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    classes = compute_symmetry_classes(c5)
    assert order_values(Bidomain([], [3, 0, 4, 1, 2]), c5, classes) == [0, 1, 2, 3, 4]


def test_order_values_known_instance():
    h = graph_h()
    classes = compute_symmetry_classes(h)
    # 3 and 4 are interchangeable (consecutive); 5 has lower degree, goes last
    assert order_values(Bidomain([], [5, 4, 3]), h, classes) == [3, 4, 5]


def test_order_values_singleton():
    g = Graph(2, [(0, 1)])
    assert order_values(Bidomain([], [1]), g, compute_symmetry_classes(g)) == [1]


def test_value_order_ranks_is_permutation():
    h = graph_h()
    order = _value_order(_degrees(h), compute_symmetry_classes(h))
    assert sorted(order) == list(range(h.n))
    # highest degree vertex gets rank 0
    top = max(range(h.n), key=lambda u: (degree(h, u), -u))
    assert order[0] == top


# -- pruning predicates ------------------------------------------------------


def test_var_sym_after_sibling_left_unmatched():
    g = graph_g()
    classes = compute_symmetry_classes(g)
    rank = reference_ranks(graph_h())
    # 7 and 9 interchangeable: leaving 7 unmatched forbids any real value for 9
    assert var_sym_prunable([(7, None)], 9, 5, classes, rank)
    # the mirror case: 7 took a value, unmatching 9 is still allowed
    assert not var_sym_prunable([(7, 5)], 9, None, classes, rank)


def test_var_sym_empty_mapping_never_fires():
    g = graph_g()
    classes = compute_symmetry_classes(g)
    rank = reference_ranks(graph_h())
    for u in (None, 0, 5):
        assert not var_sym_prunable([], 9, u, classes, rank)


def test_var_sym_requires_interchangeable_sibling():
    g = graph_g()
    classes = compute_symmetry_classes(g)
    rank = reference_ranks(graph_h())
    # 0 and 9 are not interchangeable in G
    assert not var_sym_prunable([(0, None)], 9, 5, classes, rank)


def test_var_sym_orders_values_within_class():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    classes = compute_symmetry_classes(star)
    rank = reference_ranks(star)
    # leaves 1,2,3 interchangeable; sibling 1 holds value 2, so value 1 is out
    assert var_sym_prunable([(1, 2)], 2, 1, classes, rank)
    assert not var_sym_prunable([(1, 2)], 2, 3, classes, rank)


def test_val_sym_smaller_peer_in_same_bidomain():
    h = graph_h()
    classes = compute_symmetry_classes(h)
    bd = Bidomain([], [3, 4, 5])
    assert val_sym_prunable(bd, 4, classes)  # 3 is still available
    assert not val_sym_prunable(bd, 3, classes)


def test_val_sym_peer_already_gone():
    h = graph_h()
    classes = compute_symmetry_classes(h)
    assert not val_sym_prunable(Bidomain([], [4, 5]), 4, classes)


# -- partition refinement ----------------------------------------------------


def test_initial_partition_plain():
    parts = initial_partition(Graph(3), Graph(2))
    assert len(parts) == 1
    assert parts[0].gs == [0, 1, 2] and parts[0].hs == [0, 1]


def test_initial_partition_splits_by_loop_flag():
    g = Graph(3, [(1, 1)])
    h = Graph(2, [(0, 0)])
    parts = initial_partition(g, h)
    assert [(bd.gs, bd.hs) for bd in parts] == [([0, 2], [1]), ([1], [0])]


def test_initial_partition_drops_unmatchable_loop_side():
    g = Graph(2, [(0, 0), (1, 1)])
    h = Graph(2)
    assert initial_partition(g, h) == []


def test_refine_known_instance_split():
    g, h = graph_g(), graph_h()
    # the bidomain reached after matching (0,0): neighbors on both sides
    parent = [Bidomain([1, 4, 5, 7, 9], [1, 2, 5, 7, 8])]
    children = refine_partition(parent, 3, 3, g, h)
    assert [(bd.gs, bd.hs) for bd in children] == [
        ([4, 5, 7, 9], [5, 7, 8]),
        ([1], [1, 2]),
    ]


def test_refine_drops_bidomain_with_empty_side():
    g = Graph(3, [(0, 1), (0, 2)])
    h = Graph(3)
    # every G vertex adjacent to 0, no H vertex adjacent to 0: nothing survives
    assert refine_partition([Bidomain([1, 2], [1, 2])], 0, 0, g, h) == []


def test_refine_empty_partition():
    assert refine_partition([], 0, 0, Graph(1), Graph(1)) == []


def test_refine_directed_four_way():
    g = Graph(5, [(0, 1), (2, 0), (0, 3), (3, 0)], directed=True)
    h = Graph(5, [(0, 1), (2, 0), (0, 3), (3, 0)], directed=True)
    children = refine_partition([Bidomain([1, 2, 3, 4], [1, 2, 3, 4])], 0, 0, g, h)
    # buckets: none, in-only, out-only, both
    assert [(bd.gs, bd.hs) for bd in children] == [
        ([4], [4]),
        ([2], [2]),
        ([1], [1]),
        ([3], [3]),
    ]


def test_refine_asymmetric_buckets_are_dropped_separately():
    g = Graph(3, [(0, 1)], directed=True)
    h = Graph(3, [(1, 0)], directed=True)
    children = refine_partition([Bidomain([1, 2], [1, 2])], 0, 0, g, h)
    # G has an out-neighbor, H an in-neighbor: only the none-bucket survives
    assert [(bd.gs, bd.hs) for bd in children] == [([2], [2])]


# two bidomains split by rows {0, 3} and {0, 1, 3}: the first loses one of
# its min side 3, the second none
_SPLIT_IN = [(0b00111, 0b00111, 3, 3), (0b11000, 0b11000, 2, 2)]
_SPLIT_ROWS = (0b01001, 0b01011)


def test_split_returns_halves_and_slack_left():
    halves, slack = _split(_SPLIT_IN, *_SPLIT_ROWS, 1)
    assert halves == [
        (0b00110, 0b00100, 2, 1),
        (0b00001, 0b00011, 1, 2),
        (0b10000, 0b10000, 1, 1),
        (0b01000, 0b01000, 1, 1),
    ]
    assert slack == 0


def test_split_stops_once_the_loss_exceeds_the_slack():
    assert _split(_SPLIT_IN, *_SPLIT_ROWS, 0) is None
    # the slack may be spent to the last unit, and an empty list loses nothing
    assert _split(_SPLIT_IN, *_SPLIT_ROWS, 5)[1] == 4
    assert _split([], 0, 0, 0) == ([], 0)


# -- solve: whole searches ----------------------------------------------------


def test_solve_identical_triangles():
    for name in CONFIG_NAMES:
        sol = solve(k(3), k(3), SolverConfig(name))
        assert len(sol.mapping) == 3
        assert is_isomorphism(k(3), k(3), sol.mapping)


def test_solve_path_in_triangle():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert len(solve(p3, k(3)).mapping) == 2


def test_solve_single_vertices():
    sol = solve(Graph(1), Graph(1))
    assert len(sol.mapping) == 1
    assert sol.stats.branches >= 1


def test_solve_star_dual_beats_none():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    none_b = solve(star, star, SolverConfig("none")).stats.branches
    dual_b = solve(star, star, SolverConfig("dual")).stats.branches
    assert dual_b < none_b


def test_solve_known_instance_optimum_and_branches():
    g, h = graph_g(), graph_h()
    for name in CONFIG_NAMES:
        sol = solve(g, h, SolverConfig(name))
        assert len(sol.mapping) == OPTIMUM
        assert is_isomorphism(g, h, sol.mapping)
        # pins the deterministic traversal; changing any ordering breaks this
        assert sol.stats.branches == BRANCHES[name]


def test_solve_mapping_matches_incumbent_size():
    g, h = graph_g(), graph_h()
    sol = solve(g, h)
    assert len(sol.mapping) == sol.stats.incumbent_size
    assert sol.stats.branches_to_best <= sol.stats.branches
    assert sol.stats.completed


def test_solve_loops_only_match_loops():
    g = Graph(2, [(0, 0), (1, 1)])
    h = Graph(2)
    # no vertex is matchable at all
    sol = solve(g, h)
    assert len(sol.mapping) == 0
    assert len(solve(g, Graph(2, [(0, 0)])).mapping) == 1


def test_solve_directed_respects_orientation():
    g = Graph(3, [(0, 1), (1, 2)], directed=True)
    h = Graph(3, [(0, 1), (2, 1)], directed=True)
    sol = solve(g, h)
    assert len(sol.mapping) == 2
    assert is_isomorphism(g, h, sol.mapping)


def test_solve_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        solve(Graph(0), Graph(1))
    with pytest.raises(ValueError):
        solve(Graph(1, directed=True), Graph(1))


# a triangle and a K4 sharing vertex 3, plus two isolated vertices, against
# the star K1,5: G has twin classes {0, 7}, {1, 2} and {4, 5, 6}, H the five
# leaves; against K1,4 with one isolated vertex in G, bidomains of up to 6
# vertices a side are capped so early that the var rule never fires
TWIN_G_EDGES = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
TWIN_H_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]


def test_stats_gated_by_config():
    # each config counts only its own rules on both pairs; the rules fire
    # on the twin pair, since on the known one the small-bidomain bound
    # leaves the var rule nothing to skip. G has three isolated twins and H
    # six leaves: with two and five, bidomains of up to 7 vertices a side
    # are capped so soon that the var rule skips nothing there either
    for g, h in ((graph_g(), graph_h()), (Graph(9, TWIN_G_EDGES), Graph(7, TWIN_H_EDGES))):
        st_none = solve(g, h, SolverConfig("none")).stats
        assert st_none.var_sym_prunes == 0 and st_none.val_sym_prunes == 0
        st_var = solve(g, h, SolverConfig("var")).stats
        assert st_var.val_sym_prunes == 0
        st_val = solve(g, h, SolverConfig("val")).stats
        assert st_val.var_sym_prunes == 0
    assert st_var.var_sym_prunes > 0 and st_val.val_sym_prunes > 0
    st_dual = solve(g, h, SolverConfig("dual")).stats
    assert st_dual.var_sym_prunes > 0 and st_dual.val_sym_prunes > 0


def test_solve_is_deterministic():
    g, h = graph_g(), graph_h()
    a = solve(g, h).stats
    b = solve(g, h).stats
    assert (a.branches, a.bound_prunes, a.var_sym_prunes, a.val_sym_prunes) == (
        b.branches,
        b.bound_prunes,
        b.var_sym_prunes,
        b.val_sym_prunes,
    )


# -- timeout ------------------------------------------------------------------


def _dense_pair(n, seed):
    rng = random.Random(seed)
    mk = lambda: Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )
    return mk(), mk()


def _planted_star(directed, n=300, k=24, seed=1):
    """A k-vertex star planted in a sparse n-vertex target, as (pattern, target).

    The hub 0 has the highest degree, and its leaves 1..k-1 are pairwise
    non-adjacent, so the first descent matches the whole pattern, reaching
    the root's bound; every later candidate can be cut on its parent's bound.
    """
    rng = random.Random(seed)
    edges = {(rng.randrange(k, v), v) for v in range(k + 1, n)}
    edges |= {tuple(rng.sample(range(k, n), 2)) for _ in range(n // 2)}
    for v in range(1, k):
        edges |= {(0, v), (v, rng.randrange(k, n))}
    edges |= {(0, v) for v in rng.sample(range(k, n), 8)}
    if directed:
        edges = {(a, b) if rng.random() < 0.5 else (b, a) for a, b in sorted(edges)}
    h = Graph(n, sorted(edges), directed=directed)
    return induced_subgraph(h, range(k)), h


def test_timeout_returns_best_so_far(monkeypatch):
    g, h = _dense_pair(40, 11)
    sol = solve(g, h, SolverConfig(timeout=0.05))
    assert not sol.stats.completed
    assert len(sol.mapping) == sol.stats.incumbent_size
    assert is_isomorphism(g, h, sol.mapping)

    # a deep search stopped mid-descent, on any machine: the clock advances
    # one unit per read, and this descent reads it once per level
    monkeypatch.setattr("mcis.solver.perf_counter", itertools.count().__next__)
    n = 3000
    p = Graph(n, [(i, i + 1) for i in range(n - 1)])
    sol = solve(p, p, SolverConfig(timeout=1500))
    assert not sol.stats.completed
    assert 0 < sol.stats.incumbent_size < n
    assert len(sol.mapping) == sol.stats.incumbent_size
    assert is_isomorphism(p, p, sol.mapping)

    # the deadline falls among the candidates cut on the root's bound, after
    # the first descent found the planted star: one clock read per search node
    monkeypatch.setattr("mcis.solver._CHECK_INTERVAL", 1)
    g, h = _planted_star(directed=False)
    full = solve(g, h).stats
    assert full.branches - full.branches_to_best > 500
    sol = solve(g, h, SolverConfig(timeout=full.branches_to_best + 200))
    assert not sol.stats.completed
    assert full.branches_to_best < sol.stats.branches < full.branches
    assert sol.stats.incumbent_size == len(sol.mapping) == g.n
    assert is_isomorphism(g, h, sol.mapping)


def test_timeout_is_respected_roughly():
    g, h = _dense_pair(35, 12)
    t0 = perf_counter()
    sol = solve(g, h, SolverConfig(timeout=0.2))
    elapsed = perf_counter() - t0
    assert not sol.stats.completed
    assert elapsed < 5.0  # generous: the check interval bounds the overshoot


def test_zero_timeout_still_returns():
    g, h = _dense_pair(30, 13)
    sol = solve(g, h, SolverConfig(timeout=0.0))
    assert not sol.stats.completed
    assert sol.stats.incumbent_size >= 0


# -- resources ----------------------------------------------------------------


def test_solve_leaves_no_reference_cycles():
    # the search state is freed by refcounting, not left to the cyclic GC
    gc.collect()
    gc.disable()
    try:
        solve(graph_g(), graph_h())
        assert gc.collect() == 0
        g, h = _dense_pair(30, 13)
        solve(g, h, SolverConfig(timeout=0.0))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_deep_path_solves():
    # the search depth is n, three times Python's default recursion limit
    n = 3000
    p = Graph(n, [(i, i + 1) for i in range(n - 1)])
    sol = solve(p, p)
    assert sol.stats.completed
    assert sol.stats.incumbent_size == n


# -- the cut: candidates pruned on their parent's bound, never split ----------


@pytest.mark.parametrize("directed", [False, True])
def test_cut_candidates_are_not_split(monkeypatch, directed):
    g, h = _planted_star(directed)
    calls = 0

    def counting_split(*args):
        nonlocal calls
        calls += 1
        return _split(*args)

    monkeypatch.setattr("mcis.solver._split", counting_split)
    for name in CONFIG_NAMES:
        config = SolverConfig(name)
        calls = 0
        sol = solve(g, h, config)
        ref_mapping, ref_stats = reference_solve(g, h, config)
        assert {key: getattr(sol.stats, key) for key in ref_stats} == ref_stats, name
        assert sol.mapping == ref_mapping, name
        assert len(sol.mapping) == g.n
        # splitting every candidate would call it at least once per branch
        assert calls < sol.stats.branches / 2, name


# -- differential: engine versus plain-list reference --------------------------


def test_engine_matches_reference_on_random_pairs():
    # the larger pairs, past the corpus's n <= 8, cover all four modes too
    pairs = corpus_pairs(count=80) + corpus_pairs(count=200, seed=9012, min_n=9, max_n=12)
    for pair in pairs:
        for name in CONFIG_NAMES:
            config = SolverConfig(name)
            sol = solve(pair.g, pair.h, config)
            ref_mapping, ref_stats = reference_solve(pair.g, pair.h, config)
            got = sol.stats
            assert (
                got.branches,
                got.bound_prunes,
                got.var_sym_prunes,
                got.val_sym_prunes,
                got.incumbent_size,
                got.branches_to_best,
            ) == (
                ref_stats["branches"],
                ref_stats["bound_prunes"],
                ref_stats["var_sym_prunes"],
                ref_stats["val_sym_prunes"],
                ref_stats["incumbent_size"],
                ref_stats["branches_to_best"],
            ), f"pair {pair.index} config {name}"
            assert sol.mapping == ref_mapping, f"pair {pair.index} config {name}"


def test_small_side_keys_start_over_when_full(monkeypatch):
    # with room for one key per graph, nearly every lookup misses and most
    # insertions empty the keys first; the counters must not notice
    monkeypatch.setattr("mcis.solver._KEYS_KEPT", 1)
    pairs = [p for p in corpus_pairs(count=120, seed=9012, min_n=6, max_n=10) if not p.directed]
    for pair in pairs:
        for name in ("none", "dual"):
            config = SolverConfig(name)
            sol = solve(pair.g, pair.h, config)
            ref_mapping, ref_stats = reference_solve(pair.g, pair.h, config)
            assert {key: getattr(sol.stats, key) for key in ref_stats} == ref_stats, (pair.index, name)
            assert sol.mapping == ref_mapping, (pair.index, name)


@st.composite
def _graph_pairs(draw, max_n=14):
    """Two graphs of one directedness x loops mode, past the oracle's n <= 10."""
    directed, loops = draw(st.sampled_from(MODES))

    def side():
        n = draw(st.integers(1, max_n))
        adj = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if adj[i * n + j] and (loops if i == j else directed or i < j)
        ]
        return Graph(n, edges, directed=directed)

    return side(), side()


def _reference_order(h):
    """All of h in the reference value order."""
    classes = compute_symmetry_classes(h)
    return order_values(Bidomain([], list(range(h.n))), h, classes)


def test_value_order_ranks_match_reference_on_corpus():
    # the corpus mixes directed graphs, loops and twins of both kinds
    for pair in corpus_pairs():
        for h in (pair.g, pair.h):
            assert _value_order(_degrees(h), compute_symmetry_classes(h)) == _reference_order(h), pair.index


@settings(max_examples=200, deadline=None)
@given(_graph_pairs())
def test_value_order_ranks_match_reference_property(pair):
    for h in pair:
        assert _value_order(_degrees(h), compute_symmetry_classes(h)) == _reference_order(h)


@settings(max_examples=100, deadline=None)
@given(_graph_pairs())
def test_engine_matches_reference_property(pair):
    g, h = pair
    sizes = set()
    for name in CONFIG_NAMES:
        config = SolverConfig(name)
        sol = solve(g, h, config)
        ref_mapping, ref_stats = reference_solve(g, h, config)
        got = sol.stats
        assert {key: getattr(got, key) for key in ref_stats} == ref_stats, name
        assert sol.mapping == ref_mapping, name
        assert is_isomorphism(g, h, sol.mapping), name
        sizes.add(got.incumbent_size)
    assert len(sizes) == 1


# -- twin-rich pairs: twins leave with an unmatched vertex ---------------------


# the oracle's limit: its size-only path stops at the first mapping of each
# size, so the millions of maximum mappings a blow-up can have cost it one
_BLOW_UP_MAX_N = 10


@st.composite
def _blow_up_pairs(draw):
    """Two graphs of one mode, each a random base of 3-6 vertices whose
    vertices become classes of 1-4 twins, open or closed, looped or not,
    with at most _BLOW_UP_MAX_N vertices in all."""
    directed, loops = draw(st.sampled_from(MODES))

    def side():
        base = draw(st.integers(3, 6))
        sizes = []
        for c in range(base):
            room = _BLOW_UP_MAX_N - sum(sizes) - (base - c - 1)
            sizes.append(draw(st.integers(1, min(4, room))))
        starts = list(itertools.accumulate(sizes, initial=0))
        members = [range(starts[c], starts[c + 1]) for c in range(base)]
        edges = []
        for a in range(base):
            for b in range(base):
                linked = a != b and (directed or a < b) and draw(st.booleans())
                if linked or (a == b and draw(st.booleans())):
                    # across classes, or inside a closed class
                    edges += [(x, y) for x in members[a] for y in members[b] if x != y and (directed or x < y)]
            if loops and draw(st.booleans()):
                edges += [(x, x) for x in members[a]]
        return Graph(starts[-1], edges, directed=directed)

    return side(), side()


@settings(max_examples=150, deadline=None)
@given(_blow_up_pairs())
def test_twin_rich_pairs_keep_the_optimum(pair):
    # most vertices have twins, so the var rule takes twins out with a
    # vertex left unmatched on nearly every path
    g, h = pair
    optimum = brute_force_size(g, h)
    for name in CONFIG_NAMES:
        config = SolverConfig(name)
        sol = solve(g, h, config)
        ref_mapping, ref_stats = reference_solve(g, h, config)
        assert {key: getattr(sol.stats, key) for key in ref_stats} == ref_stats, name
        assert sol.mapping == ref_mapping, name
        assert sol.stats.incumbent_size == optimum, name
        assert is_isomorphism(g, h, sol.mapping), name


def _branching_beside_unmatched_mates(g, h):
    """Every (config, v, w) where a node of ``reference_solve``, under the
    var rule, branches on v while w, a class-mate of v, is left unmatched on
    the node's path. None means the rule never reads an unmatched pair, so
    the engine's path can keep matched pairs only."""
    found = []
    for name in ("var", "dual"):
        calls = 0

        def recording(mapping, v, u, classes_g, value_rank):
            # asked about every candidate of every node that branches
            nonlocal calls
            calls += 1
            cid = classes_g.class_id[v]
            found.extend((name, v, w) for w, y in mapping if y is None and w != v and classes_g.class_id[w] == cid)
            return var_sym_prunable(mapping, v, u, classes_g, value_rank)

        with mock.patch.object(reference, "var_sym_prunable", recording):
            _, stats = reference_solve(g, h, SolverConfig(name))
        # each node the bound keeps branches, on a bidomain with candidates
        assert calls >= stats["branches"] - stats["bound_prunes"], name
    return found


@settings(max_examples=100, deadline=None)
@given(_blow_up_pairs())
def test_no_node_branches_beside_an_unmatched_class_mate(pair):
    assert _branching_beside_unmatched_mates(*pair) == []


def test_no_node_branches_beside_an_unmatched_class_mate_on_corpus():
    for pair in corpus_pairs():
        assert _branching_beside_unmatched_mates(pair.g, pair.h) == [], pair.index


# -- orientation: the smaller graph branches, a dense pair is complemented ----


def _counters(stats):
    """Every search counter of a solve, without its timing."""
    return {k: v for k, v in vars(stats).items() if k != "time_to_best"}


@settings(max_examples=100, deadline=None)
@given(_graph_pairs())
def test_solve_is_the_same_either_way_round(pair):
    g, h = pair
    assume(g.n != h.n)
    for name in CONFIG_NAMES:
        config = SolverConfig(name)
        a, b = solve(g, h, config), solve(h, g, config)
        assert _counters(a.stats) == _counters(b.stats), name
        assert b.mapping == [(u, v) for v, u in a.mapping], name


@settings(max_examples=100, deadline=None)
@given(_graph_pairs())
def test_solve_is_the_same_on_both_complements(pair):
    g, h = pair
    # at exactly half, only the originals are searched as they are
    assume(2 * (arc_count(g) + arc_count(h)) != g.n * (g.n - 1) + h.n * (h.n - 1))
    g_bar, h_bar = complement(g), complement(h)
    for name in CONFIG_NAMES:
        config = SolverConfig(name)
        a, b = solve(g, h, config), solve(g_bar, h_bar, config)
        assert _counters(a.stats) == _counters(b.stats), name
        assert a.mapping == b.mapping, name
        assert is_isomorphism(g, h, a.mapping) and is_isomorphism(g_bar, h_bar, a.mapping), name


def test_loops_still_match_loops_on_a_swapped_complemented_pair():
    # complete digraphs, looped at g's 3 and h's 0: searched swapped, on
    # two loop-only graphs, where 3 can still go only to 0
    g = Graph(4, [(a, b) for a in range(4) for b in range(4) if a != b] + [(3, 3)], directed=True)
    h = Graph(3, [(a, b) for a in range(3) for b in range(3) if a != b] + [(0, 0)], directed=True)
    og, oh, swapped = reference_orient(g, h)
    assert swapped and og == complement(h) and oh == complement(g)
    assert brute_force_size(g, h) == 3
    for name in CONFIG_NAMES:
        sol = solve(g, h, SolverConfig(name))
        assert len(sol.mapping) == 3 and (3, 0) in sol.mapping, name
        assert all(g.loops[v] == h.loops[u] for v, u in sol.mapping), name
        assert is_isomorphism(g, h, sol.mapping), name


@pytest.mark.parametrize("directed", [False, True])
def test_complemented_pair_builds_no_graph(monkeypatch, directed):
    # the complement is searched on rows alone; a Graph built inside solve
    # would also count as parsing in the benchmark's traced Graph.__init__
    rng = random.Random(7)
    ordered = [(a, b) for a in range(10) for b in range(10) if a != b and (directed or a < b)]
    loops = [(v, v) for v in range(10) if directed and rng.random() < 0.5]
    g, h = (Graph(10, [e for e in ordered if rng.random() < 0.8] + loops, directed=directed) for _ in range(2))
    assert 2 * (arc_count(g) + arc_count(h)) > 2 * 10 * 9
    calls = 0
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    sol = solve(g, h)
    assert calls == 0
    assert sol.stats.incumbent_size == brute_force_size(g, h)
    assert is_isomorphism(g, h, sol.mapping)


def test_solve_matches_oracle_on_small_pairs():
    rng = random.Random(99)
    for _ in range(40):
        n_g, n_h = rng.randint(1, 6), rng.randint(1, 6)
        g = Graph(n_g, [(i, j) for i in range(n_g) for j in range(i + 1, n_g) if rng.random() < 0.5])
        h = Graph(n_h, [(i, j) for i in range(n_h) for j in range(i + 1, n_h) if rng.random() < 0.5])
        expected = brute_force_size(g, h)
        for name in CONFIG_NAMES:
            assert len(solve(g, h, SolverConfig(name)).mapping) == expected
