import pytest
from hypothesis import given, settings, strategies as st

from known_instance import G_CLASSES, H_CLASSES, graph_g, graph_h
from reference import (
    are_symmetric,
    complement,
    edge_list,
    kind_of,
    negative_neighborhood,
    positive_neighborhood,
    reference_classes,
    verify_swap_automorphism,
)
from mcis import Graph, compute_symmetry_classes
from mcis.symmetry import NEGATIVE, POSITIVE


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    directed = draw(st.booleans())
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    return Graph(n, edges, directed=directed)


@st.composite
def mode_graphs(draw, max_n=14):
    """Graphs of 0..max_n vertices in every directed x loops mode.

    Each vertex's row is drawn as one bitmask, so empty and full rows, and
    with them twins of both kinds, come up often.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    directed = draw(st.booleans())
    loops = draw(st.booleans())
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    edges = [
        (v, w)
        for v in range(n)
        for w in range(n)
        if rows[v] >> w & 1 and (v < w or (directed and v != w) or (loops and v == w))
    ]
    return Graph(n, edges, directed=directed)


# -- neighborhood keys -------------------------------------------------------


def test_negative_neighborhood_p3_endpoint():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert negative_neighborhood(p3, 0).members == (1,)


def test_negative_neighborhood_known_instance():
    g = graph_g()
    assert negative_neighborhood(g, 4).members == (0, 2)
    assert negative_neighborhood(g, 4) == negative_neighborhood(g, 5)


def test_negative_neighborhood_directed_splits_in_out():
    g = Graph(3, [(0, 1), (2, 1)], directed=True)
    key = negative_neighborhood(g, 0)
    assert key.in_members == () and key.out_members == (1,)


def test_negative_neighborhood_loop_sentinel_only():
    g = Graph(1, [(0, 0)])
    assert negative_neighborhood(g, 0).members == (1,)  # sentinel id is n


def test_negative_neighborhood_directed_loop_marks_both_sides():
    g = Graph(2, [(0, 0), (0, 1)], directed=True)
    key = negative_neighborhood(g, 0)
    assert key.in_members == (2,) and key.out_members == (1, 2)


def test_positive_neighborhood_k3():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert positive_neighborhood(k3, 0).members == (0, 1, 2)


def test_positive_neighborhood_k2():
    assert positive_neighborhood(Graph(2, [(0, 1)]), 1).members == (0, 1)


def test_positive_neighborhood_two_cycle_digraph():
    g = Graph(2, [(0, 1), (1, 0)], directed=True)
    key = positive_neighborhood(g, 0)
    assert key.in_members == (0, 1) and key.out_members == (0, 1)


def test_key_kinds_never_compare_equal():
    # an isolated vertex aside a looped one: open {n} vs closed {v}
    g = Graph(1)
    assert negative_neighborhood(g, 0) != positive_neighborhood(g, 0)


# -- class computation -------------------------------------------------------


def test_classes_known_instance():
    assert compute_symmetry_classes(graph_g()).nontrivial() == G_CLASSES
    assert compute_symmetry_classes(graph_h()).nontrivial() == H_CLASSES


def test_classes_complete_graph_is_one_positive_class():
    n = 5
    kn = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    assert compute_symmetry_classes(kn).nontrivial() == [("positive", tuple(range(n)))]


def test_classes_star_leaves_are_negative():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    classes = compute_symmetry_classes(star)
    assert classes.nontrivial() == [("negative", (1, 2, 3, 4))]
    assert kind_of(classes, 0) == "singleton"


def test_classes_path_p4_all_singletons():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    classes = compute_symmetry_classes(p4)
    assert classes.nontrivial() == []
    assert sorted(classes.class_id) == [0, 1, 2, 3]


def test_class_ids_are_dense_and_members_consistent():
    classes = compute_symmetry_classes(graph_g())
    assert sorted(set(classes.class_id)) == list(range(max(classes.class_id) + 1))
    for cid, members in classes.class_members.items():
        assert all(classes.class_id[v] == cid for v in members)
    assert classes.class_members[classes.class_id[4]] == (4, 5)


def test_loop_flag_separates_otherwise_equal_vertices():
    g = Graph(2, [(0, 0)])
    assert compute_symmetry_classes(g).nontrivial() == []


# -- O(1) queries ------------------------------------------------------------


def test_are_symmetric_known_pairs():
    classes = compute_symmetry_classes(graph_g())
    assert are_symmetric(classes, 4, 5)
    assert not are_symmetric(classes, 4, 7)
    assert not are_symmetric(classes, 4, 4)


def test_swap_automorphism_p3():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert verify_swap_automorphism(p3, 0, 2)
    assert not verify_swap_automorphism(p3, 0, 1)


def test_swap_automorphism_k3_minus_edge():
    g = Graph(3, [(0, 2), (1, 2)])
    assert verify_swap_automorphism(g, 0, 1)


def test_swap_automorphism_rejects_identical_vertices():
    with pytest.raises(ValueError):
        verify_swap_automorphism(Graph(2), 1, 1)


def test_swap_automorphism_directed_antiparallel():
    # one-way edge: swapping endpoints reverses it, so no automorphism
    g = Graph(2, [(0, 1)], directed=True)
    assert not verify_swap_automorphism(g, 0, 1)
    g2 = Graph(2, [(0, 1), (1, 0)], directed=True)
    assert verify_swap_automorphism(g2, 0, 1)


def test_swap_automorphism_loop_mismatch():
    g = Graph(2, [(0, 0), (0, 1), (1, 1)])
    assert verify_swap_automorphism(g, 0, 1)
    g2 = Graph(2, [(0, 0), (0, 1)])
    assert not verify_swap_automorphism(g2, 0, 1)


# -- properties on random graphs ----------------------------------------------


@settings(max_examples=150)
@given(graphs())
def test_detected_symmetry_matches_swap_automorphism(g):
    classes = compute_symmetry_classes(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert are_symmetric(classes, u, v) == verify_swap_automorphism(g, u, v)


@settings(max_examples=150)
@given(graphs())
def test_positive_cliques_negative_anticliques(g):
    for kind, members in compute_symmetry_classes(g).nontrivial():
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                adjacent = g.has_edge(u, v) and (not g.directed or g.has_edge(v, u))
                assert adjacent == (kind == "positive")


@settings(max_examples=150)
@given(graphs())
def test_no_vertex_in_both_kinds(g):
    # computed straight from the keys, independent of class assignment
    for v in range(g.n):
        has_neg = any(
            negative_neighborhood(g, w) == negative_neighborhood(g, v)
            for w in range(g.n)
            if w != v
        )
        has_pos = any(
            positive_neighborhood(g, w) == positive_neighborhood(g, v)
            for w in range(g.n)
            if w != v
        )
        assert not (has_neg and has_pos)


@settings(max_examples=100)
@given(graphs())
def test_symmetry_is_transitive(g):
    classes = compute_symmetry_classes(g)
    for _, members in classes.nontrivial():
        for u in members:
            for v in members:
                for w in members:
                    if u != v and v != w and u != w:
                        assert are_symmetric(classes, u, w)


@settings(max_examples=300)
@given(mode_graphs())
def test_classes_match_tuple_key_grouping(g):
    # the bitset-row grouping against the definitional keys, up to n = 14
    classes = compute_symmetry_classes(g)
    want = reference_classes(g)
    assert (classes.class_id, classes.class_members, classes.class_kind) == want
    # dict equality ignores order; both tables must also list ids ascending
    assert list(classes.class_members) == list(classes.class_kind) == list(want[1])
    # repr counts edges by popcount
    kind = "directed" if g.directed else "undirected"
    assert repr(g) == f"Graph(n={g.n}, m={len(edge_list(g))}, {kind})"
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert are_symmetric(classes, u, v) == verify_swap_automorphism(g, u, v)


@settings(max_examples=300)
@given(mode_graphs())
def test_complement_has_the_same_classes_of_the_other_kind(g):
    # complementing swaps open and closed neighbourhoods, so the solver may
    # detect classes on a dense graph it searches on the complement rows of
    classes = compute_symmetry_classes(g)
    flipped = compute_symmetry_classes(complement(g))
    assert flipped.class_id == classes.class_id
    assert flipped.class_members == classes.class_members
    other = {NEGATIVE: POSITIVE, POSITIVE: NEGATIVE}
    assert flipped.class_kind == {c: other[kind] for c, kind in classes.class_kind.items()}
