import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from mcis import Graph, brute_force_mcis, is_isomorphism
from mcis.oracle import brute_force_size
from reference import edge_list, induced_subgraph, reference_is_isomorphism


def k(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_identical_triangles():
    assert brute_force_mcis(k(3), k(3)).size == 3


def test_edge_versus_isolated_pair():
    res = brute_force_mcis(Graph(2, [(0, 1)]), Graph(2))
    assert res.size == 1


def test_cycle5_versus_path4():
    # frozen after the first verified run of this oracle
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    res = brute_force_mcis(c5, p4)
    assert res.size == 4


def test_all_witnesses_are_isomorphisms_of_full_size():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = Graph(4, [(0, 1), (0, 2), (0, 3)])
    res = brute_force_mcis(g, h)
    assert res.size == 3
    assert res.witnesses and not res.witnesses_capped
    for w in res.witnesses:
        assert len(w) == res.size
        assert is_isomorphism(g, h, w)
        assert list(w) == sorted(w)  # canonical: sorted by G-vertex


def test_witness_cap_sets_flag():
    # the optimum does not depend on how many witnesses are kept
    for n, cap in ((4, 3), (3, 0)):
        res = brute_force_mcis(k(n), k(n), witness_cap=cap)
        assert res.size == n
        assert len(res.witnesses) == cap
        assert res.witnesses_capped
        assert res.witness_count == math.factorial(n)


def test_negative_witness_cap_is_rejected():
    with pytest.raises(ValueError, match="witness_cap"):
        brute_force_mcis(k(3), k(3), witness_cap=-1)


def test_loop_must_match_loop():
    looped = Graph(1, [(0, 0)])
    plain = Graph(1)
    res = brute_force_mcis(looped, plain)
    assert res.size == 0
    assert (res.witnesses, res.witness_count) == ([()], 1)
    assert brute_force_mcis(looped, plain, witness_cap=0).witnesses == []
    assert res.witnesses == [()]
    assert brute_force_mcis(looped, looped).size == 1
    assert brute_force_size(looped, plain) == 0
    assert brute_force_size(looped, looped) == 1


def test_directed_one_way_edge_versus_two_cycle():
    g = Graph(2, [(0, 1)], directed=True)
    h = Graph(2, [(0, 1), (1, 0)], directed=True)
    assert brute_force_mcis(g, h).size == 1


def test_size_guard():
    for oracle in (brute_force_mcis, brute_force_size):
        with pytest.raises(ValueError, match="at most"):
            oracle(Graph(11), Graph(2))


def test_directedness_mismatch():
    for oracle in (brute_force_mcis, brute_force_size):
        with pytest.raises(ValueError, match="directedness"):
            oracle(Graph(2, directed=True), Graph(2))


def test_size_path_stops_at_the_first_mapping():
    # K10 has 10! maximum mappings onto itself; counting them would take
    # minutes
    assert brute_force_size(k(10), k(10)) == 10


@st.composite
def graph_pairs(draw, max_n=5):
    directed = draw(st.booleans())
    out = []
    for _ in range(2):
        n = draw(st.integers(min_value=1, max_value=max_n))
        edges = draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
        )
        out.append(Graph(n, edges, directed=directed))
    return out


@settings(max_examples=60, deadline=None)
@given(graph_pairs(), st.randoms(use_true_random=False))
def test_size_is_invariant_under_relabelling(pair, rng):
    g, h = pair
    base = brute_force_mcis(g, h).size
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabelled = Graph(
        g.n,
        [(perm[a], perm[b]) for a, b in edge_list(g)],
        directed=g.directed,
    )
    assert brute_force_mcis(relabelled, h).size == base


@settings(max_examples=60, deadline=None)
@given(graph_pairs())
def test_size_path_agrees_with_the_full_walk(pair):
    g, h = pair
    assert brute_force_size(g, h) == brute_force_mcis(g, h, witness_cap=0).size


@settings(max_examples=60, deadline=None)
@given(graph_pairs(max_n=6))
def test_witnesses_are_every_maximum_mapping_in_order(pair):
    # the naive walk: every subset of G with every arrangement of H's ids,
    # from the largest size down to the first that has a mapping
    g, h = pair
    for size in range(min(g.n, h.n), -1, -1):
        naive = [
            mapping
            for subset in combinations(range(g.n), size)
            for image in permutations(range(h.n), size)
            if reference_is_isomorphism(g, h, mapping := tuple(zip(subset, image)))
        ]
        if naive:
            break
    res = brute_force_mcis(g, h)
    assert res.size == size == brute_force_size(g, h)
    assert res.witnesses == naive
    assert res.witness_count == len(naive)
    assert not res.witnesses_capped

@settings(max_examples=60, deadline=None)
@given(graph_pairs())
def test_common_subgraphs_reported_are_induced(pair):
    g, h = pair
    res = brute_force_mcis(g, h)
    if res.size == 0:
        return
    w = res.witnesses[0]
    sub_g = induced_subgraph(g, [v for v, _ in w])
    sub_h = induced_subgraph(h, [u for _, u in w])
    assert sub_g.n == sub_h.n == res.size


def test_subgraph_of_itself_is_everything():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        assert brute_force_mcis(g, g).size == n
