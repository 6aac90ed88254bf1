import pytest
from hypothesis import given, settings, strategies as st

from known_instance import WITNESS, graph_g, graph_h
from mcis import Graph, GraphParseError, is_isomorphism, parse_edgelist, parse_lad
from reference import (
    degree,
    edge_list,
    has_loops,
    in_neighbors,
    induced_subgraph,
    neighbors,
    reference_is_isomorphism,
    reference_parse_edgelist,
    reference_parse_lad,
    to_edgelist,
    to_lad,
)


@st.composite
def graphs(draw, directed=None, loops=False, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if directed is None:
        directed = draw(st.booleans())
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    if not loops:
        edges = [(a, b) for a, b in edges if a != b]
    return Graph(n, edges, directed=directed)


# -- construction ------------------------------------------------------------


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])


def test_graph_rejects_negative_n():
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_rejects_short_name_table():
    with pytest.raises(ValueError, match="name table length"):
        Graph(2, names=["a"])


def test_graph_repr():
    assert repr(Graph(3, [(0, 1), (1, 2)])) == "Graph(n=3, m=2, undirected)"
    assert repr(Graph(2, [(0, 1), (1, 0), (1, 1)], directed=True)) == "Graph(n=2, m=3, directed)"
    assert repr(Graph(2, [(0, 1), (1, 1)])) == "Graph(n=2, m=2, undirected)"


def test_undirected_adjacency_is_symmetric():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_directed_adjacency_is_one_way():
    g = Graph(2, [(0, 1)], directed=True)
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)
    assert neighbors(g, 0) == [1] and in_neighbors(g, 1) == [0]


def test_loops_live_in_flag_not_rows():
    g = Graph(2, [(0, 0), (0, 1)])
    assert g.loops[0] and not g.loops[1]
    assert g.has_edge(0, 0) and not g.has_edge(1, 1)
    assert neighbors(g, 0) == [1]  # loop not in the adjacency row
    assert has_loops(g)


def test_degree_directed_counts_both_directions():
    g = Graph(3, [(0, 1), (2, 0)], directed=True)
    assert degree(g, 0) == 2
    assert degree(g, 1) == 1


def test_edges_canonical_order_with_loops():
    g = Graph(3, [(2, 1), (1, 0), (2, 2)])
    assert edge_list(g) == [(0, 1), (1, 2), (2, 2)]


def test_structural_equality_ignores_names():
    a = Graph(2, [(0, 1)], names=["x", "y"])
    b = Graph(2, [(0, 1)])
    assert a == b
    assert a != Graph(2, [(0, 1)], directed=True)


# -- LAD parsing -------------------------------------------------------------


def test_parse_lad_path():
    g = parse_lad("3\n1 1\n2 0 2\n1 1\n")
    assert g == Graph(3, [(0, 1), (1, 2)])


def test_parse_lad_isolated_vertex():
    g = parse_lad("1\n0\n")
    assert g.n == 1 and edge_list(g) == []


def test_parse_lad_single_edge():
    assert parse_lad("2\n1 1\n1 0\n") == Graph(2, [(0, 1)])


def test_parse_lad_duplicate_mentions_collapse():
    # both rows mention the edge; some files also repeat within a row
    g = parse_lad("2\n2 1 1\n1 0\n")
    assert edge_list(g) == [(0, 1)]


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("", 1),
        ("x\n", 1),
        ("2\n1 1\n", 2),  # truncated: one row missing
        ("1\n0\n0\n", 3),  # extra row
        ("2\n1 5\n1 0\n", 2),  # neighbor out of range
        ("2\n2 1\n1 0\n", 2),  # count disagrees with row
        ("2\n1 a\n1 0\n", 2),  # non-integer token
    ],
)
def test_parse_lad_errors_name_the_line(text, line_no):
    with pytest.raises(GraphParseError) as exc:
        parse_lad(text)
    assert exc.value.line_no == line_no
    assert f"line {line_no}:" in str(exc.value)


# -- edge-list parsing -------------------------------------------------------


def test_parse_edgelist_path():
    assert parse_edgelist("3 2\n0 1\n1 2\n") == Graph(3, [(0, 1), (1, 2)])


def test_parse_edgelist_directed_two_cycle():
    g = parse_edgelist("2 2\n0 1\n1 0\n", directed=True)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g == Graph(2, [(0, 1), (1, 0)], directed=True)


def test_parse_edgelist_single_looped_vertex():
    g = parse_edgelist("1 1\n0 0\n", allow_loops=True)
    assert g.loops == [True]


def test_parse_edgelist_rejects_loop_by_default():
    with pytest.raises(GraphParseError, match="self-loop"):
        parse_edgelist("1 1\n0 0\n")


def test_parse_edgelist_named_vertices_intern_in_order():
    g = parse_edgelist("3 2\nb a\nc a\n")
    assert g.names == ["b", "a", "c"]
    assert g.display_name(0) == "b"
    assert g.has_edge(0, 1) and g.has_edge(2, 1)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",  # header needs two tokens
        "-1 0\n",  # header counts must be non-negative
        "a b\n",
        "2 1\n0 3\n",  # id out of range
        "2 1\n0 x\n",  # mixing ids and names
        "2 2\n0 1\n",  # fewer edge lines than m
        "2 1\n0 1\n1 0\n",  # more edge lines than m
        "1 1\na b\n",  # more names than n
        "2 1\n0 1 2\n",  # three tokens on an edge line
        "2 1\n² 1\n",  # str.isdigit accepts superscripts, int does not
        "2 1\n--1 0\n",  # looks numeric once the minus signs are stripped
    ],
)
def test_parse_edgelist_errors(text):
    with pytest.raises(GraphParseError):
        parse_edgelist(text)


# tokens stay at most three characters long, so no header asks for a big
# graph; "+1", "1_0" and "-0" are ids to int() but not to the edge-list rule
_tokens = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["a", "²", "--1", "+1", "٣", "1_0", "-0"]),
    st.text(max_size=3),
)
# edge lines take an id that fits a small header half of the time, so whole
# files parse often enough for a stray token to be the only fault
_edge_tokens = st.one_of(st.integers(0, 3).map(str), _tokens)


@st.composite
def _graph_texts(draw):
    """Text near both formats: edge lines of two tokens under an ``n m``
    header, or headers that often fit the body and LAD-like rows."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(_edge_tokens, min_size=2, max_size=2), max_size=6))
        header = [str(draw(st.integers(0, 6))), str(len(rows))]
        return "\n".join(" ".join(r) for r in [header] + rows)
    rows = draw(st.lists(st.lists(_tokens, min_size=1, max_size=3), max_size=6))
    if draw(st.booleans()):
        rows = [[str(len(r))] + r for r in rows]
    header = draw(
        st.one_of(
            st.just([str(len(rows))]),
            st.integers(0, 6).map(lambda n: [str(n), str(len(rows))]),
            st.lists(_tokens, max_size=3),
        )
    )
    return "\n".join(" ".join(r) for r in [header] + rows)


@settings(max_examples=300)
@given(_graph_texts(), st.booleans(), st.booleans())
def test_parsers_raise_only_graph_parse_error(text, directed, loops):
    for parse in (parse_lad, lambda t: parse_edgelist(t, directed=directed, allow_loops=loops)):
        try:
            parse(text)
        except GraphParseError:
            pass


def _outcome(parse, text):
    """The graph and names a parser returns, or its error's line and message."""
    try:
        g = parse(text)
    except GraphParseError as exc:
        return exc.line_no, str(exc)
    return g, g.names


@settings(max_examples=500)
@given(_graph_texts(), st.booleans(), st.booleans())
def test_parsers_match_the_line_by_line_oracles(text, directed, loops):
    assert _outcome(parse_lad, text) == _outcome(reference_parse_lad, text)
    assert _outcome(
        lambda t: parse_edgelist(t, directed=directed, allow_loops=loops), text
    ) == _outcome(lambda t: reference_parse_edgelist(t, directed=directed, allow_loops=loops), text)


@pytest.mark.parametrize(
    "text,names",
    [
        ("5 1\n+3 +4\n", ["+3", "+4", "2", "3", "4"]),
        ("2 1\n1_000 x\n", ["1_000", "x"]),
    ],
)
def test_edgelist_plus_and_underscore_tokens_are_names(text, names):
    g = parse_edgelist(text)
    assert g.names == names and g.has_edge(0, 1)


@pytest.mark.parametrize("text", ["2 1\n1_000 3\n", "5 1\n3 +4\n", "5 2\n+3 +4\n0 1\n"])
def test_edgelist_plus_and_underscore_tokens_do_not_mix_with_ids(text):
    with pytest.raises(GraphParseError, match="cannot mix") as exc:
        parse_edgelist(text)
    assert exc.value.line_no == len(text.splitlines())


def test_edgelist_minus_zero_is_vertex_zero():
    assert parse_edgelist("2 1\n-0 1\n") == Graph(2, [(0, 1)])
    with pytest.raises(GraphParseError, match="self-loop"):
        parse_edgelist("2 1\n0 -0\n")


def test_parsed_undirected_rows_are_one_list():
    # undirected graphs share one row list, as Graph(n, edges) builds them
    for g in (parse_lad("2\n1 1\n1 0\n"), parse_edgelist("2 1\n0 1\n")):
        assert g.in_bits is g.out_bits


# -- serialization round-trips -----------------------------------------------


@given(graphs(directed=False, loops=True))
def test_lad_round_trip(g):
    assert parse_lad(to_lad(g)) == g


def test_to_lad_rejects_directed():
    with pytest.raises(ValueError):
        to_lad(Graph(1, directed=True))


@given(graphs(loops=True))
def test_edgelist_round_trip(g):
    assert parse_edgelist(to_edgelist(g), directed=g.directed, allow_loops=True) == g


# -- induced subgraphs -------------------------------------------------------


def test_induced_k3_edge():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert induced_subgraph(k3, {0, 1}) == Graph(2, [(0, 1)])


def test_induced_p3_endpoints_are_isolated():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert induced_subgraph(p3, {0, 2}) == Graph(2)


def test_induced_keeps_loops_and_direction():
    g = Graph(3, [(0, 0), (0, 2), (2, 1)], directed=True)
    sub = induced_subgraph(g, [0, 2])
    assert sub == Graph(2, [(0, 0), (0, 1)], directed=True)


def test_induced_out_of_range_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(Graph(2), [0, 5])


@given(graphs(loops=True))
def test_induced_full_vertex_set_is_identity(g):
    assert induced_subgraph(g, range(g.n)) == g


# -- isomorphism checks ------------------------------------------------------


def test_is_isomorphism_identity_on_k2():
    k2 = Graph(2, [(0, 1)])
    assert is_isomorphism(k2, k2, [(0, 0), (1, 1)])


def test_is_isomorphism_edge_versus_non_edge():
    assert not is_isomorphism(Graph(2, [(0, 1)]), Graph(2), [(0, 0), (1, 1)])


def test_is_isomorphism_known_instance_witness():
    assert is_isomorphism(graph_g(), graph_h(), WITNESS)


def test_is_isomorphism_checks_both_directions():
    g = Graph(2, [(0, 1)], directed=True)
    h = Graph(2, [(1, 0)], directed=True)
    assert not is_isomorphism(g, h, [(0, 0), (1, 1)])
    assert is_isomorphism(g, h, [(0, 1), (1, 0)])


def test_is_isomorphism_checks_reverse_arcs():
    # the forward arc 0->1 agrees; only the reverse arc 1->0 differs
    g = Graph(2, [(0, 1), (1, 0)], directed=True)
    h = Graph(2, [(0, 1)], directed=True)
    assert not is_isomorphism(g, h, [(0, 0), (1, 1)])


def test_is_isomorphism_loop_flags_must_agree():
    g = Graph(1, [(0, 0)])
    h = Graph(1)
    assert not is_isomorphism(g, h, [(0, 0)])


def test_is_isomorphism_ignores_unmatched_pairs():
    g = Graph(2, [(0, 1)])
    h = Graph(1)
    assert is_isomorphism(g, h, [(0, 0), (1, None)])


@pytest.mark.parametrize("g_directed", [False, True])
def test_is_isomorphism_rejects_mixed_directedness(g_directed):
    g = Graph(2, [(0, 1)], directed=g_directed)
    h = Graph(2, [(0, 1)], directed=not g_directed)
    with pytest.raises(ValueError, match="directedness"):
        is_isomorphism(g, h, [(0, 0), (1, 1)])


def test_is_isomorphism_rejects_repeated_vertices():
    assert not is_isomorphism(Graph(2), Graph(1), [(0, 0), (1, 0)])
    assert not is_isomorphism(Graph(1), Graph(2), [(0, 0), (0, 1)])


@pytest.mark.parametrize("pair", [(5, 0), (-1, 0), (0, 2), (0, -1), (2, 2), (5, None), (-1, None)])
def test_is_isomorphism_rejects_out_of_range_vertices(pair):
    # an id past either graph, negative ones included, is no vertex to
    # match or to leave unmatched
    k2 = Graph(2, [(0, 1)])
    assert not is_isomorphism(k2, k2, [pair])
    assert not is_isomorphism(k2, k2, [(1, 1), pair])
    assert not is_isomorphism(k2, k2, [pair, (0, 0)])


@given(graphs(loops=True), st.randoms(use_true_random=False))
def test_induced_relabelling_is_isomorphism(g, rng):
    vs = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
    sub = induced_subgraph(g, vs)
    assert is_isomorphism(g, sub, [(v, i) for i, v in enumerate(vs)])


@st.composite
def _mappings(draw):
    """A graph pair of one kind and a mapping between them: half the time
    injective, else any pairs, repeated vertices included; either kind
    may hold ``None`` values."""
    directed = draw(st.booleans())
    g = draw(graphs(directed=directed, loops=True, max_n=7))
    h = draw(graphs(directed=directed, loops=True, max_n=7))
    if draw(st.booleans()):
        # injective, so the edge and loop rules decide
        vs = draw(st.permutations(range(g.n)))
        us = draw(st.permutations(range(h.n)))
        mapping = [(v, draw(st.sampled_from([u, None]))) for v, u in zip(vs, us)]
    else:
        pair = st.tuples(st.integers(0, g.n - 1), st.none() | st.integers(0, h.n - 1))
        mapping = draw(st.lists(pair, max_size=g.n + 1))
    return g, h, mapping


@settings(max_examples=500, deadline=None)
@given(_mappings())
def test_is_isomorphism_matches_reference(case):
    g, h, mapping = case
    assert is_isomorphism(g, h, mapping) == reference_is_isomorphism(g, h, mapping)
