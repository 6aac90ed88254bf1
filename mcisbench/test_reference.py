"""The benchmark's checker against the package's brute-force oracle.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q mcisbench/test_reference.py

``reference`` never imports ``mcis``; this test is the one place the two
meet, on pairs small enough for ``mcis.oracle.brute_force_mcis``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import reference  # noqa: E402
from mcis import Graph, brute_force_mcis, is_isomorphism  # noqa: E402


def to_graph(t: tuple) -> Graph:
    return Graph(t[0], t[1], directed=t[2])


def random_graph(rng: random.Random, n: int, p: float, directed: bool, loops: bool) -> tuple:
    edges = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if (a == b and loops or a != b and (directed or a < b)) and rng.random() < p
    ]
    return (n, edges, directed)


@pytest.mark.parametrize("directed,loops", [(False, False), (False, True), (True, False), (True, True)])
def test_clique_optimum_equals_oracle_on_random_pairs(directed, loops):
    rng = random.Random(f"random/{directed}/{loops}")
    for _ in range(30):
        p = rng.choice((0.2, 0.5, 0.8))
        g = random_graph(rng, rng.randint(1, 6), p, directed, loops)
        h = random_graph(rng, rng.randint(1, 6), p, directed, loops)
        assert reference.clique_optimum(g, h) == brute_force_mcis(to_graph(g), to_graph(h)).size


@pytest.mark.parametrize("directed", [False, True])
def test_clique_optimum_equals_oracle_on_blow_ups(directed):
    rng = random.Random(f"blow-up/{directed}")
    for _ in range(12):
        g = gen.blow_up(rng, 4, 0.5, 2, directed)
        h = gen.blow_up(rng, 4, 0.5, 2, directed)
        if max(g[0], h[0]) > 8:
            continue
        assert reference.clique_optimum(g, h) == brute_force_mcis(to_graph(g), to_graph(h)).size


def test_closed_forms_equal_oracle():
    for k, m in [(1, 1), (1, 4), (3, 2), (5, 5), (7, 8), (9, 6)]:
        want = brute_force_mcis(to_graph(gen.star(k)), to_graph(gen.star(m))).size
        assert reference.star_optimum(k, m) == want
    for a, b, c, d in [(1, 1, 2, 3), (2, 2, 1, 4), (3, 1, 2, 2), (1, 4, 4, 1), (2, 3, 3, 2), (4, 5, 3, 6)]:
        g, h = gen.complete_bipartite(a, b), gen.complete_bipartite(c, d)
        assert reference.bipartite_optimum(a, b, c, d) == brute_force_mcis(to_graph(g), to_graph(h)).size
    for parts_g, parts_h in [
        ([3, 2], [2, 2, 1]),
        ([4], [2, 2, 2]),
        ([1, 1, 1], [3]),
        ([3, 3, 2], [4, 3, 3]),
        ([5, 4], [2, 2, 2, 2, 2]),
    ]:
        g, h = gen.clique_union(parts_g), gen.clique_union(parts_h)
        want = brute_force_mcis(to_graph(g), to_graph(h)).size
        assert reference.clique_union_optimum(parts_g, parts_h) == want


def test_mapping_check_agrees_with_package_check():
    rng = random.Random("mappings")
    for _ in range(300):
        directed, loops = rng.random() < 0.5, rng.random() < 0.5
        g = random_graph(rng, rng.randint(1, 6), 0.5, directed, loops)
        h = random_graph(rng, rng.randint(1, 6), 0.5, directed, loops)
        k = rng.randint(0, min(g[0], h[0]))
        pairs = list(zip(rng.sample(range(g[0]), k), rng.sample(range(h[0]), k)))
        want = is_isomorphism(to_graph(g), to_graph(h), pairs)
        got = reference.is_induced_isomorphism(reference.adjacency(g), reference.adjacency(h), pairs)
        assert got == want


def test_mapping_check_rejects_non_injective_and_out_of_range_pairs():
    g = h = (3, [], False)
    adj = reference.adjacency(g)
    assert not reference.is_induced_isomorphism(adj, adj, [(0, 1), (1, 1)])
    assert not reference.is_induced_isomorphism(adj, adj, [(0, 0), (0, 1)])
    assert not reference.is_induced_isomorphism(adj, adj, [(0, 3)])
    assert reference.is_induced_isomorphism(adj, reference.adjacency(h), [(0, 2), (2, 0)])


def test_planted_copies_are_induced_and_workloads_repeat():
    for name, make in gen.WORKLOADS.items():
        first, again = make(7), make(7)
        assert [i.name for i in first] == [i.name for i in again]
        assert [(i.g, i.h) for i in first] == [(i.g, i.h) for i in again], name
    for inst in gen.large_sparse(7):
        assert reference.optimum(inst) == inst.g[0] == gen.PATTERN_SIZE


def test_written_files_parse_to_the_generated_graphs(tmp_path):
    from mcis.bench import load_graph

    insts = gen.random_undirected(3)[:2] + gen.twins_symmetric(3)[-30:] + gen.large_sparse(3)[:2]
    for inst, (g_path, h_path) in zip(insts, gen.write_files(insts, tmp_path)):
        for t, path in ((inst.g, g_path), (inst.h, h_path)):
            assert load_graph(path, inst.fmt, t[2], inst.loops) == to_graph(t)
