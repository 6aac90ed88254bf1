"""End-to-end acceptance gate: ten checks, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every verdict line on
success; on failure the assertion message carries the same text. Wherever
feasible the checks recompute expectations from first principles — the
brute-force oracle, complete unpruned tree walks, raw neighborhood keys —
rather than trusting the unit under test.
"""

from __future__ import annotations

import random
import time
from collections import deque

from conftest import run_corpus
from corpus import random_graph
from known_instance import G_CLASSES, H_CLASSES, OPTIMUM, graph_g, graph_h
from reference import (
    are_symmetric,
    enumerate_tree,
    negative_neighborhood,
    positive_neighborhood,
    reference_classes,
    reference_ranks,
    verify_swap_automorphism,
)

from mcis import (
    CONFIG_NAMES,
    Graph,
    SolverConfig,
    compute_symmetry_classes,
    solve,
)
from mcis.oracle import brute_force_size


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def _corpus_graphs(corpus):
    for pair in corpus:
        yield pair.g
        yield pair.h


def test_criterion_01_corpus_optimality(corpus, corpus_runs):
    # Every config must land exactly on the brute-force optimum, and the
    # sweep plus the oracle pass must stay inside the five-minute budget.
    runs, sweep_seconds = corpus_runs
    start = time.perf_counter()
    mismatches = 0
    for pair in corpus:
        want = brute_force_size(pair.g, pair.h)
        for name in CONFIG_NAMES:
            if runs[(pair.index, name)][4] != want:
                mismatches += 1
    elapsed = sweep_seconds + (time.perf_counter() - start)
    _report(
        1,
        "corpus optimality",
        mismatches == 0 and elapsed < 300.0,
        f"{len(corpus)} pairs x {len(CONFIG_NAMES)} configs, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_detection_equals_swap_check(corpus):
    checked = discrepancies = 0
    for g in _corpus_graphs(corpus):
        classes = compute_symmetry_classes(g)
        for v in range(g.n):
            for u in range(v + 1, g.n):
                checked += 1
                if are_symmetric(classes, v, u) != verify_swap_automorphism(g, v, u):
                    discrepancies += 1
    _report(
        2,
        "detection == swap automorphism",
        discrepancies == 0,
        f"{checked} vertex pairs, {discrepancies} discrepancies",
    )


def test_criterion_03_class_structure(corpus):
    # Computed classes must be cliques (positive kind) / anti-cliques
    # (negative kind); raw keys must never put one vertex in nontrivial
    # groups of both kinds.
    violations = 0
    for g in _corpus_graphs(corpus):
        for kind, members in compute_symmetry_classes(g).nontrivial():
            want_edge = kind == "positive"
            for i, v in enumerate(members):
                for u in members[i + 1 :]:
                    forward = g.has_edge(v, u)
                    backward = g.has_edge(u, v) if g.directed else forward
                    if (forward and backward) != want_edge or forward != backward:
                        violations += 1
        neg_groups: dict = {}
        pos_groups: dict = {}
        for v in range(g.n):
            neg_groups.setdefault(negative_neighborhood(g, v), []).append(v)
            pos_groups.setdefault(positive_neighborhood(g, v), []).append(v)
        neg = {v for grp in neg_groups.values() if len(grp) > 1 for v in grp}
        pos = {v for grp in pos_groups.values() if len(grp) > 1 for v in grp}
        violations += len(neg & pos)
    _report(3, "clique / anti-clique structure", violations == 0, f"{violations} violations")


def test_criterion_04_branch_monotonicity(corpus, corpus_runs):
    runs, _ = corpus_runs
    violations = 0
    for pair in corpus:
        b = {name: runs[(pair.index, name)][0] for name in CONFIG_NAMES}
        if not (b["dual"] <= b["var"] <= b["none"] and b["dual"] <= b["val"] <= b["none"]):
            violations += 1
    _report(
        4,
        "branch monotonicity",
        violations == 0,
        f"{len(corpus)} instances, {violations} violations",
    )


def _star(k: int) -> Graph:
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _clique_union(*sizes: int) -> Graph:
    edges, base = [], 0
    for s in sizes:
        edges += [(base + i, base + j) for i in range(s) for j in range(i + 1, s)]
        base += s
    return Graph(base, edges)


# Highly symmetric pairs where dual pruning should at least halve the tree.
# Small members (k < 4..5) are excluded: their whole trees are a few dozen
# nodes and the constant overhead of the rules swamps the asymptotics.
HALVING_FAMILY = (
    [(f"star{k}", _star(k), _star(k)) for k in (5, 6, 7, 8)]
    + [("bipartite33v34", _complete_bipartite(3, 3), _complete_bipartite(3, 4))]
    + [(f"cliques{k}+{k}", _clique_union(k, k), _clique_union(k, k)) for k in (5, 6, 7, 8)]
    + [
        (f"cliques{k}+{k}v{k}+{k + 1}", _clique_union(k, k), _clique_union(k, k + 1))
        for k in (4, 5, 6, 7)
    ]
    + [(f"cliques{k}x3", _clique_union(k, k, k), _clique_union(k, k, k)) for k in (5, 6)]
)


def test_criterion_05_halving_on_symmetric_families():
    halved = []
    for name, g, h in HALVING_FAMILY:
        none = solve(g, h, SolverConfig("none")).stats.branches
        dual = solve(g, h, SolverConfig("dual")).stats.branches
        halved.append(2 * dual <= none)
    count = sum(halved)
    misses = [name for (name, _, _), ok in zip(HALVING_FAMILY, halved) if not ok]
    _report(
        5,
        "tree halving on symmetric families",
        count >= 0.8 * len(HALVING_FAMILY),
        f"{count}/{len(HALVING_FAMILY)} members halved"
        + (f" (missed: {', '.join(misses)})" if misses else ""),
    )


def test_criterion_06_bound_soundness(corpus):
    # Over complete unpruned trees: the bound never grows parent->child and
    # never undercuts the best full mapping under the node (which, in a
    # complete tree, is the residual optimum). The tree root must also
    # reproduce the brute-force optimum.
    small = [p for p in corpus if p.g.n <= 6 and p.h.n <= 6]
    nodes = 0
    violations = 0
    for pair in small:
        optimum = brute_force_size(pair.g, pair.h)
        counts = [0, 0]

        def on_node(mapping, ub, parent_ub, subtree_best, counts=counts):
            counts[0] += 1
            if parent_ub is not None and ub > parent_ub:
                counts[1] += 1
            if ub < subtree_best:
                counts[1] += 1

        best = enumerate_tree(pair.g, pair.h, on_node=on_node)
        nodes += counts[0]
        violations += counts[1]
        if best != optimum:
            violations += 1
    _report(
        6,
        "bound soundness",
        violations == 0,
        f"{len(small)} instances, {nodes} nodes, {violations} violations",
    )


def _padded_branch_key(pairs, rank, bot, width):
    key = [bot if u is None else rank[u] for _, u in pairs]
    return tuple(key + [bot] * (width - len(key)))


def _swap_neighbors(state, g_n, h_n, gclass, hclass):
    """Matched-pair sets one symmetry move away from ``state``.

    Moves: swap the values (or owners) of two pairs whose owners (values)
    are interchangeable, or hand one pair's slot to an interchangeable
    unmatched vertex on either side. Unmatched covers both explicit
    skip decisions and wholesale drops, which is why states carry only
    matched pairs.
    """
    pairs = sorted(state)
    used_g = {v for v, _ in pairs}
    used_h = {u for _, u in pairs}
    out = []
    for i, (v1, u1) in enumerate(pairs):
        for v2, u2 in pairs[i + 1 :]:
            if gclass[v1] == gclass[v2]:
                out.append(state - {(v1, u1), (v2, u2)} | {(v1, u2), (v2, u1)})
            if hclass[u1] == hclass[u2]:
                out.append(state - {(v1, u1), (v2, u2)} | {(v1, u2), (v2, u1)})
    for v, u in pairs:
        for w in range(g_n):
            if w not in used_g and gclass[w] == gclass[v]:
                out.append(state - {(v, u)} | {(w, u)})
        for w in range(h_n):
            if w not in used_h and hclass[w] == hclass[u]:
                out.append(state - {(v, u)} | {(v, w)})
    return out


def _minimal_branch_violations(g: Graph, h: Graph) -> tuple[int, int]:
    """(violations, classes) for the minimal-branch preservation property.

    Enumerates every terminal branch of the unpruned tree, closes the
    matched-pair sets under symmetry moves to form equivalence classes, and
    checks that the value-lexicographically smallest realized members of
    each class would not have been skipped by either rule.
    """
    classes_g = compute_symmetry_classes(g)
    classes_h = compute_symmetry_classes(h)
    rank = reference_ranks(h)
    bot = h.n

    branches: list = []
    enumerate_tree(g, h, collect_branches=branches)
    realized: dict = {}
    for pairs, var_fired, val_fired in branches:
        key = frozenset((v, u) for v, u in pairs if u is not None)
        realized.setdefault(key, []).append((pairs, var_fired, val_fired))

    comp_of: dict = {}
    n_comps = 0
    for start in realized:
        if start in comp_of:
            continue
        comp = n_comps
        n_comps += 1
        queue = deque([start])
        seen = {start}
        while queue:
            state = queue.popleft()
            if state in realized:
                comp_of[state] = comp
            for nxt in _swap_neighbors(state, g.n, h.n, classes_g.class_id, classes_h.class_id):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)

    members: dict = {}
    for state, comp in comp_of.items():
        members.setdefault(comp, []).extend(realized[state])

    violations = 0
    for records in members.values():
        smallest = min(_padded_branch_key(r[0], rank, bot, g.n) for r in records)
        for pairs, var_fired, val_fired in records:
            if _padded_branch_key(pairs, rank, bot, g.n) == smallest and (var_fired or val_fired):
                violations += 1
    return violations, len(members)


def test_criterion_07_minimal_branch_preserved(corpus):
    small = [p for p in corpus if p.g.n <= 6 and p.h.n <= 6][:100]
    violations = classes = 0
    for pair in small:
        bad, total = _minimal_branch_violations(pair.g, pair.h)
        violations += bad
        classes += total
    _report(
        7,
        "minimal branch survives pruning",
        violations == 0,
        f"{len(small)} instances, {classes} swap classes, {violations} violations",
    )


def test_criterion_08_detection_scaling():
    # At these sizes the O(n) Python term of the bitset-row grouping still
    # weighs against its O(n^2) digit work, so a doubling may cost as little
    # as 2x: only the quadratic ceiling is checked. The calls are timed in
    # this process's CPU seconds, which other processes cannot inflate.
    times = {}
    graphs = {}
    start = time.perf_counter()
    for n in (512, 1024, 2048):
        g = graphs[n] = random_graph(random.Random(900 + n), n, 0.5)
        best = float("inf")
        for _ in range(3):
            t0 = time.process_time()
            compute_symmetry_classes(g)
            best = min(best, time.process_time() - t0)
        times[n] = best
    total = time.perf_counter() - start
    first = times[1024] / times[512]
    second = times[2048] / times[1024]
    # checked outside the timed calls: the tuple keys cost O(n^2) Python steps
    same = []
    for n, g in graphs.items():
        c = compute_symmetry_classes(g)
        if (c.class_id, c.class_members, c.class_kind) == reference_classes(g):
            same.append(n)
    ok = first <= 6.0 and second <= 6.0 and total < 60.0 and len(same) == len(graphs)
    _report(
        8,
        "detection scaling per doubling",
        ok,
        f"factors {first:.2f} and {second:.2f}, {total:.1f}s, "
        f"classes equal to the tuple-key grouping at n = {same}",
    )


def test_criterion_09_reference_instance():
    g = graph_g()
    h = graph_h(named=True)
    sol = solve(g, h, SolverConfig("dual"))
    got_g = compute_symmetry_classes(g).nontrivial()
    got_h = [
        (kind, tuple(h.names[v] for v in members))
        for kind, members in compute_symmetry_classes(h).nontrivial()
    ]
    want_h = [(kind, tuple("abcdefghij"[v] for v in members)) for kind, members in H_CLASSES]
    ok = (
        sol.stats.completed
        and sol.stats.incumbent_size == OPTIMUM
        and got_g == G_CLASSES
        and got_h == want_h
    )
    _report(
        9,
        "reference instance regression",
        ok,
        f"size {sol.stats.incumbent_size} (want {OPTIMUM}), "
        f"classes {got_g} / {got_h}",
    )


def test_criterion_10_deterministic_rerun(corpus, corpus_runs):
    runs, _ = corpus_runs
    rerun = run_corpus(corpus)
    same = runs == rerun
    differing = sum(1 for k in runs if runs[k] != rerun.get(k))
    _report(
        10,
        "bit-identical rerun",
        same,
        f"{len(runs)} (instance, config) stat tuples, {differing} differ",
    )
