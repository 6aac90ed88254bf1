"""Reference search and instrumented tree walks built on the public ops.

``reference_solve`` repeats every decision of the production engine using
the plain-list partition functions; differential tests hold the two to
identical counters. ``enumerate_tree`` walks the complete unpruned search
tree of tiny instances, reporting each node's bound and each terminal
branch together with whether either pruning rule would have fired on it.
``reference_classes`` groups vertices by the definitional tuple keys, the
oracle for the bitset-row grouping of ``compute_symmetry_classes``.
"""

from __future__ import annotations

from mcis import (
    Bidomain,
    compute_symmetry_classes,
    initial_partition,
    negative_neighborhood,
    order_values,
    positive_neighborhood,
    refine_partition,
    select_bidomain,
    select_vertex,
    upper_bound,
    val_sym_prunable,
    value_order_ranks,
    var_sym_prunable,
)


def _without(partition, i, v, u):
    """Copy of the partition with v and u dropped from bidomain i."""
    out = []
    for j, bd in enumerate(partition):
        if j == i:
            out.append(Bidomain([w for w in bd.gs if w != v], [y for y in bd.hs if y != u]))
        else:
            out.append(bd)
    return out


def reference_solve(g, h, config):
    """Same search as mcis.solve, on plain list bidomains. Returns (mapping, stats)."""
    classes_g = compute_symmetry_classes(g)
    classes_h = compute_symmetry_classes(h)
    rank = value_order_ranks(h, classes_h)
    stats = {"branches": 0, "bound_prunes": 0, "var_sym_prunes": 0, "val_sym_prunes": 0,
             "incumbent_size": 0, "branches_to_best": 0}
    best_mapping: list[tuple[int, int]] = []
    mapping: list[tuple[int, int | None]] = []

    def search(partition):
        nonlocal best_mapping
        stats["branches"] += 1
        matched = sum(1 for _, u in mapping if u is not None)
        if matched > stats["incumbent_size"]:
            stats["incumbent_size"] = matched
            stats["branches_to_best"] = stats["branches"]
            best_mapping = [(v, u) for v, u in mapping if u is not None]
        if upper_bound(mapping, partition) <= stats["incumbent_size"]:
            stats["bound_prunes"] += 1
            return
        i = select_bidomain(partition)
        bd = partition[i]
        v = select_vertex(bd, g)
        for u in order_values(bd, h, classes_h):
            if config.var_sym and var_sym_prunable(mapping, v, u, classes_g, rank):
                stats["var_sym_prunes"] += 1
                continue
            if config.val_sym and val_sym_prunable(bd, u, classes_h):
                stats["val_sym_prunes"] += 1
                continue
            children = refine_partition(_without(partition, i, v, u), v, u, g, h)
            mapping.append((v, u))
            search(children)
            mapping.pop()
        rest = _without(partition, i, v, None)
        if not rest[i].gs:
            rest.pop(i)
        mapping.append((v, None))
        search(rest)
        mapping.pop()

    search(initial_partition(g, h))
    return best_mapping, stats


def enumerate_tree(g, h, on_node=None, collect_branches=None):
    """Walk the complete (unpruned) search tree.

    ``on_node(mapping, ub, parent_ub, subtree_best)`` is called once per node
    after its subtree finished, where ``subtree_best`` is the largest full
    mapping reachable from the node. When ``collect_branches`` is a list,
    every terminal branch appends a record ``(pairs, var_fired, val_fired)``
    where the booleans say whether the corresponding rule would have skipped
    any step of the branch. Returns the largest full-mapping size overall.
    """
    classes_g = compute_symmetry_classes(g)
    classes_h = compute_symmetry_classes(h)
    rank = value_order_ranks(h, classes_h)
    mapping: list[tuple[int, int | None]] = []

    def walk(partition, parent_ub, var_fired, val_fired):
        ub = upper_bound(mapping, partition)
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
    else a singleton; ids follow each class's smallest member.
    """
    neg_keys = [negative_neighborhood(g, v) for v in range(g.n)]
    pos_keys = [positive_neighborhood(g, v) for v in range(g.n)]
    neg_groups, pos_groups = {}, {}
    for v in range(g.n):
        neg_groups.setdefault(neg_keys[v], []).append(v)
        pos_groups.setdefault(pos_keys[v], []).append(v)
    class_id = [-1] * g.n
    class_members, class_kind = {}, {}
    for v in range(g.n):
        if class_id[v] != -1:
            continue
        if len(neg_groups[neg_keys[v]]) > 1:
            group, kind = neg_groups[neg_keys[v]], "negative"
        elif len(pos_groups[pos_keys[v]]) > 1:
            group, kind = pos_groups[pos_keys[v]], "positive"
        else:
            group, kind = [v], "singleton"
        cid = len(class_members)
        for w in group:
            class_id[w] = cid
        class_members[cid] = tuple(group)
        class_kind[cid] = kind
    return class_id, class_members, class_kind
