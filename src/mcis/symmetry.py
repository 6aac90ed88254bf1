"""Detection of interchangeable vertices.

Two distinct vertices are interchangeable exactly when swapping them is an
automorphism of the graph. That holds in precisely two situations:

* negative: they have identical open neighborhoods (such vertices are
  necessarily non-adjacent), or
* positive: they have identical closed neighborhoods (necessarily adjacent).

No vertex can sit in a non-trivial class of both kinds at once, so grouping
vertices by their open-neighborhood key and, separately, by their
closed-neighborhood key yields a single well-defined partition into classes.

Detection groups vertices on int triples taken straight from the bitset
rows: ``(out_bits[v], in_bits[v], loops[v])`` for the open neighborhood and
``(out_bits[v] | 1 << v, in_bits[v] | 1 << v, loops[v])`` for the closed one.
Two vertices have equal triples exactly when their canonical tuple keys
(sorted neighbor ids, with a sentinel for a self-loop) are equal, so the
partition is the same. Those tuple keys are the readable definition. They
live in ``tests/reference.py``, beside a direct check that swapping two
vertices maps the edge set onto itself, as the oracles the tests hold this
grouping to. The cost is O(n) Python steps plus hashing and comparing n-bit ints:
about n^2 / 30 big-int digit operations in all (CPython stores 30 bits per
digit), whatever the edge count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

NEGATIVE = "negative"
POSITIVE = "positive"
SINGLETON = "singleton"


@dataclass(frozen=True)
class SymmetryClasses:
    """Partition of the vertices into interchangeability classes.

    ``class_id[v]`` is the class of vertex v; ids are dense and assigned in
    order of each class's smallest member, which keeps downstream orderings
    deterministic. ``class_members`` and ``class_kind`` describe each class.
    """

    n: int
    class_id: list[int]
    class_members: dict[int, tuple[int, ...]]
    class_kind: dict[int, str]

    def kind_of(self, v: int) -> str:
        return self.class_kind[self.class_id[v]]

    def peers(self, v: int) -> tuple[int, ...]:
        return self.class_members[self.class_id[v]]

    def nontrivial(self) -> list[tuple[str, tuple[int, ...]]]:
        """(kind, members) for every class of size >= 2, in id order."""
        return [
            (self.class_kind[c], self.class_members[c])
            for c in sorted(self.class_members)
            if len(self.class_members[c]) > 1
        ]


def compute_symmetry_classes(g: Graph) -> SymmetryClasses:
    """Group vertices by their open and closed neighborhood rows.

    Dict lookup performs the hash-bucket-then-exact-compare step, so the
    result never depends on hash injectivity.
    """
    neg_groups: dict[tuple[int, int, bool], list[int]] = {}
    pos_groups: dict[tuple[int, int, bool], list[int]] = {}
    neg_keys = []
    pos_keys = []
    for v, (out, inn, loop) in enumerate(zip(g.out_bits, g.in_bits, g.loops)):
        bit = 1 << v
        nk = (out, inn, loop)
        pk = (out | bit, inn | bit, loop)
        neg_keys.append(nk)
        pos_keys.append(pk)
        neg_groups.setdefault(nk, []).append(v)
        pos_groups.setdefault(pk, []).append(v)

    class_id = [-1] * g.n
    class_members: dict[int, tuple[int, ...]] = {}
    class_kind: dict[int, str] = {}
    next_id = 0
    for v in range(g.n):
        if class_id[v] != -1:
            continue
        group = neg_groups[neg_keys[v]]
        kind = NEGATIVE
        if len(group) < 2:
            group = pos_groups[pos_keys[v]]
            kind = POSITIVE
        if len(group) < 2:
            group = [v]
            kind = SINGLETON
        # a vertex can belong to at most one non-trivial class; anything else
        # would make the assignment below ambiguous
        assert all(class_id[w] == -1 for w in group), "overlapping symmetry classes"
        for w in group:
            class_id[w] = next_id
        class_members[next_id] = tuple(group)
        class_kind[next_id] = kind
        next_id += 1
    return SymmetryClasses(g.n, class_id, class_members, class_kind)


def are_symmetric(classes: SymmetryClasses, u: int, v: int) -> bool:
    """O(1) interchangeability test; false for u == v and for singletons."""
    if u == v:
        return False
    return classes.class_id[u] == classes.class_id[v]
