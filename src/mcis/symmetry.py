"""Detection of interchangeable vertices.

Two distinct vertices are interchangeable exactly when swapping them is an
automorphism of the graph. That holds in precisely two situations:

* negative: they have identical open neighborhoods (such vertices are
  necessarily non-adjacent), or
* positive: they have identical closed neighborhoods (necessarily adjacent).

No vertex can sit in a non-trivial class of both kinds at once, so grouping
vertices by their open-neighborhood key and, separately, by their
closed-neighborhood key yields a single well-defined partition into classes.

Detection groups vertices on int tuples taken straight from the bitset
rows: ``(out_bits[v], in_bits[v], loops[v])`` for the open neighborhood and
``(out_bits[v] | 1 << v, in_bits[v] | 1 << v, loops[v])`` for the closed one.
An undirected graph's ``in_bits`` is its ``out_bits``, so its keys leave
it out. Two vertices have equal keys exactly when their canonical tuple
keys (sorted neighbor ids, with a sentinel for a self-loop) are equal, so
the partition is the same. Those tuple keys are the readable definition.
They live in ``tests/reference.py``, beside a direct check that swapping
two vertices maps the edge set onto itself, as the oracles the tests hold
this grouping to.

Each key kind is grouped in one ``map`` of ``dict.setdefault`` over the
keys, which hands each vertex the first vertex with its key. The only
Python step per vertex is the closed rows' ``row | 1 << v``; every other
one is per twin. A singleton class appears only in ``class_id``: the
member and kind tables hold just the classes of two or more vertices.
Hashing and comparing the n-bit rows still takes about n^2 / 30 big-int
digit operations (CPython stores 30 bits per digit), whatever the edge
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import eq, ne

from .graph import Graph

NEGATIVE = "negative"
POSITIVE = "positive"


@dataclass(frozen=True)
class SymmetryClasses:
    """Partition of the vertices into interchangeability classes.

    ``class_id[v]`` is the class of vertex v; ids are dense and assigned in
    order of each class's smallest member, which keeps downstream orderings
    deterministic. ``class_members`` and ``class_kind`` describe the
    classes of two or more vertices, keyed by id in ascending order; a
    singleton class appears only in ``class_id``.
    """

    n: int
    class_id: list[int]
    class_members: dict[int, tuple[int, ...]]
    class_kind: dict[int, str]

    def nontrivial(self) -> list[tuple[str, tuple[int, ...]]]:
        """(kind, members) for every class of size >= 2, in id order."""
        return [(self.class_kind[c], members) for c, members in self.class_members.items()]


def compute_symmetry_classes(g: Graph) -> SymmetryClasses:
    """Group vertices by their open and closed neighborhood rows.

    A vertex whose key first appeared at another vertex is that vertex's
    twin. Dict lookup performs the hash-bucket-then-exact-compare step, so
    the result never depends on hash injectivity.
    """
    n = g.n
    # an undirected graph's in_bits is its out_bits, so it is left out
    rows = (g.out_bits, g.in_bits) if g.directed else (g.out_bits,)
    # the smallest member of each vertex's class
    rep = list(range(n))
    # smallest member -> (kind, members) of each non-trivial class
    groups: dict[int, tuple[str, list[int]]] = {}
    for kind in (NEGATIVE, POSITIVE):
        if kind == POSITIVE:
            rows = [[row | 1 << v for v, row in enumerate(side)] for side in rows]
        first_of: dict = {}
        earliest = list(map(first_of.setdefault, zip(*rows, g.loops), range(n)))
        if len(first_of) == n:
            continue
        for v in compress(range(n), map(ne, earliest, range(n))):
            r = earliest[v]
            # a vertex can belong to at most one non-trivial class; anything
            # else would make the assignment ambiguous
            assert rep[v] == v and rep[r] == r and v not in groups, "overlapping symmetry classes"
            rep[v] = r
            if r in groups:
                assert groups[r][0] == kind, "overlapping symmetry classes"
                groups[r][1].append(v)
            else:
                groups[r] = (kind, [r, v])

    if not groups:
        return SymmetryClasses(n, rep, {}, {})
    # ids in order of smallest member: the vertices that are their own rep
    index = dict(zip(compress(range(n), map(eq, rep, range(n))), count()))
    class_members = {}
    class_kind = {}
    # negative classes were found first; sorting the reps keeps ids ascending
    for r in sorted(groups):
        kind, members = groups[r]
        class_members[index[r]] = tuple(members)
        class_kind[index[r]] = kind
    return SymmetryClasses(n, list(map(index.__getitem__, rep)), class_members, class_kind)
