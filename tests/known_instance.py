"""A frozen 10+10 instance with known optimum and symmetry structure.

The pair is small enough for the brute-force reference yet rich enough to
exercise both pruning rules at once: G carries two non-trivial negative
classes, H one positive class. Every constant below was computed once with
the oracle and the class detector, then pinned.
"""

from mcis import Graph

G_EDGES = [
    (0, 1), (0, 4), (0, 5), (0, 7), (0, 9),
    (1, 2), (1, 3),
    (2, 3), (2, 4), (2, 5),
    (3, 6), (3, 8),
    (6, 7), (6, 9),
]

H_EDGES = [
    (0, 1), (0, 2), (0, 5), (0, 7), (0, 8),
    (1, 3), (1, 4), (1, 5), (1, 6),
    (2, 3), (2, 4),
    (3, 4), (3, 6),
    (4, 6),
    (6, 9),
    (8, 9),
]

# H is traditionally drawn with letter labels; they map a=0, b=1, ... j=9
H_NAMES = list("abcdefghij")

OPTIMUM = 7

# one maximum mapping, witness-checked against the oracle's full list
WITNESS = [(0, 0), (1, 1), (2, 3), (3, 6), (4, 2), (6, 9), (7, 8)]

# the only non-trivial interchangeability classes on each side
G_CLASSES = [("negative", (4, 5)), ("negative", (7, 9))]
H_CLASSES = [("positive", (3, 4))]

# branch counts of the fixed deterministic search, one per rule configuration
BRANCHES = {"none": 84, "var": 83, "val": 66, "dual": 65}


def graph_g() -> Graph:
    return Graph(10, G_EDGES)


def graph_h(named: bool = False) -> Graph:
    return Graph(10, H_EDGES, names=H_NAMES if named else None)
