"""Graph representation and file formats for the common-subgraph tools.

Vertices are dense integers ``0..n-1``. Adjacency is stored as one bitset
row per vertex (arbitrary-width Python ints), so adjacency tests are single
shift-and-mask operations and the solver can filter candidate sets without
building intermediate containers. Self-loops live in a separate per-vertex
flag and never appear in an adjacency row; directed graphs keep separate
out- and in-rows.

Two text formats are supported:

* LAD: first line holds the vertex count, then one line per vertex with a
  neighbor count followed by that many 0-based neighbor indices. Always
  undirected; repeated or one-sided mentions of the same edge collapse.
* Edge list: header line ``n m``, then ``m`` lines ``a b``. Vertex tokens
  are either all numeric ids or all symbolic names; names are interned to
  dense ids in order of first appearance and kept for display.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class GraphParseError(ValueError):
    """Raised for malformed graph files; the message names the input line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Immutable-by-convention graph over vertices ``0..n-1``.

    ``out_bits[v]`` has bit ``w`` set iff there is an edge v->w (for
    undirected graphs the rows are symmetric and ``in_bits`` aliases
    ``out_bits``). ``loops[v]`` records a self-loop at ``v``; loops are
    never present in the bit rows.
    """

    __slots__ = ("n", "directed", "out_bits", "in_bits", "loops", "names")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        directed: bool = False,
        names: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if names is not None and len(names) != n:
            raise ValueError("name table length must equal vertex count")
        self.n = n
        self.directed = directed
        out = [0] * n
        inn = [0] * n if directed else out
        loops = [False] * n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                loops[a] = True
                continue
            out[a] |= 1 << b
            # undirected: inn is out, so this also stores b->a
            inn[b] |= 1 << a
        self.out_bits = out
        self.in_bits = inn
        self.loops = loops
        self.names = list(names) if names is not None else None

    # -- basic queries ----------------------------------------------------

    def has_edge(self, a: int, b: int) -> bool:
        """Edge test; ``has_edge(v, v)`` reports the self-loop flag."""
        if a == b:
            return self.loops[a]
        return (self.out_bits[a] >> b) & 1 == 1

    def neighbors(self, v: int) -> list[int]:
        """Out-neighbors of v in ascending order (loops excluded)."""
        return _bits_to_list(self.out_bits[v])

    def in_neighbors(self, v: int) -> list[int]:
        return _bits_to_list(self.in_bits[v])

    def degree(self, v: int) -> int:
        """Neighbor count; for directed graphs, in-degree plus out-degree."""
        d = self.out_bits[v].bit_count()
        if self.directed:
            d += self.in_bits[v].bit_count()
        return d

    @property
    def has_loops(self) -> bool:
        return any(self.loops)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list in canonical order: loops as (v, v), undirected once."""
        out = []
        for v in range(self.n):
            for w in self.neighbors(v):
                if self.directed or v < w:
                    out.append((v, w))
            if self.loops[v]:
                out.append((v, v))
        out.sort()
        return out

    def display_name(self, v: int) -> str:
        return self.names[v] if self.names is not None else str(v)

    def __eq__(self, other: object) -> bool:
        # structural equality; display names are metadata and not compared
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and self.out_bits == other.out_bits
            and self.in_bits == other.in_bits
            and self.loops == other.loops
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={len(self.edges())}, {kind})"


def _bits_to_list(bits: int) -> list[int]:
    """Positions of the set bits in ascending order, one step per set bit."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


# -- parsing ---------------------------------------------------------------


def _split_lines(text: str) -> list[tuple[int, list[str]]]:
    """Non-blank lines as (1-based line number, tokens)."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if toks:
            out.append((i, toks))
    return out


def parse_lad(text: str) -> Graph:
    """Parse the LAD adjacency-list format into an undirected Graph."""
    lines = _split_lines(text)
    if not lines:
        raise GraphParseError(1, "empty input, expected a vertex count")
    ln, toks = lines[0]
    if len(toks) != 1:
        raise GraphParseError(ln, "expected a single vertex-count token")
    try:
        n = int(toks[0])
    except ValueError:
        raise GraphParseError(ln, f"vertex count is not an integer: {toks[0]!r}") from None
    if n < 0:
        raise GraphParseError(ln, "vertex count must be non-negative")
    if len(lines) - 1 < n:
        raise GraphParseError(
            lines[-1][0], f"truncated input: expected {n} adjacency rows, found {len(lines) - 1}"
        )
    if len(lines) - 1 > n:
        raise GraphParseError(lines[n + 1][0], f"unexpected extra row, expected {n} adjacency rows")

    edges = []
    for v in range(n):
        ln, toks = lines[v + 1]
        try:
            row = [int(t) for t in toks]
        except ValueError:
            raise GraphParseError(ln, f"non-integer token in adjacency row {v}") from None
        if row[0] != len(row) - 1:
            raise GraphParseError(
                ln, f"row {v} declares {row[0]} neighbors but lists {len(row) - 1}"
            )
        for w in row[1:]:
            if not 0 <= w < n:
                raise GraphParseError(ln, f"neighbor index {w} out of range for n={n}")
            edges.append((v, w))
    return Graph(n, edges)


def parse_edgelist(text: str, directed: bool = False, allow_loops: bool = False) -> Graph:
    """Parse ``n m`` header plus ``m`` edge lines into a Graph.

    Vertex tokens must be either all numeric (interpreted as ids below n)
    or all symbolic names, which are interned in order of first appearance.
    A line ``a a`` is only accepted when ``allow_loops`` is set.
    """
    lines = _split_lines(text)
    if not lines:
        raise GraphParseError(1, "empty input, expected an 'n m' header")
    ln, toks = lines[0]
    if len(toks) != 2:
        raise GraphParseError(ln, "expected header with exactly two tokens: n m")
    try:
        n, m = int(toks[0]), int(toks[1])
    except ValueError:
        raise GraphParseError(ln, "header tokens must be integers") from None
    if n < 0 or m < 0:
        raise GraphParseError(ln, "header counts must be non-negative")
    if len(lines) - 1 != m:
        raise GraphParseError(
            lines[-1][0] if len(lines) > 1 else ln,
            f"expected {m} edge lines, found {len(lines) - 1}",
        )

    numeric: bool | None = None
    names: dict[str, int] = {}

    def vertex(tok: str, ln: int) -> int:
        nonlocal numeric
        is_num = tok.lstrip("-").isdigit()
        if numeric is None:
            numeric = is_num
        elif numeric != is_num:
            raise GraphParseError(ln, "cannot mix numeric ids and symbolic names")
        if is_num:
            try:
                v = int(tok)
            except ValueError:
                raise GraphParseError(ln, f"vertex id {tok!r} is not an integer") from None
            if not 0 <= v < n:
                raise GraphParseError(ln, f"vertex id {v} out of range for n={n}")
            return v
        if tok not in names:
            if len(names) == n:
                raise GraphParseError(ln, f"more than {n} distinct vertex names")
            names[tok] = len(names)
        return names[tok]

    edges = []
    for ln, toks in lines[1:]:
        if len(toks) != 2:
            raise GraphParseError(ln, "expected exactly two vertex tokens")
        a = vertex(toks[0], ln)
        b = vertex(toks[1], ln)
        if a == b and not allow_loops:
            raise GraphParseError(ln, f"self-loop {toks[0]!r} not allowed here")
        edges.append((a, b))

    name_table = None
    if names:
        name_table = [""] * n
        for tok, v in names.items():
            name_table[v] = tok
        for v in range(n):
            if not name_table[v]:
                name_table[v] = str(v)
    return Graph(n, edges, directed=directed, names=name_table)


# -- serialization (mirrors the parsers) ------------------------------------


def to_lad(g: Graph) -> str:
    """Serialize an undirected graph to LAD text; parse_lad round-trips it."""
    if g.directed:
        raise ValueError("LAD format is undirected only")
    rows = [str(g.n)]
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if g.loops[v]:
            nbrs = sorted(nbrs + [v])
        rows.append(" ".join([str(len(nbrs))] + [str(w) for w in nbrs]))
    return "\n".join(rows) + "\n"


def to_edgelist(g: Graph) -> str:
    """Serialize to edge-list text; parse_edgelist round-trips it.

    Always emits numeric ids: symbolic names cannot in general be re-interned
    to the same ids, so they are treated as display metadata only.
    """
    edges = g.edges()
    rows = [f"{g.n} {len(edges)}"]
    rows.extend(f"{a} {b}" for a, b in edges)
    return "\n".join(rows) + "\n"


# -- derived graphs and mapping checks ---------------------------------------


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabelled 0.. in ascending order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(vs)}
    edges = []
    for v in vs:
        if g.loops[v]:
            edges.append((index[v], index[v]))
        for w in g.neighbors(v):
            if w in index and (g.directed or v < w):
                edges.append((index[v], index[w]))
    names = [g.display_name(v) for v in vs] if g.names is not None else None
    return Graph(len(vs), edges, directed=g.directed, names=names)


def is_isomorphism(g: Graph, h: Graph, mapping: Sequence[tuple[int, int | None]]) -> bool:
    """True iff the non-bottom pairs of ``mapping`` induce isomorphic subgraphs.

    Checks every vertex pair both ways for directed graphs, and requires
    matched vertices to agree on their self-loop flag and to be matched at
    most once per side. ``None`` values mark vertices deliberately left
    unmatched and are ignored.
    """
    pairs = [(v, u) for v, u in mapping if u is not None]
    if len({v for v, _ in pairs}) < len(pairs) or len({u for _, u in pairs}) < len(pairs):
        return False
    for v, u in pairs:
        if g.loops[v] != h.loops[u]:
            return False
    for i in range(len(pairs)):
        v1, u1 = pairs[i]
        for j in range(i + 1, len(pairs)):
            v2, u2 = pairs[j]
            if g.has_edge(v1, v2) != h.has_edge(u1, u2):
                return False
            if g.directed and g.has_edge(v2, v1) != h.has_edge(u2, u1):
                return False
    return True
