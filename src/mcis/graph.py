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
  dense ids in order of first appearance and kept for display. A numeric
  id is digits after any leading minus signs, so ``+3`` and ``1_000`` are
  names, though int() reads them as numbers.

The parsers build the rows themselves and hand them to ``Graph``. A body
is read in whole-list steps: one ``map`` turns every token into an id, and
min(), max() and one comparison per line check it. Each edge then costs
one big-int OR per row it sets, and loop flags are read off the rows'
diagonal bits. So a parse is a few C-level passes over the tokens plus
O(m) Python steps, each an OR on an n-bit row. Only when a bulk check
fails is the body scanned line by line, to name the first bad line.

``is_isomorphism`` checks a mapping of k pairs on the rows as well: one
out-row per matched pair, masked to the matched set and relabelled through
the mapping, so O(k + induced edges) Python steps, not O(k^2) edge tests.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import and_, eq, itemgetter, sub
from typing import Iterable, Sequence


class GraphParseError(ValueError):
    """Raised for malformed graph files; the message names the input line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


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
        rows: tuple[list[int], list[int], list[bool]] | None = None,
    ):
        """A graph from its edges, or from ``rows``: the ``(out_bits,
        in_bits, loops)`` lists the parsers build, taken as they are (an
        undirected graph's in_bits is its out_bits list)."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if names is not None and len(names) != n:
            raise ValueError("name table length must equal vertex count")
        self.n = n
        self.directed = directed
        self.names = list(names) if names is not None else None
        if rows is None:
            edges = list(edges)
            for a, b in edges:
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
            rows = _rows(n, edges, directed)
        self.out_bits, self.in_bits, self.loops = rows

    # -- basic queries ----------------------------------------------------

    def has_edge(self, a: int, b: int) -> bool:
        """Edge test; ``has_edge(v, v)`` reports the self-loop flag."""
        if a == b:
            return self.loops[a]
        return (self.out_bits[a] >> b) & 1 == 1

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
        m = sum(map(int.bit_count, self.out_bits))
        if not self.directed:
            m //= 2  # an undirected edge sets a bit in both rows
        # loops sit in no row
        return f"Graph(n={self.n}, m={m + sum(self.loops)}, {kind})"


def _relabel_row(row: int, new_id: Sequence[int] | dict[int, int]) -> int:
    """One adjacency row with every set bit w moved to new_id[w]."""
    out = 0
    while row:
        low = row & -row
        out |= 1 << new_id[low.bit_length() - 1]
        row ^= low
    return out


# -- parsing ---------------------------------------------------------------


def _split_lines(text: str) -> tuple[list[list[str]], list[int]]:
    """Tokens of the non-blank lines, and each one's 1-based line number."""
    split = list(map(str.split, text.splitlines()))
    return list(filter(None, split)), list(compress(range(1, len(split) + 1), split))


def _rows(n: int, arcs: Iterable[tuple[int, int]], directed: bool):
    """``(out_bits, in_bits, loops)`` of the arcs ``(a, b)``, each a -> b.

    Every id must lie in ``0..n-1``. Undirected rows get both directions,
    so a repeated or reversed pair gives the same edge. A pair ``(v, v)``
    sets v's diagonal bit, which becomes its loop flag and is cleared. The
    table of powers of two holds about as many bits as the rows do, and is
    freed before symmetry detection doubles them.
    """
    bits = [1 << v for v in range(n)]
    out = [0] * n
    inn = [0] * n if directed else out
    for a, b in arcs:
        out[a] |= bits[b]
        # undirected: inn is out, so this also stores b->a
        inn[b] |= bits[a]
    loops = list(map(bool, map(and_, out, bits)))
    for v in compress(range(n), loops):
        out[v] ^= bits[v]
        if directed:
            inn[v] ^= bits[v]
    return out, inn, loops


def parse_lad(text: str) -> Graph:
    """Parse the LAD adjacency-list format into an undirected Graph.

    Each mention of w in row v is an edge ``(v, w)``, so a one-sided or
    repeated mention gives the same edge. A row that mentions its own
    vertex gives it a self-loop; LAD takes no option for that, unlike
    :func:`parse_edgelist`, so the command line's ``--loops`` governs
    edge lists only.
    """
    n, owners, nbrs = _read_lad(text)
    return Graph(n, rows=_rows(n, zip(owners, nbrs), False))


def _read_lad(text: str) -> tuple[int, list[int], list[int]]:
    """The vertex count, and each mention as its row's index and its own.

    The rows are read in bulk: one ``map(int, ...)`` over the count tokens
    and one over the rest, a comparison of each row's count with its
    length, and min() and max() over the mentions. When a bulk check fails,
    :func:`_lad_error` scans the rows in order to name the first bad one.
    The tokens are freed on return, before the rows are built.
    """
    lines, line_no = _split_lines(text)
    if not lines:
        raise GraphParseError(1, "empty input, expected a vertex count")
    if len(lines[0]) != 1:
        raise GraphParseError(line_no[0], "expected a single vertex-count token")
    try:
        n = int(lines[0][0])
    except ValueError:
        raise GraphParseError(line_no[0], f"vertex count is not an integer: {lines[0][0]!r}") from None
    if n < 0:
        raise GraphParseError(line_no[0], "vertex count must be non-negative")
    if len(lines) - 1 < n:
        raise GraphParseError(
            line_no[-1], f"truncated input: expected {n} adjacency rows, found {len(lines) - 1}"
        )
    if len(lines) - 1 > n:
        raise GraphParseError(line_no[n + 1], f"unexpected extra row, expected {n} adjacency rows")

    body = lines[1:]
    try:
        counts = list(map(int, map(itemgetter(0), body)))
        nbrs = list(map(int, chain.from_iterable(map(itemgetter(slice(1, None)), body))))
    except ValueError:
        raise _lad_error(body, line_no[1:], n) from None
    # each row's length is one more than its count token
    if set(map(sub, map(len, body), counts)) - {1} or nbrs and not 0 <= min(nbrs) <= max(nbrs) < n:
        raise _lad_error(body, line_no[1:], n)
    return n, list(chain.from_iterable(map(repeat, range(n), counts))), nbrs


def _lad_error(body: list[list[str]], line_no: list[int], n: int) -> GraphParseError:
    """The error of the first bad LAD row, checked token by token.

    :func:`_read_lad` calls this only once a bulk check has failed, to name
    the line; these are the per-row rules those checks stand for.
    """
    for v, (toks, ln) in enumerate(zip(body, line_no)):
        try:
            row = [int(t) for t in toks]
        except ValueError:
            return GraphParseError(ln, f"non-integer token in adjacency row {v}")
        if row[0] != len(row) - 1:
            return GraphParseError(ln, f"row {v} declares {row[0]} neighbors but lists {len(row) - 1}")
        for w in row[1:]:
            if not 0 <= w < n:
                return GraphParseError(ln, f"neighbor index {w} out of range for n={n}")
    raise AssertionError("no adjacency row holds an error")


def parse_edgelist(text: str, directed: bool = False, allow_loops: bool = False) -> Graph:
    """Parse ``n m`` header plus ``m`` edge lines into a Graph.

    Vertex tokens must be either all numeric (interpreted as ids below n)
    or all symbolic names, which are interned in order of first appearance.
    A line ``a a`` is only accepted when ``allow_loops`` is set.
    """
    n, ids, names = _read_edgelist(text, allow_loops)
    if names is not None:
        names += map(str, range(len(names), n))
    return Graph(n, directed=directed, names=names, rows=_rows(n, zip(ids[0::2], ids[1::2]), directed))


def _read_edgelist(text: str, allow_loops: bool) -> tuple[int, list[int], list[str] | None]:
    """The vertex count, the ids of the edge lines' tokens in order, and
    the interned names (None for numeric ids).

    The body is read in bulk: the first token fixes the kind, every token
    becomes an id in one ``map`` (int() for numeric ids, a dict of the
    distinct names otherwise), and min() and max() check the ids' range.
    When a bulk check fails, :func:`_edgelist_error` scans the lines in
    order to name the first bad one. The tokens are freed on return, before
    the rows are built.
    """
    lines, line_no = _split_lines(text)
    if not lines:
        raise GraphParseError(1, "empty input, expected an 'n m' header")
    if len(lines[0]) != 2:
        raise GraphParseError(line_no[0], "expected header with exactly two tokens: n m")
    try:
        n, m = int(lines[0][0]), int(lines[0][1])
    except ValueError:
        raise GraphParseError(line_no[0], "header tokens must be integers") from None
    if n < 0 or m < 0:
        raise GraphParseError(line_no[0], "header counts must be non-negative")
    if len(lines) - 1 != m:
        raise GraphParseError(line_no[-1], f"expected {m} edge lines, found {len(lines) - 1}")

    body = lines[1:]
    names = None
    if not body or _is_id(body[0][0]):
        as_id = int
        # int() also takes these, but they make a token a name
        joined = "".join(chain.from_iterable(body))
        ok = "+" not in joined and "_" not in joined
    else:
        names = list(dict.fromkeys(chain.from_iterable(body)))
        as_id = dict(zip(names, range(len(names)))).__getitem__
        ok = not any(map(_is_id, names))
    try:
        ids = list(map(as_id, chain.from_iterable(body))) if ok else None
    except ValueError:
        ids = None
    if (
        ids is None
        or set(map(len, body)) - {2}
        or ids and not 0 <= min(ids) <= max(ids) < n
        or not allow_loops and any(map(eq, ids[0::2], ids[1::2]))
    ):
        raise _edgelist_error(body, line_no[1:], n, allow_loops)
    return n, ids, names


def _is_id(tok: str) -> bool:
    """Whether an edge-list token is a numeric id: digits after any leading
    minus signs. int() also takes ``+3`` and ``1_000``; here they are names."""
    return tok.lstrip("-").isdigit()


def _edgelist_error(
    body: list[list[str]], line_no: list[int], n: int, allow_loops: bool
) -> GraphParseError:
    """The error of the first bad edge line, checked token by token.

    :func:`_read_edgelist` calls this only once a bulk check has failed, to
    name the line; these are the per-token rules those checks stand for.
    """
    numeric = _is_id(body[0][0])
    names: set[str] = set()
    for toks, ln in zip(body, line_no):
        if len(toks) != 2:
            return GraphParseError(ln, "expected exactly two vertex tokens")
        ids = []
        for tok in toks:
            if _is_id(tok) != numeric:
                return GraphParseError(ln, "cannot mix numeric ids and symbolic names")
            if numeric:
                try:
                    v = int(tok)
                except ValueError:
                    return GraphParseError(ln, f"vertex id {tok!r} is not an integer")
                if not 0 <= v < n:
                    return GraphParseError(ln, f"vertex id {v} out of range for n={n}")
                ids.append(v)
            else:
                if tok not in names and len(names) == n:
                    return GraphParseError(ln, f"more than {n} distinct vertex names")
                names.add(tok)
                ids.append(tok)
        if ids[0] == ids[1] and not allow_loops:
            return GraphParseError(ln, f"self-loop {toks[0]!r} not allowed here")
    raise AssertionError("no edge line holds an error")


# -- mapping checks -----------------------------------------------------------


def is_isomorphism(g: Graph, h: Graph, mapping: Sequence[tuple[int, int | None]]) -> bool:
    """True iff the non-bottom pairs of ``mapping`` induce isomorphic subgraphs.

    Requires every vertex a pair names, matched or not, to lie in
    ``0..n-1`` of its graph, matched vertices to agree on their self-loop
    flag and to be matched at most once per side, and each matched
    G-vertex's out-row, masked to the matched set and relabelled through
    the mapping, to equal its partner's masked out-row. Every arc is some
    vertex's out-arc, so this covers both directions of a directed graph.
    Raises ``ValueError`` when g and h differ in directedness, as ``solve``
    does. ``None`` values mark vertices deliberately left unmatched; past
    the range check they are ignored.
    """
    if g.directed != h.directed:
        raise ValueError("graphs must agree on directedness")
    named = [v for v, _ in mapping]
    if named and not 0 <= min(named) <= max(named) < g.n:
        return False
    pairs = [(v, u) for v, u in mapping if u is not None]
    to_h = dict(pairs)
    if len(to_h) < len(pairs) or len(set(to_h.values())) < len(pairs):
        return False
    vs, us = to_h.keys(), to_h.values()
    if pairs and not 0 <= min(us) <= max(us) < h.n:
        return False
    g_set = sum(1 << v for v in vs)
    h_set = sum(1 << u for u in us)
    for v, u in pairs:
        if g.loops[v] != h.loops[u]:
            return False
        if _relabel_row(g.out_bits[v] & g_set, to_h) != h.out_bits[u] & h_set:
            return False
    return True
