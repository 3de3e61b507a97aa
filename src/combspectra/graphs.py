"""Simple unweighted graphs on vertices {1..n}: parsing, distances, components.

Vertices are 1-based everywhere in this package; what is indexed by vertex
(the neighbour bitmasks :attr:`SimpleGraph.masks`, the graph's one cached
neighbour table, and the distance matrix of :func:`all_pairs_distances`)
holds vertex v at index v-1, and bit w-1 of a bitmask stands for vertex w.
Two input formats are accepted behind one parse entry point:

* edge-list text: first line ``n m``, then ``m`` lines ``u v``; blank lines
  and ``#`` comments are ignored;
* graph6 (one line per graph); both formats take n <= 62.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import ParseError, PreconditionError

__all__ = [
    "SimpleGraph",
    "parse_edge_list",
    "parse_graph6",
    "parse_graph",
    "parse_graphs",
    "pairs_in_rank_order",
    "to_edge_list",
    "to_graph6",
    "all_pairs_distances",
    "component_orders",
    "is_connected",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
]


class SimpleGraph:
    """An immutable simple graph: no loops, no multi-edges, n >= 1."""

    __slots__ = ("n", "edges", "_masks", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        norm = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        self._masks: tuple[int, ...] | None = None
        self._hash: int | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def masks(self) -> tuple[int, ...]:
        """Neighbour bitmasks: ``masks[v-1]`` has bit ``w-1`` set for each
        neighbour w of v.  Built on first use, then cached."""
        masks = self._masks
        if masks is None:
            bits = [0] * self.n
            for u, v in self.edges:
                bits[u - 1] |= 1 << (v - 1)
                bits[v - 1] |= 1 << (u - 1)
            masks = tuple(bits)
            self._masks = masks
        return masks

    def _bare_copy(self) -> "SimpleGraph":
        """An equal graph sharing ``n`` and the already validated ``edges``,
        with no lazy table built: the tables it builds die with it."""
        copy = object.__new__(SimpleGraph)
        copy.n = self.n
        copy.edges = self.edges
        copy._masks = copy._hash = None
        return copy

    def neighbors(self, v: int) -> frozenset:
        return frozenset(w + 1 for w in _members(self.masks[v - 1]))

    def degree(self, v: int) -> int:
        return self.masks[v - 1].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def relabel(self, perm: tuple[int, ...]) -> "SimpleGraph":
        """Apply a vertex permutation (perm[v-1] is the new name of v)."""
        return SimpleGraph(self.n, ((perm[u - 1], perm[v - 1]) for u, v in self.edges))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self.edges))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={sorted(self.edges)})"


# Masks the ``_members`` cache keeps.  A constant, not an option: it holds
# every mask of order at most 8 (256) with room to spare, while the masks of
# larger graphs, too many to keep, come and go.
_MEMBERS_CACHED = 1024


@lru_cache(maxsize=_MEMBERS_CACHED)
def _members(mask: int) -> tuple[int, ...]:
    """The set bits of mask, lowest first."""
    return tuple(w for w in range(mask.bit_length()) if mask >> w & 1)


def _next_layer(masks: tuple[int, ...], frontier: int, seen: int) -> int:
    """The bitmask of the unseen neighbours of the frontier's vertices."""
    reach = 0
    for u in _members(frontier):
        reach |= masks[u]
    return reach & ~seen


def all_pairs_distances(g: SimpleGraph) -> list[list[int | None]]:
    """The distance matrix, by breadth-first search from every vertex, one
    frontier bitmask per distance.

    Rows and columns are indexed like :attr:`SimpleGraph.masks`:
    ``dist[u-1][v-1]`` is the distance of u and v, 0 on the diagonal and
    None when no path joins them."""
    masks = g.masks
    dist = []
    for src in range(g.n):
        row: list[int | None] = [None] * g.n
        row[src] = 0
        seen = frontier = 1 << src
        d = 0
        while frontier:
            d += 1
            frontier = _next_layer(masks, frontier, seen)
            seen |= frontier
            for w in _members(frontier):
                row[w] = d
        dist.append(row)
    return dist


def component_orders(g: SimpleGraph) -> tuple[int, ...]:
    """Orders of the connected components, sorted ascending."""
    masks = g.masks
    unseen = (1 << g.n) - 1
    orders = []
    while unseen:
        seen = frontier = unseen & -unseen
        while frontier:
            frontier = _next_layer(masks, frontier, seen)
            seen |= frontier
        orders.append(seen.bit_count())
        unseen &= ~seen
    return tuple(sorted(orders))


def is_connected(g: SimpleGraph) -> bool:
    return len(component_orders(g)) == 1


# -- parsing ----------------------------------------------------------------


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse the edge-list format; every error names its line number."""
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError("empty input: expected a header line 'n m'")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"line {lineno}: expected header 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer header fields in {header!r}") from None
    if n < 1:
        raise ParseError(f"line {lineno}: vertex count must be at least 1")
    if n > 62:
        raise ParseError(f"line {lineno}: inputs with n > 62 are not supported")
    if m < 0:
        raise ParseError(f"line {lineno}: negative edge count")
    edges: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise ParseError(f"line {lineno}: vertex out of range 1..{n} in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise ParseError(f"line {lineno}: duplicate edge {e}")
        edges.add(e)
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges but {len(edges)} were given")
    return SimpleGraph(n, edges)


_G6_HEADER = ">>graph6<<"


def parse_graph6(line: str) -> SimpleGraph:
    """Decode one graph6 line (n <= 62; the extended size formats are rejected).

    The data is read back in the layout :func:`to_graph6` writes: one bit
    string, bit r standing for the pair of rank r, and any padding bits past
    the last pair ignored."""
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 line")
    for ch in s:
        if not "?" <= ch <= "~":
            raise ParseError(f"invalid graph6 character {ch!r}")
    n = ord(s[0]) - 63
    if n == 63:
        raise ParseError("graph6 inputs with n > 62 are not supported")
    if n < 1:
        raise ParseError("graph6 graph must have at least one vertex")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - 1 != need:
        raise ParseError(
            f"graph6 line has {len(s) - 1} data characters, expected {need} for n={n}"
        )
    data = 0
    for ch in s[1:]:
        data = data << 6 | ord(ch) - 63
    bits = f"{data:0{6 * need}b}"
    return SimpleGraph(n, [pair for pair, bit in zip(pairs_in_rank_order(n), bits) if bit == "1"])


@lru_cache(maxsize=None)
def pairs_in_rank_order(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered pairs (u, v) with u < v, listed by pair rank
    C(v-1, 2) + u-1: column by column, as graph6 lists them."""
    return tuple((u, v) for v in range(2, n + 1) for u in range(1, v))


def to_graph6(g: SimpleGraph) -> str:
    """Encode as one graph6 line (n <= 62).

    The pairs (u, v), u < v, are ranked column by column, C(v-1, 2) + u-1,
    and the pair of rank r is bit r of the data counted from the most
    significant end, padded with zeros to whole six-bit characters."""
    if g.n > 62:
        raise ValueError("graph6 encoding supported only for n <= 62")
    pairs = g.n * (g.n - 1) // 2
    width = -(-pairs // 6) * 6
    data = 0
    for u, v in g.edges:
        data |= 1 << (width - 1 - (v - 1) * (v - 2) // 2 - (u - 1))
    return chr(63 + g.n) + "".join(
        chr(63 + (data >> shift & 63)) for shift in range(width - 6, -1, -6)
    )


def parse_graphs(text: str) -> list[SimpleGraph]:
    """Every graph in the text: the one graph of an edge list, or one graph
    per data line of graph6 text.  The text is an edge list when its first
    data line looks like an 'n m' header."""
    lines = [line for _lineno, line in _data_lines(text)]
    if not lines:
        raise ParseError("empty input")
    fields = lines[0].split()
    if len(fields) == 2:
        try:
            int(fields[0]), int(fields[1])
        except ValueError:
            pass
        else:
            return [parse_edge_list(text)]
    return [parse_graph6(line) for line in lines]


def parse_graph(text: str) -> SimpleGraph:
    """The one graph of :func:`parse_graphs`; a text with more is a ParseError."""
    graphs = parse_graphs(text)
    if len(graphs) > 1:
        raise ParseError(f"expected one graph, the input holds {len(graphs)}")
    return graphs[0]


def to_edge_list(g: SimpleGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# -- small standard graphs ---------------------------------------------------


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise PreconditionError("a cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, n)]
    edges.append((1, n))
    return SimpleGraph(n, edges)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def star_graph(n: int) -> SimpleGraph:
    """K_{1,n-1} with the center at vertex 1."""
    return SimpleGraph(n, ((1, v) for v in range(2, n + 1)))
