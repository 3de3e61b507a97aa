"""All connected graphs up to isomorphism at desk scale.

Orders 1..7 are read from ``corpus.g6`` beside this module: one graph6 line
per graph, orders in turn, each in generation order.  It holds exactly what
the generator below produces for those orders (the tests check this byte
for byte), so reading it only saves the work.  The table is read once per
process.  Every later order is generated from the one before it, and each
of its graphs is encoded as graph6 once, when it is generated.  Each kept
order holds its graphs and their graph6 lines, so a sweep that names its
graphs by graph6 (:func:`connected_graph6_up_to`) encodes nothing.

Generation is by vertex augmentation: every connected graph on n vertices
arises from a connected graph P on n-1 vertices by attaching vertex n to a
nonempty neighbour set S (every connected graph has a non-cut vertex).
Candidates come parent by parent in corpus order, and each parent's sets by
size, then lexicographically.  The representative of a class is its
first-seen candidate, which makes the corpus deterministic.

Two devices keep the work small, in the spirit of McKay's isomorph-free
generation ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998):

* **Orbit pruning.**  Only a set S that is least in candidate order within
  its orbit under Aut(P) is tried.  The lemma: if sigma is an automorphism
  of P, then P+S and P+sigma(S) are isomorphic (extend sigma by n -> n), and
  sigma(S) has the size of S.  So a set with a smaller image in its orbit has
  an earlier isomorphic candidate, is never first-seen, and skipping it
  leaves the corpus as the full candidate list gives it.
* **Buckets and search.**  A candidate is filed under the label-free
  signature of its stable colour refinement, which isomorphic graphs share.
  It is new exactly when a colour-respecting backtracking search finds no
  isomorphism to any representative already in its bucket.  The same search,
  asked for every solution from P to P, gives Aut(P).
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations
from operator import or_
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .graphs import SimpleGraph, parse_graph6, to_graph6
from .limits import DEFAULT_LIMITS, Limits

__all__ = ["connected_graphs", "connected_graphs_up_to", "connected_graph6_up_to"]

# Known counts of connected graphs up to isomorphism (OEIS A001349), used as
# a self-check.
_EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# The stored orders: one graph6 line per graph, each order's lines together.
_TABLE = Path(__file__).with_name("corpus.g6")

# The table's graph6 lines by order, once it has been read.
_STORED: dict[int, list[str]] | None = None


class _Order(NamedTuple):
    """A kept order: its graph6 lines and its graphs, in corpus order."""

    lines: tuple[str, ...]
    graphs: tuple[SimpleGraph, ...]


# Every order read or generated so far; an order is kept only once it is
# complete and its count checked.
_ORDERS: dict[int, _Order] = {}


class _Form(NamedTuple):
    """A graph on vertices 0..n-1 as the isomorphism search reads it."""

    adj: tuple[int, ...]  # adj[v]: bitmask of the neighbours of v
    colours: tuple[int, ...]  # colours[v]: the label-free signature of v
    cells: dict[int, list[int]]  # colour -> its vertices, in sorted colour order
    key: tuple[int, ...]  # the bucket: the sorted colours


@cache
def _members(mask: int) -> tuple[int, ...]:
    """The set bits of mask, lowest first."""
    return tuple(w for w in range(mask.bit_length()) if mask >> w & 1)


def _form(adj: Sequence[int]) -> _Form:
    """Refine the degrees to a stable colouring.

    A round gives each vertex the signature (colour, multiset of neighbour
    colours) and names each colour by its rank among the signatures, not by
    the labelling, so isomorphic graphs get the same signatures and every
    isomorphism keeps them.  A signature is one integer: the colour above a
    sum of ``n.bit_length()``-bit counters, one per colour.  The refinement
    is stable when a round splits no cell, or every cell is one vertex.
    """
    n = len(adj)
    width = n.bit_length()
    top = n * width
    nbrs = list(map(_members, adj))
    colours = [len(nb) for nb in nbrs]
    count = len(set(colours))
    while True:
        unit = [1 << c * width for c in colours].__getitem__
        signatures = [c << top | sum(map(unit, nb)) for c, nb in zip(colours, nbrs)]
        distinct = sorted(set(signatures))
        if len(distinct) in (count, n):
            break
        rank = {sig: i for i, sig in enumerate(distinct)}
        colours = [rank[sig] for sig in signatures]
        count = len(distinct)
    cells: dict[int, list[int]] = {sig: [] for sig in distinct}
    for v, sig in enumerate(signatures):
        cells[sig].append(v)
    return _Form(tuple(adj), tuple(signatures), cells, tuple(sorted(signatures)))


def _isomorphisms(a: _Form, b: _Form) -> Iterator[tuple[int, ...]]:
    """Every isomorphism from a to b that keeps the colours, as f with f[v]
    the image of v; when a and b share a bucket that is every isomorphism.

    A depth-first search matches the vertices of a cell by cell.  At depth i
    vertex ``order[i]`` tries each unused vertex w of its colour in b, and
    takes it when the neighbours of w among the images of ``order[:i]`` are
    exactly the images of the neighbours of ``order[i]`` among them."""
    n = len(a.adj)
    order = [v for vs in a.cells.values() for v in vs]
    options = [b.cells.get(a.colours[v], ()) for v in order]
    image = [0] * n
    # before[i] and used[i]: the vertices order[:i] and their images, as bitmasks
    before = list(accumulate([1 << v for v in order], or_, initial=0))
    used = [0] * (n + 1)
    tried = [0] * n  # tried[i]: how many options of depth i were tried
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(image)
            i -= 1
            continue
        taken = used[i]
        wanted = sum([1 << image[u] for u in _members(a.adj[order[i]] & before[i])])
        for j in range(tried[i], len(options[i])):
            w = options[i][j]
            if b.adj[w] & taken == wanted and not taken >> w & 1:
                tried[i] = j + 1
                image[order[i]] = w
                used[i + 1] = taken | 1 << w
                i += 1
                break
        else:
            tried[i] = 0
            i -= 1


def _isomorphic(a: _Form, b: _Form) -> bool:
    return next(_isomorphisms(a, b), None) is not None


@cache
def _neighbour_sets(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every nonempty subset of range(k) in candidate order, with its mask."""
    return tuple(
        (nbrs, sum(1 << v for v in nbrs))
        for size in range(1, k + 1)
        for nbrs in combinations(range(k), size)
    )


def _least_sets(parent: _Form) -> Iterator[tuple[int, ...]]:
    """The neighbour sets of a new vertex, in candidate order, that are least
    in that order within their orbit under the automorphisms of the parent:
    each set not yet seen, whose images are then marked seen."""
    bits = [[1 << w for w in f] for f in _isomorphisms(parent, parent)]
    seen: set[int] = set()
    for nbrs, mask in _neighbour_sets(len(parent.adj)):
        if mask not in seen:
            yield nbrs
            seen.update([sum(map(image.__getitem__, nbrs)) for image in bits])


def _next_order(
    parents: Sequence[SimpleGraph], n: int, limits: Limits
) -> tuple[SimpleGraph, ...]:
    """The connected graphs on n vertices, from those on n-1."""
    reps: list[SimpleGraph] = []
    buckets: dict[tuple, list[_Form]] = {}
    new = n - 1  # the new vertex, 0-based
    for parent in parents:
        limits.check_time()
        masks = parent.masks
        for nbrs in _least_sets(_form(masks)):
            grown = [*masks, 0]
            for v in nbrs:
                grown[v] |= 1 << new
                grown[new] |= 1 << v
            form = _form(grown)
            bucket = buckets.setdefault(form.key, [])
            if not any(_isomorphic(form, rep) for rep in bucket):
                bucket.append(form)
                reps.append(SimpleGraph(n, parent.edges | {(v + 1, n) for v in nbrs}))
    return _counted(tuple(reps), n, "corpus generator produced")


def _counted(reps: tuple[SimpleGraph, ...], n: int, source: str) -> tuple[SimpleGraph, ...]:
    """reps, once their number is the known count for order n, where known."""
    expected = _EXPECTED_COUNTS.get(n)
    if expected is not None and len(reps) != expected:
        raise AssertionError(
            f"{source} {len(reps)} connected graphs on {n} vertices, expected {expected}"
        )
    return reps


def _stored(n: int) -> list[str]:
    """The graph6 lines of order n in the stored table, in corpus order;
    empty for an order the table does not hold.  The first call reads the
    whole table."""
    global _STORED
    if _STORED is None:
        stored: dict[int, list[str]] = {}
        with open(_TABLE, encoding="ascii") as table:
            for line in table.read().split():
                stored.setdefault(ord(line[0]) - 63, []).append(line)
        _STORED = stored
    return _STORED.get(n, [])


def _order(n: int, limits: Limits) -> _Order:
    """Order n as :func:`connected_graphs` reads or generates it, with its
    graph6 lines: the stored lines, or for a generated order each graph
    encoded once."""
    if n < 1:
        raise ValueError("need n >= 1")
    order = _ORDERS.get(n)
    if order is None:
        lines = _stored(n)
        if lines:
            limits.check_time()
            reps = _counted(tuple(map(parse_graph6, lines)), n, "corpus table holds")
        else:
            if n == 1:
                reps = (SimpleGraph(1),)
            else:
                reps = _next_order(_order(n - 1, limits).graphs, n, limits)
            lines = map(to_graph6, reps)
        order = _ORDERS[n] = _Order(tuple(lines), reps)
    return order


def connected_graphs(n: int, *, limits: Limits = DEFAULT_LIMITS) -> tuple[SimpleGraph, ...]:
    """All connected graphs on n vertices, one per isomorphism class.

    An order is read from the stored table when it holds that order, and
    generated from order n-1 otherwise, once per process, and kept.  The
    deadline of ``limits`` is polled once per stored order read and once per
    parent graph generated from; an order it stops is not kept."""
    return _order(n, limits).graphs


def connected_graphs_up_to(
    max_n: int, min_n: int = 1, *, limits: Limits = DEFAULT_LIMITS
) -> list[SimpleGraph]:
    """Connected graphs with min_n <= n <= max_n, smaller orders first."""
    out: list[SimpleGraph] = []
    for n in range(min_n, max_n + 1):
        out.extend(connected_graphs(n, limits=limits))
    return out


def connected_graph6_up_to(
    max_n: int, min_n: int = 1, *, limits: Limits = DEFAULT_LIMITS
) -> list[tuple[str, SimpleGraph]]:
    """(graph6 line, graph) of each graph of :func:`connected_graphs_up_to`,
    in its order; the lines are those the corpus kept, not encoded again."""
    return [pair for n in range(min_n, max_n + 1) for pair in zip(*_order(n, limits))]
