"""Brute-force ground truth for every classical definition.

These implementations are deliberately naive: direct enumeration of labelings,
subsets and orderings straight from the definitions, sharing nothing with the
spectral machinery beyond the plain graph type.  They read a graph only
through ``g.n``, ``g.edges`` and ``g.sorted_edges()``, never a neighbour
table cached on the graph (``g.masks``, which the spectral kernels read, or
``neighbors`` and ``degree``, which read it).  The tables they need they
build from ``g.edges`` once per call: the neighbour lists of
:func:`_neighbour_lists` for distances and components, and the closed
neighbourhood bitmasks of :func:`_closed_masks` for domination, on which
``domination_oracle`` tries one subset size and ``domination_number`` every
size from 1 up to the domination number.
Enumeration orders are lexicographic (edges sorted, labels ascending,
permutations in standard order), so any failure is reproducible.  One
search prunes: ``hamiltonian_oracle`` walks the cyclic orders depth first in
that order and drops a prefix that cannot complete below the best total so
far, each remaining vertex and the closing step adding a distance of at
least 1; its value and witness are those of the full enumeration, which the
tests keep as its reference.

Each definition's test is one private predicate, which ``verify`` also
checks the spectral witnesses with.  A witness is returned as soon as it
passes its predicate, and is not re-derived afterwards.  Two oracles assert
more about it: ``antimagic_oracle`` that its labels are distinct, and
``strength_oracle`` that none exceeds k.  ``edge_roman_oracle`` and
``hamiltonian_oracle`` assert only that a best candidate was found;
``chi_sigma_oracle``, ``domination_oracle`` and ``domination_number`` assert
nothing.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product, repeat
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError
from .graphs import SimpleGraph
from .limits import DEFAULT_LIMITS, Limits

__all__ = [
    "OracleResult",
    "antimagic_oracle",
    "strength_oracle",
    "chi_sigma_oracle",
    "domination_oracle",
    "domination_number",
    "edge_roman_oracle",
    "hamiltonian_oracle",
]


@dataclass
class OracleResult:
    value: bool | int | None
    witness: object = None
    enumerated: int = 0


def _weighted_degrees(g: SimpleGraph, labels: Mapping[tuple[int, int], int]) -> list[int]:
    sums = [0] * (g.n + 1)
    for (u, v), value in labels.items():
        sums[u] += value
        sums[v] += value
    return sums[1:]


def _irregular(g: SimpleGraph, labels: Mapping[tuple[int, int], int]) -> bool:
    """Are the weighted degrees of the edge labeling pairwise distinct?"""
    return len(set(_weighted_degrees(g, labels))) == g.n


def _locally_irregular(g: SimpleGraph, labels: Mapping[tuple[int, int], int]) -> bool:
    """Do adjacent vertices get distinct weighted degrees?"""
    degrees = _weighted_degrees(g, labels)
    return all(degrees[u - 1] != degrees[v - 1] for u, v in g.edges)


def _closed_masks(g: SimpleGraph) -> tuple[int, ...]:
    """Closed-neighbourhood bitmasks from ``g.edges``: entry v-1 has bit w-1
    set when w is v or a neighbour of v."""
    bits = [1 << v for v in range(g.n)]
    for u, v in g.edges:
        bits[u - 1] |= 1 << (v - 1)
        bits[v - 1] |= 1 << (u - 1)
    return tuple(bits)


def _dominates(closed: Sequence[int], chosen: Iterable[int]) -> bool:
    """Is every vertex chosen or adjacent to a chosen one, that is, do the
    closed neighbourhoods of the chosen vertices, entries of a
    :func:`_closed_masks` table, cover the graph?"""
    covered = 0
    for v in chosen:
        covered |= closed[v - 1]
    return covered == (1 << len(closed)) - 1


def _edge_roman_valid(g: SimpleGraph, fn: Mapping[tuple[int, int], int]) -> bool:
    """Does every edge labelled 0 share an end with an edge labelled 2?"""
    covered = {v for e in g.edges if fn[e] == 2 for v in e}  # the ends of the 2-edges
    return all(fn[e] != 0 or not covered.isdisjoint(e) for e in g.edges)


def _check_no_isolated(g: SimpleGraph) -> None:
    covered = {v for e in g.edges for v in e}
    if len(covered) < g.n:
        raise PreconditionError("oracle needs a graph without isolated vertices")


def antimagic_oracle(g: SimpleGraph, limits: Limits = DEFAULT_LIMITS) -> OracleResult:
    """Exhaust all |E|! bijective labelings 1..|E| looking for distinct
    weighted degrees."""
    _check_no_isolated(g)
    limits.check_n(g.n)
    edges = g.sorted_edges()
    m = len(edges)
    limits.check_steps(math.factorial(m), "antimagic oracle")
    for enumerated, perm in enumerate(limits.polled(permutations(range(1, m + 1))), 1):
        labels = dict(zip(edges, perm))
        if _irregular(g, labels):
            assert len(set(labels.values())) == m  # bijectivity self-check
            return OracleResult(True, labels, enumerated)
    return OracleResult(False, None, enumerated)


def strength_oracle(
    g: SimpleGraph, k_max: int = 3, limits: Limits = DEFAULT_LIMITS
) -> OracleResult:
    """Smallest k <= k_max admitting an irregular labeling E -> {1..k};
    value None when no such k exists in range."""
    _check_no_isolated(g)
    limits.check_n(g.n)
    edges = g.sorted_edges()
    m = len(edges)
    enumerated = 0
    for k in range(1, k_max + 1):
        limits.check_steps(enumerated + k**m, f"strength oracle up to k={k}")
        for combo in limits.polled(product(range(1, k + 1), repeat=m)):
            enumerated += 1
            labels = dict(zip(edges, combo))
            if _irregular(g, labels):
                assert max(combo) <= k
                return OracleResult(k, labels, enumerated)
    return OracleResult(None, None, enumerated)


def chi_sigma_oracle(
    g: SimpleGraph, k: int, limits: Limits = DEFAULT_LIMITS
) -> OracleResult:
    """Is there a labeling E -> {1..k} giving adjacent vertices distinct
    weighted degrees?"""
    if k < 1:
        raise PreconditionError("the label bound k must be positive")
    orders = _component_orders(g)
    if orders and orders[0] < 3:
        raise PreconditionError("oracle needs no component of order < 3")
    limits.check_n(g.n)
    edges = g.sorted_edges()
    m = len(edges)
    limits.check_steps(k**m, "vertex-coloring labeling oracle")
    for enumerated, combo in enumerate(limits.polled(product(range(1, k + 1), repeat=m)), 1):
        labels = dict(zip(edges, combo))
        if _locally_irregular(g, labels):
            return OracleResult(True, labels, enumerated)
    return OracleResult(False, None, enumerated)


def _dominating_subset(
    closed: Sequence[int], k: int, limits: Limits
) -> tuple[frozenset | None, int]:
    """The first k-subset of vertices in lex order that dominates the graph of
    the :func:`_closed_masks` table ``closed`` (None when none does), and the
    number of subsets enumerated."""
    n = len(closed)
    limits.check_steps(math.comb(n, k), "domination oracle")
    for enumerated, subset in enumerate(limits.polled(combinations(range(1, n + 1), k)), 1):
        if _dominates(closed, subset):
            return frozenset(subset), enumerated
    return None, enumerated


def domination_oracle(
    g: SimpleGraph, k: int, limits: Limits = DEFAULT_LIMITS
) -> OracleResult:
    """Does some k-subset of vertices dominate the graph?"""
    if not 1 <= k <= g.n:
        raise PreconditionError(f"k must be in 1..{g.n}, got {k}")
    limits.check_n(g.n)
    witness, enumerated = _dominating_subset(_closed_masks(g), k, limits)
    return OracleResult(witness is not None, witness, enumerated)


def domination_number(g: SimpleGraph, limits: Limits = DEFAULT_LIMITS) -> OracleResult:
    """The domination number: the least k for which some k-subset dominates,
    searched k = 1, 2, ... upward on one closed-neighbourhood table.  The
    witness is the first dominating subset of that size in lex order, and
    ``enumerated`` counts the subsets of every size tried.  The whole vertex
    set dominates, so the search ends by k = n."""
    limits.check_n(g.n)
    closed = _closed_masks(g)
    k, witness, enumerated = 0, None, 0
    while witness is None:
        k += 1
        witness, count = _dominating_subset(closed, k, limits)
        enumerated += count
    return OracleResult(k, witness, enumerated)


def edge_roman_oracle(g: SimpleGraph, limits: Limits = DEFAULT_LIMITS) -> OracleResult:
    """Minimum weight of an edge function E -> {0,1,2} in which every 0-edge
    touches a 2-edge, by full enumeration of 3^|E| functions."""
    edges = g.sorted_edges()
    m = len(edges)
    if m < 1:
        raise PreconditionError("edge Roman domination needs at least one edge")
    limits.check_n(g.n)
    limits.check_steps(3**m, "edge Roman oracle")
    best: int | None = None
    best_fn = None
    for enumerated, combo in enumerate(limits.polled(product((0, 1, 2), repeat=m)), 1):
        if best is not None and sum(combo) >= best:
            continue
        fn = dict(zip(edges, combo))
        if _edge_roman_valid(g, fn):
            best = sum(combo)
            best_fn = fn
    assert best is not None  # labeling everything 1 is always valid
    return OracleResult(best, best_fn, enumerated)


def hamiltonian_oracle(g: SimpleGraph, limits: Limits = DEFAULT_LIMITS) -> OracleResult:
    """Minimum distance sum over cyclic orderings, vertex 1 pinned and
    reflections skipped: the (n-1)!/2 candidates of the naive enumeration,
    searched depth first in its order.

    Distinct vertices of a connected graph are at distance at least 1, so a
    prefix with distance sum t and r vertices still unvisited completes to a
    total of at least t + r + 1; the search drops it when that bound is no
    less than the best total so far.  A dropped order could not have
    replaced the best, and a complete order replaces it only when strictly
    less, so the value and the witness, the first least order, are those of
    the full enumeration.  ``enumerated`` counts the complete cyclic orders
    summed.  Each prefix visited is one item of :meth:`Limits.polled`."""
    n = g.n
    if n < 3:
        raise PreconditionError("the Hamiltonian number needs at least 3 vertices")
    limits.check_n(n)
    dist = _bfs_all_pairs(g)
    if any(dist[u][v] is None for u in range(1, n + 1) for v in range(u + 1, n + 1)):
        raise PreconditionError("the Hamiltonian number needs a connected graph")
    limits.check_steps(math.factorial(n - 1) // 2, "Hamiltonian oracle")
    best: int | None = None
    best_order = None
    enumerated = 0
    order = [1] * n  # order[:depth] is the prefix being extended
    visits = limits.polled(repeat(None))

    def search(depth: int, v: int, t: int, left: tuple[int, ...]) -> None:
        """Extend the prefix order[:depth], which ends at v with distance
        sum t, by the unvisited vertices ``left`` in ascending order."""
        nonlocal best, best_order, enumerated
        next(visits)
        if best is not None and t + len(left) + 1 >= best:
            return
        if left:
            for i, w in enumerate(left):
                order[depth] = w
                search(depth + 1, w, t + dist[v][w], left[:i] + left[i + 1:])
        elif order[1] < v:  # each cycle once, not its reflection
            enumerated += 1
            total = t + dist[v][1]
            if best is None or total < best:
                best, best_order = total, tuple(order)

    search(1, 1, 0, tuple(range(2, n + 1)))
    assert best is not None and best_order is not None
    return OracleResult(best, best_order, enumerated)


# -- local graph helpers (kept independent of the spectral modules) -------------


def _neighbour_lists(g: SimpleGraph) -> list[list[int]]:
    """Neighbour lists from ``g.edges``: entry v lists the neighbours of v
    (entry 0 is unused)."""
    nbrs: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _bfs_all_pairs(g: SimpleGraph) -> list[list[int | None]]:
    nbrs = _neighbour_lists(g)
    dist: list[list[int | None]] = [
        [None] * (g.n + 1) for _ in range(g.n + 1)
    ]
    for src in range(1, g.n + 1):
        dist[src][src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if dist[src][w] is None:
                    dist[src][w] = dist[src][u] + 1
                    queue.append(w)
    return dist


def _component_orders(g: SimpleGraph) -> list[int]:
    nbrs = _neighbour_lists(g)
    unseen = set(range(1, g.n + 1))
    orders = []
    while unseen:
        stack = [unseen.pop()]
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for w in nbrs[u]:
                if w in unseen:
                    unseen.discard(w)
                    stack.append(w)
        orders.append(size)
    return sorted(orders)
