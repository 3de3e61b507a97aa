"""Generation of all connected graphs up to isomorphism at desk scale.

Built by vertex augmentation: every connected graph on n vertices arises from
a connected graph on n-1 vertices by attaching vertex n to a nonempty
neighbor set (every connected graph has a non-cut vertex).  Candidates are
deduplicated by the exact :func:`canonical_key`; representatives keep their
first-seen order, which makes the corpus deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, permutations, product
from typing import Collection

from .graphs import SimpleGraph

__all__ = ["canonical_key", "connected_graphs", "connected_graphs_up_to"]

# Known counts of connected graphs up to isomorphism, used as a self-check.
_EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def canonical_key(n: int, edges: Collection[tuple[int, int]]) -> tuple:
    """A key that two graphs on vertices 1..n share iff they are isomorphic.

    Colour refinement from the degrees names each colour by its sorted
    (colour, sorted neighbour colours) signature, not by the labelling.  The
    key is the final signatures and the smallest edge bitcode over the vertex
    orderings that list the colour cells in order and permute only within a
    cell: isomorphic graphs share that set of bitcodes, and equal bitcodes
    are the same graph.  It costs the product of the cell-size factorials.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u - 1].append(v - 1)
        nbrs[v - 1].append(u - 1)
    colours = [len(nb) for nb in nbrs]
    while True:
        signatures = [
            (colours[v], tuple(sorted([colours[w] for w in nbrs[v]])))
            for v in range(n)
        ]
        names = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        refined = [names[sig] for sig in signatures]
        if len(names) == len(set(colours)):  # no cell split: stable
            break
        colours = refined
    # Vertex order[i] (cell by cell) takes position pos[i] in its cell's slot.
    order = sorted(range(n), key=refined.__getitem__)
    pairs = [(order.index(u - 1), order.index(v - 1)) for u, v in edges]
    slots = [[i for i in range(n) if refined[order[i]] == c] for c in range(len(names))]
    perms = product(*map(permutations, slots))
    bit = _pair_bits(n)
    best = min(
        sum([bit[pos[a]][pos[b]] for a, b in pairs])
        for pos in map(tuple, map(chain.from_iterable, perms))
    )
    return tuple(sorted(signatures)), best


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> list[list[int]]:
    """bit[p][q]: the bitcode bit of an edge between positions p and q."""
    return [[1 << (min(p, q) * n + max(p, q)) for q in range(n)] for p in range(n)]


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """All connected graphs on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (SimpleGraph(1),)
    reps: list[SimpleGraph] = []
    seen: set[tuple] = set()
    for parent in connected_graphs(n - 1):
        for size in range(1, n):
            for neighbors in combinations(range(1, n), size):
                edges = parent.edges | {(v, n) for v in neighbors}
                key = canonical_key(n, edges)
                if key not in seen:
                    seen.add(key)
                    reps.append(SimpleGraph(n, edges))
    expected = _EXPECTED_COUNTS.get(n)
    if expected is not None and len(reps) != expected:
        raise AssertionError(
            f"corpus generator produced {len(reps)} connected graphs on "
            f"{n} vertices, expected {expected}"
        )
    return tuple(reps)


def connected_graphs_up_to(max_n: int, min_n: int = 1) -> list[SimpleGraph]:
    """Connected graphs with min_n <= n <= max_n, smaller orders first."""
    out: list[SimpleGraph] = []
    for n in range(min_n, max_n + 1):
        out.extend(connected_graphs(n))
    return out
