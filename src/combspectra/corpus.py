"""Generation of all connected graphs up to isomorphism at desk scale.

Built by vertex augmentation: every connected graph on n vertices arises from
a connected graph on n-1 vertices by attaching vertex n to a nonempty
neighbor set (every connected graph has a non-cut vertex).  Candidates are
deduplicated by a Weisfeiler-Lehman hash bucket followed by an explicit
isomorphism check, so the result is exact; representatives keep their
first-seen order, which makes the corpus deterministic.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from itertools import combinations

import networkx as nx

from .graphs import SimpleGraph

__all__ = ["connected_graphs", "connected_graphs_up_to"]

# Known counts of connected graphs up to isomorphism, used as a self-check.
_EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _to_nx(g: SimpleGraph) -> "nx.Graph":
    gx = nx.Graph()
    gx.add_nodes_from(range(1, g.n + 1))
    gx.add_edges_from(g.edges)
    return gx


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """All connected graphs on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (SimpleGraph(1),)
    reps: list[SimpleGraph] = []
    buckets: dict[str, list] = {}
    with warnings.catch_warnings():
        # networkx >= 3.5 warns that attribute-free hashes changed; the hash
        # only buckets candidates for the exact isomorphism check.
        warnings.filterwarnings(
            "ignore",
            message="The hashes produced for graphs without",
            category=UserWarning,
        )
        for parent in connected_graphs(n - 1):
            others = range(1, n)
            for size in range(1, n):
                for neighbors in combinations(others, size):
                    edges = set(parent.edges)
                    edges.update((v, n) for v in neighbors)
                    candidate = SimpleGraph(n, edges)
                    cx = _to_nx(candidate)
                    key = nx.weisfeiler_lehman_graph_hash(cx, iterations=3)
                    bucket = buckets.setdefault(key, [])
                    if not any(nx.is_isomorphic(cx, seen) for seen in bucket):
                        bucket.append(cx)
                        reps.append(candidate)
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
