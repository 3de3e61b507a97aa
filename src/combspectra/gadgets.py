"""Ring-weighted complete graphs and the probe gadgets built on them.

A :class:`WeightedCompleteGraph` is a complete graph on vertices {1..n} with
one :class:`RingElem` weight per unordered pair.  Pairs are stored in a flat
tuple indexed by their rank in the order {1,2}, {1,3}, {2,3}, {1,4}, ...,
i.e. ``pair_rank(j, k) = C(j-1, 2) + k - 1`` for k < j.  Embedded simple
graphs always materialize their non-edges with weight zero.

The probe gadgets turn structural questions into polynomial coefficients of
the total weight of a star product:

* ``star_indicator`` / ``degree_reader``  - read weighted vertex degrees;
* ``edge_indicator`` / ``pair_reader``    - read individual pair weights;
* ``contrast_pair`` / ``contrast_reader`` - compare the two endpoint sums of
  a pair, with an imaginary marker on the pair itself;
* ``cover_pair`` / ``cover_reader``       - sum the weights adjacent to a
  pair, again with an imaginary marker on the pair;
* ``domination_probe``                    - test which head vertices have a
  neighbor among the k tail vertices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from . import ring
from .errors import PreconditionError
from .graphs import SimpleGraph, all_pairs_distances, pairs_in_rank_order
from .ring import RingElem, GaussInt

__all__ = [
    "WeightedCompleteGraph",
    "pair_rank",
    "pair_index",
    "pairs_in_rank_order",
    "all_bijections",
    "bijection_pair_maps",
    "generator_pair_maps",
    "identity_bijection",
    "indicator",
    "weighted_embedding",
    "distance_weighting",
    "star_indicator",
    "edge_indicator",
    "contrast_pair",
    "cover_pair",
    "domination_probe",
    "degree_reader",
    "pair_reader",
    "contrast_reader",
    "cover_reader",
    "star_product",
    "star_sum",
    "hamiltonian_sum",
]


def pair_rank(j: int, k: int, n: int | None = None) -> int:
    """Rank of the ordered pair (j, k) with k < j; 0-based, lexicographic in
    (j, k).  With ``n`` given, validates j <= n."""
    if not 1 <= k < j:
        raise ValueError(f"pair_rank requires 1 <= k < j, got ({j}, {k})")
    if n is not None and j > n:
        raise ValueError(f"vertex {j} out of range 1..{n}")
    return (j - 1) * (j - 2) // 2 + k - 1


def pair_index(u: int, v: int, n: int | None = None) -> int:
    """Rank of the unordered pair {u, v}."""
    if u == v:
        raise ValueError(f"not a pair: ({u}, {v})")
    return pair_rank(u, v, n) if u > v else pair_rank(v, u, n)


def identity_bijection(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def all_bijections(n: int) -> Iterator[tuple[int, ...]]:
    """All vertex bijections of {1..n} in lexicographic order (identity first).

    A bijection f is the tuple (f(1), ..., f(n))."""
    return itertools.permutations(range(1, n + 1))


@lru_cache(maxsize=None)
def _pair_ranks(n: int) -> tuple[tuple[int, ...], ...]:
    """``rank[u][v]``: the rank of the pair {u, v} of {1..n}, either way round
    (row and column 0 and the diagonal are unused)."""
    rank = [[0] * (n + 1) for _ in range(n + 1)]
    for r, (u, v) in enumerate(pairs_in_rank_order(n)):
        rank[u][v] = rank[v][u] = r
    return tuple(map(tuple, rank))


def _pair_map_of(f: Sequence[int], n: int) -> tuple[int, ...]:
    """The pair of rank p, (u, v), goes to the pair of rank ``m[p]``,
    {f(u), f(v)}."""
    rank = _pair_ranks(n)
    return tuple([rank[f[u - 1]][f[v - 1]] for u, v in pairs_in_rank_order(n)])


@lru_cache(maxsize=None)
def bijection_pair_maps(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each bijection f (lex order), the induced map on pair ranks.

    Entry ``(f, m)`` satisfies: the pair at rank p maps to the pair at rank
    ``m[p]`` under f.  Precomputed once per n and kept, n! maps of C(n, 2)
    ranks each, for the n! references of ``verify`` and for the benchmark
    harness; no search reads it.
    """
    return tuple((f, _pair_map_of(f, n)) for f in all_bijections(n))


def generator_pair_maps(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The transposition (1 2) and the n-cycle (1 2 ... n), which generate
    all bijections of {1..n}, in the form of :func:`bijection_pair_maps`;
    empty for n < 2, where the identity is the only bijection."""
    if n < 2:
        return ()
    gens = ((2, 1, *range(3, n + 1)), (*range(2, n + 1), 1))
    return tuple((f, _pair_map_of(f, n)) for f in gens)


class WeightedCompleteGraph:
    """n labeled vertices plus one ring weight per unordered pair.

    Equality is labeled equality of the weight vectors, never isomorphism.
    Instances are immutable and hashable.
    """

    __slots__ = ("n", "weights", "_hash")

    def __init__(self, n: int, weights: Sequence[RingElem]):
        if n < 1:
            raise ValueError("need at least one vertex")
        expected = n * (n - 1) // 2
        if len(weights) != expected:
            raise ValueError(
                f"n={n} needs {expected} pair weights, got {len(weights)}"
            )
        self.n = n
        self.weights = tuple(weights)
        self._hash: int | None = None

    @classmethod
    def zero(cls, n: int) -> "WeightedCompleteGraph":
        return cls(n, (ring.ZERO,) * (n * (n - 1) // 2))

    def weight(self, u: int, v: int) -> RingElem:
        return self.weights[pair_index(u, v, self.n)]

    def nonzero_count(self) -> int:
        """Number of pairs carrying a nonzero weight (the |E| of an embedding)."""
        return sum(1 for w in self.weights if w)

    def is_complete_weighting(self) -> bool:
        return all(self.weights)

    def __add__(self, other: "WeightedCompleteGraph") -> "WeightedCompleteGraph":
        if not isinstance(other, WeightedCompleteGraph):
            return NotImplemented
        if self.n != other.n:
            raise PreconditionError(
                f"cannot add weighted graphs of orders {self.n} and {other.n}"
            )
        return WeightedCompleteGraph(
            self.n, tuple(a + b for a, b in zip(self.weights, other.weights))
        )

    def __mul__(self, other: "WeightedCompleteGraph") -> "WeightedCompleteGraph":
        """The pointwise product, pair by pair."""
        if not isinstance(other, WeightedCompleteGraph):
            return NotImplemented
        if self.n != other.n:
            raise PreconditionError(
                f"cannot multiply weighted graphs of orders {self.n} and {other.n}"
            )
        return WeightedCompleteGraph(
            self.n, tuple(map(ring.product, self.weights, other.weights))
        )

    def relabeled(self, pair_map: Sequence[int]) -> "WeightedCompleteGraph":
        """The graph g∘f whose pair p carries this graph's weight at
        ``pair_map[p]``, the pair map of the bijection f."""
        ws = self.weights
        return WeightedCompleteGraph(self.n, tuple(ws[q] for q in pair_map))

    def scale(self, c: RingElem | GaussInt | int) -> "WeightedCompleteGraph":
        """Multiply every pair weight by a ring element."""
        return WeightedCompleteGraph(self.n, tuple(w * c for w in self.weights))

    def star(self, other: "WeightedCompleteGraph", f: Sequence[int]) -> "WeightedCompleteGraph":
        """The star product along the bijection f: pairwise products
        ``self(e) * other(f(e))`` on this graph's vertex set."""
        if self.n != other.n:
            raise PreconditionError(
                f"star product needs equal orders, got {self.n} and {other.n}"
            )
        return self.star_with_map(other, _pair_map_of(f, self.n))

    def star_with_map(
        self, other: "WeightedCompleteGraph", pair_map: Sequence[int]
    ) -> "WeightedCompleteGraph":
        """h *_f g = h * (g∘f), with f given by its pair map."""
        return self * other.relabeled(pair_map)

    def total_weight(self) -> RingElem:
        """The sum of all pair weights."""
        acc = ring.ZERO
        for w in self.weights:
            if w:
                acc = acc + w
        return acc

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightedCompleteGraph)
            and self.n == other.n
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self.weights))
            self._hash = h
        return h

    def sort_key(self) -> tuple:
        return tuple(w.sort_key() for w in self.weights)

    def to_json(self) -> dict:
        return {"n": self.n, "weights": [w.to_json() for w in self.weights]}

    @classmethod
    def from_json(cls, data: Mapping) -> "WeightedCompleteGraph":
        return cls(int(data["n"]), [RingElem.from_json(t) for t in data["weights"]])

    def __repr__(self) -> str:
        ws = ", ".join(str(w) for w in self.weights)
        return f"WCG(n={self.n}; {ws})"


def star_product(
    h: WeightedCompleteGraph, g: WeightedCompleteGraph, f: Sequence[int]
) -> WeightedCompleteGraph:
    return h.star(g, f)


def star_sum(
    h: WeightedCompleteGraph, g: WeightedCompleteGraph, pair_map: Sequence[int]
) -> RingElem:
    """Total weight of ``h.star_with_map(g, pair_map)`` without materializing it.

    This is the hot path of every spectrum search; it works directly on the
    term maps and skips zero weights.
    """
    gw = g.weights
    acc: dict[tuple[int, int], tuple[int, int]] = {}
    for p, w in enumerate(h.weights):
        a = w._terms
        if not a:
            continue
        b = gw[pair_map[p]]._terms
        if b:
            ring._add_product(acc, a, b)
    return RingElem._raw(acc)


# -- embeddings of simple graphs ----------------------------------------------


def indicator(g: SimpleGraph) -> WeightedCompleteGraph:
    """Weight 1 on edges, 0 on non-edges."""
    weights = [
        ring.ONE if (u, v) in g.edges else ring.ZERO
        for u, v in pairs_in_rank_order(g.n)
    ]
    return WeightedCompleteGraph(g.n, weights)


def weighted_embedding(
    g: SimpleGraph, labels: Mapping[tuple[int, int], RingElem | int]
) -> WeightedCompleteGraph:
    """Embed an edge labeling: given labels on E(G) exactly, zeros elsewhere."""
    norm: dict[tuple[int, int], RingElem] = {}
    for (u, v), value in labels.items():
        e = (u, v) if u < v else (v, u)
        if e not in g.edges:
            raise PreconditionError(f"label on non-edge {e}")
        norm[e] = value if isinstance(value, RingElem) else ring.const(int(value))
    missing = g.edges - set(norm)
    if missing:
        raise PreconditionError(f"edges without a label: {sorted(missing)}")
    weights = [norm.get((u, v), ring.ZERO) for u, v in pairs_in_rank_order(g.n)]
    return WeightedCompleteGraph(g.n, weights)


def distance_weighting(g: SimpleGraph) -> WeightedCompleteGraph:
    """Each pair weighted by its shortest-path distance; requires connectivity."""
    dist = all_pairs_distances(g)
    weights = [dist[u - 1][v - 1] for u, v in pairs_in_rank_order(g.n)]
    if None in weights:
        raise PreconditionError("distance weighting needs a connected graph")
    return WeightedCompleteGraph(g.n, [ring.const(d) for d in weights])


# -- basis gadgets -------------------------------------------------------------


def _check_vertex(v: int, n: int) -> None:
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} out of range 1..{n}")


def star_indicator(center: int, n: int) -> WeightedCompleteGraph:
    """Indicator of the star with the given center on {1..n}."""
    _check_vertex(center, n)
    weights = [
        ring.ONE if center in (u, v) else ring.ZERO
        for u, v in pairs_in_rank_order(n)
    ]
    return WeightedCompleteGraph(n, weights)


def edge_indicator(a: int, b: int, n: int) -> WeightedCompleteGraph:
    """Indicator of the single edge {a, b} on {1..n}."""
    _check_vertex(a, n)
    _check_vertex(b, n)
    if a == b:
        raise ValueError("an edge needs two distinct vertices")
    target = (a, b) if a < b else (b, a)
    weights = [
        ring.ONE if (u, v) == target else ring.ZERO
        for u, v in pairs_in_rank_order(n)
    ]
    return WeightedCompleteGraph(n, weights)


def contrast_pair(a: int, b: int, n: int) -> WeightedCompleteGraph:
    """The endpoint-sum contrast probe for a < b: weight i on {a,b} itself,
    +1 on pairs meeting only a, -1 on pairs meeting only b, 0 elsewhere.

    The total weight of a product with this probe is (sum at a) - (sum at b)
    + i * (weight of {a,b}); a nonzero purely imaginary total means the two
    endpoint sums tie across a present edge."""
    _check_vertex(a, n)
    _check_vertex(b, n)
    if not a < b:
        raise ValueError("contrast_pair requires a < b (the sign convention)")
    weights = []
    for u, v in pairs_in_rank_order(n):
        hit_a = a in (u, v)
        hit_b = b in (u, v)
        if hit_a and hit_b:
            weights.append(ring.I)
        elif hit_a:
            weights.append(ring.ONE)
        elif hit_b:
            weights.append(-ring.ONE)
        else:
            weights.append(ring.ZERO)
    return WeightedCompleteGraph(n, weights)


def cover_pair(a: int, b: int, n: int) -> WeightedCompleteGraph:
    """The adjacency-coverage probe: weight i on {a,b}, 1 on every pair sharing
    exactly one vertex with {a,b}, 0 elsewhere."""
    _check_vertex(a, n)
    _check_vertex(b, n)
    if not a < b:
        raise ValueError("cover_pair requires a < b")
    weights = []
    for u, v in pairs_in_rank_order(n):
        meet = (a in (u, v)) + (b in (u, v))
        if meet == 2:
            weights.append(ring.I)
        elif meet == 1:
            weights.append(ring.ONE)
        else:
            weights.append(ring.ZERO)
    return WeightedCompleteGraph(n, weights)


@lru_cache(maxsize=None)
def domination_probe(k: int, n: int) -> WeightedCompleteGraph:
    """Probe for dominating sets of size k: a pair (j, l) with j <= n-k < l
    carries x^(j-1), everything else 0.  In a product with a graph indicator,
    the coefficient of x^(j-1) counts the neighbors of the j-th head vertex
    among the k tail vertices.

    Cached like the reader gadgets: one entry per (k, n) with 1 <= k < n, so
    fewer than max_n² entries under a size guard of max_n."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    cut = n - k
    weights = []
    for u, v in pairs_in_rank_order(n):
        if u <= cut < v:
            weights.append(ring.x_pow(u - 1))
        else:
            weights.append(ring.ZERO)
    return WeightedCompleteGraph(n, weights)


# -- polynomial reader gadgets --------------------------------------------------
#
# Each reader is a sum of x^j times a basis gadget, one term per vertex or per
# pair.  The readers write each pair's weight directly: summing C(n, 2) full
# probe graphs would touch O(n^4) weights.  At n = 1 each is the empty sum,
# the one-vertex graph with no pair.


@lru_cache(maxsize=None)
def degree_reader(n: int) -> WeightedCompleteGraph:
    """Sum of x^(j-1) * star_indicator(j) over all centers j: the pair
    {u, v} carries x^(u-1) + x^(v-1).

    The total weight of a product with this reader lists every weighted
    vertex degree as an x-coefficient."""
    return WeightedCompleteGraph(
        n,
        [RingElem._raw({(u - 1, 0): (1, 0), (v - 1, 0): (1, 0)})
         for u, v in pairs_in_rank_order(n)],
    )


@lru_cache(maxsize=None)
def pair_reader(n: int) -> WeightedCompleteGraph:
    """Sum of x^rank * edge_indicator over all pairs: reads each pair weight
    into its own x-coefficient."""
    return WeightedCompleteGraph(n, [ring.x_pow(p) for p in range(n * (n - 1) // 2)])


def _pair_probe_reader(n: int, signed: bool) -> WeightedCompleteGraph:
    """The sum of x^rank(q) * probe(q) over all pairs q = {a, b}, a < b,
    written pair by pair.  The probe weighs q itself i and each pair that
    shares exactly one vertex with q 1, or -1 when ``signed`` and that vertex
    is b.  So the pair p carries i * x^rank(p) plus ±x^rank(q) for each pair
    q sharing one vertex with p, its terms in rank order."""
    vertices = range(1, n + 1)
    ranks = {a: {b: pair_index(a, b) for b in vertices if b != a} for a in vertices}
    weights = []
    for u, v in pairs_in_rank_order(n):
        terms = {(ranks[u][v], 0): (0, 1)}
        for shared, other in ((u, v), (v, u)):
            for w, q in ranks[shared].items():
                if w != other:
                    terms[(q, 0)] = (-1, 0) if signed and w < shared else (1, 0)
        weights.append(RingElem._raw(dict(sorted(terms.items()))))
    return WeightedCompleteGraph(n, weights)


@lru_cache(maxsize=None)
def contrast_reader(n: int) -> WeightedCompleteGraph:
    """Sum of x^rank * contrast_pair over all pairs: one endpoint-sum contrast
    per x-coefficient."""
    return _pair_probe_reader(n, signed=True)


@lru_cache(maxsize=None)
def cover_reader(n: int) -> WeightedCompleteGraph:
    """Sum of x^rank * cover_pair over all pairs: one adjacency-coverage probe
    per x-coefficient.  At x=1 this collapses to (2n-4+i) times the complete
    indicator."""
    return _pair_probe_reader(n, signed=False)


# -- walk sums -------------------------------------------------------------------


def hamiltonian_sum(h: SimpleGraph, g: SimpleGraph, f: Sequence[int]) -> int:
    """Sum of g-distances over the f-images of h's edges.

    Equals the integer value of total_weight(indicator(h).star(distance_weighting(g), f)).
    """
    if h.n != g.n:
        raise PreconditionError(
            f"graphs must share one order, got {h.n} and {g.n}"
        )
    dist = all_pairs_distances(g)
    if any(None in row for row in dist):
        raise PreconditionError("the distance-weighted graph must be connected")
    return sum(dist[f[u - 1] - 1][f[v - 1] - 1] for u, v in h.edges)
