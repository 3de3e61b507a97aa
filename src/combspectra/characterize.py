"""Spectrum characterizations of the classical labeling and domination problems.

Each predicate searches a combinatorial spectrum (total weights of star
products over colorings and bijections) for a polynomial whose coefficients
certify the property, and returns a :class:`Verdict` carrying the witness.
The labeling checks and edge Roman domination read a reader gadget along the
identity alone, one :func:`_scan` step per member, decided by its polynomial
alone.  Each labeling is one record of :data:`_LABELINGS` (palette size,
colour -> label map, gadget, accept), read by its given weightings
(:func:`_weighting_scan`), its edge colorings (:func:`_coloring_scan`), its
witness decoding (:func:`_witness_labels`) and verify.  :func:`dominating_k`
reads its spectrum without ring sums, by tail bitmasks, and
:func:`hamiltonian_spectrum` reads every pattern's as a bitset of integer
distance sums: the cycle's from a subset recursion, any other pattern's from
the n! bijections.  ``verify --identity orbit`` checks each against the full
n! scan.  Searches run in a fixed lexicographic order (colorings first,
bijections second) and short-circuit on the first witness, which is also the
first witness of the full n! scan, so results are fully deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import ring
from .errors import NotDivisibleError, PreconditionError
from .families import (
    GraphFamily,
    ROMAN_LABELS,
    Spectrum,
    integer_palette,
    iter_colorings,
    singleton,
)
from .gadgets import (
    WeightedCompleteGraph,
    contrast_reader,
    cover_reader,
    degree_reader,
    domination_probe,
    identity_bijection,
    pair_reader,
    star_sum,
)
from .graphs import (
    SimpleGraph,
    all_pairs_distances,
    component_orders,
    cycle_graph,
)
from .limits import DEFAULT_LIMITS, Limits
from .ring import RingElem

__all__ = [
    "SearchStats",
    "Verdict",
    "antimagic_weighted",
    "antimagic_family",
    "antimagic_unweighted",
    "irregular_weighted",
    "strength_at_most",
    "local_irregular_weighted",
    "one_two_three",
    "dominating_k",
    "edge_roman_at_most",
    "hamiltonian_spectrum",
    "hamiltonian_cycle_spectrum",
    "hamiltonian_number",
    "decode_edge_roman",
    "dominating_set_of",
]


@dataclass
class SearchStats:
    members: int = 0
    bijections: int = 0

    def to_json(self) -> dict:
        return {"members": self.members, "bijections": self.bijections}


@dataclass
class Verdict:
    """Outcome of a characterization check.

    When ``holds`` is true every witness field is populated: the accepted
    polynomial, the member that gave it (for the single-weighting checks, the
    input weighting itself) and the bijection.
    """

    holds: bool
    witness_polynomial: RingElem | None = None
    witness_graph: WeightedCompleteGraph | None = None
    witness_bijection: tuple[int, ...] | None = None
    stats: SearchStats = field(default_factory=SearchStats)

    def to_json(self) -> dict:
        witness: dict = {}
        if self.witness_polynomial is not None:
            witness["polynomial"] = self.witness_polynomial.to_json()
        if self.witness_graph is not None:
            witness["graph"] = self.witness_graph.to_json()
        if self.witness_bijection is not None:
            witness["bijection"] = list(self.witness_bijection)
        return {"holds": self.holds, "witness": witness, "stats": self.stats.to_json()}


# -- shared helpers -----------------------------------------------------------


def _require_constant_nonneg(g: WeightedCompleteGraph) -> None:
    for w in g.weights:
        try:
            c = w.constant_value()
        except ValueError:
            raise PreconditionError(f"weight {w} is not a constant") from None
        if c.im != 0 or c.re < 0:
            raise PreconditionError(f"weight {w} is not a nonnegative integer")


def _dense_x_constants(p: RingElem, size: int) -> list[tuple[int, int]]:
    # Dense x-coefficients of a y-free polynomial, as raw (re, im) pairs.
    # Only valid for products of constant-weighted graphs with y-free gadgets.
    out = [(0, 0)] * size
    for (dx, dy), c in p._terms.items():
        if dy:
            raise ValueError("polynomial unexpectedly involves y")
        out[dx] = c
    return out


def _scan(
    members: Iterable[WeightedCompleteGraph],
    gadget: WeightedCompleteGraph,
    accept: Callable[[RingElem], bool],
    limits: Limits,
) -> Verdict:
    """Read s(H *_f gadget) along the identity f for each member H, in the
    given order, up to the first accepted member: the witness of the
    :class:`Verdict`.

    Starring a graph with a reader gadget along f only permutes the
    x-coefficients of the total; for the contrast reader it may also negate
    their real parts, when all weights are real.  Each ``accept`` tests a
    property invariant under both, so the identity decides each member for
    all n! bijections; ``verify --identity orbit`` checks each reading
    against the full n! scan.  ``accept`` reads the polynomial, never the
    member.
    """
    n = gadget.n
    f, pmap = identity_bijection(n), range(n * (n - 1) // 2)
    stats = SearchStats()
    for h in limits.polled(members):
        stats.members += 1
        stats.bijections += 1
        p = star_sum(h, gadget, pmap)
        if accept(p):
            return Verdict(
                True, witness_polynomial=p, witness_graph=h, witness_bijection=f, stats=stats
            )
    return Verdict(False, stats=stats)


def _weighting_scan(
    name: str, members: Sequence[WeightedCompleteGraph], n: int, what: str, limits: Limits
) -> Verdict:
    """Scan the given weightings of order n by the labeling ``name`` along the
    identity, after the guards in this order: the order n, each member's
    constant nonnegative weights, and the len(members) * n! bijections of the
    full scan.  A single weighting and a family take this one path."""
    limits.check_n(n)
    for h in members:
        _require_constant_nonneg(h)
    limits.check_steps(len(members) * math.factorial(n), what)
    labeling = _LABELINGS[name]
    return _scan(members, labeling.gadget(n), labeling.accept(n, None, None), limits)


def _coloring_scan(name: str, g: SimpleGraph, k: int | None, limits: Limits) -> Verdict:
    """Scan every coloring of g's edges by the p colours of the labeling
    ``name`` at bound k along the identity.  The guards come first (the
    order, the p^m colorings and their p^m * n! bijections), then the palette."""
    labeling = _LABELINGS[name]
    n, m = g.n, g.m
    p = labeling.size(m, k)
    limits.check_n(n)
    limits.check_family(p**m, f"{p}-colorings of {m} edges")
    limits.check_steps(p**m * math.factorial(n), f"{labeling.what} search")
    palette = tuple(labeling.labels(p))
    return _scan(iter_colorings(g, palette), labeling.gadget(n), labeling.accept(n, m, k), limits)


def _witness_labels(name: str, g: SimpleGraph, k: int | None, h: WeightedCompleteGraph) -> dict:
    """The edge labels on g of the witness h of the labeling ``name`` at
    bound k, by the colour -> label map of its palette; a weight off the
    palette raises ``ValueError``."""
    labeling = _LABELINGS[name]
    label_of = labeling.labels(labeling.size(g.m, k))
    out = {}
    for e in g.sorted_edges():
        w = h.weight(*e)
        if w not in label_of:
            raise ValueError(f"weight {w} on {e} is not one of {', '.join(map(str, label_of))}")
        out[e] = label_of[w]
    return out


# -- antimagic ----------------------------------------------------------------


def antimagic_weighted(
    g: WeightedCompleteGraph, limits: Limits = DEFAULT_LIMITS
) -> Verdict:
    """Single-graph antimagic test via the two spectrum conditions:
    :func:`antimagic_family` on the singleton family, guards included.

    Scans the weighting against the combined reader: its first n
    coefficients, the spectrum against a star probe, are the endpoint sums
    and must be pairwise distinct; the others, the spectrum against a
    single-edge probe, are the pair weights and must be exactly {1..|E|} for
    a complete weighting and {0,1,..,|E|} otherwise.  The accept of
    :func:`antimagic_family` decides this: it asks only that the pair weights
    cover {1..|E|}, but the |E| nonzero weights that cover it are exactly
    {1..|E|}, and 0 is among the pair weights exactly when the weighting is
    not complete.
    """
    return antimagic_family(singleton(g), limits)


def _antimagic_accept(n: int):
    size = n + n * (n - 1) // 2

    def accept(p: RingElem) -> bool:
        coeffs = _dense_x_constants(p, size)
        # the pair coefficients permute the pair weights: |E| are nonzero
        edges = size - n - coeffs[n:].count((0, 0))
        return len(set(coeffs[:n])) == n and set(coeffs[n:]) >= {
            (c, 0) for c in range(1, edges + 1)
        }

    return accept


@lru_cache(maxsize=None)
def _antimagic_gadget(n: int) -> WeightedCompleteGraph:
    return degree_reader(n) + pair_reader(n).scale(ring.x_pow(n))


def antimagic_family(fam: GraphFamily, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Does the family contain an antimagic weighting?

    Searches the spectrum against the combined reader (degrees in the first n
    coefficients, pair weights shifted above them) for a polynomial with n
    pairwise distinct head coefficients whose remaining coefficients cover
    {1..|E|}; |E|, the member's count of nonzero weights, is the count of
    nonzero remaining coefficients.
    """
    n = fam.n
    if n < 2:
        raise PreconditionError("antimagic needs at least two vertices")
    return _weighting_scan("antimagic", fam.members, n, "antimagic family search", limits)


def antimagic_unweighted(g: SimpleGraph, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Is the plain graph antimagic?  Searches all |E|-colorings of its edges.

    The coloring family is enumerated directly; it equals the family-algebra
    product of the indicator with the all-colorings family, an identity the
    verification suite checks on small orders.
    """
    if any(g.degree(v) == 0 for v in range(1, g.n + 1)):
        raise PreconditionError("antimagic needs a graph without isolated vertices")
    return _coloring_scan("antimagic", g, None, limits)


# -- irregular labelings --------------------------------------------------------


def _strength_accept(n: int):
    def accept(p: RingElem) -> bool:
        return len(set(_dense_x_constants(p, n))) == n

    return accept


def irregular_weighted(
    g: WeightedCompleteGraph, limits: Limits = DEFAULT_LIMITS
) -> Verdict:
    """Are all endpoint sums of this weighting distinct?  Scans it against
    the degree reader, whose coefficients are the endpoint sums."""
    if g.n < 2:
        raise PreconditionError("irregularity needs at least two vertices")
    return _weighting_scan("strength", (g,), g.n, "irregularity check", limits)


def strength_at_most(g: SimpleGraph, k: int, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Does some edge labeling by {1..k} give pairwise distinct vertex sums?

    Holds exactly when the irregularity strength is at most k.  Coefficients
    are compared over all n positions, zeros included.
    """
    if k < 1:
        raise PreconditionError("the label bound k must be positive")
    if any(g.degree(v) == 0 for v in range(1, g.n + 1)):
        raise PreconditionError("irregularity strength needs no isolated vertices")
    return _coloring_scan("strength", g, k, limits)


# -- local irregularity / 1-2-3 ---------------------------------------------------


def local_irregular_weighted(
    g: WeightedCompleteGraph, limits: Limits = DEFAULT_LIMITS
) -> Verdict:
    """Do adjacent vertices always get different endpoint sums?

    Scans the weighting against the contrast reader, one endpoint-sum
    contrast per x-coefficient; a nonzero purely imaginary coefficient marks
    an adjacent tie.  The identity bijection decides, as in
    :func:`one_two_three`.
    """
    return _weighting_scan("one-two-three", (g,), g.n, "local irregularity search", limits)


def _one_two_three_accept(p: RingElem) -> bool:
    # No nonzero purely imaginary x-coefficient; same test as running
    # classify() over every coefficient.
    for (_dx, _dy), (re, im) in p._terms.items():
        if re == 0 and im != 0:
            return False
    return True


def one_two_three(g: SimpleGraph, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Does some edge labeling by {1,2,3} make the graph locally irregular?

    Requires every component to have order at least 3.  A labeling is accepted
    when no coefficient of its contrast-reader polynomial is a nonzero purely
    imaginary number (zero coefficients, from absent pairs, are fine).
    """
    orders = component_orders(g)
    if orders[0] < 3:
        raise PreconditionError(
            f"a component of order {orders[0]} < 3 is present"
        )
    return _coloring_scan("one-two-three", g, None, limits)


# -- domination -------------------------------------------------------------------


def dominating_set_of(f: Sequence[int], n: int, k: int) -> frozenset:
    """The candidate dominating set selected by a bijection: the f-image of
    the k tail vertices."""
    return frozenset(f[n - k:])


@lru_cache(maxsize=None)
def _tail_masks(k: int, n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """One ``(f, heads, tail)`` entry per k-subset T of {1..n}, in lex order
    of f: the bijection, the indices f(j)-1 of its heads f(1..n-k) into
    :attr:`SimpleGraph.masks`, and the bitmask of its tail vertices
    f(n-k+1..n), bit v-1 standing for vertex v as in those masks.

    f is the lexicographically least bijection with tail image T: the heads
    go to the sorted complement of T, the tails to sorted T.  Against a graph
    indicator, permuting the tails leaves the product with
    :func:`domination_probe` unchanged and permuting the heads only permutes
    its coefficients x^0..x^(n-k-1), so the domination verdict depends on T
    alone and each entry stands for (n-k)! * k! bijections."""
    cut = n - k
    vertices = range(1, n + 1)
    reps = sorted(
        tuple(v for v in vertices if v not in tail) + tail
        for tail in itertools.combinations(vertices, k)
    )
    return tuple(
        (f, tuple(v - 1 for v in f[:cut]), sum(1 << (v - 1) for v in f[cut:])) for f in reps
    )


def dominating_k(g: SimpleGraph, k: int, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Does the graph have a dominating set of size k?

    Searches bijections f of the domination probe against the indicator; a
    witness needs every coefficient x^0..x^(n-k-1) nonzero.  Coefficients at
    x^(n-k) and above are structurally zero and excluded from the test.  The
    verdict depends only on the image of the tail, so one bijection per
    k-subset is scanned (:func:`_tail_masks`).

    No ring sum is formed per bijection: the coefficient of x^(j-1) counts
    the neighbours of the head f(j) among the tail vertices, so f is
    accepted when every head's adjacency bitmask meets the tail's bitmask.
    The adjacency bitmasks are the graph's own :attr:`SimpleGraph.masks`,
    built once per graph and shared by every k; the tails come from a table
    cached per (k, n).  Only the witness polynomial is built, from those
    counts, all nonzero.  The scan stops at the first accepted
    representative, the first witness of the full n! scan.
    ``verify --identity orbit`` checks the verdict, the witness bijection and
    its polynomial against the ring scan over all n! bijections.
    """
    n = g.n
    if not 1 <= k <= n - 1:
        raise PreconditionError(f"k must be in 1..{n - 1}, got {k}")
    limits.check_n(n)
    limits.check_steps(math.factorial(n), "domination search")
    table = _tail_masks(k, n)
    adj = g.masks
    for scanned, (f, heads, tail) in enumerate(limits.polled(table), 1):
        for h in heads:
            if not adj[h] & tail:
                break
        else:
            counts = {(j, 0): ((adj[h] & tail).bit_count(), 0) for j, h in enumerate(heads)}
            return Verdict(
                True,
                witness_polynomial=RingElem._raw(counts),
                witness_graph=domination_probe(k, n),
                witness_bijection=f,
                stats=SearchStats(members=1, bijections=scanned),
            )
    return Verdict(False, stats=SearchStats(members=1, bijections=len(table)))


# -- edge Roman domination -----------------------------------------------------------


def decode_edge_roman(h: WeightedCompleteGraph, g: SimpleGraph) -> dict[tuple[int, int], int]:
    """Decode a {0,-1,y} coloring into an edge function E(G) -> {0,1,2} by the
    ``edge-roman`` labels, ``ROMAN_LABELS``: -1 maps to 0, 0 to 1, y to 2."""
    return _witness_labels("edge-roman", g, None, h)


def _edge_roman_accept(n: int, m: int, k: int):
    scale = 2 * n - 4

    def accept(p: RingElem) -> bool:
        # A coefficient lies in -i + Z exactly when its y-free part has
        # imaginary part -1 and no y term rescues it; same test as
        # classify() per coefficient.  The coefficient sum is p(1, 1).
        total_re = total_im = 0
        minus_i: set[int] = set()
        has_y: set[int] = set()
        for (dx, dy), (re, im) in p._terms.items():
            total_re += re
            total_im += im
            if dy:
                has_y.add(dx)
            elif im == -1:
                minus_i.add(dx)
        # Substituting x=1 collapses the reader to (2n-4+i) times the
        # complete indicator, so p(1,1) = (2n-4+i)w for the coloring's total
        # weight w at y=1, the same for every bijection (property-tested).
        # A quotient s+ti gives re - (2n-4)im = -t(1+(2n-4)^2): it is the
        # real integer w = im exactly when re = (2n-4)im.
        if total_re != scale * total_im:
            raise NotDivisibleError(
                f"p(1,1) = {total_re}{total_im:+d}i is not (2n-4+i) times a real integer"
            )
        if m + total_im > k:
            return False
        return not (minus_i - has_y)

    return accept


def edge_roman_at_most(g: SimpleGraph, k: int, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Is the edge Roman domination number at most k?

    Enumerates {0,-1,y} colorings; a coloring qualifies when (a) no
    x-coefficient of its cover-reader polynomial lies in -i + Z, and (b) the
    decoded weight |E| + p(1,1)/(2n-4+i) is at most k, where the quotient is
    required to be a real integer; it is then Im p(1,1), read with no
    division.

    The characterization's native range is k < |E|; for k >= |E| the same
    enumeration decides the (then trivially true) bound, since labeling every
    edge 1 always has weight |E|.
    """
    if g.m < 1:
        raise PreconditionError("edge Roman domination needs at least one edge")
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    return _coloring_scan("edge-roman", g, k, limits)


class _Labeling(NamedTuple):
    """A labeling read off a reader gadget: its guards' name, the palette size
    ``size(m, k)`` for |E| = m and bound k, the colour -> edge label map
    ``labels(p)`` of p colours, the ``gadget(n)`` and the ``accept(n, m, k)``,
    which looks its factory up when called."""

    what: str
    size: Callable[[int, int | None], int]
    labels: Callable[[int], Mapping[RingElem, int]]
    gadget: Callable[[int], WeightedCompleteGraph]
    accept: Callable[[int, int | None, int | None], Callable[[RingElem], bool]]


def _integer_labels(p: int) -> dict[RingElem, int]:
    return dict(zip(integer_palette(p), range(1, p + 1)))


# Every labeling search, keyed by its verify subject, in the order of the orbit rows.
_LABELINGS = {
    "strength": _Labeling("strength", lambda _m, k: k, _integer_labels, degree_reader,
                          lambda n, _m, _k: _strength_accept(n)),
    "one-two-three": _Labeling("1-2-3", lambda _m, _k: 3, _integer_labels, contrast_reader,
                               lambda _n, _m, _k: _one_two_three_accept),
    "antimagic": _Labeling("antimagic", lambda m, _k: m, _integer_labels, _antimagic_gadget,
                           lambda n, _m, _k: _antimagic_accept(n)),
    "edge-roman": _Labeling("edge Roman", lambda _m, _k: len(ROMAN_LABELS),
                            lambda _p: ROMAN_LABELS, cover_reader,
                            lambda n, m, k: _edge_roman_accept(n, m, k)),
}


# -- Hamiltonian spectra ---------------------------------------------------------------


_NEEDS_CONNECTED = "the Hamiltonian spectrum needs a connected graph"


@lru_cache(maxsize=None)
def _subset_steps(n: int) -> tuple[tuple[int, ...], ...]:
    """For each set s of the vertices 1..n-1 (0-based, bit w-1 of s standing
    for w), one step per vertex w outside s: the index ``(s | {w}) * n + w``
    of the paths through s and w that end at w, in the table of
    :func:`_cycle_lengths`.  It depends on n alone, so it is built once per
    n and kept for every graph of that order."""
    return tuple(
        tuple((s | 1 << (w - 1)) * n + w for w in range(1, n) if not s >> (w - 1) & 1)
        for s in range(1 << (n - 1))
    )


def _cycle_lengths(dist: list[list[int]], limits: Limits) -> int:
    """The lengths of the Hamiltonian cycles of a graph's distance weighting,
    as a bitset: bit t is set when some cyclic order of the vertices has
    distance sum t.  ``dist[u][v]`` is the distance of the 0-based vertices u
    and v.

    Held & Karp's subset recursion ("A dynamic programming approach to
    sequencing problems", 1962) with a bitset of path lengths in place of a
    minimum.  Vertices are 0-based, and a set s of the vertices 1..n-1 is a
    bitmask, bit v-1 standing for v.  Entry ``s * n + v`` of ``paths`` holds
    the lengths of the paths that start at vertex 0, visit exactly vertex 0
    and s, and end at v: v in s, or v = 0 for the empty s.  Extending such a
    path to w is one shift-or, and the last step closes every path through
    all vertices back to vertex 0."""
    n = len(dist)
    steps = _subset_steps(n)
    paths = [0] * (n << (n - 1))
    paths[0] = 1  # the path of length 0 that stays at vertex 0
    for s in limits.polled(range(1 << (n - 1))):
        ahead = steps[s]
        for v in range(n):
            lengths = paths[s * n + v]
            if lengths:
                dv = dist[v]
                for t in ahead:
                    paths[t] |= lengths << dv[t % n]
    out = 0
    for v, lengths in enumerate(paths[-n:]):
        out |= lengths << dist[v][0]
    return out


def _distance_matrix(g: SimpleGraph, limits: Limits) -> list[list[int]]:
    """The head both Hamiltonian routes share: the size guard, then g's
    distance matrix (:func:`all_pairs_distances`), which also shows whether g
    is connected: an entry is None when no path joins its pair."""
    limits.check_n(g.n)
    dist = all_pairs_distances(g)
    if any(None in row for row in dist):
        raise PreconditionError(_NEEDS_CONNECTED)
    return dist


def _length_spectrum(lengths: int, limits: Limits) -> Spectrum:
    """The tail both Hamiltonian routes share: the family guard on the
    distinct totals, then the spectrum of the set bits of ``lengths``."""
    limits.check_family(lengths.bit_count(), "Hamiltonian spectrum")
    return Spectrum(ring.const(t) for t in range(lengths.bit_length()) if lengths >> t & 1)


def hamiltonian_spectrum(
    h: SimpleGraph, g: SimpleGraph, limits: Limits = DEFAULT_LIMITS
) -> Spectrum:
    """All values of the distance sum of g over bijective placements of h.

    These are the total weights s(h *_f g) of the family product of h's
    indicator with g's distance weighting, over every bijection f; no product
    is built.  ``verify --identity orbit`` checks the result against the full
    products.

    When h is the labelled cycle 1-2-...-n, this is
    :func:`hamiltonian_cycle_spectrum`.  Any other h scans all n! bijections
    and the step guard counts them.  The indicator's weights are 0 and 1, so
    the total under f is the sum of the distances of the pairs that f maps
    h's edges onto: a nonnegative integer, kept as one bit of a bitset of
    totals, like the cycle lengths.  The family guard counts the distinct
    totals once the scan is done.  The bijections are generated one at a
    time, and no table of them is kept."""
    n = g.n
    if h.n != n:
        raise PreconditionError(
            f"graphs must share one order, got {h.n} and {n}"
        )
    if n >= 3 and h == cycle_graph(n):
        return hamiltonian_cycle_spectrum(g, limits)
    dist = _distance_matrix(g, limits)
    limits.check_steps(math.factorial(n), "Hamiltonian spectrum")
    edges = [(u - 1, v - 1) for u, v in h.edges]
    lengths = 0
    for f in limits.polled(itertools.permutations(range(n))):
        lengths |= 1 << sum([dist[f[u]][f[v]] for u, v in edges])
    return _length_spectrum(lengths, limits)


def hamiltonian_cycle_spectrum(g: SimpleGraph, limits: Limits = DEFAULT_LIMITS) -> Spectrum:
    """The Hamiltonian spectrum of the n-cycle in g; its minimum is the
    Hamiltonian number.

    The totals are the lengths of g's Hamiltonian cycles under its distance
    weighting, read from one bitset (:func:`_cycle_lengths`); the step guard
    counts the recursion's 2^(n-1)*n^2 steps and the family guard the
    distinct lengths."""
    n = g.n
    if n < 3:
        raise PreconditionError("the Hamiltonian number needs at least 3 vertices")
    dist = _distance_matrix(g, limits)
    limits.check_steps(2 ** (n - 1) * n * n, "Hamiltonian spectrum")
    return _length_spectrum(_cycle_lengths(dist, limits), limits)


def hamiltonian_number(g: SimpleGraph, limits: Limits = DEFAULT_LIMITS) -> int:
    """Minimum length of a closed walk through all vertices, via the cycle
    spectrum."""
    return min(hamiltonian_cycle_spectrum(g, limits).as_integers())
