"""Family-level algebra on weighted complete graphs.

A :class:`GraphFamily` is a finite deduplicated set of weighted complete
graphs sharing one vertex count.  The three family operations are

* product: all star products over all member pairs and all n! bijections,
* sum: all pairwise edgewise sums,
* power fixpoint: iterate ``F, F*F, (F*F)*F, ...`` until two consecutive
  powers agree as sets.

Since h *_f g = h * (g∘f), a product is the set of pointwise products with
the right factor's relabel closure: no more than the factor itself when it
is closed (edge-deleted indicators, their powers, all-colorings families),
and n or C(n,2) relabelings of a single probe, never all n! bijections.

Families and spectra hold their members as a set and sort them, in one
canonical order, only when the order is read (``members``, iteration,
``to_json``), so every downstream result is deterministic regardless of
construction order or worker interleaving.  Products, sums, closures and
spectra work on the sets and sort nothing.

Two bounded LRU caches keep what depends only on its inputs: the
all-colorings family per (n, k) and the caller's caps, and the relabel
closure per right factor and ``max_family``.  Each holds
``_CACHE_ENTRIES`` entries of at most ``max_family`` members, a size the
caller's guard already admitted; a hit still applies the guards and polls
the deadline.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from . import ring
from .errors import PreconditionError, StabilizationError
from .gadgets import (
    WeightedCompleteGraph,
    edge_indicator,
    generator_pair_maps,
    indicator,
    pairs_in_rank_order,
)
from .graphs import SimpleGraph, complete_graph
from .limits import DEFAULT_LIMITS, Limits
from .ring import RingElem

__all__ = [
    "GraphFamily",
    "Spectrum",
    "FixpointResult",
    "singleton",
    "is_relabel_closed",
    "family_product",
    "family_sum",
    "power_fixpoint",
    "edge_deleted_family",
    "all_colorings_family",
    "colorings_of_graph",
    "in_palette_family",
    "iter_colorings",
    "spectrum_of",
    "ROMAN_PALETTE",
    "integer_palette",
]


class GraphFamily:
    """A deduplicated set of weighted complete graphs of one order.

    Length, membership, equality and hashing use the set; ``members`` is the
    canonical sorted order, computed on first read."""

    __slots__ = ("n", "_member_set", "_members")

    def __init__(self, n: int, members: Iterable[WeightedCompleteGraph]):
        member_set = frozenset(members)
        for m in member_set:
            if m.n != n:
                raise PreconditionError(
                    f"family of order {n} cannot contain a graph of order {m.n}"
                )
        self.n = n
        self._member_set = member_set
        self._members: tuple[WeightedCompleteGraph, ...] | None = None

    @property
    def members(self) -> tuple[WeightedCompleteGraph, ...]:
        if self._members is None:
            self._members = tuple(sorted(self._member_set, key=WeightedCompleteGraph.sort_key))
        return self._members

    def __len__(self) -> int:
        return len(self._member_set)

    def __iter__(self) -> Iterator[WeightedCompleteGraph]:
        return iter(self.members)

    def __contains__(self, item: object) -> bool:
        return item in self._member_set

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GraphFamily)
            and self.n == other.n
            and self._member_set == other._member_set
        )

    def __hash__(self) -> int:
        return hash((self.n, self._member_set))

    def __repr__(self) -> str:
        return f"GraphFamily(n={self.n}, members={len(self)})"

    def to_json(self, member_threshold: int = 1000) -> dict:
        """Count always present; members listed only up to the threshold."""
        out: dict = {"n": self.n, "count": len(self)}
        if len(self) <= member_threshold:
            out["members"] = [m.to_json() for m in self.members]
        return out


class Spectrum:
    """The deduplicated set of total weights of a family; ``values`` is the
    canonical sorted order, computed on first read."""

    __slots__ = ("_value_set", "_values")

    def __init__(self, values: Iterable[RingElem]):
        self._value_set = frozenset(values)
        self._values: tuple[RingElem, ...] | None = None

    @property
    def values(self) -> tuple[RingElem, ...]:
        if self._values is None:
            self._values = tuple(sorted(self._value_set, key=RingElem.sort_key))
        return self._values

    def __len__(self) -> int:
        return len(self._value_set)

    def __iter__(self) -> Iterator[RingElem]:
        return iter(self.values)

    def __contains__(self, item: object) -> bool:
        return item in self._value_set

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Spectrum) and self._value_set == other._value_set

    def __hash__(self) -> int:
        return hash(self._value_set)

    def as_integers(self) -> tuple[int, ...]:
        """Sorted integer values; raises unless every member is a real integer constant."""
        out = []
        for v in self.values:
            c = v.constant_value()
            if c.im != 0:
                raise ValueError(f"spectrum value {v} is not a real integer")
            out.append(c.re)
        return tuple(sorted(out))

    def to_json(self) -> list:
        return [v.to_json() for v in self.values]

    def __repr__(self) -> str:
        return f"Spectrum({', '.join(str(v) for v in self.values)})"


class FixpointResult(NamedTuple):
    family: GraphFamily
    products: int  # number of family products computed before stabilizing


def singleton(member: WeightedCompleteGraph) -> GraphFamily:
    return GraphFamily(member.n, (member,))


def spectrum_of(family: GraphFamily | Iterable[WeightedCompleteGraph]) -> Spectrum:
    members = family._member_set if isinstance(family, GraphFamily) else family
    return Spectrum(m.total_weight() for m in members)


# Entries per family cache.  A constant, not an option: each entry holds at
# most max_family members, a size the caller's own guard already admitted.
_CACHE_ENTRIES = 16


def _bounded_cache(key: Callable[..., Hashable]):
    """Memoize a family-building function in an LRU of ``_CACHE_ENTRIES``
    entries, looked up by ``key(*args)``.  A call that raises caches
    nothing.  The wrapper has ``cache_clear()`` and ``cache_len()``."""

    def decorate(build):
        entries: OrderedDict = OrderedDict()

        @functools.wraps(build)
        def cached(*args):
            k = key(*args)
            if k in entries:
                entries.move_to_end(k)
                return entries[k]
            value = entries[k] = build(*args)
            if len(entries) > _CACHE_ENTRIES:
                entries.popitem(last=False)
            return value

        cached.cache_clear = entries.clear
        cached.cache_len = entries.__len__
        return cached

    return decorate


@_bounded_cache(lambda family, limits: (family, limits.max_family))
def _relabel_closure(
    family: GraphFamily, limits: Limits
) -> tuple[WeightedCompleteGraph, ...]:
    """Every relabeling g∘f of every member g: a breadth-first orbit walk
    along the generators (1 2) and (1 2 ... n) of all bijections (Holt, Eick
    & O'Brien, Handbook of Computational Group Theory, 2005, §4.1), 2 steps
    per closure member.  The closure size counts against ``max_family``.

    Cached per (family, max_family) in a bounded LRU; the deadline is not
    part of the key, so a hit does not poll it and callers must."""
    gens = [pair_map for _f, pair_map in generator_pair_maps(family.n)]
    closure = list(family._member_set)
    seen = set(closure)
    limits.check_time()
    # the loop also visits the relabelings it appends, in the order found
    for step, g in enumerate(closure, 1):
        ws = g.weights
        for pair_map in gens:
            relabeled = WeightedCompleteGraph(g.n, tuple(ws[q] for q in pair_map))
            if relabeled not in seen:
                seen.add(relabeled)
                closure.append(relabeled)
        if len(closure) > limits.max_family:
            limits.check_family(len(closure), "relabel closure")
        if not step % 4096:
            limits.check_time()
    return tuple(closure)


def is_relabel_closed(family: GraphFamily, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Does every relabeling of every member lie in the family?  Exactly when
    the relabel closure is no larger than the family."""
    return len(_relabel_closure(family, limits)) == len(family)


def family_product(
    left: GraphFamily, right: GraphFamily, limits: Limits = DEFAULT_LIMITS
) -> GraphFamily:
    """All star products left *_f right over members and bijections.

    Since h *_f g = h * (g∘f), these are the pointwise products of each left
    member with each member of the right family's relabel closure.  The
    step guard still counts all n! bijections."""
    if left.n != right.n:
        raise PreconditionError(
            f"family product needs equal orders, got {left.n} and {right.n}"
        )
    n = left.n
    limits.check_n(n)
    limits.check_steps(
        len(left) * len(right) * math.factorial(n), "family product"
    )
    closure = _relabel_closure(right, limits)
    limits.check_time()
    out: set[WeightedCompleteGraph] = set()
    pairs = itertools.product(left._member_set, closure)
    for step, (h, g) in enumerate(pairs, 1):
        out.add(WeightedCompleteGraph(n, tuple(a * b for a, b in zip(h.weights, g.weights))))
        if len(out) > limits.max_family:
            limits.check_family(len(out), "family product")
        if not step % 4096:
            limits.check_time()
    return GraphFamily(n, out)


def family_sum(
    left: GraphFamily, right: GraphFamily, limits: Limits = DEFAULT_LIMITS
) -> GraphFamily:
    """All pairwise edgewise sums."""
    if left.n != right.n:
        raise PreconditionError(
            f"family sum needs equal orders, got {left.n} and {right.n}"
        )
    limits.check_steps(len(left) * len(right), "family sum")
    limits.check_time()
    out: set[WeightedCompleteGraph] = set()
    pairs = itertools.product(left._member_set, right._member_set)
    for step, (h, g) in enumerate(pairs, 1):
        out.add(h + g)
        if len(out) > limits.max_family:
            limits.check_family(len(out), "family sum")
        if not step % 4096:
            limits.check_time()
    return GraphFamily(left.n, out)


def power_fixpoint(
    family: GraphFamily, limits: Limits = DEFAULT_LIMITS
) -> FixpointResult:
    """Iterate star powers until two consecutive powers agree as sets.

    Stabilization is verified per instance, never assumed: if the sequence
    has not settled after C(n,2)+2 products, a :class:`StabilizationError`
    is raised."""
    cap = family.n * (family.n - 1) // 2 + 2
    current = family
    for step in range(1, cap + 1):
        nxt = family_product(current, family, limits)
        if nxt == current:
            return FixpointResult(current, step)
        current = nxt
    raise StabilizationError(
        f"family power did not stabilize within {cap} products"
    )


def edge_deleted_family(n: int) -> GraphFamily:
    """Indicators of the complete graph with one pair deleted, one per pair."""
    if n < 2:
        raise ValueError("need n >= 2 to delete an edge")
    full = indicator(complete_graph(n))
    members = []
    for idx in range(n * (n - 1) // 2):
        weights = list(full.weights)
        weights[idx] = ring.ZERO
        members.append(WeightedCompleteGraph(n, weights))
    return GraphFamily(n, members)


def all_colorings_family(
    n: int, k: int, limits: Limits = DEFAULT_LIMITS
) -> GraphFamily:
    """The family whose star product with a graph indicator produces every
    edge labeling of that graph by {1..k}.

    Built from the power fixpoint of the edge-deleted indicators: k-1 family
    sums of (fixpoint plus the complete indicator) and one final shift by the
    complete indicator.  Every call checks ``max_n`` and the family size and
    polls the deadline; the family itself is built once per (n, k) and caps,
    see :func:`_all_colorings`."""
    if n < 2 or k < 1:
        raise PreconditionError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    limits.check_n(n)
    limits.check_family(k ** (n * (n - 1) // 2), f"all {k}-colorings of order {n}")
    limits.check_time()
    return _all_colorings(n, k, limits)


@_bounded_cache(lambda n, k, limits: (n, k, limits.max_n, limits.max_family, limits.max_steps))
def _all_colorings(n: int, k: int, limits: Limits) -> GraphFamily:
    """The all-colorings family, cached per (n, k, max_n, max_family,
    max_steps) in a bounded LRU.  The deadline is not part of the key; a
    miss builds under the caller's own limits, so every loop polls it."""
    full = indicator(complete_graph(n))
    acc = singleton(WeightedCompleteGraph.zero(n))
    if k > 1:
        base_members = set(power_fixpoint(edge_deleted_family(n), limits).family._member_set)
        base_members.add(full)
        base = GraphFamily(n, base_members)
        for _ in range(k - 1):
            acc = family_sum(acc, base, limits)
    return family_sum(acc, singleton(full), limits)


def integer_palette(k: int) -> tuple[RingElem, ...]:
    """The labels {1..k} as ring constants."""
    return tuple(ring.const(c) for c in range(1, k + 1))


# Colors for the edge Roman encoding: 0 decodes to label 1, -1 to label 0,
# y to label 2.
ROMAN_PALETTE: tuple[RingElem, ...] = (ring.ZERO, ring.const(-1), ring.Y)


def in_palette_family(
    h: WeightedCompleteGraph,
    palette: Sequence[RingElem],
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """Definitional membership test for the family of palette-weighted
    complete graphs: the spectrum of h against the single-edge probe (the set
    of all pair weights) must lie inside the palette.

    The full family is never materialized (3^C(n,2) members for the edge
    Roman palette); products with it go through :func:`colorings_of_graph`.
    """
    if h.n < 2:
        return True
    probe = singleton(edge_indicator(1, 2, h.n))
    spec = spectrum_of(family_product(singleton(h), probe, limits))
    return spec._value_set <= set(palette)


def iter_colorings(
    g: SimpleGraph, palette: Sequence[RingElem]
) -> Iterator[WeightedCompleteGraph]:
    """Every assignment of palette values to E(G), zeros on non-edges.

    Enumeration order: edges sorted by pair rank, palette canonically sorted,
    assignments in lexicographic product order."""
    colors = sorted(set(palette), key=RingElem.sort_key)
    pairs = pairs_in_rank_order(g.n)
    edge_positions = [p for p, pair in enumerate(pairs) if pair in g.edges]
    base = [ring.ZERO] * len(pairs)
    for combo in itertools.product(colors, repeat=len(edge_positions)):
        weights = list(base)
        for pos, value in zip(edge_positions, combo):
            weights[pos] = value
        yield WeightedCompleteGraph(g.n, weights)


def colorings_of_graph(
    g: SimpleGraph, palette: Sequence[RingElem], limits: Limits = DEFAULT_LIMITS
) -> GraphFamily:
    """The materialized family of all palette colorings of E(G).

    This is the direct construction; the family-algebra route
    (indicator * all_colorings_family) must produce the same set, which the
    verification suite checks on small orders."""
    distinct = len(set(palette))
    limits.check_family(distinct ** g.m, f"{distinct}-colorings of {g.m} edges")
    return GraphFamily(g.n, iter_colorings(g, palette))
