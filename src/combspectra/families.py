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

Almost every pointwise product here multiplies a weight by 0 or 1, since
the left factor is a graph indicator or a 0/1 power.  ``ring.product``
hands back ``ZERO`` or the other weight itself, so such products share
their members' elements and cached hashes instead of building new ones.
On a 2-core VM this cuts ``verify --theorem fixpoint --max-n 5`` (1,023
members at n = 5) and ``colorings --max-n 5 --k 2`` to about a third of
their time without it.

Families and spectra hold their members as a set and sort them, in one
canonical order, only when the order is read (``members``, iteration,
``to_json``), so every downstream result is deterministic regardless of
construction order or worker interleaving.  Products, sums, closures and
spectra work on the sets and sort nothing.

Two ``functools.lru_cache`` caches keep what depends only on their
arguments: the all-colorings family per (n, k, limits) and the relabel
closure per (right factor, limits).  The key is the whole frozen
:class:`Limits`, deadline included, so a CLI command, which builds one
``Limits``, hits on its repeated families, and equal ``Limits`` built apart
share entries.  Each cache holds ``_CACHE_ENTRIES`` entries of at most
``max_family`` members, a size the caller's guard already admitted; a hit
of the all-colorings cache still applies the guards and polls the deadline.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    "ROMAN_LABELS",
    "ROMAN_PALETTE",
    "integer_palette",
]


class _SortedSet:
    """A frozen set whose canonical sorted order, by the subclass's
    ``_sort_key``, is computed on first read.  Length, membership, equality
    and hashing use the set."""

    __slots__ = ("_items", "_order")
    _sort_key: Callable

    def __init__(self, items: Iterable) -> None:
        self._items = frozenset(items)
        self._order: tuple | None = None

    @property
    def _sorted(self) -> tuple:
        if self._order is None:
            # on the type: a plain function stored on the class would bind to self
            self._order = tuple(sorted(self._items, key=type(self)._sort_key))
        return self._order

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._sorted)

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)


class GraphFamily(_SortedSet):
    """A deduplicated set of weighted complete graphs of one order;
    ``members`` is the canonical sorted order."""

    __slots__ = ("n",)
    _sort_key = WeightedCompleteGraph.sort_key
    members = _SortedSet._sorted

    def __init__(self, n: int, members: Iterable[WeightedCompleteGraph]):
        super().__init__(members)
        for m in self._items:
            if m.n != n:
                raise PreconditionError(
                    f"family of order {n} cannot contain a graph of order {m.n}"
                )
        self.n = n

    def __eq__(self, other: object) -> bool:
        return super().__eq__(other) and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self._items))

    def __repr__(self) -> str:
        return f"GraphFamily(n={self.n}, members={len(self)})"

    def to_json(self, member_threshold: int = 1000) -> dict:
        """Count always present; members listed only up to the threshold."""
        out: dict = {"n": self.n, "count": len(self)}
        if len(self) <= member_threshold:
            out["members"] = [m.to_json() for m in self.members]
        return out


class Spectrum(_SortedSet):
    """The deduplicated set of total weights of a family; ``values`` is the
    canonical sorted order."""

    __slots__ = ()
    _sort_key = RingElem.sort_key
    values = _SortedSet._sorted

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
    members = family._items if isinstance(family, GraphFamily) else family
    return Spectrum(m.total_weight() for m in members)


# Entries per family cache.  A constant, not an option: each entry holds at
# most max_family members, a size the caller's own guard already admitted.
_CACHE_ENTRIES = 16


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _relabel_closure(
    family: GraphFamily, limits: Limits
) -> tuple[WeightedCompleteGraph, ...]:
    """Every relabeling g∘f of every member g: a breadth-first orbit walk
    along the generators (1 2) and (1 2 ... n) of all bijections (Holt, Eick
    & O'Brien, Handbook of Computational Group Theory, 2005, §4.1), 2 steps
    per closure member.  The closure size counts against ``max_family``.

    Cached per (family, limits); a hit does not poll the deadline, so
    callers must."""
    gens = [pair_map for _f, pair_map in generator_pair_maps(family.n)]
    closure = list(family._items)
    seen = set(closure)
    # the loop also visits the relabelings it appends, in the order found
    for g in limits.polled(closure):
        for pair_map in gens:
            relabeled = g.relabeled(pair_map)
            if relabeled not in seen:
                seen.add(relabeled)
                closure.append(relabeled)
        if len(closure) > limits.max_family:
            limits.check_family(len(closure), "relabel closure")
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
    out: set[WeightedCompleteGraph] = set()
    for h, g in limits.polled(itertools.product(left._items, closure)):
        out.add(h * g)
        if len(out) > limits.max_family:
            limits.check_family(len(out), "family product")
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
    out: set[WeightedCompleteGraph] = set()
    for h, g in limits.polled(itertools.product(left._items, right._items)):
        out.add(h + g)
        if len(out) > limits.max_family:
            limits.check_family(len(out), "family sum")
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
    polls the deadline; the family itself is built once per (n, k, limits),
    see :func:`_all_colorings`."""
    if n < 2 or k < 1:
        raise PreconditionError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    limits.check_n(n)
    limits.check_family(k ** (n * (n - 1) // 2), f"all {k}-colorings of order {n}")
    limits.check_time()
    return _all_colorings(n, k, limits)


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _all_colorings(n: int, k: int, limits: Limits) -> GraphFamily:
    """The all-colorings family, cached per (n, k, limits).  A miss builds
    under the caller's own limits, so every loop polls the deadline."""
    full = indicator(complete_graph(n))
    acc = singleton(WeightedCompleteGraph.zero(n))
    if k > 1:
        base_members = set(power_fixpoint(edge_deleted_family(n), limits).family._items)
        base_members.add(full)
        base = GraphFamily(n, base_members)
        for _ in range(k - 1):
            acc = family_sum(acc, base, limits)
    return family_sum(acc, singleton(full), limits)


def integer_palette(k: int) -> tuple[RingElem, ...]:
    """The labels {1..k} as ring constants."""
    return tuple(ring.const(c) for c in range(1, k + 1))


# The edge Roman encoding: each color and the label {0, 1, 2} it decodes to.
ROMAN_LABELS: dict[RingElem, int] = {ring.ZERO: 1, ring.const(-1): 0, ring.Y: 2}
ROMAN_PALETTE: tuple[RingElem, ...] = tuple(ROMAN_LABELS)


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
    return spec._items <= set(palette)


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
    return GraphFamily(g.n, limits.polled(iter_colorings(g, palette)))
