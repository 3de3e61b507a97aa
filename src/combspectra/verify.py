"""Corpus-level verification: spectral characterizations against brute force.

Each theorem subject sweeps every connected graph up to a size cap, runs the
spectrum characterization and the matching oracle, and reports per-graph
agreement rows; identity subjects check the algebraic identities the
constructions rely on.  Each kind reads its subjects from one table:
``_THEOREMS`` gives a theorem subject's row builder, least order and default
label bounds (None when it takes none), ``_IDENTITIES`` an identity subject's
suite and the options it reads.  Reports contain no timing and keep a
canonical row order, so the emitted JSON is byte-identical across runs and
worker counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Callable, Sequence

from . import characterize as ch
from . import oracles as orc
from . import ring
from .corpus import connected_graphs, connected_graphs_up_to
from .errors import PreconditionError, UsageError
from .families import (
    ROMAN_PALETTE,
    GraphFamily,
    Spectrum,
    all_colorings_family,
    colorings_of_graph,
    edge_deleted_family,
    family_product,
    integer_palette,
    is_relabel_closed,
    iter_colorings,
    power_fixpoint,
    singleton,
    spectrum_of,
)
from .gadgets import (
    WeightedCompleteGraph,
    bijection_pair_maps,
    contrast_reader,
    cover_reader,
    degree_reader,
    distance_weighting,
    domination_probe,
    edge_indicator,
    identity_pair_maps,
    indicator,
    pair_reader,
    pairs_in_rank_order,
    star_indicator,
)
from .graphs import SimpleGraph, complete_graph, cycle_graph, parse_graph6, to_graph6
from .limits import DEFAULT_LIMITS, Limits
from .ring import GaussInt, random_element, random_gauss_int

__all__ = [
    "THEOREM_SUBJECTS",
    "IDENTITY_SUBJECTS",
    "IDENTITY_READS",
    "run_theorem",
    "run_identity",
]

REPORT_SCHEMA = "1"

# -- per-graph row builders ------------------------------------------------------
#
# Each takes (graph, ks, limits), the fixpoint builder the order for the graph.


def _agreement_row(
    g6: str, g: SimpleGraph, spectral: object, oracle: object, **fields: object
) -> dict:
    """The row comparing the spectral answer on g, whose graph6 is g6, with the
    oracle's; where a ``witness_ok`` field is given, it must hold too for the
    row to agree."""
    return {
        "graph": g6,
        "n": g.n,
        "m": g.m,
        **fields,
        "spectral": spectral,
        "oracle": oracle,
        "agree": spectral == oracle and fields.get("witness_ok", True),
    }


def _rows_colorings(g: SimpleGraph, ks: Sequence[int], limits: Limits) -> list[dict]:
    g6 = to_graph6(g)
    rows = []
    for k in ks:
        built = family_product(
            singleton(indicator(g)), all_colorings_family(g.n, k, limits), limits
        )
        direct = colorings_of_graph(g, integer_palette(k), limits)
        rows.append(
            {
                "graph": g6,
                "n": g.n,
                "m": g.m,
                "k": k,
                "family_count": len(built),
                "direct_count": len(direct),
                "expected_count": k**g.m,
                "agree": built == direct and len(direct) == k**g.m,
            }
        )
    return rows


def _rows_fixpoint(n: int, _ks: Sequence[int], limits: Limits) -> list[dict]:
    result = power_fixpoint(edge_deleted_family(n), limits)
    # Direct description of the fixed point: every 0/1 weighting of the
    # complete graph that keeps at least one zero pair.
    full = indicator(complete_graph(n))
    direct = {
        w
        for w in colorings_of_graph(
            complete_graph(n), (ring.ZERO, ring.ONE), limits
        )
        if w != full
    }
    return [
        {
            "n": n,
            "count": len(result.family),
            "expected_count": 2 ** (n * (n - 1) // 2) - 1,
            "products": result.products,
            "agree": set(result.family) == direct,
        }
    ]


def _rows_antimagic(g: SimpleGraph, _ks: Sequence[int], limits: Limits) -> list[dict]:
    g6 = to_graph6(g)
    try:
        spectral = ch.antimagic_unweighted(g, limits).holds
    except PreconditionError:
        spectral = None
    try:
        oracle = orc.antimagic_oracle(g, limits).value
    except PreconditionError:
        oracle = None
    return [_agreement_row(g6, g, spectral, oracle)]


def _rows_strength(g: SimpleGraph, ks: Sequence[int], limits: Limits) -> list[dict]:
    g6 = to_graph6(g)
    k_max = max(ks)
    try:
        minimum = orc.strength_oracle(g, k_max, limits).value
    except PreconditionError:
        minimum = "rejected"
    rows = []
    for k in ks:
        try:
            spectral = ch.strength_at_most(g, k, limits).holds
        except PreconditionError:
            spectral = None
        if minimum == "rejected":
            oracle = None
        else:
            oracle = minimum is not None and minimum <= k
        rows.append(_agreement_row(g6, g, spectral, oracle, k=k))
    return rows


def _rows_one_two_three(g: SimpleGraph, _ks: Sequence[int], limits: Limits) -> list[dict]:
    g6 = to_graph6(g)
    spectral = ch.one_two_three(g, limits).holds
    oracle = orc.chi_sigma_oracle(g, 3, limits).value
    return [_agreement_row(g6, g, spectral, oracle)]


def _dominates(g: SimpleGraph, chosen: frozenset) -> bool:
    return all(
        v in chosen or g.neighbors(v) & chosen for v in range(1, g.n + 1)
    )


def _rows_domination(g: SimpleGraph, _ks: Sequence[int], limits: Limits) -> list[dict]:
    g6 = to_graph6(g)
    rows = []
    for k in range(1, g.n):
        verdict = ch.dominating_k(g, k, limits)
        oracle = orc.domination_oracle(g, k, limits).value
        witness_ok = True
        if verdict.holds:
            assert verdict.witness_bijection is not None
            chosen = ch.dominating_set_of(verdict.witness_bijection, g.n, k)
            witness_ok = _dominates(g, chosen)
        rows.append(_agreement_row(g6, g, verdict.holds, oracle, k=k, witness_ok=witness_ok))
    return rows


def _roman_valid(g: SimpleGraph, fn: dict[tuple[int, int], int]) -> bool:
    edges = g.sorted_edges()
    for e in edges:
        if fn[e] == 0:
            if not any(
                fn[e2] == 2 and e2 != e and set(e) & set(e2) for e2 in edges
            ):
                return False
    return True


def _rows_edge_roman(g: SimpleGraph, _ks: Sequence[int], limits: Limits) -> list[dict]:
    g6 = to_graph6(g)
    if g.m < 1:
        return []
    gamma = orc.edge_roman_oracle(g, limits).value
    # Weight identity: the decoded weight of every coloring must equal
    # |E| plus its total weight at y=1.
    identity_failures = 0
    enumerated = 0
    for h in iter_colorings(g, ROMAN_PALETTE):
        enumerated += 1
        decoded = ch.decode_edge_roman(h, g)
        direct = sum(decoded.values())
        via_total = g.m + h.total_weight().eval(1, 1).re
        if direct != via_total:
            identity_failures += 1
    rows = [
        {
            "graph": g6,
            "n": g.n,
            "m": g.m,
            "k": None,
            "gamma": gamma,
            "colorings": enumerated,
            "weight_identity_failures": identity_failures,
            "agree": identity_failures == 0,
        }
    ]
    for k in range(1, g.m):
        verdict = ch.edge_roman_at_most(g, k, limits)
        oracle = gamma <= k
        witness_ok = True
        if verdict.holds:
            assert verdict.witness_graph is not None
            fn = ch.decode_edge_roman(verdict.witness_graph, g)
            witness_ok = _roman_valid(g, fn) and sum(fn.values()) <= k
        rows.append(_agreement_row(g6, g, verdict.holds, oracle, k=k, witness_ok=witness_ok))
    return rows


def _rows_hamiltonian(g: SimpleGraph, _ks: Sequence[int], limits: Limits) -> list[dict]:
    g6 = to_graph6(g)
    spectral = ch.hamiltonian_number(g, limits)
    oracle = orc.hamiltonian_oracle(g, limits).value
    return [_agreement_row(g6, g, spectral, oracle)]


@dataclass(frozen=True)
class _Theorem:
    """A theorem sweep: its row builder, its least order, and its default
    label bounds, or None for a sweep that takes none."""

    rows: Callable[[SimpleGraph | int, Sequence[int], Limits], list[dict]]
    min_n: int
    ks: tuple[int, ...] | None = None


_THEOREMS = {
    "colorings": _Theorem(_rows_colorings, 2, (2, 3)),
    "fixpoint": _Theorem(_rows_fixpoint, 2),
    "antimagic": _Theorem(_rows_antimagic, 2),
    "irregular-strength": _Theorem(_rows_strength, 2, (1, 2, 3)),
    "one-two-three": _Theorem(_rows_one_two_three, 3),
    "domination": _Theorem(_rows_domination, 2),
    "edge-roman": _Theorem(_rows_edge_roman, 2),
    "hamiltonian": _Theorem(_rows_hamiltonian, 3),
}

THEOREM_SUBJECTS = tuple(_THEOREMS)


# -- worker plumbing ---------------------------------------------------------------


def _theorem_task(args: tuple) -> list[dict]:
    subject, payload, ks, limits_fields = args
    # the payload is a graph6 string, or the order of a per-order sweep
    graph = parse_graph6(payload) if isinstance(payload, str) else payload
    return _THEOREMS[subject].rows(graph, ks, Limits(*limits_fields))


# Pool batches per worker: enough that the small tail of a largest-first
# order still balances the workers, few enough that the per-batch pickling
# and queue traffic stays below the work of sub-millisecond tasks.
_BATCHES_PER_WORKER = 8


def _pool_results(
    tasks: list[tuple], sizes: list[tuple[int, int]], workers: int
) -> list[list[dict]]:
    """Each task's rows, computed in a process pool and listed in task order.

    The tasks go out largest (n, m) first, so the longest one starts at once
    instead of last (Graham's largest-first list schedule), in batches of
    ``len(tasks) // (_BATCHES_PER_WORKER * workers)``, and the pool starts no
    more processes than there are batches.  The pool module is imported
    here, so that a one-worker run does not pay for importing it."""
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(tasks)), key=lambda i: sizes[i], reverse=True)
    chunksize = max(1, len(tasks) // (_BATCHES_PER_WORKER * workers))
    batches = -(-len(tasks) // chunksize)
    with ProcessPoolExecutor(max_workers=min(workers, batches)) as pool:
        done = pool.map(_theorem_task, [tasks[i] for i in order], chunksize=chunksize)
        rows_at = dict(zip(order, done))
    return [rows_at[i] for i in range(len(tasks))]


def run_theorem(
    subject: str,
    max_n: int,
    ks: Sequence[int] | None = None,
    workers: int = 1,
    limits: Limits = DEFAULT_LIMITS,
) -> dict:
    """Sweep a theorem subject over the connected-graph corpus.

    With ``workers > 1`` the per-graph tasks run in a process pool: largest
    (n, m) first, in batches, on at most one process per batch, and each
    task's rows are put back at its corpus index, so the report is the same
    at every worker count.

    Returns a deterministic report dict; ``summary.disagreements`` counts rows
    where the two routes differ or a witness failed its own definition.
    Raises :class:`UsageError`, a ``ValueError``, before any work for an
    unknown subject, a ``max_n`` below the subject's least order, label
    bounds for a subject that takes none, or no label bound for one that
    takes them.
    """
    theorem = _THEOREMS.get(subject)
    if theorem is None:
        raise UsageError(f"unknown theorem subject {subject!r}")
    if max_n < theorem.min_n:
        # a sweep over no graph would report agreement having checked nothing
        raise UsageError(f"{subject} needs max_n >= {theorem.min_n}, got {max_n}")
    if ks is None:
        ks = theorem.ks or ()
    elif ks and theorem.ks is None:
        raise UsageError(f"{subject} takes no label bounds (--k), got {list(ks)}")
    elif not ks and theorem.ks is not None:
        # a sweep over no label bound would report agreement having checked nothing
        raise UsageError(f"{subject} needs at least one label bound (--k)")
    limits_fields = (limits.max_n, limits.max_family, limits.max_steps, limits.deadline)
    # task payload -> its (n, m)
    if subject == "fixpoint":
        sizes = {n: (n, n * (n - 1) // 2) for n in range(theorem.min_n, max_n + 1)}
    else:
        graphs = connected_graphs_up_to(max_n, min_n=theorem.min_n, limits=limits)
        sizes = {to_graph6(g): (g.n, g.m) for g in graphs}
    tasks = [(subject, payload, tuple(ks), limits_fields) for payload in sizes]
    limits.check_time()
    if workers > 1 and len(tasks) > 1:
        results = _pool_results(tasks, list(sizes.values()), workers)
        limits.check_time()
    else:
        results = []
        for t in tasks:
            results.append(_theorem_task(t))
            limits.check_time()
    rows = [row for chunk in results for row in chunk]
    disagreements = sum(1 for row in rows if not row["agree"])
    return {
        "schema": REPORT_SCHEMA,
        "kind": "theorem",
        "subject": subject,
        "params": {"max_n": max_n, "ks": list(ks)},
        "rows": rows,
        "summary": {
            "tasks": len(tasks),
            "rows": len(rows),
            "disagreements": disagreements,
        },
    }


# -- identity suites -----------------------------------------------------------------


def _ring_axiom_rows(_ns: Sequence[int], trials: int, seed: int, limits: Limits) -> list[dict]:
    rng = Random(seed)
    failures = 0
    checks = 0

    def expect(cond: bool) -> None:
        nonlocal failures, checks
        checks += 1
        if not cond:
            failures += 1

    for _ in range(trials):
        limits.check_time()
        a = random_element(rng)
        b = random_element(rng)
        c = random_element(rng)
        d = random_gauss_int(rng)
        if d.is_zero:
            d = GaussInt(1, 1)
        px, py = random_gauss_int(rng, 3), random_gauss_int(rng, 3)
        expect(a + b == b + a)
        expect((a + b) + c == a + (b + c))
        expect(a * b == b * a)
        expect((a * b) * c == a * (b * c))
        expect(a * (b + c) == a * b + a * c)
        expect(a + ring.ZERO == a)
        expect(a * ring.ONE == a)
        expect(a + (-a) == ring.ZERO)
        expect((a + b).eval(px, py) == a.eval(px, py) + b.eval(px, py))
        expect((a * b).eval(px, py) == a.eval(px, py) * b.eval(px, py))
        rebuilt = ring.ZERO
        for j, coeff in a.coeffs_x().items():
            rebuilt = rebuilt + coeff * ring.x_pow(j)
        expect(rebuilt == a)
        expect((a * ring.const(d.re, d.im)).exact_div(d) == a)
    return [_check_row("ring-axioms", checks, failures, trials=trials, seed=seed)]


def _reader_at_one(reader: WeightedCompleteGraph) -> WeightedCompleteGraph:
    return WeightedCompleteGraph(
        reader.n,
        tuple(ring.const(*w.eval(1, 1)) for w in reader.weights),
    )


def _domination_orbit_failures(n: int, limits: Limits) -> tuple[int, int]:
    """Reduced against full domination scans on every (graph, k) of order n:
    the verdict, the first witness bijection and the exhaustive count."""
    checks = failures = 0
    for g in connected_graphs(n, limits=limits):
        for k in range(1, n):
            reduced = ch.dominating_k(g, k, limits, exhaustive=True)
            full = ch.scan(
                (domination_probe(k, n),),
                indicator(g),
                bijection_pair_maps(n),
                ch._domination_accept(n, k),
                limits,
                exhaustive=True,
            )
            checks += 1
            failures += (
                reduced.holds != full.holds
                or reduced.witness_bijection != full.witness_bijection
                or reduced.stats.witnesses != full.stats.witnesses
            )
    return checks, failures


def _reader_searches(g: SimpleGraph, rng: Random) -> list[tuple]:
    """(name, palette, gadget, accept) of each reader-gadget search on g,
    with a random bound where the search takes one."""
    n, m = g.n, g.m
    return [
        ("strength", integer_palette(rng.randint(1, 3)), degree_reader(n),
         ch._strength_accept(n)),
        ("one-two-three", integer_palette(3), contrast_reader(n),
         ch._one_two_three_accept),
        ("antimagic", integer_palette(m), ch._antimagic_gadget(n),
         ch._antimagic_accept(n)),
        ("edge-roman", ROMAN_PALETTE, cover_reader(n),
         ch._edge_roman_accept(n, m, rng.randint(0, 2 * m))),
    ]


def _full_product(left: GraphFamily, right: GraphFamily) -> GraphFamily:
    """The family product by its definition, over all n! bijections."""
    maps = bijection_pair_maps(left.n)
    return GraphFamily(
        left.n, (h.star_with_map(g, m) for h in left for g in right for _f, m in maps)
    )


def _weighting_by_probes(h: WeightedCompleteGraph, limits: Limits) -> tuple[bool, bool]:
    """Whether the weighting h is irregular and whether it is antimagic, by
    their definitions: the spectra of its family products with the star probe
    (its endpoint sums) and with the edge probe (its pair weights)."""
    n = h.n
    vertex, pair = (
        spectrum_of(family_product(singleton(h), singleton(probe), limits))
        for probe in (star_indicator(1, n), edge_indicator(1, 2, n))
    )
    lo = 1 if h.is_complete_weighting() else 0
    labels = Spectrum(ring.const(c) for c in range(lo, h.nonzero_count() + 1))
    return len(vertex) == n, len(vertex) == n and pair == labels


def _family_product_orbit_failures(
    n: int, graphs: Sequence[SimpleGraph], trials: int, rng: Random, limits: Limits
) -> tuple[int, int]:
    """Closure products against full family products, a random corpus
    indicator on the left.  On the right: the closed families of the fixpoint
    and colorings routes, the star and edge probes, and a random corpus
    indicator, closed only for the complete graph.  The closure test must
    also agree with its definition: starring the complete indicator with a
    closed family returns the family."""
    fixed = [edge_deleted_family(n)]
    if n <= 4:
        fixed.append(all_colorings_family(n, 2, limits))
    fixed += [singleton(star_indicator(1, n)), singleton(edge_indicator(1, 2, n))]
    complete = singleton(indicator(complete_graph(n)))
    is_closed: dict[GraphFamily, bool] = {}
    checks = failures = 0
    for _ in range(trials):
        left = singleton(indicator(rng.choice(graphs)))
        for right in (*fixed, singleton(indicator(rng.choice(graphs)))):
            if right not in is_closed:
                is_closed[right] = _full_product(complete, right) == right
            checks += 1
            failures += (
                is_relabel_closed(right, limits) != is_closed[right]
                or family_product(left, right, limits) != _full_product(left, right)
            )
    return checks, failures


def _hamiltonian_orbit_failures(
    n: int, graphs: Sequence[SimpleGraph], limits: Limits
) -> tuple[int, int]:
    """The cycle spectrum over one bijection per coset of the cycle's
    automorphisms against the full product spectrum, on every corpus graph."""
    cycle = cycle_graph(n)
    checks = failures = 0
    for g in graphs:
        full = _full_product(singleton(indicator(cycle)), singleton(distance_weighting(g)))
        checks += 1
        failures += ch.hamiltonian_spectrum(cycle, g, limits) != spectrum_of(full)
    return checks, failures


def _orbit_rows(ns: Sequence[int], trials: int, seed: int, limits: Limits) -> list[dict]:
    """Check that scanning one bijection per orbit decides like the full n!
    scan: domination over the whole corpus, each reader gadget on ``trials``
    random members colored from its own palette, family products by the
    right factor's relabel closure on ``trials`` random left members, and the
    Hamiltonian cycle spectrum over the whole corpus.  The ``weighting`` row
    checks the single-weighting irregular and antimagic scans against their
    definitions by probe spectra, on the strength and antimagic members."""
    rng = Random(seed)
    rows = []
    for n in ns:
        limits.check_n(n)
        checks, failures = _domination_orbit_failures(n, limits)
        rows.append(_check_row("orbit", checks, failures, n=n, search="domination"))
        graphs = connected_graphs(n, limits=limits)
        reader_failures: Counter[str] = Counter()
        weighting_failures = 0
        for _ in range(trials):
            g = rng.choice(graphs)
            members = {}
            for name, palette, gadget, accept in _reader_searches(g, rng):
                member = members[name] = WeightedCompleteGraph(
                    n,
                    [rng.choice(palette) if pair in g.edges else ring.ZERO
                     for pair in pairs_in_rank_order(n)],
                )
                counts = [
                    ch.scan((member,), gadget, maps, accept, limits, True).stats.witnesses
                    for maps in (identity_pair_maps(n), bijection_pair_maps(n))
                ]
                reader_failures[name] += counts[0] != counts[1]
            for h in (members["strength"], members["antimagic"]):
                scanned = (
                    ch.irregular_weighted(h, limits).holds,
                    ch.antimagic_weighted(h, limits=limits).holds,
                )
                weighting_failures += scanned != _weighting_by_probes(h, limits)
        rows.extend(
            _check_row("orbit", trials, failed, n=n, search=name)
            for name, failed in reader_failures.items()
        )
        rows.append(
            _check_row("orbit", 2 * trials, weighting_failures, n=n, search="weighting")
        )
        checks, failures = _family_product_orbit_failures(n, graphs, trials, rng, limits)
        rows.append(_check_row("orbit", checks, failures, n=n, search="family-product"))
        if n >= 3:
            checks, failures = _hamiltonian_orbit_failures(n, graphs, limits)
            rows.append(_check_row("orbit", checks, failures, n=n, search="hamiltonian"))
    return rows


def _check_row(identity: str, checks: int, failures: int, **params) -> dict:
    # A suite that checked nothing does not agree.
    return {
        "identity": identity,
        **params,
        "checks": checks,
        "failures": failures,
        "agree": failures == 0 and checks > 0,
    }


def _reader_rows(
    name: str,
    build: Callable[[int], WeightedCompleteGraph],
    scale_of: Callable[[int], ring.RingElem],
    ns: Sequence[int],
    _trials: int,
    _seed: int,
    limits: Limits,
) -> list[dict]:
    """Check at every order that ``build(n)`` collapsed at ``x = y = 1`` is
    the complete indicator scaled by ``scale_of(n)``."""
    rows = []
    for n in ns:
        limits.check_n(n)
        limits.check_time()
        agree = _reader_at_one(build(n)) == indicator(complete_graph(n)).scale(scale_of(n))
        rows.append({"identity": name, "n": n, "agree": agree})
    return rows


@dataclass(frozen=True)
class _Identity:
    """An identity suite, ``rows(ns, trials, seed, limits)``, and which of its
    options it reads, by the name of their flag: ``n``, ``trials``, ``seed``."""

    rows: Callable[[Sequence[int], int, int, Limits], list[dict]]
    reads: tuple[str, ...]


# "all" runs the suites in this order.
_IDENTITIES = {
    "ring-axioms": _Identity(_ring_axiom_rows, ("trials", "seed")),
    "S1": _Identity(partial(_reader_rows, "S1", degree_reader, lambda n: ring.const(2)), ("n",)),
    "E1": _Identity(partial(_reader_rows, "E1", pair_reader, lambda n: ring.ONE), ("n",)),
    "R1": _Identity(
        partial(_reader_rows, "R1", cover_reader, lambda n: ring.const(2 * n - 4, 1)), ("n",)
    ),
    "orbit": _Identity(_orbit_rows, ("n", "trials", "seed")),
}

IDENTITY_SUBJECTS = (*_IDENTITIES, "all")

# The options each identity subject reads; "all" reads every one.
IDENTITY_READS = {
    **{subject: identity.reads for subject, identity in _IDENTITIES.items()},
    "all": ("n", "trials", "seed"),
}


def run_identity(
    subject: str,
    ns: Sequence[int] = (3, 4, 5, 6),
    trials: int = 1000,
    seed: int = 1,
    limits: Limits = DEFAULT_LIMITS,
) -> dict:
    """Run an algebraic identity suite; deterministic for a fixed seed."""
    if subject not in IDENTITY_SUBJECTS:
        raise UsageError(f"unknown identity subject {subject!r}")
    if trials < 1:
        raise UsageError(f"need at least one trial, got {trials}")
    suites = _IDENTITIES.values() if subject == "all" else [_IDENTITIES[subject]]
    rows = [row for suite in suites for row in suite.rows(ns, trials, seed, limits)]
    disagreements = sum(1 for row in rows if not row["agree"])
    return {
        "schema": REPORT_SCHEMA,
        "kind": "identity",
        "subject": subject,
        "params": {"ns": list(ns), "trials": trials, "seed": seed},
        "rows": rows,
        "summary": {"rows": len(rows), "disagreements": disagreements},
    }
