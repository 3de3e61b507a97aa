"""Corpus-level verification: spectral characterizations against brute force.

Each theorem subject sweeps every connected graph up to a size cap, runs the
spectrum characterization and the matching oracle, and reports per-graph
agreement rows; identity subjects check the algebraic identities the
constructions rely on.  Each problem is one :class:`_Problem` record of
``_PROBLEMS``, which ``check``, ``oracle`` and ``verify --theorem`` all
read, and each identity subject one record of ``_IDENTITIES``.  A theorem
sweep runs one task per graph, which for ``fixpoint`` is K_n for each order:
a task carries the graph and its graph6 line, which for a corpus graph is
the line the corpus kept, so no task encodes or decodes graph6, and runs on
a copy of the graph that shares its validated edges and none of its lazy
tables; every worker count deals the tasks in the fixed stripes of
:func:`_pool_results`.  Per-k rows come from :func:`_bound_rows`: one search
per k, or one ``dominating_witnesses`` call per graph, against the least
bound of one oracle search (``domination_number`` for domination).  A
labeling row decodes its witness by its ``characterize._LABELINGS`` record
and checks it by its record's definition, a domination row by the oracle's
closed-neighbourhood table.  Reports contain no timing and keep a canonical
row order, so the emitted JSON is byte-identical across runs and worker
counts.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from random import Random
from typing import Callable, Iterable, Sequence

from . import characterize as ch
from . import oracles as orc
from . import ring
from .corpus import connected_graph6_up_to, connected_graphs
from .errors import CombSpectraError, UsageError
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
    cover_reader,
    degree_reader,
    distance_weighting,
    domination_probe,
    edge_indicator,
    indicator,
    pair_reader,
    pairs_in_rank_order,
    star_indicator,
    star_sum,
)
from .graphs import SimpleGraph, complete_graph, cycle_graph, path_graph, to_graph6
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

# -- witness renderers of ``check`` ------------------------------------------------


def _edge_map(key: str, label: str, values: dict) -> tuple[str, dict, str]:
    """A witness that maps each edge to a value: JSON key, JSON object, text line."""
    items = sorted(values.items())
    text = " ".join(f"{{{u},{v}}}->{val}" for (u, v), val in items)
    return key, {f"{u}-{v}": val for (u, v), val in items}, f"  {label}: {text}"


def _labeling(g: SimpleGraph, _k: int | None, verdict: ch.Verdict) -> tuple[str, dict, str]:
    wcg = verdict.witness_graph
    return _edge_map("labeling", "labeling", {e: str(wcg.weight(*e)) for e in g.sorted_edges()})


def _edge_function(g: SimpleGraph, _k: int, verdict: ch.Verdict) -> tuple[str, dict, str]:
    fn = ch.decode_edge_roman(verdict.witness_graph, g)
    return _edge_map("edge_function", "edge function", fn)


def _dominating_set(g: SimpleGraph, k: int, verdict: ch.Verdict) -> tuple[str, list, str]:
    chosen = sorted(ch.dominating_set_of(verdict.witness_bijection, g.n, k))
    return "dominating_set", chosen, f"  dominating set: {set(chosen)}"


# -- per-graph row builders ------------------------------------------------------
#
# Each takes (problem, g6, graph, ks, limits): the problem's record (``_``
# where unread), the graph, its graph6 line for the rows' ``graph`` field,
# the label bounds and the caller's limits.


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


def _rows_colorings(_, g6: str, g: SimpleGraph, ks: Sequence[int], limits: Limits) -> list[dict]:
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


def _rows_fixpoint(_, _g6: str, g: SimpleGraph, _ks: Sequence[int], limits: Limits) -> list[dict]:
    # g is the complete graph K_n; its rows name only the order.
    n = g.n
    result = power_fixpoint(edge_deleted_family(n), limits)
    # Direct description of the fixed point: every 0/1 weighting of the
    # complete graph that keeps at least one zero pair.
    full = indicator(g)
    direct = {w for w in colorings_of_graph(g, (ring.ZERO, ring.ONE), limits) if w != full}
    return [
        {
            "n": n,
            "count": len(result.family),
            "expected_count": 2 ** (n * (n - 1) // 2) - 1,
            "products": result.products,
            "agree": set(result.family) == direct,
        }
    ]


def _witness_ok(problem: _Problem, g: SimpleGraph, verdict: ch.Verdict, k: int | None) -> bool:
    """Whether the witness of the holding verdict of the labeling problem at
    bound k decodes to edge labels on g that meet its definition."""
    try:
        labels = ch._witness_labels(problem.labeling, g, k, verdict.witness_graph)
    except ValueError:
        return False
    return problem.definition(g, labels, k)


def _oracle_value(problem: _Problem, g: SimpleGraph, ks: Sequence[int], limits: Limits):
    """The oracle on g over the labels the search colours with: each flag that
    ``oracle`` reads is the palette size at max(ks) (1-2-3: k = 3; strength: k_max)."""
    size = len(ch._LABELINGS[problem.labeling].palette(g.m, max(ks, default=None)))
    bound = {flag: size for flag in problem.reads_in("oracle")}
    return getattr(orc, problem.brute)(g, limits=limits, **bound).value


def _verdict_rows(
    problem: _Problem, g6: str, g: SimpleGraph, ks: Sequence[int], limits: Limits
) -> list[dict]:
    """One row: the problem's search on g against its oracle."""
    verdict = getattr(ch, problem.search)(g, limits)
    oracle = _oracle_value(problem, g, ks, limits)
    witness_ok = not verdict.holds or _witness_ok(problem, g, verdict, None)
    return [_agreement_row(g6, g, verdict.holds, oracle, witness_ok=witness_ok)]


def _bound_rows(
    g6: str, g: SimpleGraph, outcomes: Iterable[tuple[int, bool, bool]], least: int | None
) -> list[dict]:
    """One row per ``(k, spectral, witness_ok)`` of ``outcomes`` against the
    oracle, which holds at k exactly when its least bound ``least`` (None
    when no bound in range holds) is at most k.  Each row is written out
    whole, with the keys and the ``agree`` rule of :func:`_agreement_row`."""
    n, m = g.n, g.m
    rows = []
    for k, spectral, witness_ok in outcomes:
        oracle = least is not None and least <= k
        rows.append(
            {
                "graph": g6,
                "n": n,
                "m": m,
                "k": k,
                "witness_ok": witness_ok,
                "spectral": spectral,
                "oracle": oracle,
                "agree": spectral == oracle and witness_ok,
            }
        )
    return rows


def _searched(problem: _Problem, g: SimpleGraph, ks: Sequence[int], limits: Limits):
    """``(k, spectral, witness_ok)`` per bound k of the labeling problem by
    its search, its witness checked by :func:`_witness_ok`."""
    search = getattr(ch, problem.search)
    for k in ks:
        verdict = search(g, k, limits)
        yield k, verdict.holds, not verdict.holds or _witness_ok(problem, g, verdict, k)


def _per_k_rows(
    problem: _Problem, g6: str, g: SimpleGraph, ks: Sequence[int], limits: Limits
) -> list[dict]:
    """One row per k of ks: the search at k against the oracle's least bound."""
    least = _oracle_value(problem, g, ks, limits)
    return _bound_rows(g6, g, _searched(problem, g, ks, limits), least)


def _rows_domination(_, g6: str, g: SimpleGraph, _ks: Sequence[int], limits: Limits) -> list[dict]:
    # A superset of a dominating set dominates, so the oracle holds at k
    # exactly when k >= gamma(G): one upward oracle search for gamma answers
    # every k.  Each witness is checked on the oracle's own table.
    gamma = orc.domination_number(g, limits).value
    closed, n = orc._closed_masks(g), g.n
    outcomes = (
        (k, f is not None, f is None or orc._dominates(closed, ch.dominating_set_of(f, n, k)))
        for k, f in enumerate(ch.dominating_witnesses(g, limits), 1)
    )
    return _bound_rows(g6, g, outcomes, gamma)


def _rows_edge_roman(
    problem: _Problem, g6: str, g: SimpleGraph, _ks: Sequence[int], limits: Limits
) -> list[dict]:
    gamma = _oracle_value(problem, g, (), limits)
    # Weight identity: the decoded weight of every coloring must equal
    # |E| plus its total weight at y=1.
    identity_failures = 0
    for enumerated, h in enumerate(limits.polled(iter_colorings(g, ROMAN_PALETTE)), 1):
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
    return rows + _bound_rows(g6, g, _searched(problem, g, range(1, g.m), limits), gamma)


def _rows_hamiltonian(
    _, g6: str, g: SimpleGraph, _ks: Sequence[int], limits: Limits
) -> list[dict]:
    spectral = ch.hamiltonian_number(g, limits)
    oracle = orc.hamiltonian_oracle(g, limits).value
    return [_agreement_row(g6, g, spectral, oracle)]


def _complete_graphs(max_n: int, min_n: int, limits: Limits) -> list[tuple[str, SimpleGraph]]:
    return [(to_graph6(g), g) for g in map(complete_graph, range(min_n, max_n + 1))]


# -- the problem registry ------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class _Problem:
    """One problem: its subject names under ``check``, ``oracle`` and ``verify
    --theorem`` (None: no such subject), the (command, flag) pairs read, and
    the ``characterize`` and ``oracles`` functions called, by name at each
    call.  ``check`` runs ``search(graph, [k,] limits)`` and renders a verdict
    by ``witness(graph, k, verdict)`` (none: a spectrum); ``oracle`` runs
    ``brute(graph, limits=..., **flags)``; a sweep runs ``rows(problem, g6,
    graph, ks, limits)`` on ``graphs(max_n, min_n, limits)``, at ``ks`` by
    default (None: it takes no bounds).  A labeling gives its ``_LABELINGS``
    key and the oracle's ``definition(graph, labels, k)`` of its witness."""

    check: str | None = None
    oracle: str | None = None
    theorem: str | None = None
    reads: tuple[tuple[str, str], ...] = ()
    search: str | None = None
    witness: Callable | None = None
    brute: str | None = None
    rows: Callable[..., list[dict]] | None = None
    min_n: int = 2
    ks: tuple[int, ...] | None = None
    graphs: Callable[[int, int, Limits], list[tuple[str, SimpleGraph]]] = connected_graph6_up_to
    labeling: str | None = None
    definition: Callable[[SimpleGraph, dict, int | None], bool] | None = None

    def reads_in(self, command: str) -> tuple[str, ...]:
        return tuple(flag for cmd, flag in self.reads if cmd == command)


# Each command lists its subjects in this order.
_PROBLEMS = (
    _Problem(theorem="colorings", rows=_rows_colorings, ks=(2, 3)),
    _Problem(theorem="fixpoint", rows=_rows_fixpoint, graphs=_complete_graphs),
    _Problem(check="antimagic", oracle="antimagic", theorem="antimagic",
             labeling="antimagic", rows=_verdict_rows,
             search="antimagic_unweighted", witness=_labeling, brute="antimagic_oracle",
             # the labels 1..m each once, and distinct weighted degrees
             definition=lambda g, f, _k: len(set(f.values())) == g.m and orc._irregular(g, f)),
    _Problem(check="irregular-strength", oracle="strength", theorem="irregular-strength",
             reads=(("check", "k"), ("oracle", "k_max")), ks=(1, 2, 3), labeling="strength",
             rows=_per_k_rows, search="strength_at_most", witness=_labeling,
             brute="strength_oracle", definition=lambda g, f, _k: orc._irregular(g, f)),
    _Problem(check="one-two-three", oracle="chi-sigma", theorem="one-two-three",
             reads=(("oracle", "k"),), min_n=3, labeling="one-two-three", rows=_verdict_rows,
             search="one_two_three", witness=_labeling, brute="chi_sigma_oracle",
             definition=lambda g, f, _k: orc._locally_irregular(g, f)),
    _Problem(check="domination", oracle="domination", theorem="domination",
             reads=(("check", "k"), ("oracle", "k")), rows=_rows_domination,
             search="dominating_k", witness=_dominating_set, brute="domination_oracle"),
    _Problem(check="edge-roman", oracle="edge-roman", theorem="edge-roman",
             reads=(("check", "k"),), labeling="edge-roman", rows=_rows_edge_roman,
             search="edge_roman_at_most", witness=_edge_function, brute="edge_roman_oracle",
             definition=lambda g, f, k: orc._edge_roman_valid(g, f) and sum(f.values()) <= k),
    _Problem(check="hamiltonian", oracle="hamiltonian", theorem="hamiltonian",
             reads=(("check", "by"),), min_n=3, rows=_rows_hamiltonian,
             search="hamiltonian_cycle_spectrum", brute="hamiltonian_oracle"),
)


def _problem(command: str, subject: str) -> _Problem | None:
    """The record named ``subject`` under ``command``, None if there is none."""
    return next((p for p in _PROBLEMS if getattr(p, command) == subject), None)


THEOREM_SUBJECTS = tuple(p.theorem for p in _PROBLEMS if p.theorem)


# -- worker plumbing ---------------------------------------------------------------


def _theorem_task(args: tuple) -> list[dict]:
    problem, g6, g, ks, limits = args
    # a copy that shares the corpus graph's validated edges and none of its
    # lazy tables, so the neighbour bitmasks the rows build die with the task
    return problem.rows(problem, g6, g._bare_copy(), ks, limits)


def _stripes(sizes: list[tuple[int, int]], workers: int) -> list[list[int]]:
    """Task indices dealt into W = ``min(workers, tasks)`` stripes, at least
    one: in largest (n, m) first order (Graham's largest-first list
    schedule), stripe w takes positions w, w + W, w + 2W, ... of that order.
    The longest tasks start at once, and stripe lengths differ by at most one."""
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    count = max(1, min(workers, len(order)))
    return [order[w::count] for w in range(count)]


def _run_stripe(stripe: list[int], tasks: list[tuple]) -> dict[int, list[dict]]:
    """The rows of each task of the stripe, by task index.  After each task
    the deadline of the ``Limits`` it carries is polled."""
    rows_at = {}
    for i in stripe:
        rows_at[i] = _theorem_task(tasks[i])
        tasks[i][-1].check_time()
    return rows_at


def _pool_results(
    tasks: list[tuple], sizes: list[tuple[int, int]], workers: int
) -> list[list[dict]]:
    """Each task's rows, computed by this process and up to ``workers - 1``
    forked children, listed in task order.

    The tasks are dealt into stripes by :func:`_stripes`; this process runs
    stripe 0 and forks one child for each other stripe first.  A child sends
    back its rows, or the exception that stopped it, pickled through a pipe
    of its own, and leaves by ``os._exit``.  A child's exception is raised
    here unchanged; a pipe or fork that fails, or a child that exits
    nonzero, dies by a signal or sends nothing, raises
    :class:`CombSpectraError`.  No child outlives the call.  At one worker
    no child is forked.  ``pickle`` and ``signal`` are imported here, so
    that importing the package does not load them."""
    import pickle
    import signal

    mine, *others = _stripes(sizes, workers)
    children: dict[int, int] = {}  # pid -> read end of its reply pipe, until reaped
    try:
        for worker, stripe in enumerate(others, start=1):
            try:
                reply, send = os.pipe()
            except OSError as exc:
                message = f"cannot open a pipe for sweep worker {worker}: {exc}"
                raise CombSpectraError(message) from exc
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(reply)
                os.close(send)
                raise CombSpectraError(f"cannot fork sweep worker {worker}: {exc}") from exc
            if pid == 0:
                status = 1
                try:
                    try:
                        payload = _run_stripe(stripe, tasks)
                    except BaseException as exc:
                        payload = exc
                    with open(send, "wb") as out:
                        pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    # never unwind into the caller's stack or flush its buffers
                    os._exit(status)
            os.close(send)
            children[pid] = reply
        rows_at = _run_stripe(mine, tasks)
        for worker, (pid, reply) in enumerate(list(children.items()), start=1):
            with open(reply, "rb", closefd=False) as inp:
                data = inp.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(reply)
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise CombSpectraError(f"sweep worker {worker} (pid {pid}) {how} without its rows")
            payload = pickle.loads(data)
            if isinstance(payload, BaseException):
                raise payload
            rows_at.update(payload)
    finally:
        for pid, reply in children.items():
            os.close(reply)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [rows_at[i] for i in range(len(tasks))]


def run_theorem(
    subject: str,
    max_n: int,
    ks: Sequence[int] | None = None,
    workers: int = 1,
    limits: Limits = DEFAULT_LIMITS,
) -> dict:
    """Sweep a theorem subject over the connected-graph corpus.

    The per-graph tasks run in this process and up to ``workers - 1``
    forked children, dealt to them in fixed stripes of a largest (n, m)
    first order (:func:`_pool_results`); each task's rows are put back at
    its corpus index, so the report is the same at every worker count.  At
    one worker, or where the platform has no ``os.fork``, this process runs
    every task.  Every process polls the deadline after each task.

    Returns a deterministic report dict; ``summary.disagreements`` counts rows
    where the two routes differ or a witness failed its own definition.
    Raises :class:`UsageError`, a ``ValueError``, before any work for an
    unknown subject, a ``max_n`` below the subject's least order or above
    62, label bounds for a subject that takes none, or no label bound for one
    that takes them, or one below 1.
    """
    theorem = _problem("theorem", subject)
    if theorem is None:
        raise UsageError(f"unknown theorem subject {subject!r}")
    if max_n < theorem.min_n:
        # a sweep over no graph would report agreement having checked nothing
        raise UsageError(f"{subject} needs max_n >= {theorem.min_n}, got {max_n}")
    if max_n > 62:
        # each row names its graph by its graph6 line, which holds n <= 62
        raise UsageError(f"{subject} sweeps orders up to 62, got max_n={max_n}")
    if ks is None:
        ks = theorem.ks or ()
    elif ks and theorem.ks is None:
        raise UsageError(f"{subject} takes no label bounds (--k), got {list(ks)}")
    elif not ks and theorem.ks is not None:
        # a sweep over no label bound would report agreement having checked nothing
        raise UsageError(f"{subject} needs at least one label bound (--k)")
    elif ks and min(ks) < 1:
        raise UsageError(f"label bounds must be at least 1, got {list(ks)}")
    graphs = theorem.graphs(max_n, theorem.min_n, limits=limits)
    tasks = [(theorem, g6, g, tuple(ks), limits) for g6, g in graphs]
    limits.check_time()
    workers = workers if hasattr(os, "fork") else 1
    results = _pool_results(tasks, [(g.n, g.m) for _g6, g in graphs], workers)
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


def _convolution(a: ring.RingElem, b: ring.RingElem) -> ring.RingElem:
    """The product by definition: every pair of terms, summed by the
    constructor.  It takes no zero or unit shortcut, so it checks them."""
    return ring.RingElem(
        ((ax + bx, ay + by), (c.re * d.re - c.im * d.im, c.re * d.im + c.im * d.re))
        for (ax, ay), c in a.terms()
        for (bx, by), d in b.terms()
    )


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
        expect(_convolution(a, ring.ONE) == a)
        expect(a * b == _convolution(a, b))
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
        reader.n, tuple(ring.const(*w.eval(1, 1)) for w in reader.weights)
    )


def _domination_accept(n: int, k: int):
    """The domination test on the ring product itself: every coefficient
    x^0..x^(n-k-1) present."""
    needed = n - k

    def accept(p: ring.RingElem) -> bool:
        present = {dx for (dx, _dy) in p._terms}
        return len(present) >= needed and all(j in present for j in range(needed))

    return accept


def _full_scan(
    h: WeightedCompleteGraph,
    gadget: WeightedCompleteGraph,
    accept: Callable[[ring.RingElem], bool],
    limits: Limits,
) -> tuple[tuple[int, ...] | None, ring.RingElem | None, int]:
    """The n! reference: s(h *_f gadget) for every bijection f in lex order.
    Returns the first accepted f (None if none), its polynomial, and the
    number of accepted f."""
    first, accepted = None, 0
    for f, pmap in limits.polled(bijection_pair_maps(h.n)):
        p = star_sum(h, gadget, pmap)
        if accept(p):
            accepted += 1
            first = first or (f, p)
    f, p = first or (None, None)
    return f, p, accepted


def _domination_orbit_failures(n: int, limits: Limits) -> tuple[int, int]:
    """The tail-mask kernel of ``dominating_k`` against the full scan of the
    probe, on every (graph, k) of order n: the verdict, the first witness
    bijection and its polynomial.  The full scan's count of accepted f must
    also match the definition: (n-k)! * k! bijections per dominating
    k-subset (counted by the oracle's predicate), the ways to place the
    heads and the tails."""
    checks = failures = 0
    for g in connected_graphs(n, limits=limits):
        closed = orc._closed_masks(g)
        for k in range(1, n):
            reduced = ch.dominating_k(g, k, limits)
            f, p, accepted = _full_scan(
                domination_probe(k, n), indicator(g), _domination_accept(n, k), limits
            )
            dominating = sum(
                orc._dominates(closed, chosen) for chosen in combinations(range(1, n + 1), k)
            )
            checks += 1
            failures += (
                reduced.holds != (f is not None)
                or reduced.witness_bijection != f
                or reduced.witness_polynomial != p
                or accepted != math.factorial(n - k) * math.factorial(k) * dominating
            )
    return checks, failures


def _full_product(left: GraphFamily, right: GraphFamily, limits: Limits) -> GraphFamily:
    """The family product by its definition, over all n! bijections."""
    maps = bijection_pair_maps(left.n)
    products = (h.star_with_map(g, m) for h in left for g in right for _f, m in maps)
    return GraphFamily(left.n, limits.polled(products))


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
    failed: dict[tuple[GraphFamily, GraphFamily], bool] = {}
    checks = failures = 0
    for _ in range(trials):
        left = singleton(indicator(rng.choice(graphs)))
        for right in (*fixed, singleton(indicator(rng.choice(graphs)))):
            if right not in is_closed:
                is_closed[right] = _full_product(complete, right, limits) == right
            # a pair drawn again counts once per trial but is decided once
            if (left, right) not in failed:
                failed[left, right] = (
                    is_relabel_closed(right, limits) != is_closed[right]
                    or family_product(left, right, limits) != _full_product(left, right, limits)
                )
            checks += 1
            failures += failed[left, right]
    return checks, failures


def _hamiltonian_orbit_failures(
    h: SimpleGraph, graphs: Sequence[SimpleGraph], limits: Limits
) -> tuple[int, int]:
    """The Hamiltonian spectrum of the pattern h against the full product
    spectrum, on every corpus graph."""
    checks = failures = 0
    for g in graphs:
        full = _full_product(
            singleton(indicator(h)), singleton(distance_weighting(g)), limits
        )
        checks += 1
        failures += ch.hamiltonian_spectrum(h, g, limits) != spectrum_of(full)
    return checks, failures


def _orbit_rows(ns: Sequence[int], trials: int, seed: int, limits: Limits) -> list[dict]:
    """Check that scanning one bijection per orbit decides like the full n!
    scan (:func:`_full_scan`, for domination over the whole corpus and each
    reader on ``trials`` random members of its palette), family products by the
    right factor's relabel closure on ``trials`` random left members, and the
    Hamiltonian spectra of the cycle and of the path over the whole corpus.
    The ``weighting`` row checks the single-weighting irregular and antimagic
    scans against their definitions by probe spectra, on the strength and
    antimagic members."""
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
            # every random bound is drawn before any member
            ks = {"strength": rng.randint(1, 3), "edge-roman": rng.randint(0, 2 * g.m)}
            for name, labeling in ch._LABELINGS.items():
                k = ks.get(name)
                palette = tuple(labeling.palette(g.m, k))
                gadget, accept = labeling.gadget(n), labeling.accept(n, g.m, k)
                weights = [rng.choice(palette) if pair in g.edges else ring.ZERO
                           for pair in pairs_in_rank_order(n)]
                member = members[name] = WeightedCompleteGraph(n, weights)
                # the identity decides the member for all n! bijections
                read = ch._scan((member,), gadget, accept, limits).holds
                reader_failures[name] += (
                    math.factorial(n) * read != _full_scan(member, gadget, accept, limits)[2]
                )
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
            # the labelled cycle takes the subset recursion, the path the n! scan
            for search, h in (("hamiltonian", cycle_graph(n)),
                              ("hamiltonian-pattern", path_graph(n))):
                checks, failures = _hamiltonian_orbit_failures(h, graphs, limits)
                rows.append(_check_row("orbit", checks, failures, n=n, search=search))
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
    the complete indicator scaled by ``scale_of(n)``.  The deadline is
    polled before each order, after its build and after its comparison, so
    one large order that overruns it raises instead of reporting."""
    rows = []
    for n in ns:
        limits.check_n(n)
        limits.check_time()
        reader = build(n)
        limits.check_time()
        agree = _reader_at_one(reader) == indicator(complete_graph(n)).scale(scale_of(n))
        limits.check_time()
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
    if "trials" in IDENTITY_READS[subject] and trials < 1:
        raise UsageError(f"need at least one trial, got {trials}")
    if "n" in IDENTITY_READS[subject] and (not ns or min(ns) < 2):
        # no order, or order 1 with no pair, would check nothing
        raise UsageError(f"{subject} needs orders of at least 2 (--n), got {list(ns)}")
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
