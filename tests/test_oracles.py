"""Brute-force oracles: values, witness self-checks, relabeling invariance."""

import ast
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from combspectra import oracles

from combspectra.corpus import connected_graphs_up_to
from combspectra.errors import PreconditionError, SizeGuardError, TimeLimitError
from combspectra.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from combspectra.limits import Limits
from combspectra.oracles import (
    antimagic_oracle,
    chi_sigma_oracle,
    domination_number,
    domination_oracle,
    edge_roman_oracle,
    hamiltonian_oracle,
    strength_oracle,
)
from combspectra.verify import run_theorem

P3, P4 = path_graph(3), path_graph(4)
C3, C4 = cycle_graph(3), cycle_graph(4)
K2 = complete_graph(2)


def test_antimagic_oracle_examples():
    assert antimagic_oracle(P3).value is True
    assert antimagic_oracle(K2).value is False
    assert antimagic_oracle(C4).value is True
    with pytest.raises(PreconditionError):
        antimagic_oracle(SimpleGraph(3, [(1, 2)]))


def test_antimagic_witness_verifies():
    res = antimagic_oracle(C4)
    labels = res.witness
    assert sorted(labels.values()) == [1, 2, 3, 4]
    sums = {}
    for (u, v), value in labels.items():
        sums[u] = sums.get(u, 0) + value
        sums[v] = sums.get(v, 0) + value
    assert len(set(sums.values())) == 4


def test_strength_oracle_examples():
    assert strength_oracle(P3, 3).value == 2
    assert strength_oracle(C3, 3).value == 3
    assert strength_oracle(P4, 3).value == 2
    assert strength_oracle(K2, 4).value is None  # endpoints always tie


def test_strength_oracle_step_guard_counts_every_k_tried():
    # K2 never separates its endpoints, so k = 1..62 enumerate 1 + 2 + ... + 62
    result = strength_oracle(K2, 62, Limits(max_steps=2000))
    assert (result.value, result.enumerated) == (None, 1953)
    with pytest.raises(SizeGuardError) as err:
        strength_oracle(K2, 2000, Limits(max_steps=2000))
    assert str(err.value) == (
        "step guard exceeded: strength oracle up to k=63 needs 2016 steps > max_steps=2000"
    )


def test_chi_sigma_oracle_examples():
    assert chi_sigma_oracle(P3, 1).value is True
    assert chi_sigma_oracle(C3, 2).value is False
    assert chi_sigma_oracle(C3, 3).value is True
    assert chi_sigma_oracle(C4, 2).value is True
    with pytest.raises(PreconditionError):
        chi_sigma_oracle(K2, 3)
    # with no label to try it would answer False having enumerated nothing
    for k in (0, -1):
        with pytest.raises(PreconditionError, match="label bound"):
            chi_sigma_oracle(P3, k)


def test_domination_oracle_examples():
    assert domination_oracle(P3, 1).value is True
    assert domination_oracle(P3, 1).witness == frozenset({2})
    assert domination_oracle(C4, 1).value is False
    assert domination_oracle(C4, 2).value is True
    for n in (3, 4, 5):
        assert domination_oracle(star_graph(n), 1).value is True
    with pytest.raises(PreconditionError):
        domination_oracle(P3, 0)


def test_domination_oracle_holds_exactly_from_gamma_up():
    # A superset of a dominating set dominates, so over k = 1..n the oracle
    # fails below gamma(G), the least k that holds, and holds from it on.
    # The domination sweep reads every k from one search for gamma.
    for g in connected_graphs_up_to(6):
        values = [domination_oracle(g, k).value for k in range(1, g.n + 1)]
        gamma = values.index(True) + 1
        assert values == [k >= gamma for k in range(1, g.n + 1)], g


def test_domination_number_is_the_least_k_of_the_per_k_oracle():
    # one upward search on one table: gamma is the least k at which the
    # per-k oracle holds, with that call's witness, and the subsets it
    # enumerates are those of the per-k calls for k = 1..gamma
    for g in connected_graphs_up_to(6):
        result = domination_number(g)
        calls = [domination_oracle(g, k) for k in range(1, result.value + 1)]
        assert [call.value for call in calls] == [False] * (result.value - 1) + [True], g
        assert result.witness == calls[-1].witness, g
        assert result.enumerated == sum(call.enumerated for call in calls), g


def test_domination_number_keeps_the_per_k_guards():
    # C4 needs k = 2, whose C(4, 2) = 6 subsets the step guard checks alone
    assert domination_number(C4, Limits(max_steps=6)).value == 2
    with pytest.raises(
        SizeGuardError, match="step guard exceeded: domination oracle needs 6 steps > max_steps=5"
    ):
        domination_number(C4, Limits(max_steps=5))


def test_a_gamma_search_from_k2_fails_the_domination_sweep(monkeypatch):
    # the sweep reads every per-k oracle answer off domination_number, so a
    # search that skips k = 1 must show as disagreements, not pass unseen
    per_k = oracles._dominating_subset

    def from_two(closed, k, limits):
        return (None, 0) if k == 1 else per_k(closed, k, limits)

    monkeypatch.setattr(oracles, "_dominating_subset", from_two)
    assert domination_number(P3).value == 2
    assert run_theorem("domination", max_n=4)["summary"]["disagreements"] > 0


def _dominates_mismatches(graphs) -> list:
    """(graph, subset) pairs, over every vertex subset, where ``_dominates``
    on the graph's ``_closed_masks`` table differs from the definition: the
    chosen vertices and their neighbours, read straight from ``g.edges``,
    are all the vertices."""
    mismatches = []
    for g in graphs:
        closed = oracles._closed_masks(g)
        vertices = range(1, g.n + 1)
        for size in range(g.n + 1):
            for chosen in combinations(vertices, size):
                covered = set(chosen).union(
                    *[e for e in g.edges if not set(chosen).isdisjoint(e)]
                )
                if oracles._dominates(closed, chosen) != (covered == set(vertices)):
                    mismatches.append((g, chosen))
    return mismatches


SMALL_GRAPHS = connected_graphs_up_to(5)  # K1 first


def test_dominates_matches_the_closed_neighbourhood_union():
    assert SMALL_GRAPHS[0] == SimpleGraph(1)
    assert not _dominates_mismatches(SMALL_GRAPHS)


def test_open_neighbourhood_table_fails_the_definition_and_the_sweep(monkeypatch):
    # a table without each vertex's own bit (open neighbourhoods) must fail
    # both the predicate test above and the domination sweep
    closed_masks = oracles._closed_masks

    def open_masks(g):
        return tuple(mask & ~(1 << v) for v, mask in enumerate(closed_masks(g)))

    monkeypatch.setattr(oracles, "_closed_masks", open_masks)
    assert _dominates_mismatches(SMALL_GRAPHS)
    assert run_theorem("domination", max_n=4)["summary"]["disagreements"] > 0


def test_edge_roman_oracle_examples():
    assert edge_roman_oracle(P3).value == 2
    assert edge_roman_oracle(P4).value == 2
    assert edge_roman_oracle(K2).value == 1
    fn = edge_roman_oracle(P4).witness
    assert sum(fn.values()) == 2
    edges = sorted(fn)
    for e in edges:
        if fn[e] == 0:
            assert any(fn[e2] == 2 and set(e) & set(e2) for e2 in edges if e2 != e)


def test_hamiltonian_oracle_examples():
    assert hamiltonian_oracle(P3).value == 4
    assert hamiltonian_oracle(cycle_graph(5)).value == 5
    assert hamiltonian_oracle(star_graph(4)).value == 6
    assert hamiltonian_oracle(P3).enumerated == 1  # (n-1)!/2 cyclic orders
    with pytest.raises(PreconditionError):
        hamiltonian_oracle(SimpleGraph(3, [(1, 2)]))


def test_oracles_invariant_under_relabeling():
    rng = Random(99)
    graphs = [P4, C4, star_graph(4), complete_graph(4), path_graph(5)]
    for g in graphs:
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = g.relabel(tuple(perm))
        assert antimagic_oracle(g).value == antimagic_oracle(h).value
        assert strength_oracle(g, 3).value == strength_oracle(h, 3).value
        assert edge_roman_oracle(g).value == edge_roman_oracle(h).value
        assert hamiltonian_oracle(g).value == hamiltonian_oracle(h).value
        for k in range(1, g.n):
            assert domination_oracle(g, k).value == domination_oracle(h, k).value
        assert chi_sigma_oracle(g, 3).value == chi_sigma_oracle(h, 3).value


def test_oracle_size_guard():
    with pytest.raises(SizeGuardError):
        edge_roman_oracle(complete_graph(5), Limits(max_steps=100))
    with pytest.raises(SizeGuardError):
        antimagic_oracle(complete_graph(5), Limits(max_steps=100))


@pytest.mark.parametrize(
    "call",
    [
        lambda limits: antimagic_oracle(P3, limits),
        lambda limits: strength_oracle(P3, 2, limits),
        lambda limits: chi_sigma_oracle(P3, 2, limits),
        lambda limits: domination_oracle(P3, 1, limits),
        lambda limits: domination_number(P3, limits),
        lambda limits: edge_roman_oracle(P3, limits),
        lambda limits: hamiltonian_oracle(C4, limits),
    ],
)
def test_oracles_poll_the_deadline_before_their_loop(call):
    with pytest.raises(TimeLimitError):
        call(Limits(deadline=0.0))


P8 = path_graph(8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: antimagic_oracle(P8),
        lambda: strength_oracle(P8, 2),
        lambda: chi_sigma_oracle(P8, 2),
        lambda: domination_oracle(P8, 1),
        lambda: domination_number(P8),
        lambda: edge_roman_oracle(P8),
        lambda: hamiltonian_oracle(P8),
    ],
)
def test_oracles_honour_the_order_guard(call):
    # the default max_n is 7, so an 8-vertex graph is refused before any work
    with pytest.raises(SizeGuardError, match="max_n=7"):
        call()


# The neighbour tables a graph caches for the spectral code, and what reads them.
_CACHED_TABLES = {"masks", "adjacency", "neighbors", "degree"}


def test_oracles_stay_independent_of_the_spectral_code():
    """The oracles import only the plain graph type, the errors and the
    limits from the package, and never read a neighbour table cached on
    the graph."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported, from_graphs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("combspectra"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("combspectra"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("graphs"):
            from_graphs.update(a.name for a in node.names)
    assert imported == {"errors", "graphs", "limits"}
    assert from_graphs == {"SimpleGraph"}
    assert not [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _CACHED_TABLES
        or isinstance(node, ast.Constant) and node.value in _CACHED_TABLES
    ]


def _oracle_outcomes(graphs) -> list:
    """Every oracle's result, or its precondition message, on each graph."""
    outcomes = []
    for g in graphs:
        calls = [
            lambda: antimagic_oracle(g),
            lambda: strength_oracle(g, 3),
            lambda: chi_sigma_oracle(g, 2),
            lambda: domination_number(g),
            lambda: edge_roman_oracle(g),
            lambda: hamiltonian_oracle(g),
            *(lambda k=k: domination_oracle(g, k) for k in range(1, g.n + 1)),
        ]
        for call in calls:
            try:
                outcomes.append(call())
            except PreconditionError as exc:
                outcomes.append(str(exc))
    return outcomes


def test_oracles_answer_the_same_without_the_graphs_bitmasks(monkeypatch):
    # the behavioural twin of the test above: with SimpleGraph.masks (and so
    # neighbors and degree) refusing every read, no oracle result changes
    graphs = connected_graphs_up_to(5)
    expected = _oracle_outcomes(graphs)
    assert any(isinstance(outcome, oracles.OracleResult) for outcome in expected)

    def refused(_g):
        raise AssertionError("an oracle read SimpleGraph.masks")

    monkeypatch.setattr(SimpleGraph, "masks", property(refused))
    with pytest.raises(AssertionError, match="read SimpleGraph.masks"):
        graphs[-1].neighbors(1)
    assert _oracle_outcomes(graphs) == expected
