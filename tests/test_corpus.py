"""Connected-graph corpus: exact counts, determinism, the bucket signature,
the isomorphism search and the orbit pruning."""

import hashlib
import warnings
from collections import defaultdict
from itertools import combinations, permutations
from pathlib import Path
from random import Random

import networkx as nx
import pytest

from combspectra import corpus
from combspectra.corpus import connected_graphs, connected_graphs_up_to
from combspectra.errors import TimeLimitError
from combspectra.graphs import SimpleGraph, is_connected, to_graph6

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus.g6"


def test_connected_counts():
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    for n, count in expected.items():
        assert len(connected_graphs(n)) == count


def test_connected_count_order_seven():
    assert len(connected_graphs(7)) == 853


def test_members_are_connected_and_distinct():
    seen = set()
    for g in connected_graphs(5):
        assert is_connected(g)
        assert g.n == 5
        key = to_graph6(g)
        assert key not in seen
        seen.add(key)


def test_up_to_is_ordered():
    graphs = connected_graphs_up_to(4, min_n=2)
    assert [g.n for g in graphs] == sorted(g.n for g in graphs)
    assert len(graphs) == 1 + 2 + 6


def test_deterministic_order():
    a = [to_graph6(g) for g in connected_graphs(5)]
    b = [to_graph6(g) for g in connected_graphs(5)]
    assert a == b


def test_generation_records_no_warnings(monkeypatch):
    # networkx >= 3.5 warns on every attribute-free WL hash
    monkeypatch.setattr(corpus, "_ORDERS", {})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        connected_graphs(4)
    assert caught == []


def test_corpus_matches_golden_graph6():
    # n = 1..7 in generation order, one graph6 line each
    fresh = "".join(to_graph6(g) + "\n" for g in connected_graphs_up_to(7))
    assert fresh == GOLDEN_CORPUS.read_text()


def _form(g: SimpleGraph) -> corpus._Form:
    return corpus._form(corpus._adjacency(g))


def _nx(g: SimpleGraph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(1, g.n + 1))
    gx.add_edges_from(g.edges)
    return gx


def test_relabelling_lands_in_the_same_bucket_and_is_found_isomorphic():
    rng = Random(7)
    for g in connected_graphs_up_to(7):
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        relabelled = _form(g.relabel(tuple(perm)))
        assert relabelled.key == _form(g).key
        assert corpus._isomorphic(relabelled, _form(g))


def test_order_seven_is_pairwise_non_isomorphic():
    # graphs in different buckets differ in an invariant; within a bucket
    # neither the search nor networkx finds an isomorphism
    buckets = defaultdict(list)
    for g in connected_graphs(7):
        buckets[_form(g).key].append(g)
    assert sum(map(len, buckets.values())) == 853
    for bucket in buckets.values():
        for g, h in combinations(bucket, 2):
            assert not corpus._isomorphic(_form(g), _form(h))
            assert not nx.is_isomorphic(_nx(g), _nx(h))


def test_bucket_and_search_match_networkx_isomorphism():
    # every augmentation candidate of the generator for n <= 5, pruned or not
    candidates = [
        SimpleGraph(n, parent.edges | {(v, n) for v in neighbors})
        for n in range(2, 6)
        for parent in connected_graphs(n - 1)
        for size in range(1, n)
        for neighbors in combinations(range(1, n), size)
    ]
    formed = [(_form(g), _nx(g)) for g in candidates]
    for (a, gx_a), (b, gx_b) in combinations(formed, 2):
        same = a.key == b.key and corpus._isomorphic(a, b)
        assert same == nx.is_isomorphic(gx_a, gx_b)


def _brute_force_automorphisms(g: SimpleGraph) -> set[tuple[int, ...]]:
    edges = {frozenset((u - 1, v - 1)) for u, v in g.edges}
    return {
        f
        for f in permutations(range(g.n))
        if all(frozenset((f[u], f[v])) in edges for u, v in map(tuple, edges))
    }


def test_automorphisms_match_brute_force():
    for g in connected_graphs_up_to(6):
        found = list(corpus._isomorphisms(_form(g), _form(g)))
        assert len(found) == len(set(found))
        assert set(found) == _brute_force_automorphisms(g)


def test_orbit_pruning_keeps_the_least_set_of_each_orbit():
    for parent in connected_graphs_up_to(6):
        autos = _brute_force_automorphisms(parent)
        orbits = {
            nbrs: min(tuple(sorted(f[v] for v in nbrs)) for f in autos)
            for nbrs, _mask in corpus._neighbour_sets(parent.n)
        }
        kept = list(corpus._least_sets(_form(parent)))
        assert kept == [nbrs for nbrs, least in orbits.items() if nbrs == least]


class _StopAfter:
    """Limits whose deadline passes after a number of polls."""

    def __init__(self, polls: int):
        self.polls = polls

    def check_time(self) -> None:
        self.polls -= 1
        if self.polls < 0:
            raise TimeLimitError("wall-clock deadline exceeded")


def test_deadline_keeps_finished_orders_and_drops_the_stopped_one(monkeypatch):
    monkeypatch.setattr(corpus, "_ORDERS", {})
    # one poll per parent: one at n = 2 and 3, two at n = 4, six at n = 5;
    # the deadline passes at the fourth parent of n = 5
    with pytest.raises(TimeLimitError):
        connected_graphs(5, limits=_StopAfter(1 + 1 + 2 + 3))
    assert sorted(corpus._ORDERS) == [1, 2, 3, 4]
    assert len(connected_graphs(5, limits=_StopAfter(6))) == 21


# sha256 of the graph6 lines (each with "\n") of the connected graphs on
# 8 vertices in generation order, as the exhaustive minimum-bitcode key
# generated them
_ORDER_EIGHT_SHA256 = "6dcfe51fe21f7da41878bff1e216f987c482cded8daef4890037683220f728a5"


@pytest.mark.slow
def test_order_eight_matches_the_recorded_sha256():
    graphs = connected_graphs(8)
    assert len(graphs) == 11117
    text = "".join(to_graph6(g) + "\n" for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == _ORDER_EIGHT_SHA256
