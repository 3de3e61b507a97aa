"""Connected-graph corpus: exact counts, determinism and the canonical key."""

import warnings
from itertools import combinations
from pathlib import Path
from random import Random

import networkx as nx

from combspectra.corpus import canonical_key, connected_graphs, connected_graphs_up_to
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


def test_generation_records_no_warnings():
    # networkx >= 3.5 warns on every attribute-free WL hash
    connected_graphs.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        connected_graphs(4)
    assert caught == []


def test_corpus_matches_golden_graph6():
    # n = 1..7 in generation order, one graph6 line each
    fresh = "".join(to_graph6(g) + "\n" for g in connected_graphs_up_to(7))
    assert fresh == GOLDEN_CORPUS.read_text()


def test_canonical_key_ignores_labelling():
    rng = Random(7)
    for g in connected_graphs_up_to(7):
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        relabelled = g.relabel(tuple(perm))
        assert canonical_key(g.n, relabelled.edges) == canonical_key(g.n, g.edges)


def test_canonical_keys_distinct_at_order_seven():
    keys = {canonical_key(7, g.edges) for g in connected_graphs(7)}
    assert len(keys) == 853


def test_canonical_key_matches_networkx_isomorphism():
    # every augmentation candidate of the generator for n <= 5
    candidates = [
        SimpleGraph(n, parent.edges | {(v, n) for v in neighbors})
        for n in range(2, 6)
        for parent in connected_graphs(n - 1)
        for size in range(1, n)
        for neighbors in combinations(range(1, n), size)
    ]
    keyed = []
    for g in candidates:
        gx = nx.Graph()
        gx.add_nodes_from(range(1, g.n + 1))
        gx.add_edges_from(g.edges)
        keyed.append((canonical_key(g.n, g.edges), gx))
    for (key_a, gx_a), (key_b, gx_b) in combinations(keyed, 2):
        assert (key_a == key_b) == nx.is_isomorphic(gx_a, gx_b)
