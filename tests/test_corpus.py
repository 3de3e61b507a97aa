"""Connected-graph corpus: exact counts and determinism."""

import warnings

from combspectra.corpus import connected_graphs, connected_graphs_up_to
from combspectra.graphs import is_connected, to_graph6


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
