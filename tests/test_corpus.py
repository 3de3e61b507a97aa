"""Connected-graph corpus: exact counts, determinism, the stored table and
its handoff to the generator, the bucket signature, the isomorphism search
and the orbit pruning."""

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
from combspectra.errors import ParseError, TimeLimitError
from combspectra.graphs import SimpleGraph, is_connected, to_graph6
from combspectra.limits import DEFAULT_LIMITS

TABLE = Path(corpus.__file__).with_name("corpus.g6")


def _use_table(monkeypatch, tmp_path, text: str) -> None:
    """Serve the corpus from a table holding text, with no order kept yet;
    an empty table holds no order, so every order is generated."""
    path = tmp_path / "corpus.g6"
    path.write_text(text)
    monkeypatch.setattr(corpus, "_TABLE", path)
    monkeypatch.setattr(corpus, "_ORDERS", {})


def _table_lines(keep=lambda line: True) -> list[str]:
    return [line for line in TABLE.read_text().splitlines(keepends=True) if keep(line)]


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


def test_generation_records_no_warnings(monkeypatch, tmp_path):
    # networkx >= 3.5 warns on every attribute-free WL hash
    _use_table(monkeypatch, tmp_path, "")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        connected_graphs(4)
    assert caught == []


def test_corpus_matches_golden_graph6():
    # the generator's n = 1..7 in generation order, one graph6 line each, is
    # the stored table byte for byte
    orders = [(SimpleGraph(1),)]
    for n in range(2, 8):
        orders.append(corpus._next_order(orders[-1], n, DEFAULT_LIMITS))
    fresh = "".join(to_graph6(g) + "\n" for order in orders for g in order)
    assert fresh == TABLE.read_text()
    assert "".join(to_graph6(g) + "\n" for g in connected_graphs_up_to(7)) == fresh


def test_a_table_missing_a_line_fails_the_count(monkeypatch, tmp_path):
    lines = _table_lines()
    del lines[[line[0] for line in lines].index("E") + 40]
    _use_table(monkeypatch, tmp_path, "".join(lines))
    with pytest.raises(AssertionError, match="111 connected graphs on 6 vertices, expected 112"):
        connected_graphs(6)
    assert 6 not in corpus._ORDERS


def test_a_malformed_table_line_raises_parse_error(monkeypatch, tmp_path):
    lines = _table_lines()
    i = [line[0] for line in lines].index("E") + 40
    lines[i] = lines[i][:2] + "\n"  # one data character of the three n = 6 needs
    _use_table(monkeypatch, tmp_path, "".join(lines))
    with pytest.raises(ParseError):
        connected_graphs(6)
    assert 6 not in corpus._ORDERS


def test_an_order_beyond_the_table_is_generated_from_its_last(monkeypatch, tmp_path):
    # the handoff order 8 takes from the full table, at order 6 of a cut one
    _use_table(monkeypatch, tmp_path, "".join(_table_lines(lambda line: line[0] <= "D")))
    generated = []
    next_order = corpus._next_order

    def spy(parents, n, limits):
        generated.append(n)
        return next_order(parents, n, limits)

    monkeypatch.setattr(corpus, "_next_order", spy)
    sixes = "".join(to_graph6(g) + "\n" for g in connected_graphs(6))
    assert generated == [6]
    assert sixes == "".join(_table_lines(lambda line: line[0] == "E"))


def test_a_stored_order_polls_the_deadline_once(monkeypatch):
    monkeypatch.setattr(corpus, "_ORDERS", {})
    with pytest.raises(TimeLimitError):
        connected_graphs(7, limits=_StopAfter(0))
    assert 7 not in corpus._ORDERS
    assert len(connected_graphs(7, limits=_StopAfter(1))) == 853


def test_the_table_ships_beside_the_corpus_module():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    package_data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
    assert "corpus.g6" in package_data["combspectra"]
    assert corpus._TABLE == TABLE
    assert TABLE.is_file()


def _form(g: SimpleGraph) -> corpus._Form:
    return corpus._form(g.masks)


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


def test_deadline_keeps_finished_orders_and_drops_the_stopped_one(monkeypatch, tmp_path):
    _use_table(monkeypatch, tmp_path, "")
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
