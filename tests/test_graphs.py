"""Graph parsing, distances, components, and the two input formats."""

import itertools
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combspectra.corpus import connected_graphs_up_to
from combspectra.errors import ParseError, PreconditionError
from combspectra.graphs import (
    SimpleGraph,
    all_pairs_distances,
    complete_graph,
    component_orders,
    cycle_graph,
    is_connected,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_graph,
    star_graph,
    to_edge_list,
    to_graph6,
)


def test_parse_examples():
    p3 = parse_edge_list("3 2\n1 2\n2 3")
    assert p3 == path_graph(3)
    k2 = parse_edge_list("2 1\n1 2")
    assert k2 == complete_graph(2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2.*loop"):
        parse_edge_list("3 1\n1 1")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_edge_list("3 2\n1 2\n2 1")
    with pytest.raises(ParseError, match="line 2.*out of range"):
        parse_edge_list("3 1\n1 4")
    with pytest.raises(ParseError, match="line 2.*non-integer"):
        parse_edge_list("3 1\nx y")
    with pytest.raises(ParseError, match="promised 2"):
        parse_edge_list("3 2\n1 2")
    with pytest.raises(ParseError, match="empty"):
        parse_edge_list("# just a comment\n")


def test_parse_ignores_blanks_and_comments():
    g = parse_edge_list("# path\n\n3 2\n1 2\n\n# more\n2 3\n")
    assert g == path_graph(3)


def test_distances():
    # 0-based rows and columns, 0 on the diagonal, None for an unreachable pair
    assert all_pairs_distances(path_graph(3)) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert all_pairs_distances(complete_graph(3)) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert all_pairs_distances(SimpleGraph(2)) == [[0, None], [None, 0]]
    assert all_pairs_distances(SimpleGraph(1)) == [[0]]


def test_distance_symmetry_and_triangle():
    dist = all_pairs_distances(cycle_graph(6))
    for u in range(6):
        for v in range(6):
            assert dist[u][v] == dist[v][u]
            for w in range(6):
                assert dist[u][v] <= dist[u][w] + dist[w][v]


def test_component_orders():
    assert component_orders(path_graph(3)) == (3,)
    g = SimpleGraph(5, [(1, 2), (3, 4), (4, 5), (3, 5)])
    assert component_orders(g) == (2, 3)
    assert component_orders(SimpleGraph(1)) == (1,)
    assert is_connected(cycle_graph(4))
    assert not is_connected(SimpleGraph(3, [(1, 2)]))


def test_edge_list_round_trip():
    for g in (path_graph(4), cycle_graph(5), star_graph(4), SimpleGraph(2)):
        assert parse_edge_list(to_edge_list(g)) == g


def test_graph6_round_trip():
    for g in (path_graph(3), complete_graph(4), cycle_graph(5), SimpleGraph(1)):
        assert parse_graph6(to_graph6(g)) == g


def test_graph6_against_networkx():
    for g in (path_graph(3), complete_graph(5), star_graph(6), cycle_graph(7)):
        ours = to_graph6(g)
        gx = nx.from_graph6_bytes(ours.encode())
        assert set(gx.nodes) == set(range(g.n))
        assert {(min(u, v) + 1, max(u, v) + 1) for u, v in gx.edges} == g.edges


@st.composite
def graphs_up_to_62(draw):
    """Any order 1..62, at an edge density from empty to complete."""
    n = draw(st.integers(1, 62))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.8, 1.0]))
    rnd = Random(draw(st.integers(0, 2**32 - 1)))
    pairs = itertools.combinations(range(1, n + 1), 2)
    return SimpleGraph(n, (pair for pair in pairs if rnd.random() < density))


def _networkx(g: SimpleGraph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from((u - 1, v - 1) for u, v in g.edges)
    return gx


@given(graphs_up_to_62())
@settings(max_examples=150, deadline=None)
def test_graph6_round_trip_and_networkx_bytes_up_to_62(g):
    ours = to_graph6(g)
    assert parse_graph6(ours) == g
    assert nx.to_graph6_bytes(_networkx(g), header=False) == ours.encode() + b"\n"


@given(graphs_up_to_62())
@settings(max_examples=60, deadline=None)
def test_distances_against_networkx(g):
    lengths = dict(nx.all_pairs_shortest_path_length(_networkx(g)))
    expected = [[lengths[u].get(v) for v in range(g.n)] for u in range(g.n)]
    assert all_pairs_distances(g) == expected


@given(graphs_up_to_62(), st.integers(1, 63))
@settings(max_examples=150, deadline=None)
def test_parse_graph6_ignores_nonzero_padding_bits(g, fill):
    g6 = to_graph6(g)
    padding = -(g.n * (g.n - 1) // 2) % 6
    if not padding:
        return
    last = ord(g6[-1]) - 63
    padded = g6[:-1] + chr(63 + (last | fill & ((1 << padding) - 1)))
    assert parse_graph6(padded) == g


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("B")  # truncated data


@st.composite
def simple_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, (pair for pair, keep in zip(pairs, chosen) if keep))


@given(simple_graphs())
@settings(max_examples=200, deadline=None)
def test_graph6_and_edge_list_round_trip(g):
    g6, text = to_graph6(g), to_edge_list(g)
    assert parse_graph(g6) == parse_graph(text) == g
    assert to_graph6(parse_edge_list(text)) == g6
    assert to_edge_list(parse_graph6(g6)) == text


_number = st.integers(-3, 70).map(str)
_line = st.one_of(
    st.tuples(_number, _number).map(" ".join),
    st.lists(_number, max_size=3).map(" ".join),
    st.sampled_from(["", "# note", "Bw", "?", "~", ">>graph6<<"]),
    st.text(max_size=6),
)


@given(st.one_of(st.text(max_size=30), st.lists(_line, max_size=5).map("\n".join)))
@settings(max_examples=500, deadline=None)
def test_parse_graph_raises_only_parse_errors(text):
    try:
        g = parse_graph(text)
    except ParseError:
        return
    assert 1 <= g.n <= 62


def test_parse_rejects_orders_above_62():
    with pytest.raises(ParseError, match="n > 62"):
        parse_edge_list("63 0\n")
    with pytest.raises(ParseError, match="n > 62"):
        parse_graph("100 0")
    assert parse_edge_list("62 0\n").n == 62


def test_parse_graph_auto_detects():
    assert parse_graph("3 2\n1 2\n2 3\n") == path_graph(3)
    assert parse_graph("Bw\n") == complete_graph(3)
    # a second graph is refused, not dropped
    with pytest.raises(ParseError, match="holds 2"):
        parse_graph("Bw\nCF\n")


def test_constructors_and_accessors():
    g = star_graph(4)
    assert g.m == 3 and g.degree(1) == 3 and g.degree(2) == 1
    assert g.neighbors(1) == {2, 3, 4}
    assert g.has_edge(1, 3) and not g.has_edge(2, 3)
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(0)
    with pytest.raises(PreconditionError):
        cycle_graph(2)


def test_relabel():
    g = path_graph(3).relabel((2, 1, 3))  # swap vertices 1 and 2
    assert g.edges == {(1, 2), (1, 3)}


def _rebuilt_masks(g: SimpleGraph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return masks


def _assert_masks_are_the_adjacency(g: SimpleGraph) -> None:
    assert type(g.masks) is tuple
    assert list(g.masks) == _rebuilt_masks(g)
    for v in range(1, g.n + 1):
        assert g.adjacency[v - 1] == {w for w in range(1, g.n + 1) if g.masks[v - 1] >> (w - 1) & 1}


def test_masks_of_every_corpus_graph_up_to_order_six():
    for g in connected_graphs_up_to(6):
        _assert_masks_are_the_adjacency(g)


@given(graphs_up_to_62())
@settings(max_examples=150, deadline=None)
def test_masks_agree_with_edges_and_adjacency_up_to_62(g):
    _assert_masks_are_the_adjacency(g)
    assert g.masks is g.masks  # built once, then cached


def test_relabel_builds_its_own_masks():
    g = path_graph(4)
    assert g.masks == (0b10, 0b101, 0b1010, 0b100)
    perm = (3, 1, 4, 2)
    h = g.relabel(perm)
    assert h.edges == {(1, 3), (1, 4), (2, 4)}
    _assert_masks_are_the_adjacency(h)
    for v in range(1, 5):
        image = {perm[w - 1] for w in g.neighbors(v)}
        assert h.masks[perm[v - 1] - 1] == sum(1 << (w - 1) for w in image)
    assert g.masks == (0b10, 0b101, 0b1010, 0b100)
