"""Weighted complete graphs, probe gadgets and the star product."""

from random import Random

import pytest

from combspectra import ring
from combspectra.errors import PreconditionError
from combspectra.gadgets import (
    WeightedCompleteGraph,
    bijection_pair_maps,
    contrast_pair,
    contrast_reader,
    cover_pair,
    cover_reader,
    degree_reader,
    distance_weighting,
    domination_probe,
    edge_indicator,
    generator_pair_maps,
    hamiltonian_sum,
    indicator,
    pair_index,
    pair_rank,
    pair_reader,
    pairs_in_rank_order,
    star_indicator,
    star_product,
    star_sum,
    weighted_embedding,
)
from combspectra.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from combspectra.ring import const, x_pow

ONE, ZERO, I, X = ring.ONE, ring.ZERO, ring.I, ring.X


def wcg(n, *weights):
    return WeightedCompleteGraph(n, [w if isinstance(w, ring.RingElem) else const(w) for w in weights])


def test_pair_rank_values():
    assert pair_rank(2, 1) == 0
    assert pair_rank(3, 1) == 1
    assert pair_rank(3, 2) == 2
    assert pair_rank(4, 3) == 5
    with pytest.raises(ValueError):
        pair_rank(1, 2)
    with pytest.raises(ValueError):
        pair_rank(5, 1, n=4)


def test_pair_rank_bijective():
    for n in (2, 3, 5, 7):
        ranks = [pair_index(u, v, n) for u, v in pairs_in_rank_order(n)]
        assert sorted(ranks) == list(range(n * (n - 1) // 2))


def test_indicator_examples():
    assert indicator(path_graph(3)) == wcg(3, 1, 0, 1)
    assert indicator(complete_graph(3)) == wcg(3, 1, 1, 1)
    assert indicator(SimpleGraph(3)) == wcg(3, 0, 0, 0)


def test_weighted_embedding_examples():
    g = weighted_embedding(path_graph(3), {(1, 2): 1, (2, 3): 2})
    assert g == wcg(3, 1, 0, 2)
    assert weighted_embedding(complete_graph(2), {(1, 2): 1}) == wcg(2, 1)
    allone = weighted_embedding(cycle_graph(4), {e: 1 for e in cycle_graph(4).edges})
    assert allone == indicator(cycle_graph(4))
    with pytest.raises(PreconditionError):
        weighted_embedding(path_graph(3), {(1, 3): 1, (1, 2): 1, (2, 3): 1})
    with pytest.raises(PreconditionError):
        weighted_embedding(path_graph(3), {(1, 2): 1})


def test_distance_weighting_examples():
    assert distance_weighting(path_graph(3)) == wcg(3, 1, 2, 1)
    for n in (3, 4, 5):
        assert distance_weighting(complete_graph(n)) == indicator(complete_graph(n))
    c4 = distance_weighting(cycle_graph(4))
    assert c4.weight(1, 3) == const(2) and c4.weight(2, 4) == const(2)
    assert c4.weight(1, 2) == const(1)
    with pytest.raises(PreconditionError):
        distance_weighting(SimpleGraph(2))


def test_basis_gadget_tables():
    assert star_indicator(1, 3) == wcg(3, 1, 1, 0)
    assert edge_indicator(1, 2, 3) == wcg(3, 1, 0, 0)
    # contrast: i on the pair, +1 at the first vertex, -1 at the second
    assert contrast_pair(1, 2, 3) == wcg(3, I, 1, -1)
    assert cover_pair(1, 2, 3) == wcg(3, I, 1, 1)
    assert domination_probe(1, 3) == wcg(3, 0, 1, X)
    with pytest.raises(ValueError):
        contrast_pair(2, 1, 3)
    with pytest.raises(ValueError):
        domination_probe(3, 3)


def test_reader_expansions_order_three():
    assert degree_reader(3) == wcg(3, ONE + X, ONE + x_pow(2), X + x_pow(2))
    assert pair_reader(3) == wcg(3, ONE, X, x_pow(2))
    assert contrast_reader(3) == wcg(
        3,
        I + X + x_pow(2),
        ONE + I * X - x_pow(2),
        -ONE - X + I * x_pow(2),
    )
    assert cover_reader(3) == wcg(
        3,
        I + X + x_pow(2),
        ONE + I * X + x_pow(2),
        ONE + X + I * x_pow(2),
    )


def _reader_by_probes(n, probe, key):
    # the defining sum of x^key * probe over the vertices or the pairs
    acc = WeightedCompleteGraph.zero(n)
    if probe is star_indicator:
        for j in range(1, n + 1):
            acc = acc + probe(j, n).scale(x_pow(key(j)))
        return acc
    for u, v in pairs_in_rank_order(n):
        acc = acc + probe(u, v, n).scale(x_pow(key(u, v)))
    return acc


@pytest.mark.parametrize("n", range(2, 9))
def test_readers_equal_their_sum_of_probes_definition(n):
    assert degree_reader(n) == _reader_by_probes(n, star_indicator, lambda j: j - 1)
    assert pair_reader(n) == _reader_by_probes(n, edge_indicator, pair_index)
    assert contrast_reader(n) == _reader_by_probes(n, contrast_pair, pair_index)
    assert cover_reader(n) == _reader_by_probes(n, cover_pair, pair_index)


def test_wcg_add():
    p = indicator(path_graph(3))
    assert p + p == wcg(3, 2, 0, 2)
    assert p + WeightedCompleteGraph.zero(3) == p
    combined = degree_reader(3) + pair_reader(3).scale(x_pow(3))
    assert combined == wcg(
        3,
        ONE + X + x_pow(3),
        ONE + x_pow(2) + x_pow(4),
        X + x_pow(2) + x_pow(5),
    )
    with pytest.raises(PreconditionError):
        p + WeightedCompleteGraph.zero(4)


def test_star_product_examples():
    h = wcg(3, ONE + X, x_pow(2), I)
    assert star_product(h, indicator(complete_graph(3)), (2, 3, 1)) == h

    p3 = indicator(path_graph(3))
    d1 = domination_probe(1, 3)
    assert star_product(d1, p3, (1, 2, 3)) == wcg(3, 0, 0, X)
    assert star_product(d1, p3, (1, 2, 3)).total_weight() == X
    swapped = star_product(d1, p3, (1, 3, 2))
    assert swapped == wcg(3, 0, 1, X)
    assert swapped.total_weight() == ONE + X


def test_total_weight_examples():
    g = weighted_embedding(path_graph(3), {(1, 2): 1, (2, 3): 2})
    p = star_product(g, degree_reader(3), (1, 2, 3)).total_weight()
    assert p == ONE + 3 * X + 2 * x_pow(2)
    assert indicator(complete_graph(3)).total_weight() == const(3)
    assert WeightedCompleteGraph.zero(4).total_weight() == ZERO


def test_combined_reader_polynomial():
    # the worked 3-path example for the family antimagic search
    g = weighted_embedding(path_graph(3), {(1, 2): 1, (2, 3): 2})
    gadget = degree_reader(3) + pair_reader(3).scale(x_pow(3))
    p = star_product(g, gadget, (1, 2, 3)).total_weight()
    assert p == ONE + 3 * X + 2 * x_pow(2) + x_pow(3) + 2 * x_pow(5)


def test_hamiltonian_sum_examples():
    import itertools

    c3, p3 = cycle_graph(3), path_graph(3)
    for f in itertools.permutations((1, 2, 3)):
        assert hamiltonian_sum(c3, p3, f) == 4
    c4 = cycle_graph(4)
    assert hamiltonian_sum(c4, c4, (1, 2, 3, 4)) == 4
    assert hamiltonian_sum(c4, star_graph(4), (1, 2, 3, 4)) == 6
    with pytest.raises(PreconditionError):
        hamiltonian_sum(c4, SimpleGraph(4, [(1, 2)]), (1, 2, 3, 4))


def test_hamiltonian_sum_matches_star_product():
    import itertools

    h, g = cycle_graph(4), star_graph(4)
    ih, dg = indicator(h), distance_weighting(g)
    for f in itertools.permutations((1, 2, 3, 4)):
        spectral = star_product(ih, dg, f).total_weight()
        assert spectral == const(hamiltonian_sum(h, g, f))


def test_total_weight_additive_and_distributive():
    rng = Random(3)
    maps = bijection_pair_maps(4)
    for _ in range(30):
        a = _random_wcg(rng, 4)
        b = _random_wcg(rng, 4)
        c = _random_wcg(rng, 4)
        assert (a + b).total_weight() == a.total_weight() + b.total_weight()
        _f, pmap = maps[rng.randrange(len(maps))]
        left = (a + b).star_with_map(c, pmap).total_weight()
        right = (
            a.star_with_map(c, pmap).total_weight()
            + b.star_with_map(c, pmap).total_weight()
        )
        assert left == right


def test_star_with_complete_indicator_keeps_total():
    rng = Random(4)
    kn = indicator(complete_graph(4))
    for _f, pmap in bijection_pair_maps(4):
        a = _random_wcg(rng, 4)
        assert a.star_with_map(kn, pmap).total_weight() == a.total_weight()


def test_star_is_the_pointwise_product_with_the_relabeled_factor():
    rng = Random(13)
    maps = bijection_pair_maps(4)
    for _ in range(50):
        a, b = _random_wcg(rng, 4), _random_wcg(rng, 4)
        f, pmap = maps[rng.randrange(len(maps))]
        star = a.star_with_map(b, pmap)
        assert star == a * b.relabeled(pmap)
        for u, v in pairs_in_rank_order(4):
            assert star.weight(u, v) == a.weight(u, v) * b.weight(f[u - 1], f[v - 1])
            assert (a * b).weight(u, v) == a.weight(u, v) * b.weight(u, v)
    with pytest.raises(PreconditionError):
        a * WeightedCompleteGraph.zero(3)


def test_star_sum_equals_materialized_product():
    rng = Random(9)
    maps = bijection_pair_maps(4)
    for _ in range(50):
        a, b = _random_wcg(rng, 4), _random_wcg(rng, 4)
        _f, pmap = maps[rng.randrange(len(maps))]
        assert star_sum(a, b, pmap) == a.star_with_map(b, pmap).total_weight()


def test_readers_at_one():
    from combspectra.verify import _reader_at_one

    for n in range(3, 7):
        kn = indicator(complete_graph(n))
        assert _reader_at_one(degree_reader(n)) == kn.scale(const(2))
        assert _reader_at_one(pair_reader(n)) == kn
        assert _reader_at_one(cover_reader(n)) == kn.scale(const(2 * n - 4, 1))


def test_degree_coefficients_match_direct_degrees():
    rng = Random(12)
    for g in (path_graph(4), cycle_graph(4), star_graph(4), complete_graph(4)):
        labels = {e: rng.randint(1, 5) for e in g.edges}
        emb = weighted_embedding(g, labels)
        for f, pmap in bijection_pair_maps(4):
            p = star_sum(emb, degree_reader(4), pmap)
            inverse = {f[v - 1]: v for v in range(1, 5)}
            for j in range(4):
                v = inverse[j + 1]
                degree = sum(w for e, w in labels.items() if v in e)
                assert p.coeff_x(j) == const(degree)


def test_bijection_maps_identity_first():
    maps = bijection_pair_maps(4)
    assert maps[0][0] == (1, 2, 3, 4)
    assert maps[0][1] == tuple(range(6))
    assert len(maps) == 24


def test_pair_maps_send_each_pair_to_the_rank_of_its_image():
    # entry (f, m): the pair of rank p, (u, v), goes to rank pair_index(f(u), f(v))
    for n in range(1, 7):
        for f, pmap in bijection_pair_maps(n):
            assert pmap == tuple(pair_index(f[u - 1], f[v - 1]) for u, v in pairs_in_rank_order(n))


def test_generator_pair_maps():
    assert [f for f, _m in generator_pair_maps(4)] == [(2, 1, 3, 4), (2, 3, 4, 1)]
    full = dict(bijection_pair_maps(4))
    assert all(m == full[f] for f, m in generator_pair_maps(4))
    assert generator_pair_maps(1) == ()


def test_wcg_json_round_trip():
    g = contrast_reader(4)
    assert WeightedCompleteGraph.from_json(g.to_json()) == g


def _random_wcg(rng: Random, n: int) -> WeightedCompleteGraph:
    return WeightedCompleteGraph(
        n,
        [ring.random_element(rng, max_deg=2, max_terms=3, coeff_bound=4)
         for _ in range(n * (n - 1) // 2)],
    )
