"""Spectrum characterizations: worked examples, witnesses, structural identities."""

import math
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from combspectra import ring
from combspectra.characterize import (
    _edge_roman_accept,
    _tail_masks,
    antimagic_family,
    antimagic_unweighted,
    antimagic_weighted,
    decode_edge_roman,
    dominating_k,
    dominating_set_of,
    edge_roman_at_most,
    hamiltonian_cycle_spectrum,
    hamiltonian_number,
    hamiltonian_spectrum,
    irregular_weighted,
    local_irregular_weighted,
    one_two_three,
    strength_at_most,
)
from combspectra.errors import (
    NotDivisibleError,
    PreconditionError,
    SizeGuardError,
    TimeLimitError,
)
from combspectra.corpus import connected_graphs
from combspectra.families import ROMAN_PALETTE, Spectrum, iter_colorings, singleton
from combspectra.gadgets import (
    WeightedCompleteGraph,
    all_bijections,
    bijection_pair_maps,
    contrast_pair,
    cover_reader,
    distance_weighting,
    domination_probe,
    edge_indicator,
    hamiltonian_sum,
    indicator,
    pairs_in_rank_order,
    star_indicator,
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
from combspectra.limits import Limits
from combspectra.oracles import _dominates
from combspectra.ring import GaussInt, const, x_pow
from combspectra.verify import _full_scan

P3 = path_graph(3)
P4 = path_graph(4)
C3 = cycle_graph(3)
C4 = cycle_graph(4)
K2 = complete_graph(2)


def embed(g, values):
    return weighted_embedding(g, {e: v for e, v in zip(g.sorted_edges(), values)})


# -- antimagic -------------------------------------------------------------------


def test_antimagic_weighted_examples():
    assert antimagic_weighted(embed(P3, (1, 2))).holds
    assert not antimagic_weighted(embed(K2, (1,))).holds
    assert not antimagic_weighted(embed(P3, (1, 1))).holds


def test_antimagic_weighted_edge_spectrum_is_exact_set():
    # a skipped label breaks the non-complete exact-set condition
    assert not antimagic_weighted(embed(P3, (1, 3))).holds
    # an off-range label on a complete weighting breaks the complete branch
    assert not antimagic_weighted(embed(C3, (1, 2, 4))).holds
    assert antimagic_weighted(embed(C3, (1, 2, 3))).holds


def test_antimagic_weighted_rejects_symbolic_weights():
    bad = weighted_embedding(P3, {(1, 2): ring.X, (2, 3): 1})
    with pytest.raises(PreconditionError):
        antimagic_weighted(bad)


def test_antimagic_family_examples():
    v = antimagic_family(singleton(embed(P3, (1, 2))))
    assert v.holds
    assert v.witness_polynomial == (
        ring.ONE + 3 * ring.X + 2 * x_pow(2) + x_pow(3) + 2 * x_pow(5)
    )
    v = antimagic_family(singleton(embed(P3, (1, 1))))
    assert not v.holds
    assert v.stats.bijections == 1


def test_antimagic_family_empty_fails():
    from combspectra.families import GraphFamily

    assert not antimagic_family(GraphFamily(3, [])).holds


def test_antimagic_unweighted_examples():
    v = antimagic_unweighted(P3)
    assert v.holds
    labels = {e: v.witness_graph.weight(*e).constant_value().re for e in P3.edges}
    assert sorted(labels.values()) == [1, 2]
    with pytest.raises(PreconditionError):
        antimagic_unweighted(SimpleGraph(3, [(1, 2)]))  # isolated vertex
    assert not antimagic_unweighted(K2).holds
    assert antimagic_unweighted(C3).holds


def test_antimagic_size_guard():
    with pytest.raises(SizeGuardError):
        antimagic_unweighted(complete_graph(5), Limits(max_family=1000))


# -- the antimagic lemma ------------------------------------------------------------
#
# The accept asks that the pair weights cover {1..c}, c the number of nonzero
# ones; the definition asks that they be exactly {lo..c}, lo = 1 for a complete
# weighting and 0 otherwise.  c nonzero weights that cover {1..c} are exactly
# {1..c}, and 0 is a pair weight exactly when the weighting is not complete.


def _antimagic_by_definition(h):
    """From the pair weights alone: pairwise distinct endpoint sums, and the
    set of pair weights exactly {lo..c}."""
    labels = [w.constant_value().re for w in h.weights]
    sums = [0] * h.n
    for (u, v), label in zip(pairs_in_rank_order(h.n), labels):
        sums[u - 1] += label
        sums[v - 1] += label
    c = sum(1 for label in labels if label)
    lo = 0 if 0 in labels else 1
    return len(set(sums)) == h.n and set(labels) == set(range(lo, c + 1))


def _check_antimagic_lemma(h):
    from combspectra.characterize import _antimagic_accept, _antimagic_gadget

    expected = _antimagic_by_definition(h)
    identity = range(len(h.weights))
    assert _antimagic_accept(h.n)(star_sum(h, _antimagic_gadget(h.n), identity)) == expected
    assert antimagic_weighted(h).holds == expected
    return expected


@st.composite
def _nonnegative_weightings(draw):
    n = draw(st.integers(2, 5))
    pairs = n * (n - 1) // 2
    if draw(st.booleans()):
        # labels 1..c on c pairs and 0 on the others, antimagic when the sums differ
        c = draw(st.integers(0, pairs))
        labels = draw(st.permutations([*range(1, c + 1), *[0] * (pairs - c)]))
    else:
        labels = draw(st.lists(st.integers(0, pairs + 1), min_size=pairs, max_size=pairs))
    return WeightedCompleteGraph(n, [const(label) for label in labels])


@given(_nonnegative_weightings())
@settings(max_examples=500, deadline=None)
def test_antimagic_accept_decides_the_exact_set_definition(h):
    _check_antimagic_lemma(h)


def test_antimagic_accept_decides_the_exact_set_definition_on_k3():
    # every weighting of K3 by 0..3: the six permutations of (1, 2, 3) and
    # the six of (0, 1, 2) are antimagic
    verdicts = [
        _check_antimagic_lemma(WeightedCompleteGraph(3, [const(w) for w in weights]))
        for weights in product(range(4), repeat=3)
    ]
    assert len(verdicts) == 64 and sum(verdicts) == 12


# -- irregularity ----------------------------------------------------------------


def test_irregular_weighted_examples():
    assert irregular_weighted(embed(P3, (1, 2))).holds
    assert not irregular_weighted(embed(P3, (1, 1))).holds
    assert irregular_weighted(embed(C3, (1, 2, 3))).holds


def test_strength_examples():
    assert not strength_at_most(P3, 1).holds
    assert strength_at_most(P3, 2).holds
    assert strength_at_most(C3, 3).holds
    assert not strength_at_most(C3, 2).holds
    assert strength_at_most(P4, 2).holds
    assert not strength_at_most(K2, 5).holds  # both endpoint sums always equal


def test_strength_guards_before_it_builds_the_palette(monkeypatch):
    import combspectra.characterize as ch

    def builder(k):
        raise AssertionError(f"palette of {k} colors built before the guard")

    monkeypatch.setattr(ch, "integer_palette", builder)
    with pytest.raises(SizeGuardError) as err:
        strength_at_most(P3, 200_000, Limits(max_family=10))
    assert str(err.value) == (
        "family-size guard exceeded: 200000-colorings of 2 edges needs "
        "40000000000 members > max_family=10"
    )


def test_strength_counts_zero_coefficients():
    # isolated vertices are rejected rather than silently compared as zeros
    with pytest.raises(PreconditionError):
        strength_at_most(SimpleGraph(3, [(1, 2)]), 2)


# -- local irregularity / labels 1-3 -----------------------------------------------


def test_local_irregular_examples():
    assert local_irregular_weighted(indicator(P3)).holds
    assert not local_irregular_weighted(indicator(K2)).holds
    assert not local_irregular_weighted(indicator(C4)).holds
    assert local_irregular_weighted(embed(C4, (1, 2, 1, 2))).holds
    # one vertex: the contrast reader is the empty sum, its total 0 passes
    assert local_irregular_weighted(WeightedCompleteGraph(1, ())).to_json() == {
        "holds": True,
        "witness": {"polynomial": [], "graph": {"n": 1, "weights": []}, "bijection": [1]},
        "stats": {"members": 1, "bijections": 1},
    }


def test_local_irregular_matches_contrast_pair_over_all_bijections():
    # the definition: some relabeling of the contrast probe of {1, 2} shows a
    # nonzero purely imaginary total exactly when adjacent sums tie
    rng = Random(7)
    for _ in range(300):
        n = rng.randint(2, 5)
        weights = [const(rng.randint(0, 3)) for _ in range(n * (n - 1) // 2)]
        g = WeightedCompleteGraph(n, weights)
        probe = contrast_pair(1, 2, n)
        tie = any(
            star_sum(g, probe, pmap).classify().is_nonzero_pure_imaginary
            for _f, pmap in bijection_pair_maps(n)
        )
        assert local_irregular_weighted(g).holds == (not tie)


def test_one_two_three_examples():
    v = one_two_three(P3)
    assert v.holds
    assert all(
        v.witness_graph.weight(*e) == ring.ONE for e in P3.edges
    )  # the all-1 labeling already works
    assert one_two_three(C3).holds
    with pytest.raises(PreconditionError):
        one_two_three(K2)
    with pytest.raises(PreconditionError):
        one_two_three(SimpleGraph(4, [(1, 2), (2, 3), (1, 3)]))  # isolated vertex


def test_one_two_three_witness_polynomial_p3():
    v = one_two_three(P3)
    p = v.witness_polynomial
    assert p.coeff_x(0) == ring.I - ring.ONE
    assert p.coeff_x(1) == ring.ZERO
    assert p.coeff_x(2) == ring.ONE + ring.I
    for j in range(3):
        assert not p.coeff_x(j).classify().is_nonzero_pure_imaginary


# -- domination ---------------------------------------------------------------------


def test_dominating_examples():
    v = dominating_k(P3, 1)
    assert v.holds
    assert dominating_set_of(v.witness_bijection, 3, 1) == {2}
    assert v.witness_polynomial == ring.ONE + ring.X
    assert not dominating_k(C4, 1).holds
    assert dominating_k(C4, 2).holds
    with pytest.raises(PreconditionError):
        dominating_k(P3, 3)
    with pytest.raises(PreconditionError):
        dominating_k(P3, 0)


def test_dominating_identity_bijection_rejected_for_p3():
    # under the identity the selected set {3} does not dominate: coefficient 0 drops out
    p = star_sum(domination_probe(1, 3), indicator(P3), bijection_pair_maps(3)[0][1])
    assert p == ring.X
    assert p.coeff_x(0).is_zero


def test_domination_coefficient_identity():
    # coefficient j-1 counts neighbors of f(j) inside the selected tail set
    for g in (P4, C4, star_graph(4)):
        for k in (1, 2, 3):
            probe = domination_probe(k, g.n)
            for f, pmap in bijection_pair_maps(g.n):
                p = star_sum(probe, indicator(g), pmap)
                chosen = dominating_set_of(f, g.n, k)
                for j in range(1, g.n - k + 1):
                    expected = len(g.neighbors(f[j - 1]) & chosen)
                    assert p.coeff_x(j - 1) == const(expected)


def test_tail_masks_are_least_coset_representatives():
    assert [f for f, _h, _t in _tail_masks(1, 3)] == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    full = [f for f, _m in bijection_pair_maps(5)]
    for k in range(1, 5):
        table = _tail_masks(k, 5)
        fs = [f for f, _h, _t in table]
        assert fs == sorted(fs) and len(fs) == math.comb(5, k)
        # each entry is the least bijection with its tail set
        tails = [frozenset(f[5 - k:]) for f in fs]
        assert len(set(tails)) == len(tails)
        for f, heads, tail in table:
            least = min(g for g in full if frozenset(g[5 - k:]) == frozenset(f[5 - k:]))
            assert f == least
            # heads and tail in the bit convention of SimpleGraph.masks
            assert [v + 1 for v in heads] == list(f[:5 - k])
            assert {v for v in range(1, 6) if tail >> (v - 1) & 1} == set(f[5 - k:])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dominating_k_matches_the_ring_scan_over_all_bijections(n):
    # the tail-mask kernel against s(probe *_f indicator) over all n!, with
    # every coefficient x^0..x^(n-k-1) required nonzero
    for g in connected_graphs(n):
        for k in range(1, n):
            def accept(p, needed=n - k):
                return all(not p.coeff_x(j).is_zero for j in range(needed))

            kernel = dominating_k(g, k)
            f, p, accepted = _full_scan(domination_probe(k, n), indicator(g), accept, Limits())
            assert kernel.holds == (f is not None)
            assert kernel.witness_bijection == f
            assert kernel.witness_polynomial == p
            # each dominating k-subset is the tail image of (n-k)! * k! bijections
            dominating = sum(_dominates(g, s) for s in combinations(range(1, n + 1), k))
            assert accepted == math.factorial(n - k) * math.factorial(k) * dominating
            if kernel.holds:
                assert kernel.witness_graph == domination_probe(k, n)


def test_dominating_k_honours_limits():
    with pytest.raises(TimeLimitError):
        dominating_k(P4, 1, Limits(deadline=0.0))
    # the step guard counts all n! bijections, not the C(n, k) scanned
    assert dominating_k(P4, 1, Limits(max_steps=24)).holds is False
    with pytest.raises(SizeGuardError) as err:
        dominating_k(P4, 1, Limits(max_steps=23))
    assert str(err.value) == (
        "step guard exceeded: domination search needs 24 steps > max_steps=23"
    )
    with pytest.raises(SizeGuardError):
        dominating_k(P4, 1, Limits(max_n=3))


# -- edge Roman domination -------------------------------------------------------------


def test_edge_roman_examples():
    assert edge_roman_at_most(P3, 2).holds
    assert not edge_roman_at_most(P3, 1).holds
    v = edge_roman_at_most(P4, 2)
    assert v.holds
    fn = decode_edge_roman(v.witness_graph, P4)
    assert fn == {(1, 2): 0, (2, 3): 2, (3, 4): 0}
    with pytest.raises(PreconditionError):
        edge_roman_at_most(SimpleGraph(3), 1)


def test_edge_roman_worked_witness():
    # the coloring (y, -1) on the 3-path and the identity placement
    h = weighted_embedding(P3, {(1, 2): ring.Y, (2, 3): const(-1)})
    p = star_sum(h, cover_reader(3), bijection_pair_maps(3)[0][1])
    assert p == (ring.I * ring.Y - ring.ONE) + (ring.Y - ring.ONE) * ring.X + (
        ring.Y - ring.I
    ) * x_pow(2)
    for j in range(3):
        assert not p.coeff_x(j).classify().is_in_minus_i_plus_z
    assert p.eval(1, 1) == GaussInt(0, 0)
    quotient = p.eval(1, 1).exact_div(GaussInt(2, 1))
    assert P3.m + quotient.re == 2
    assert decode_edge_roman(h, P3) == {(1, 2): 2, (2, 3): 0}


def test_edge_roman_weight_identity_every_coloring():
    for g in (P3, P4, C4):
        for h in iter_colorings(g, ROMAN_PALETTE):
            decoded = decode_edge_roman(h, g)
            assert sum(decoded.values()) == g.m + h.total_weight().eval(1, 1).re


def test_edge_roman_weight_evaluation_is_bijection_free():
    rng = Random(0)
    reader = cover_reader(4)
    maps = bijection_pair_maps(4)
    colorings = list(iter_colorings(C4, ROMAN_PALETTE))
    for h in rng.sample(colorings, 20):
        values = {star_sum(h, reader, pmap).eval(1, 1) for _f, pmap in maps}
        assert len(values) == 1
        assert values.pop() == GaussInt(2 * 4 - 4, 1) * h.total_weight().eval(1, 1)


def _edge_roman_by_division(p, n, m, k):
    # the weight as the Gaussian quotient p(1,1) / (2n-4+i), required real
    quotient = p.eval(1, 1).exact_div(GaussInt(2 * n - 4, 1))
    if quotient.im != 0:
        raise NotDivisibleError(f"weight quotient {quotient} is not a real integer")
    return m + quotient.re <= k and not any(
        c.classify().is_in_minus_i_plus_z for c in p.coeffs_x().values()
    )


def test_edge_roman_accept_rejects_a_polynomial_off_the_weight_lattice():
    # p(1,1) must be (2n-4+i) times a real integer: 1 is not a multiple of
    # 2+i, and -1+2i = (2+i)i is one, but by the non-real i
    for p in (ring.ONE, const(-1, 2)):
        with pytest.raises(NotDivisibleError):
            _edge_roman_accept(3, 2, 4)(p)
        with pytest.raises(NotDivisibleError):
            _edge_roman_by_division(p, 3, 2, 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_edge_roman_accept_reads_the_weight_of_the_gaussian_division(n):
    # Im p(1,1) in place of p(1,1) / (2n-4+i), on every coloring and bound
    pmap = bijection_pair_maps(n)[0][1]
    for g in connected_graphs(n):
        for h in iter_colorings(g, ROMAN_PALETTE):
            p = star_sum(h, cover_reader(n), pmap)
            for k in range(2 * g.m + 1):
                assert _edge_roman_accept(n, g.m, k)(p) == _edge_roman_by_division(p, n, g.m, k)


def test_edge_roman_bad_coefficient_detects_violations():
    # a -1 edge with no adjacent y edge lands exactly in -i + Z
    h = weighted_embedding(P4, {(1, 2): const(-1), (2, 3): ring.ZERO, (3, 4): ring.Y})
    p = star_sum(h, cover_reader(4), bijection_pair_maps(4)[0][1])
    bad = [j for j in range(6) if p.coeff_x(j).classify().is_in_minus_i_plus_z]
    assert bad  # the probe focused on {1,2} sees -i plus an integer


# -- Hamiltonian spectra ------------------------------------------------------------------


def test_hamiltonian_examples():
    assert hamiltonian_spectrum(C3, P3).as_integers() == (4,)
    assert hamiltonian_number(P3) == 4
    for n in (3, 4, 5):
        assert hamiltonian_number(cycle_graph(n)) == n
    assert hamiltonian_number(star_graph(4)) == 6
    with pytest.raises(PreconditionError):
        hamiltonian_number(SimpleGraph(4, [(1, 2)]))
    # the cycle route and the n! scan reject a disconnected graph alike
    for h in (C4, star_graph(4)):
        with pytest.raises(PreconditionError, match="Hamiltonian spectrum needs a connected graph"):
            hamiltonian_spectrum(h, SimpleGraph(4, [(1, 2)]))
    with pytest.raises(PreconditionError):
        hamiltonian_spectrum(C4, P3)
    with pytest.raises(PreconditionError):
        hamiltonian_number(K2)


def test_hamiltonian_honours_limits():
    c8 = cycle_graph(8)
    assert hamiltonian_number(c8, Limits(max_n=8)) == 8
    with pytest.raises(SizeGuardError):
        hamiltonian_number(c8)
    with pytest.raises(SizeGuardError):
        hamiltonian_spectrum(C4, C4, Limits(max_steps=23))
    with pytest.raises(TimeLimitError):
        hamiltonian_spectrum(C4, C4, Limits(deadline=0.0))


def test_hamiltonian_cycle_guards_count_the_recursion_and_the_totals():
    # 2^(n-1) * n^2 subset steps; the cycles of P4 have lengths 6 and 8
    assert hamiltonian_spectrum(C4, P4, Limits(max_steps=128)).as_integers() == (6, 8)
    with pytest.raises(SizeGuardError, match="needs 128 steps"):
        hamiltonian_spectrum(C4, P4, Limits(max_steps=127))
    assert hamiltonian_spectrum(C4, P4, Limits(max_family=2)).as_integers() == (6, 8)
    with pytest.raises(SizeGuardError, match="needs 2 members"):
        hamiltonian_spectrum(C4, P4, Limits(max_family=1))


@pytest.mark.parametrize("n", range(8, 13))
def test_hamiltonian_numbers_of_cycles_paths_and_stars(n):
    # h(C_n) = n and h(T) = 2(n-1) for every tree T (Goodman & Hedetniemi,
    # "On Hamiltonian walks in graphs", 1974), past the oracle's orders
    limits = Limits(max_n=n)
    assert hamiltonian_number(cycle_graph(n), limits) == n
    assert hamiltonian_number(path_graph(n), limits) == 2 * (n - 1)
    assert hamiltonian_number(star_graph(n), limits) == 2 * (n - 1)


def test_weighted_characterizations_honour_limits():
    from combspectra.families import in_palette_family

    h = embed(P3, (1, 2))
    calls = (
        lambda limits: antimagic_weighted(h, limits=limits),
        lambda limits: irregular_weighted(h, limits),
        lambda limits: in_palette_family(h, ROMAN_PALETTE, limits),
        lambda limits: local_irregular_weighted(h, limits),
    )
    for call in calls:
        with pytest.raises(TimeLimitError):
            call(Limits(deadline=0.0))
        with pytest.raises(SizeGuardError):
            call(Limits(max_n=2))
    # the all-ones star on 8 vertices is over the default max_n=7
    with pytest.raises(SizeGuardError):
        local_irregular_weighted(indicator(star_graph(8)))


_WEIGHTING_SEARCHES = (
    antimagic_weighted,
    lambda h: antimagic_family(singleton(h)),
    irregular_weighted,
    local_irregular_weighted,
)


@pytest.mark.parametrize("search", _WEIGHTING_SEARCHES)
def test_weighting_searches_guard_the_order_before_the_weights(search):
    # one path for every given weighting: the order, then the weights
    over = WeightedCompleteGraph(8, [const(-1)] + [ring.ONE] * 27)
    with pytest.raises(SizeGuardError):
        search(over)
    under = WeightedCompleteGraph(3, [const(-1), ring.ONE, ring.ONE])
    with pytest.raises(PreconditionError):
        search(under)


def test_hamiltonian_pattern_scan_reads_no_pair_map_table(monkeypatch):
    import combspectra.characterize
    import combspectra.gadgets
    from combspectra.families import spectrum_of
    from combspectra.verify import _full_product

    def refuse(n):
        raise AssertionError("the pattern scan read the n! pair-map table")

    h = path_graph(6)
    expected = {
        g: spectrum_of(_full_product(
            singleton(indicator(h)), singleton(distance_weighting(g)), Limits()
        ))
        for g in (path_graph(6), star_graph(6), cycle_graph(6))
    }
    for module in (combspectra.gadgets, combspectra.characterize):
        monkeypatch.setattr(module, "bijection_pair_maps", refuse, raising=False)
    for g, spectrum in expected.items():
        assert hamiltonian_spectrum(h, g) == spectrum


def test_hamiltonian_spectrum_of_other_patterns_scans_all_bijections():
    # a pattern that is not the labelled cycle 1-2-...-n, also a relabelled cycle
    for h in (path_graph(5), SimpleGraph(5, [(1, 3), (3, 5), (5, 2), (2, 4), (4, 1)])):
        for g in (path_graph(5), star_graph(5), cycle_graph(5)):
            expected = {hamiltonian_sum(h, g, f) for f in all_bijections(5)}
            assert set(hamiltonian_spectrum(h, g).as_integers()) == expected


@pytest.mark.parametrize("n", [4, 5, 6])
def test_relabelled_cycle_scan_matches_the_cycle_recursion(n):
    # 1-3-2-4-...-n-1 is an n-cycle but not the labelled one, so it takes the
    # n! scan; its totals are the same cyclic orders' lengths
    order = (1, 3, 2, *range(4, n + 1))
    h = SimpleGraph(n, zip(order, order[1:] + order[:1]))
    assert h != cycle_graph(n)
    for g in connected_graphs(n):
        assert hamiltonian_spectrum(h, g) == hamiltonian_cycle_spectrum(g)


def _pattern(kind, n, seed):
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "complete":
        return complete_graph(n)
    if kind == "edgeless":
        return SimpleGraph(n)
    if kind == "star":
        return star_graph(n)
    rng = Random(seed)
    return SimpleGraph(n, [pair for pair in pairs_in_rank_order(n) if rng.random() < 0.5])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    index=st.integers(0, 200),
    kind=st.sampled_from(("cycle", "complete", "edgeless", "star", "random")),
    seed=st.integers(0, 2**16),
)
def test_hamiltonian_spectrum_is_the_set_of_ring_star_sums(n, index, kind, seed):
    # the bitset of totals against the ring total of every one of the n! placements
    assume(kind != "cycle" or n >= 3)
    graphs = connected_graphs(n)
    g = graphs[index % len(graphs)]
    h = _pattern(kind, n, seed)
    pattern, distances = indicator(h), distance_weighting(g)
    expected = Spectrum(star_sum(pattern, distances, m) for _f, m in bijection_pair_maps(n))
    assert hamiltonian_spectrum(h, g) == expected


def test_hamiltonian_family_guard_counts_totals_not_count_vectors():
    # Two disjoint edges placed in the path 1-2-3-4 meet the distance classes
    # (1, 2, 3) as (2, 0, 0), (0, 2, 0) or (1, 0, 1): three count vectors, two
    # totals, 2 and 4.
    h = SimpleGraph(4, [(1, 2), (3, 4)])
    assert hamiltonian_spectrum(h, P4, Limits(max_family=2)).as_integers() == (2, 4)
    with pytest.raises(SizeGuardError) as raised:
        hamiltonian_spectrum(h, P4, Limits(max_family=1))
    assert str(raised.value) == (
        "family-size guard exceeded: Hamiltonian spectrum needs 2 members > max_family=1"
    )
    # the guard runs once the scan is done and names every distinct total,
    # as on the cycle route: P4 placed in P4 has lengths 3 to 7
    with pytest.raises(SizeGuardError, match="needs 5 members > max_family=1"):
        hamiltonian_spectrum(P4, P4, Limits(max_family=1))


# -- coefficient structure of the combined reader ---------------------------------------


def test_combined_reader_coefficient_structure():
    # head coefficients are endpoint sums; the tail block lists pair weights
    from combspectra.characterize import _antimagic_gadget
    from combspectra.gadgets import pairs_in_rank_order

    rng = Random(21)
    n = 4
    gadget_pairs = [star_indicator(j + 1, n) for j in range(n)] + [
        edge_indicator(u, v, n) for u, v in pairs_in_rank_order(n)
    ]
    gadget = _antimagic_gadget(n)
    for g in (P4, C4, complete_graph(4)):
        labels = {e: rng.randint(0, 4) for e in g.edges}
        emb = weighted_embedding(g, labels)
        for f, pmap in bijection_pair_maps(n):
            p = star_sum(emb, gadget, pmap)
            for j, basis in enumerate(gadget_pairs):
                expected = star_sum(emb, basis, pmap)
                assert p.coeff_x(j) == expected


# -- verdict plumbing ---------------------------------------------------------------------


def test_verdict_invariant_holds_implies_witness():
    for verdict in (
        antimagic_unweighted(P3),
        strength_at_most(P3, 2),
        one_two_three(C3),
        dominating_k(P3, 1),
        edge_roman_at_most(P4, 2),
        antimagic_weighted(embed(P3, (1, 2))),
        irregular_weighted(embed(P3, (1, 2))),
        local_irregular_weighted(indicator(P3)),
    ):
        assert verdict.holds
        assert any(
            w is not None
            for w in (
                verdict.witness_polynomial,
                verdict.witness_graph,
                verdict.witness_bijection,
            )
        )


def test_dominating_k_stops_at_its_first_witness():
    first = dominating_k(P3, 1)
    assert first.holds
    assert first.witness_bijection == (1, 3, 2)
    assert first.stats.bijections == 2  # (1, 2, 3) is scanned and rejected first


def test_verdict_json_shape():
    v = dominating_k(P3, 1)
    data = v.to_json()
    assert data["holds"] is True
    assert "polynomial" in data["witness"] and "bijection" in data["witness"]
    assert set(data["stats"]) == {"members", "bijections"}


def test_stats_counters():
    v = antimagic_family(singleton(embed(P3, (1, 1))))
    assert v.stats.members == 1
    assert v.stats.bijections == 1  # the identity decides the member
    # a single weighting is one scan along the identity
    h = embed(P3, (1, 2))
    assert antimagic_weighted(h).stats.bijections == 1
    assert irregular_weighted(h).stats.bijections == 1
    assert local_irregular_weighted(h).stats.bijections == 1


# -- cross-route consistency: family search vs single-weighting checks ------------


def test_one_two_three_matches_member_level_checks():
    from combspectra.families import integer_palette, iter_colorings

    for g in (P3, C3, P4, C4):
        member_route = any(
            local_irregular_weighted(h).holds
            for h in iter_colorings(g, integer_palette(3))
        )
        assert one_two_three(g).holds == member_route


def test_strength_matches_member_level_checks():
    from combspectra.families import integer_palette, iter_colorings

    for g in (P3, C3, star_graph(4)):
        for k in (1, 2, 3):
            member_route = any(
                irregular_weighted(h).holds
                for h in iter_colorings(g, integer_palette(k))
            )
            assert strength_at_most(g, k).holds == member_route


def test_antimagic_matches_member_level_checks():
    from combspectra.families import integer_palette, iter_colorings

    for g in (P3, C3, K2):
        member_route = any(
            antimagic_weighted(h).holds
            for h in iter_colorings(g, integer_palette(g.m))
        )
        assert antimagic_unweighted(g).holds == member_route
