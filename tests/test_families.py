"""Family products, sums, power fixpoints and coloring families."""

import math
from random import Random

import pytest

from combspectra import ring
from combspectra.corpus import connected_graphs
from combspectra.errors import PreconditionError, SizeGuardError, TimeLimitError
from combspectra.families import (
    _CACHE_ENTRIES,
    GraphFamily,
    ROMAN_PALETTE,
    Spectrum,
    _all_colorings,
    _relabel_closure,
    all_colorings_family,
    colorings_of_graph,
    edge_deleted_family,
    family_product,
    family_sum,
    integer_palette,
    is_relabel_closed,
    iter_colorings,
    power_fixpoint,
    singleton,
    spectrum_of,
)
from combspectra.gadgets import (
    WeightedCompleteGraph,
    bijection_pair_maps,
    distance_weighting,
    edge_indicator,
    indicator,
    star_indicator,
)
from combspectra.graphs import complete_graph, cycle_graph, path_graph
from combspectra.limits import Limits
from combspectra.ring import const
from combspectra.verify import run_theorem


def test_product_with_complete_indicator_gives_all_relabelings():
    h = WeightedCompleteGraph(3, [const(1), const(2), const(3)])
    fam = family_product(singleton(indicator(complete_graph(3))), singleton(h))
    assert len(fam) == 6  # all weight patterns of a 3-cycle with distinct labels


def test_product_examples():
    e2 = edge_deleted_family(2)
    assert len(e2) == 1
    prod = family_product(e2, e2)
    assert len(prod) == 1
    assert prod.members[0] == WeightedCompleteGraph.zero(2)

    e3 = edge_deleted_family(3)
    assert len(family_product(e3, e3)) == 6


def test_family_sum_examples():
    a = singleton(WeightedCompleteGraph(2, [const(1)]))
    b = singleton(WeightedCompleteGraph(2, [const(2)]))
    assert family_sum(a, b).members[0] == WeightedCompleteGraph(2, [const(3)])

    zero_or_one = GraphFamily(
        2, [WeightedCompleteGraph.zero(2), WeightedCompleteGraph(2, [const(1)])]
    )
    shifted = family_sum(zero_or_one, a)
    assert {m.weights[0] for m in shifted} == {const(1), const(2)}

    fam = edge_deleted_family(3)
    assert family_sum(fam, singleton(WeightedCompleteGraph.zero(3))) == fam
    with pytest.raises(PreconditionError):
        family_sum(a, edge_deleted_family(3))


def test_power_fixpoint_examples():
    r2 = power_fixpoint(edge_deleted_family(2))
    assert len(r2.family) == 1

    r3 = power_fixpoint(edge_deleted_family(3))
    assert len(r3.family) == 7
    assert r3.products <= 3

    r4 = power_fixpoint(edge_deleted_family(4))
    assert len(r4.family) == 63

    kn = singleton(indicator(complete_graph(4)))
    rk = power_fixpoint(kn)
    assert rk.family == kn and rk.products == 1


def test_power_fixpoint_idempotent():
    fixed = power_fixpoint(edge_deleted_family(3)).family
    again = power_fixpoint(fixed)
    assert again.family == fixed and again.products == 1


def test_colorings_family_examples():
    c2 = all_colorings_family(2, 2)
    assert {m.weights[0] for m in c2} == {const(1), const(2)}
    assert len(all_colorings_family(3, 2)) == 8
    for n, k in ((3, 2), (3, 3), (4, 2)):
        assert len(all_colorings_family(n, k)) == k ** (n * (n - 1) // 2)
    # k = 1 leaves only the all-ones weighting
    assert all_colorings_family(3, 1) == singleton(indicator(complete_graph(3)))
    with pytest.raises(PreconditionError):
        all_colorings_family(1, 2)


def test_colorings_family_is_every_labeling():
    # every member of the k-coloring family takes each pair weight in {1..k}
    fam = all_colorings_family(3, 3)
    seen = {m.weights for m in fam}
    assert len(seen) == 27
    for weights in seen:
        assert all(w in set(integer_palette(3)) for w in weights)


def test_colorings_of_graph_counts():
    assert len(colorings_of_graph(path_graph(3), integer_palette(2))) == 4
    assert len(colorings_of_graph(path_graph(3), ROMAN_PALETTE)) == 9
    assert len(colorings_of_graph(complete_graph(3), integer_palette(3))) == 27
    # non-edges stay zero
    for m in colorings_of_graph(path_graph(3), integer_palette(2)):
        assert m.weight(1, 3).is_zero


def test_iter_colorings_matches_family_and_is_lexicographic():
    listed = list(iter_colorings(path_graph(3), integer_palette(2)))
    assert len(listed) == 4
    assert listed[0].weight(1, 2) == const(1) and listed[0].weight(2, 3) == const(1)
    assert listed[1].weight(1, 2) == const(1) and listed[1].weight(2, 3) == const(2)
    assert set(listed) == set(colorings_of_graph(path_graph(3), integer_palette(2)))


def test_coloring_family_equality_small_cases():
    # the family-algebra construction equals the direct enumeration
    for g in (path_graph(3), complete_graph(3), path_graph(4), cycle_graph(4)):
        for k in (2, 3):
            built = family_product(
                singleton(indicator(g)), all_colorings_family(g.n, k)
            )
            direct = colorings_of_graph(g, integer_palette(k))
            assert built == direct
            assert len(direct) == k**g.m


def test_roman_coloring_family_equality_small_cases():
    # product with the family of ALL {0,-1,y} weightings of the complete graph
    for g in (path_graph(3), complete_graph(3), cycle_graph(4)):
        every = colorings_of_graph(complete_graph(g.n), ROMAN_PALETTE)
        built = family_product(singleton(indicator(g)), every)
        assert built == colorings_of_graph(g, ROMAN_PALETTE)


def test_product_cardinality_bound():
    a = edge_deleted_family(3)
    b = all_colorings_family(3, 2)
    prod = family_product(a, b)
    assert len(prod) <= len(a) * len(b) * math.factorial(3)


def test_spectrum_examples():
    spec = spectrum_of(
        family_product(
            singleton(indicator(cycle_graph(3))),
            singleton(distance_weighting(path_graph(3))),
        )
    )
    assert spec.as_integers() == (4,)
    assert spectrum_of(singleton(indicator(complete_graph(3)))).as_integers() == (3,)
    assert len(spectrum_of(GraphFamily(3, []))) == 0


def test_spectrum_of_sum_is_sum_of_spectra_members():
    a = all_colorings_family(3, 2)
    b = edge_deleted_family(3)
    summed = family_sum(a, b)
    lhs = {v for v in spectrum_of(summed)}
    rhs = {
        (x + y).total_weight()
        for x in a
        for y in b
    }
    assert lhs == rhs


def test_size_guards():
    tiny = Limits(max_n=3)
    with pytest.raises(SizeGuardError):
        family_product(edge_deleted_family(4), edge_deleted_family(4), tiny)
    with pytest.raises(SizeGuardError):
        all_colorings_family(4, 3, Limits(max_family=10))
    with pytest.raises(SizeGuardError):
        colorings_of_graph(complete_graph(4), integer_palette(3), Limits(max_family=10))
    with pytest.raises(SizeGuardError):
        family_sum(
            all_colorings_family(3, 3),
            all_colorings_family(3, 3),
            Limits(max_steps=100),
        )


def test_family_canonical_order_and_json():
    fam = edge_deleted_family(3)
    assert [m.sort_key() for m in fam.members] == sorted(
        m.sort_key() for m in fam.members
    )
    data = fam.to_json()
    assert data["count"] == 3 and len(data["members"]) == 3
    assert "members" not in all_colorings_family(3, 3).to_json(member_threshold=5)


def test_family_mixed_order_rejected():
    with pytest.raises(PreconditionError):
        GraphFamily(3, [WeightedCompleteGraph.zero(4)])


def test_power_fixpoint_detects_non_stabilizing_family():
    from combspectra.errors import StabilizationError

    growing = singleton(WeightedCompleteGraph(2, [const(2)]))  # weights double forever
    with pytest.raises(StabilizationError):
        power_fixpoint(growing)


def test_spectrum_json_is_sorted():
    spec = spectrum_of(edge_deleted_family(3))
    data = spec.to_json()
    assert data == sorted(data, key=str)
    assert len(data) == 1  # every member sums to 2


def test_product_is_not_symmetric():
    # the left factor's zeros stay in place while the right factor's move,
    # so the two product orders can differ as sets
    from combspectra.ring import x_pow

    probe = singleton(
        WeightedCompleteGraph(3, [x_pow(1), x_pow(2), x_pow(3)])
    )
    pinned = singleton(
        WeightedCompleteGraph(3, [const(0), const(1), const(1)])
    )
    assert family_product(probe, pinned) != family_product(pinned, probe)


def test_relabel_closure_check():
    from combspectra.ring import x_pow

    for n in (3, 4):
        deleted = edge_deleted_family(n)
        assert is_relabel_closed(deleted)
        assert is_relabel_closed(power_fixpoint(deleted).family)
        for k in (1, 2, 3):
            assert is_relabel_closed(all_colorings_family(n, k))
        assert not is_relabel_closed(singleton(star_indicator(1, n)))
    # the pair of test_product_is_not_symmetric
    assert not is_relabel_closed(singleton(WeightedCompleteGraph(3, [x_pow(1), x_pow(2), x_pow(3)])))
    assert not is_relabel_closed(singleton(WeightedCompleteGraph(3, [const(0), const(1), const(1)])))


def test_product_with_closed_right_factor_matches_definition():
    # closed right factors, and the singleton probes and a random corpus
    # indicator, which are not closed
    maps = bijection_pair_maps(4)
    left = GraphFamily(4, [indicator(path_graph(4)), indicator(cycle_graph(4))])
    random_graph = Random(3).choice(connected_graphs(4))
    for right in (
        edge_deleted_family(4),
        all_colorings_family(4, 2),
        singleton(star_indicator(1, 4)),
        singleton(edge_indicator(1, 2, 4)),
        singleton(indicator(random_graph)),
    ):
        full = GraphFamily(4, (h.star_with_map(g, m) for h in left for g in right for _f, m in maps))
        assert family_product(left, right) == full


def test_relabel_closure_honours_limits():
    # the star probe has n relabelings, the edge probe C(n,2)
    n = 5
    star, edge = singleton(star_indicator(1, n)), singleton(edge_indicator(1, 2, n))
    one = singleton(indicator(complete_graph(n)))
    assert len(family_product(one, star, Limits(max_family=n))) == n
    with pytest.raises(SizeGuardError, match="relabel closure"):
        family_product(one, star, Limits(max_family=n - 1))
    with pytest.raises(SizeGuardError, match="relabel closure"):
        family_product(one, edge, Limits(max_family=9))
    with pytest.raises(TimeLimitError):  # the walk polls before its first step
        family_product(one, edge, Limits(deadline=0.0))


def test_family_operations_poll_the_deadline_before_their_loop():
    past = Limits(deadline=0.0)
    one = singleton(WeightedCompleteGraph(2, [const(1)]))
    with pytest.raises(TimeLimitError):
        family_product(one, one, past)
    with pytest.raises(TimeLimitError):
        family_sum(one, one, past)


def test_in_palette_family_matches_direct_weight_check():
    from combspectra.families import in_palette_family

    for h in iter_colorings(cycle_graph(4), ROMAN_PALETTE):
        assert in_palette_family(h, ROMAN_PALETTE)
    outsider = WeightedCompleteGraph(3, [const(2), const(0), const(-1)])
    assert not in_palette_family(outsider, ROMAN_PALETTE)
    assert in_palette_family(outsider, (const(2), const(0), const(-1)))


def _clear_family_caches():
    _all_colorings.cache_clear()
    _relabel_closure.cache_clear()


def test_cache_hits_still_apply_the_callers_limits():
    _clear_family_caches()
    with pytest.raises(SizeGuardError) as cold:
        all_colorings_family(4, 3, Limits(max_steps=1000))
    all_colorings_family(4, 3)  # fills both caches
    with pytest.raises(SizeGuardError, match="family-size guard"):
        all_colorings_family(4, 3, Limits(max_family=100))
    with pytest.raises(SizeGuardError) as warm:
        all_colorings_family(4, 3, Limits(max_steps=1000))
    assert str(warm.value) == str(cold.value)
    past = Limits(deadline=0.0)
    with pytest.raises(TimeLimitError):  # hit
        all_colorings_family(4, 3, past)
    _clear_family_caches()
    with pytest.raises(TimeLimitError):  # miss
        all_colorings_family(4, 3, past)
    one = singleton(indicator(complete_graph(4)))
    edge = singleton(edge_indicator(1, 2, 4))
    family_product(one, edge)  # caches the probe's closure
    with pytest.raises(TimeLimitError):
        family_product(one, edge, past)


def test_cached_families_equal_fresh_ones():
    probes = [singleton(star_indicator(1, 4)), singleton(edge_indicator(1, 2, 4))]
    left = singleton(indicator(path_graph(4)))
    cached = [all_colorings_family(n, k) for n in (2, 3, 4) for k in (1, 2, 3)]
    products = [family_product(left, p) for p in probes]
    _clear_family_caches()
    assert _all_colorings.cache_info().currsize == _relabel_closure.cache_info().currsize == 0
    fresh = [all_colorings_family(n, k) for n in (2, 3, 4) for k in (1, 2, 3)]
    assert all(a == b and a is not b for a, b in zip(cached, fresh))
    assert [a.members for a in cached] == [b.members for b in fresh]
    assert products == [family_product(left, p) for p in probes]


def test_family_caches_stay_bounded():
    _clear_family_caches()
    keys = _CACHE_ENTRIES + 5
    for steps in range(keys):
        all_colorings_family(2, 2, Limits(max_steps=1000 + steps))
    for c in range(keys):
        is_relabel_closed(singleton(WeightedCompleteGraph(3, [const(c), const(0), const(0)])))
    assert _all_colorings.cache_info().currsize == _CACHE_ENTRIES
    assert _relabel_closure.cache_info().currsize == _CACHE_ENTRIES


def test_equal_limits_built_apart_share_cache_entries():
    # the key is the whole Limits: repeated commands in one process build
    # equal ones and must hit
    _clear_family_caches()
    first, second = Limits(max_n=4), Limits(max_n=4)
    assert first is not second
    family = edge_deleted_family(4)
    for cached, call in (
        (_all_colorings, lambda limits: all_colorings_family(3, 2, limits)),
        (_relabel_closure, lambda limits: is_relabel_closed(family, limits)),
    ):
        expected = call(first)
        hits = cached.cache_info().hits
        assert call(second) == expected
        assert cached.cache_info().hits == hits + 1


def test_member_order_does_not_depend_on_construction_order():
    from combspectra.characterize import antimagic_family

    members = list(colorings_of_graph(path_graph(4), integer_palette(3)))
    shuffled = members[:]
    Random(5).shuffle(shuffled)
    ordered = sorted(members, key=WeightedCompleteGraph.sort_key)
    a, b = GraphFamily(4, ordered), GraphFamily(4, shuffled)
    assert a.members == b.members == tuple(ordered)
    assert a.to_json() == b.to_json()
    verdict = antimagic_family(a)
    assert verdict.holds and verdict.to_json() == antimagic_family(b).to_json()
    totals = [m.total_weight() for m in shuffled]
    assert spectrum_of(b).values == spectrum_of(ordered).values
    assert Spectrum(totals).to_json() == Spectrum(totals[::-1]).to_json() == spectrum_of(a).to_json()


def test_family_algebra_sweeps_agree_at_order_5():
    # one order past the acceptance sweeps: 2^10 - 1 = 1023 members in the
    # fixpoint at n = 5, and every 2-coloring of the 30 connected graphs of
    # orders 2 to 5
    fixpoint = run_theorem("fixpoint", max_n=5)
    assert fixpoint["summary"]["disagreements"] == 0
    assert fixpoint["rows"][-1]["n"] == 5
    assert fixpoint["rows"][-1]["count"] == 1023
    colorings = run_theorem("colorings", max_n=5, ks=(2,))
    assert colorings["summary"] == {"tasks": 30, "rows": 30, "disagreements": 0}
