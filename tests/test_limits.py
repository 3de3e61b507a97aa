"""Limits: the deadline poll cadence and its validation."""

import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import combspectra
from combspectra import characterize, families, limits as limits_module, oracles, verify
from combspectra.errors import TimeLimitError
from combspectra.gadgets import indicator
from combspectra.graphs import SimpleGraph, complete_graph, cycle_graph, star_graph, to_graph6
from combspectra.limits import Limits


@pytest.fixture
def polls(monkeypatch):
    """The number of ``Limits.check_time`` calls so far, as ``polls[0]``."""
    count = [0]
    check_time = Limits.check_time

    def counted(self):
        count[0] += 1
        check_time(self)

    monkeypatch.setattr(Limits, "check_time", counted)
    return count


def _far_future() -> Limits:
    return Limits(deadline=time.time() + 3600)


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 8191, 8192, 59049])
def test_polled_polls_before_the_first_item_and_every_4096th(polls, size):
    assert list(_far_future().polled(range(size))) == list(range(size))
    assert polls[0] == 1 + size // 4096


def test_polled_without_a_deadline_polls_nothing(polls):
    assert list(Limits().polled(range(9000))) == list(range(9000))
    assert polls[0] == 0


@pytest.mark.parametrize("limits", [Limits(), _far_future()])
def test_polled_yields_items_appended_while_iterating(limits):
    # the relabel closure walks a list that grows under the loop
    seen = [1]
    for item in limits.polled(seen):
        if item < 5000:
            seen.append(item + 1)
    assert seen == list(range(1, 5001))


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda limits: oracles.edge_roman_oracle(complete_graph(5), limits), 15),
        (lambda limits: characterize.edge_roman_at_most(complete_graph(5), 3, limits), 15),
        (lambda limits: families.power_fixpoint(families.edge_deleted_family(5), limits), 22),
        # 2^13 vertex subsets
        (lambda limits: characterize.hamiltonian_cycle_spectrum(
            cycle_graph(14), replace(limits, max_n=14)), 3),
        # 7! = 5040 bijections
        (lambda limits: characterize.hamiltonian_spectrum(
            star_graph(7), complete_graph(7), limits), 2),
    ],
    ids=["edge_roman_oracle(K5)", "edge_roman_at_most(K5,3)", "power_fixpoint(deleted(5))",
         "hamiltonian_cycle_spectrum(C14)", "hamiltonian_spectrum(S7,K7)"],
)
def test_enumerations_poll_at_the_pinned_cadence(polls, call, expected):
    # a cached relabel closure is not polled, so build it afresh
    families._relabel_closure.cache_clear()
    call(_far_future())
    assert polls[0] == expected


def _fake_clock(monkeypatch, now) -> list:
    """Make ``now(reads)`` the time of every clock read of a deadline poll,
    where ``reads`` counts the reads so far; return that count's list."""
    reads = []

    def clock() -> float:
        reads.append(None)
        return now(len(reads))

    monkeypatch.setattr(limits_module, "time", SimpleNamespace(time=clock))
    return reads


# K5 less two disjoint edges: 8 edges, 3^8 = 6561 edge Roman colorings
K5_LESS_TWO = SimpleGraph(5, set(complete_graph(5).edges) - {(1, 2), (3, 4)})


@pytest.mark.parametrize(
    "call",
    [
        lambda limits: oracles.edge_roman_oracle(complete_graph(5), limits),
        lambda limits: families.colorings_of_graph(K5_LESS_TWO, families.ROMAN_PALETTE, limits),
        lambda limits: verify._full_product(
            families.singleton(indicator(complete_graph(6))),
            families.edge_deleted_family(6),
            limits,
        ),
    ],
    ids=["edge_roman_oracle(K5)", "colorings_of_graph", "full product"],
)
def test_deadline_passing_at_the_second_poll_stops_the_loop(monkeypatch, call):
    # the first clock read is before the deadline, every later one after it;
    # each loop has over 4096 items, so it polls again before the 4096th
    reads = _fake_clock(monkeypatch, lambda reads: 0.0 if reads == 1 else 2.0)
    with pytest.raises(TimeLimitError):
        call(Limits(deadline=1.0))
    assert len(reads) == 2


def test_edge_roman_weight_identity_pass_polls_the_deadline(monkeypatch):
    # the deadline passes once the pass has decoded its first coloring, so
    # the pass stops at the poll before its 4096th
    decoded = []
    decode = characterize.decode_edge_roman
    monkeypatch.setattr(
        characterize, "decode_edge_roman", lambda h, g: decoded.append(None) or decode(h, g)
    )
    _fake_clock(monkeypatch, lambda _reads: 2.0 if decoded else 0.0)
    rows = verify._THEOREMS["edge-roman"].rows
    with pytest.raises(TimeLimitError):
        rows(to_graph6(K5_LESS_TWO), K5_LESS_TWO, (), Limits(deadline=1.0))
    assert len(decoded) == 4095


def test_nan_deadline_is_rejected():
    # no time exceeds NaN, so such a deadline would never pass
    with pytest.raises(ValueError, match="NaN"):
        Limits(deadline=float("nan"))


def test_poll_cadence_lives_only_in_limits():
    package = Path(combspectra.__file__).parent
    holders = sorted(p.name for p in package.glob("*.py") if "4096" in p.read_text())
    assert holders == ["limits.py"]
