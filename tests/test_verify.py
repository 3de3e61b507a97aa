"""Corpus sweeps: batch order and count, forked children, errors raised or
deaths in a child, the deadline poll after each task, and the per-k rows and
witness checks of the theorem subjects."""

import dataclasses
import inspect
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from combspectra import characterize as ch
from combspectra import cli, corpus, oracles, verify
from combspectra.corpus import connected_graphs_up_to
from combspectra.errors import SizeGuardError, TimeLimitError, UsageError
from combspectra.gadgets import WeightedCompleteGraph, indicator
from combspectra.graphs import parse_graph6, to_graph6
from combspectra.limits import DEFAULT_LIMITS
from combspectra.ring import const


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batches_go_largest_first_in_sizes_set_per_worker():
    sizes = [(g.n, g.m) for g in connected_graphs_up_to(6, 2)]
    batches = verify._batches(sizes, 2)
    order = [i for batch in batches for i in batch]
    assert sorted(order) == list(range(len(sizes))) == list(range(142))
    assert [sizes[i] for i in order] == sorted(sizes, reverse=True)
    assert sizes[order[0]] == (6, 15)
    size = 142 // (verify._BATCHES_PER_WORKER * 2)
    assert [len(b) for b in batches] == [size] * 17 + [142 - 17 * size]


def test_batch_count_fits_one_atomic_queue_write():
    # planning only: nothing is forked
    cap = select.PIPE_BUF // 4
    batches = verify._batches([(7, i % 21) for i in range(5000)], workers=10_000)
    assert len(batches) <= cap
    assert sorted(i for batch in batches for i in batch) == list(range(5000))
    assert verify._batches([(2, 1)] * 3, workers=10_000) == [[0], [1], [2]]


def test_sweep_forks_one_child_less_than_its_batches(monkeypatch):
    fork = os.fork
    forks = []

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    # two tasks, K3 and K2, make two batches: the caller takes one, a child the other
    report = verify.run_theorem("fixpoint", max_n=3, workers=64)
    assert len(forks) == 1
    _no_child_left()
    assert report == verify.run_theorem("fixpoint", max_n=3, workers=1)


def test_sweep_on_two_workers_keeps_corpus_order():
    report = verify.run_theorem("domination", max_n=6, workers=2)
    _no_child_left()
    assert report["summary"]["tasks"] == 142
    assert report == verify.run_theorem("domination", max_n=6, workers=1)


def test_sweep_without_fork_runs_in_the_caller(monkeypatch):
    # with os.fork deleted, any attempt to fork fails the sweep
    monkeypatch.delattr(os, "fork")
    report = verify.run_theorem("fixpoint", max_n=4, workers=2)
    monkeypatch.undo()
    assert report == verify.run_theorem("fixpoint", max_n=4, workers=1)


def test_one_worker_sweep_forks_nothing(monkeypatch):
    multi = verify.run_theorem("domination", max_n=5, workers=2)

    def refused():
        raise AssertionError("a one-worker sweep forked")

    monkeypatch.setattr(os, "fork", refused)
    assert verify.run_theorem("domination", max_n=5, workers=1) == multi


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_polls_the_deadline_after_each_task(monkeypatch, capsys, workers):
    started = []

    def overrunning(g6, g, ks, limits):
        # outlasts the deadline without polling it itself
        started.append(g.n)
        while time.time() <= limits.deadline:
            time.sleep(0.01)
        return []

    theorem = dataclasses.replace(verify._THEOREMS["fixpoint"], rows=overrunning)
    monkeypatch.setitem(verify._THEOREMS, "fixpoint", theorem)
    argv = ["verify", "--theorem", "fixpoint", "--max-n", "4", "--workers", str(workers),
            "--timeout-seconds", "0.5", "--json"]
    assert cli.main(argv) == cli.EXIT_TIMEOUT
    _no_child_left()
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "timeout"
    # the caller ran its first task and started no second; at one worker that
    # task is K4, the largest, but at two a child may take K4's batch first
    if workers == 1:
        assert started == [4]
    else:
        assert len(started) == 1


def _fail_in_a_child(monkeypatch, fail):
    """Make the fixpoint row builder call ``fail()`` in a forked child.

    The caller's first task waits until every child has exited, so a child
    takes at least one of the three batches of ``fixpoint --max-n 4``."""
    caller = os.getpid()
    theorem = verify._THEOREMS["fixpoint"]
    gate, held = os.pipe()  # read end, write end; each child inherits both
    open_ends = [gate, held]

    def rows(g6, g, ks, limits):
        if os.getpid() != caller:
            fail()
        if held in open_ends:
            os.close(held)
            open_ends.remove(held)
            assert os.read(gate, 1) == b""  # every write end is closed
        return theorem.rows(g6, g, ks, limits)

    monkeypatch.setitem(verify._THEOREMS, "fixpoint", dataclasses.replace(theorem, rows=rows))
    return open_ends


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _exits_3():
    os._exit(3)


def _out_of_time():
    raise TimeLimitError("deadline passed in a worker")


def _too_large():
    raise SizeGuardError("family too large in a worker")


@pytest.mark.parametrize(
    "fail, code, kind, message",
    [
        (_killed, cli.EXIT_INTERNAL, "internal", "was killed by signal 9"),
        (_exits_3, cli.EXIT_INTERNAL, "internal", "exited with status 3"),
        (_out_of_time, cli.EXIT_TIMEOUT, "timeout", "deadline passed in a worker"),
        (_too_large, cli.EXIT_SIZE_GUARD, "size-guard", "family too large in a worker"),
    ],
    ids=["killed", "exits-3", "time-limit", "size-guard"],
)
def test_a_failing_child_maps_to_its_exit_code(monkeypatch, capsys, fail, code, kind, message):
    open_ends = _fail_in_a_child(monkeypatch, fail)
    try:
        argv = ["verify", "--theorem", "fixpoint", "--max-n", "4", "--workers", "2", "--json"]
        assert cli.main(argv) == code
    finally:
        for fd in open_ends:
            os.close(fd)
    _no_child_left()
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == kind
    assert message in error["message"]
    if kind == "internal":
        assert error["message"].startswith("sweep worker 1 (pid ")


def test_an_error_in_the_caller_leaves_no_child(monkeypatch, capsys):
    caller = os.getpid()
    theorem = verify._THEOREMS["fixpoint"]

    def rows(g6, g, ks, limits):
        if os.getpid() == caller:
            raise TimeLimitError("deadline passed in the caller")
        return theorem.rows(g6, g, ks, limits)

    monkeypatch.setitem(verify._THEOREMS, "fixpoint", dataclasses.replace(theorem, rows=rows))
    argv = ["verify", "--theorem", "fixpoint", "--max-n", "4", "--workers", "2", "--json"]
    assert cli.main(argv) == cli.EXIT_TIMEOUT
    _no_child_left()
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "timeout"


def test_theorem_task_takes_one_task_tuple():
    # The benchmark's trace wraps this function by name, one span per task.
    assert list(inspect.signature(verify._theorem_task).parameters) == ["args"]
    rows = verify._theorem_task(("domination", "Bw", parse_graph6("Bw"), (), DEFAULT_LIMITS))
    assert [(row["graph"], row["k"], row["agree"]) for row in rows] == [
        ("Bw", 1, True),
        ("Bw", 2, True),
    ]


def _replace_everywhere(monkeypatch, func, replacement) -> None:
    """Bind ``replacement`` at every name a module of the package binds
    ``func`` by."""
    for name, module in list(sys.modules.items()):
        if name == "combspectra" or name.startswith("combspectra."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, replacement)


def test_each_graph_is_encoded_once_per_task(monkeypatch):
    # a corpus sweep names each graph by the line the corpus kept, so it
    # encodes and decodes nothing; fixpoint encodes each K_n once
    connected_graphs_up_to(5)
    encoded, decoded = [], []
    _replace_everywhere(monkeypatch, to_graph6, lambda g: encoded.append(g) or to_graph6(g))
    _replace_everywhere(
        monkeypatch, parse_graph6, lambda line: decoded.append(line) or parse_graph6(line)
    )
    assert verify.run_theorem("domination", max_n=5)["summary"]["tasks"] == 30
    assert encoded == decoded == []
    assert verify.run_theorem("fixpoint", max_n=5)["summary"]["tasks"] == len(encoded) == 4
    assert len(set(encoded)) == len(encoded)
    assert decoded == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_corpus_sweep_runs_without_graph6_code(monkeypatch, workers):
    expected = verify.run_theorem("domination", max_n=5, workers=workers)

    def refused(*_args):
        raise AssertionError("a corpus sweep encoded or decoded graph6")

    for func in (to_graph6, parse_graph6):
        _replace_everywhere(monkeypatch, func, refused)
    monkeypatch.setattr(verify, "parse_graph6", refused, raising=False)
    assert verify.run_theorem("domination", max_n=5, workers=workers) == expected


def test_a_sweep_builds_no_table_on_the_corpus_graphs(monkeypatch):
    # each task's rows read a copy of its graph, so the lazy adjacency and
    # bitmask tables are freed with the task, not kept for the process
    monkeypatch.setattr(corpus, "_ORDERS", {})
    verify.run_theorem("domination", max_n=5)
    graphs = connected_graphs_up_to(5, 2)
    assert len(graphs) == 30
    assert all(g._adj is None and g._masks is None for g in graphs)


def test_domination_rows_match_a_fresh_oracle_search_per_k():
    # the rows read the oracle at every k from one search for gamma
    rows = verify.run_theorem("domination", max_n=5)["rows"]
    assert len(rows) == 107  # sum of n - 1 over the 30 graphs of orders 2..5
    for row in rows:
        g = parse_graph6(row["graph"])
        assert row["oracle"] == oracles.domination_oracle(g, row["k"]).value, row


def test_domination_sweep_searches_the_oracle_only_up_to_gamma(monkeypatch):
    search = oracles.domination_oracle
    calls = []

    def counting(g, k, limits=DEFAULT_LIMITS):
        calls.append((g, k))
        return search(g, k, limits)

    monkeypatch.setattr(oracles, "domination_oracle", counting)
    verify.run_theorem("domination", max_n=5)
    graphs = connected_graphs_up_to(5, 2)
    gammas = [next(k for k in range(1, g.n + 1) if search(g, k).value) for g in graphs]
    # the tasks run largest first, so the calls are compared per graph
    per_graph: dict = {}
    for g, k in calls:
        per_graph.setdefault(g, []).append(k)
    assert per_graph == {g: list(range(1, gamma + 1)) for g, gamma in zip(graphs, gammas)}
    assert len(calls) == sum(gammas) == 42 < sum(g.n - 1 for g in graphs) == 107


def test_sweeps_stop_at_the_graph6_order_cap():
    with pytest.raises(UsageError, match="up to 62, got max_n=63"):
        verify.run_theorem("fixpoint", max_n=63)


def test_importing_the_cli_loads_no_pool():
    # only sweeps fork, and only they need pickle and signal;
    # and the package has no runtime dependency: networkx and the test tools
    # are for the tests alone
    code = (
        "import sys, combspectra.cli; print(sorted(m for m in sys.modules"
        " if m.startswith(('concurrent', 'multiprocessing')) or m in ('pickle', 'signal')"
        " or m.split('.')[0] in ('networkx', 'hypothesis', 'pytest', '_pytest')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "subject, search",
    [
        ("irregular-strength", "strength_at_most"),
        ("domination", "dominating_k"),
        ("edge-roman", "edge_roman_at_most"),
    ],
)
def test_bound_rows_look_their_search_up_when_the_sweep_runs(monkeypatch, subject, search):
    # the benchmark's trace replaces these module attributes, so a table
    # filled at import would keep the unwrapped function
    original = getattr(ch, search)
    calls = []

    def counting(g, k, limits):
        calls.append((g, k))
        return original(g, k, limits)

    monkeypatch.setattr(ch, search, counting)
    rows = verify.run_theorem(subject, max_n=4)["rows"]
    assert len(calls) == sum(1 for row in rows if row["k"] is not None) > 0


def test_every_labeling_has_an_orbit_row_and_a_definition():
    rows = verify.run_identity("orbit", ns=(3,), trials=5)["rows"]
    searches = {row["search"] for row in rows}
    assert set(ch._LABELINGS) <= searches
    assert list(verify._DEFINITIONS) == list(ch._LABELINGS)


def _all_ones(g, *_args):
    """A search that holds with the all-ones labeling of g as its witness."""
    return ch.Verdict(True, witness_graph=indicator(g))


@pytest.mark.parametrize(
    "subject, search",
    [
        ("antimagic", "antimagic_unweighted"),
        ("irregular-strength", "strength_at_most"),
        ("one-two-three", "one_two_three"),
    ],
)
def test_labeling_rows_catch_a_wrong_witness(monkeypatch, subject, search):
    monkeypatch.setattr(ch, search, _all_ones)
    report = verify.run_theorem(subject, max_n=4)
    rows = report["rows"]
    ones = [
        oracles._locally_irregular(g, dict.fromkeys(g.edges, 1))
        for g in map(parse_graph6, (row["graph"] for row in rows))
    ]
    # all ones are never irregular (two vertices share a degree) nor, with
    # more than one edge, a bijection onto 1..m; they are locally irregular
    # on the stars of orders 3 and 4
    expected = ones if subject == "one-two-three" else [False] * len(rows)
    assert [row["witness_ok"] for row in rows] == expected
    assert report["summary"]["disagreements"] == expected.count(False) > 0


def test_bound_rows_catch_a_wrong_witness(monkeypatch):
    # domination: the identity bijection offers the last k vertices as the
    # dominating set; edge Roman: the zero coloring decodes to all ones,
    # of weight m > k
    def last_k(g, k, _limits):
        return ch.Verdict(True, witness_bijection=tuple(range(1, g.n + 1)))

    def all_ones(g, k, _limits):
        return ch.Verdict(True, witness_graph=WeightedCompleteGraph.zero(g.n))

    monkeypatch.setattr(ch, "dominating_k", last_k)
    rows = verify.run_theorem("domination", max_n=4)["rows"]
    for row in rows:
        g, tail = parse_graph6(row["graph"]), set(range(row["n"] - row["k"] + 1, row["n"] + 1))
        dominated = all(v in tail or g.adjacency[v - 1] & tail for v in range(1, g.n + 1))
        assert row["witness_ok"] == dominated and row["agree"] == (dominated and row["oracle"])
    assert not all(row["agree"] for row in rows)
    monkeypatch.setattr(ch, "edge_roman_at_most", all_ones)
    rows = [row for row in verify.run_theorem("edge-roman", max_n=4)["rows"] if row["k"]]
    assert rows and not any(row["witness_ok"] or row["agree"] for row in rows)

    # a witness weight off the {0, -1, y} palette fails its row, not the sweep
    def off_palette(g, k, _limits):
        return ch.Verdict(True, witness_graph=indicator(g).scale(const(2)))

    monkeypatch.setattr(ch, "edge_roman_at_most", off_palette)
    rows = [row for row in verify.run_theorem("edge-roman", max_n=3)["rows"] if row["k"]]
    assert rows and not any(row["witness_ok"] or row["agree"] for row in rows)
