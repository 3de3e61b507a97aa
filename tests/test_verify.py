"""Corpus sweeps: the stripes the tasks are dealt in, forked children, errors
raised or deaths in a child, failed forks, the deadline poll after each task,
and the per-k rows and witness checks of the theorem subjects."""

import dataclasses
import errno
import inspect
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from combspectra import characterize as ch
from combspectra import cli, oracles, verify
from combspectra.corpus import connected_graphs_up_to
from combspectra.errors import SizeGuardError, TimeLimitError, UsageError
from combspectra.gadgets import WeightedCompleteGraph, indicator
from combspectra.graphs import parse_graph6, to_graph6
from combspectra.limits import DEFAULT_LIMITS
from combspectra.ring import const


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stripes_deal_largest_first_in_turn():
    # planning only: nothing is forked
    sizes = [(g.n, g.m) for g in connected_graphs_up_to(6, 2)]
    assert len(sizes) == 142
    for workers in (2, 3, 10_000):
        stripes = verify._stripes(sizes, workers)
        assert len(stripes) == min(workers, len(sizes))
        assert sorted(i for stripe in stripes for i in stripe) == list(range(142))
        for stripe in stripes:
            assert [sizes[i] for i in stripe] == sorted((sizes[i] for i in stripe), reverse=True)
        assert max(map(len, stripes)) - min(map(len, stripes)) <= 1
        assert sizes[stripes[0][0]] == (6, 15)
    # fixpoint --max-n 4: K2, K3, K4
    assert verify._stripes([(2, 1), (3, 3), (4, 6)], 2) == [[2, 0], [1]]
    assert verify._stripes([(2, 1), (3, 3), (4, 6)], 10_000) == [[2], [1], [0]]


def test_sweep_forks_one_child_less_than_its_stripes(monkeypatch):
    fork = os.fork
    forks = []

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    # two tasks, K3 and K2, make two stripes: the caller takes one, a child the other
    report = verify.run_theorem("fixpoint", max_n=3, workers=64)
    assert len(forks) == 1
    _no_child_left()
    assert report == verify.run_theorem("fixpoint", max_n=3, workers=1)


def test_sweep_on_two_workers_keeps_corpus_order():
    report = verify.run_theorem("domination", max_n=6, workers=2)
    _no_child_left()
    assert report["summary"]["tasks"] == 142
    assert report == verify.run_theorem("domination", max_n=6, workers=1)


def test_sweep_on_three_workers_keeps_corpus_order():
    # three stripes of uneven length, more workers than a two-core machine has
    report = verify.run_theorem("domination", max_n=5, workers=3)
    _no_child_left()
    assert report["summary"]["tasks"] == 30
    assert report == verify.run_theorem("domination", max_n=5, workers=1)


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

    def overrunning(problem, g6, g, ks, limits):
        # outlasts the deadline without polling it itself
        started.append(g.n)
        while time.time() <= limits.deadline:
            time.sleep(0.01)
        return []

    _sweep_rows(monkeypatch, "fixpoint", overrunning)
    argv = ["verify", "--theorem", "fixpoint", "--max-n", "4", "--workers", str(workers),
            "--timeout-seconds", "0.5", "--json"]
    assert cli.main(argv) == cli.EXIT_TIMEOUT
    _no_child_left()
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "timeout"
    # the caller ran its first task, K4, the largest, and started no second
    assert started == [4]


def _sweep_rows(monkeypatch, subject, rows):
    """Make the sweep of ``subject`` build its rows by ``rows``."""
    monkeypatch.setattr(verify, "_PROBLEMS", tuple(
        dataclasses.replace(p, rows=rows) if p.theorem == subject else p
        for p in verify._PROBLEMS
    ))


def _fail_in_a_child(monkeypatch, fail):
    """Make the fixpoint row builder call ``fail()`` in a forked child: at
    two workers, ``fixpoint --max-n 4`` deals K4 and K2 to the caller and K3
    to the child."""
    caller = os.getpid()
    fixpoint = verify._problem("theorem", "fixpoint").rows

    def rows(problem, g6, g, ks, limits):
        if os.getpid() != caller:
            fail()
        return fixpoint(problem, g6, g, ks, limits)

    _sweep_rows(monkeypatch, "fixpoint", rows)


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
    _fail_in_a_child(monkeypatch, fail)
    argv = ["verify", "--theorem", "fixpoint", "--max-n", "4", "--workers", "2", "--json"]
    assert cli.main(argv) == code
    _no_child_left()
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == kind
    assert message in error["message"]
    if kind == "internal":
        assert error["message"].startswith("sweep worker 1 (pid ")


def test_an_error_in_the_caller_leaves_no_child(monkeypatch, capsys):
    caller = os.getpid()
    fixpoint = verify._problem("theorem", "fixpoint").rows

    def rows(problem, g6, g, ks, limits):
        if os.getpid() == caller:
            raise TimeLimitError("deadline passed in the caller")
        return fixpoint(problem, g6, g, ks, limits)

    _sweep_rows(monkeypatch, "fixpoint", rows)
    argv = ["verify", "--theorem", "fixpoint", "--max-n", "4", "--workers", "2", "--json"]
    assert cli.main(argv) == cli.EXIT_TIMEOUT
    _no_child_left()
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "timeout"


@pytest.mark.parametrize("failing", [1, 2])
def test_a_failed_fork_closes_its_pipe_and_leaves_no_child(monkeypatch, capsys, failing):
    fork, pipe = os.fork, os.pipe
    forks, pipes = [], []

    def forking():
        forks.append(1)
        if len(forks) == failing:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    def piping():
        ends = pipe()
        pipes.extend(ends)
        return ends

    monkeypatch.setattr(os, "fork", forking)
    monkeypatch.setattr(os, "pipe", piping)
    argv = ["verify", "--theorem", "fixpoint", "--max-n", "4", "--workers", "3", "--json"]
    assert cli.main(argv) == cli.EXIT_INTERNAL
    monkeypatch.undo()
    _no_child_left()
    assert len(pipes) == 2 * failing
    for fd in pipes:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "internal"
    assert error["message"].startswith(f"cannot fork sweep worker {failing}: ")


@pytest.mark.parametrize("failing", [1, 2])
def test_a_failed_pipe_ends_the_sweep_and_leaves_no_child(monkeypatch, capsys, failing):
    pipe = os.pipe
    forks, pipes = [], []

    def piping():
        if len(pipes) == 2 * (failing - 1):
            raise OSError(errno.EMFILE, "Too many open files")
        ends = pipe()
        pipes.extend(ends)
        return ends

    monkeypatch.setattr(os, "pipe", piping)
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ["verify", "--theorem", "fixpoint", "--max-n", "4", "--workers", "3", "--json"]
    assert cli.main(argv) == cli.EXIT_INTERNAL
    monkeypatch.undo()
    _no_child_left()
    assert len(forks) == failing - 1
    for fd in pipes:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "internal"
    assert error["message"] == (
        f"cannot open a pipe for sweep worker {failing}: [Errno 24] Too many open files"
    )


def test_theorem_task_takes_one_task_tuple():
    # The benchmark's trace wraps this function by name, one span per task;
    # a task carries its problem's record, so no task looks its subject up.
    assert list(inspect.signature(verify._theorem_task).parameters) == ["args"]
    domination = verify._problem("theorem", "domination")
    rows = verify._theorem_task((domination, "Bw", parse_graph6("Bw"), (), DEFAULT_LIMITS))
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("subject", ["domination", "hamiltonian"])
def test_a_sweep_reports_the_same_bytes_whoever_built_the_corpus_masks(capsys, subject, workers):
    # the rows read the corpus graphs themselves, so a sweep finds their
    # neighbour bitmasks unbuilt, or kept from an earlier sweep
    graphs = connected_graphs_up_to(5)
    for g in graphs:
        g._masks = None
    argv = ["verify", "--theorem", subject, "--max-n", "5", "--workers", str(workers), "--json"]
    assert cli.main(argv) == 0
    cleared = capsys.readouterr().out
    # this process ran a stripe, whose graphs keep the masks it built
    assert any(g._masks is not None for g in graphs)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == cleared
    assert json.loads(cleared)["summary"]["disagreements"] == 0


def test_domination_rows_match_a_fresh_oracle_search_per_k():
    # the rows read the oracle at every k from one search for gamma
    rows = verify.run_theorem("domination", max_n=5)["rows"]
    assert len(rows) == 107  # sum of n - 1 over the 30 graphs of orders 2..5
    for row in rows:
        g = parse_graph6(row["graph"])
        assert row["oracle"] == oracles.domination_oracle(g, row["k"]).value, row


def test_domination_sweep_searches_the_oracle_only_up_to_gamma(monkeypatch):
    number, subset, search = (
        oracles.domination_number, oracles._dominating_subset, oracles.domination_oracle
    )
    graphs = connected_graphs_up_to(5, 2)
    gammas = [next(k for k in range(1, g.n + 1) if search(g, k).value) for g in graphs]
    numbers, per_graph, searched = [], {}, []

    def counting_number(g, limits=DEFAULT_LIMITS):
        numbers.append(g)
        start = len(searched)
        result = number(g, limits)
        per_graph.setdefault(g, []).extend(searched[start:])
        return result

    def counting_subset(closed, k, limits):
        searched.append(k)
        return subset(closed, k, limits)

    def per_k_oracle(g, k, limits=DEFAULT_LIMITS):
        raise AssertionError("the sweep finds gamma without domination_oracle")

    monkeypatch.setattr(oracles, "domination_number", counting_number)
    monkeypatch.setattr(oracles, "_dominating_subset", counting_subset)
    monkeypatch.setattr(oracles, "domination_oracle", per_k_oracle)
    verify.run_theorem("domination", max_n=5)
    # one gamma search per graph, in which the per-k searches run k = 1..gamma;
    # the tasks run largest first, so the searches are compared per graph
    assert len(numbers) == len(graphs) and set(numbers) == set(graphs)
    assert per_graph == {g: list(range(1, gamma + 1)) for g, gamma in zip(graphs, gammas)}
    assert len(searched) == sum(gammas) == 42 < sum(g.n - 1 for g in graphs) == 107


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
        ("domination", "dominating_witnesses"),
        ("edge-roman", "edge_roman_at_most"),
    ],
)
def test_bound_rows_look_their_search_up_when_the_sweep_runs(monkeypatch, subject, search):
    # the benchmark's trace replaces these module attributes, so a table
    # filled at import would keep the unwrapped function; the domination
    # search answers every k of a graph in one call
    original = getattr(ch, search)
    calls = []

    def counting(g, *args):
        calls.append(g)
        return original(g, *args)

    monkeypatch.setattr(ch, search, counting)
    rows = [row for row in verify.run_theorem(subject, max_n=4)["rows"] if row["k"] is not None]
    searched = {row["graph"] for row in rows} if subject == "domination" else rows
    assert len(calls) == len(searched) > 0


def test_every_labeling_has_an_orbit_row_and_a_definition():
    # each labeling is named by exactly one problem record, which gives the
    # definition its witnesses are checked by, and no record names another
    rows = verify.run_identity("orbit", ns=(3,), trials=5)["rows"]
    searches = {row["search"] for row in rows}
    for name in ch._LABELINGS:
        named = [p for p in verify._PROBLEMS if p.labeling == name]
        assert len(named) == 1 and named[0].definition is not None, name
        assert name in searches, name
    assert {p.labeling for p in verify._PROBLEMS} - {None} == set(ch._LABELINGS)


@pytest.mark.parametrize(
    "subject, search, oracle",
    [
        ("antimagic", "antimagic_unweighted", "antimagic_oracle"),
        ("irregular-strength", "strength_at_most", "strength_oracle"),
        ("one-two-three", "one_two_three", "chi_sigma_oracle"),
        ("domination", "dominating_witnesses", "domination_number"),
        ("edge-roman", "edge_roman_at_most", "edge_roman_oracle"),
        ("hamiltonian", "hamiltonian_number", "hamiltonian_oracle"),
    ],
)
def test_every_sweep_looks_its_search_and_oracle_up_when_it_runs(
    monkeypatch, subject, search, oracle
):
    # the benchmark's trace replaces module attributes after import, so no
    # record may keep the function it found when the registry was filled
    calls = []
    for module, name in ((ch, search), (oracles, oracle)):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    verify.run_theorem(subject, max_n=4)
    assert search in calls and oracle in calls


def test_the_late_binding_sweeps_are_every_sweep_with_a_search_and_an_oracle():
    listed = {"antimagic", "irregular-strength", "one-two-three", "domination", "edge-roman",
              "hamiltonian"}
    assert {p.theorem for p in verify._PROBLEMS if p.search and p.brute} == listed
    assert {p.theorem for p in verify._PROBLEMS} - listed == {"colorings", "fixpoint"}


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
    def last_k(g, _limits):
        return [tuple(range(1, g.n + 1))] * (g.n - 1)

    def all_ones(g, k, _limits):
        return ch.Verdict(True, witness_graph=WeightedCompleteGraph.zero(g.n))

    monkeypatch.setattr(ch, "dominating_witnesses", last_k)
    rows = verify.run_theorem("domination", max_n=4)["rows"]
    for row in rows:
        g, tail = parse_graph6(row["graph"]), set(range(row["n"] - row["k"] + 1, row["n"] + 1))
        dominated = all(v in tail or g.neighbors(v) & tail for v in range(1, g.n + 1))
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
