"""Corpus sweeps on several workers: batch order and count, forked children,
errors raised or deaths in a child."""

import dataclasses
import inspect
import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from combspectra import cli, oracles, verify
from combspectra.corpus import connected_graphs_up_to
from combspectra.errors import SizeGuardError, TimeLimitError, UsageError
from combspectra.graphs import parse_graph6, to_graph6
from combspectra.limits import DEFAULT_LIMITS


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
    def unused(*args):
        raise AssertionError("no worker may start without os.fork")

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(verify, "_pool_results", unused)
    report = verify.run_theorem("fixpoint", max_n=4, workers=2)
    monkeypatch.undo()
    assert report == verify.run_theorem("fixpoint", max_n=4, workers=1)


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
    rows = verify._theorem_task(("domination", "Bw", (), DEFAULT_LIMITS))
    assert [(row["graph"], row["k"], row["agree"]) for row in rows] == [
        ("Bw", 1, True),
        ("Bw", 2, True),
    ]


def test_each_graph_is_encoded_once_per_task(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return to_graph6(g)

    monkeypatch.setattr(verify, "to_graph6", counting)
    report = verify.run_theorem("domination", max_n=5)
    assert len(calls) == report["summary"]["tasks"] == 30
    assert len(set(calls)) == len(calls)


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
    assert calls == [(g, k) for g, gamma in zip(graphs, gammas) for k in range(1, gamma + 1)]
    assert len(calls) == sum(gammas) == 42 < sum(g.n - 1 for g in graphs) == 107


def test_sweeps_stop_at_the_graph6_order_cap():
    with pytest.raises(UsageError, match="up to 62, got max_n=63"):
        verify.run_theorem("fixpoint", max_n=63)


def test_importing_the_cli_loads_no_pool():
    # only --workers > 1 sweeps fork, and only they need pickle and signal
    code = (
        "import sys, combspectra.cli; print(sorted(m for m in sys.modules"
        " if m.startswith(('concurrent', 'multiprocessing')) or m in ('pickle', 'signal')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
