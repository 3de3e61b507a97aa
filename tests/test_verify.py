"""Corpus sweeps in a process pool: dispatch order, batch size, worker count."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from combspectra import oracles, verify
from combspectra.corpus import connected_graphs_up_to
from combspectra.errors import UsageError
from combspectra.graphs import parse_graph6, to_graph6
from combspectra.limits import DEFAULT_LIMITS


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records what the sweep asks of the
    pool and runs the tasks in this process, starting none."""

    def __init__(self, pools, max_workers):
        self.max_workers = max_workers
        self.chunksize = None
        self.tasks = None
        pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        self.tasks = list(tasks)
        self.chunksize = chunksize
        return map(fn, self.tasks)


@pytest.fixture()
def pools(monkeypatch):
    recorded = []
    # the sweep imports the pool class from its module when it needs a pool
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor",
        lambda max_workers: RecordingPool(recorded, max_workers),
    )
    return recorded


def _size(task):
    g = parse_graph6(task[1])
    return g.n, g.m


def test_pool_starts_at_most_one_process_per_batch(pools):
    report = verify.run_theorem("fixpoint", max_n=3, workers=64)
    (pool,) = pools
    assert pool.max_workers <= 2
    assert pool.chunksize == 1
    # one task per order, carrying K_n
    assert [_size(task) for task in pool.tasks] == [(3, 3), (2, 1)]
    assert report == verify.run_theorem("fixpoint", max_n=3, workers=1)


def test_pool_sends_largest_first_in_batches_and_keeps_corpus_order(pools):
    report = verify.run_theorem("domination", max_n=6, workers=2)
    (pool,) = pools
    sizes = [_size(task) for task in pool.tasks]
    assert len(sizes) == report["summary"]["tasks"] == 142
    assert sizes[0] == (6, 15)
    assert sizes == sorted(sizes, reverse=True)
    assert pool.chunksize > 1
    assert pool.max_workers <= -(-len(sizes) // pool.chunksize)
    assert report == verify.run_theorem("domination", max_n=6, workers=1)


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
    # only --workers > 1 sweeps need concurrent.futures and multiprocessing
    code = (
        "import sys, combspectra.cli; print(sorted(m for m in sys.modules"
        " if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
