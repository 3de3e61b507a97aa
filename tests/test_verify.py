"""Corpus sweeps in a process pool: dispatch order, batch size, worker count."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from combspectra import verify
from combspectra.graphs import parse_graph6
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
    subject, payload = task[:2]
    if subject == "fixpoint":
        return payload, payload * (payload - 1) // 2
    g = parse_graph6(payload)
    return g.n, g.m


def test_pool_starts_at_most_one_process_per_batch(pools):
    report = verify.run_theorem("fixpoint", max_n=3, workers=64)
    (pool,) = pools
    assert pool.max_workers <= 2
    assert pool.chunksize == 1
    assert [task[1] for task in pool.tasks] == [3, 2]
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
    limits_fields = (
        DEFAULT_LIMITS.max_n,
        DEFAULT_LIMITS.max_family,
        DEFAULT_LIMITS.max_steps,
        DEFAULT_LIMITS.deadline,
    )
    rows = verify._theorem_task(("domination", "Bw", (), limits_fields))
    assert [(row["graph"], row["k"], row["agree"]) for row in rows] == [
        ("Bw", 1, True),
        ("Bw", 2, True),
    ]


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
