"""Acceptance suite: one test per criterion, printing a pass line each.

The criteria pit every spectrum characterization against its brute-force
oracle over the whole connected-graph corpus at desk scale, check the
algebraic identities the constructions rely on, and require byte-identical
reports across worker counts.  Sweeps are cached per (subject, workers) so
the determinism criterion can reuse them.
"""

import hashlib
import json
import os
import time

import pytest

from combspectra import verify as ver
from combspectra.characterize import (
    dominating_k,
    edge_roman_at_most,
    hamiltonian_number,
    hamiltonian_spectrum,
    strength_at_most,
)
from combspectra.graphs import complete_graph, cycle_graph, path_graph
from combspectra.limits import Limits
from combspectra.oracles import domination_oracle, edge_roman_oracle, strength_oracle

MAX_WORKERS = os.cpu_count() or 1

SWEEPS = {
    "colorings": {"max_n": 4, "ks": (2, 3)},
    "fixpoint": {"max_n": 4},
    "antimagic": {"max_n": 4},
    "irregular-strength": {"max_n": 5, "ks": (1, 2, 3)},
    "one-two-three": {"max_n": 5},
    "domination": {"max_n": 7},
    "edge-roman": {"max_n": 5},
    "hamiltonian": {"max_n": 6},
}

_cache: dict = {}


def sweep(subject: str, workers: int = 1):
    """Run (or reuse) a corpus sweep; returns (report, json_bytes, elapsed)."""
    key = (subject, workers)
    if key not in _cache:
        t0 = time.perf_counter()
        report = ver.run_theorem(subject, workers=workers, **SWEEPS[subject])
        elapsed = time.perf_counter() - t0
        blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
        _cache[key] = (report, blob, elapsed)
    return _cache[key]


def _passed(number: int, message: str, elapsed: float) -> None:
    print(f"PASS criterion {number}: {message} [{elapsed:.1f}s]")


def test_criterion_01_ring_soundness():
    t0 = time.perf_counter()
    report = ver.run_identity("ring-axioms", trials=1000, seed=1)
    elapsed = time.perf_counter() - t0
    row = report["rows"][0]
    assert row["failures"] == 0
    assert row["checks"] >= 1000
    assert elapsed < 5.0
    _passed(1, f"{row['checks']} randomized ring checks, 0 failures", elapsed)


def test_criterion_02_reader_identities():
    t0 = time.perf_counter()
    rows = []
    for name in ("S1", "E1", "R1"):
        rows.extend(ver.run_identity(name, ns=(3, 4, 5, 6))["rows"])
    elapsed = time.perf_counter() - t0
    assert len(rows) == 12
    assert all(row["agree"] for row in rows)
    assert elapsed < 5.0
    _passed(2, "reader-at-one identities exact for n=3..6", elapsed)


def test_criterion_03_coloring_family_identity():
    report, _blob, elapsed = sweep("colorings")
    assert report["summary"]["disagreements"] == 0
    for row in report["rows"]:
        assert row["family_count"] == row["direct_count"] == row["expected_count"]
    assert elapsed < 120.0
    _passed(
        3,
        f"family-algebra colorings equal direct enumeration on {report['summary']['tasks']} graphs",
        elapsed,
    )


def test_criterion_04_power_fixpoints():
    report, _blob, elapsed = sweep("fixpoint")
    rows = {row["n"]: row for row in report["rows"]}
    assert rows[3]["count"] == 7
    assert rows[3]["products"] <= 3
    assert rows[4]["count"] == 63
    assert all(row["agree"] for row in report["rows"])
    _passed(4, "deleted-edge power fixpoints have 7 and 63 members", elapsed)


def test_criterion_05_antimagic_equivalence():
    report, blob, elapsed = sweep("antimagic")
    assert report["summary"]["disagreements"] == 0
    # the sha256 of `verify --theorem antimagic --max-n 4 --json` stdout
    assert hashlib.sha256((blob + "\n").encode()).hexdigest() == (
        "bbd4176800a6f37e6f66f511feb105e9cab77fe460abe655f87ec111d7d6aed0"
    )
    from combspectra.characterize import antimagic_unweighted

    for g in (path_graph(3), path_graph(4), cycle_graph(3), cycle_graph(4),
              complete_graph(3), complete_graph(4)):
        assert antimagic_unweighted(g).holds
    assert not antimagic_unweighted(complete_graph(2)).holds
    assert elapsed < 300.0
    _passed(
        5,
        f"antimagic spectral = oracle on {report['summary']['tasks']} graphs",
        elapsed,
    )


def test_criterion_06_strength_equivalence():
    report, blob, elapsed = sweep("irregular-strength")
    assert report["summary"]["disagreements"] == 0
    # the sha256 of `verify --theorem irregular-strength --max-n 5 --json` stdout
    assert hashlib.sha256((blob + "\n").encode()).hexdigest() == (
        "8f40672e77c0150c44701df6da361d7184f0aad32eb52d080e4aff07d3549f12"
    )
    for g, expected in ((path_graph(3), 2), (path_graph(4), 2), (cycle_graph(3), 3)):
        assert strength_oracle(g, 3).value == expected
        assert strength_at_most(g, expected).holds
        assert not strength_at_most(g, expected - 1).holds
    assert elapsed < 600.0
    _passed(
        6,
        f"irregularity strength spectral = oracle, {report['summary']['rows']} rows",
        elapsed,
    )


def test_criterion_07_one_two_three_equivalence():
    report, blob, elapsed = sweep("one-two-three")
    assert report["summary"]["disagreements"] == 0
    # the sha256 of `verify --theorem one-two-three --max-n 5 --json` stdout
    assert hashlib.sha256((blob + "\n").encode()).hexdigest() == (
        "65bf07460fc326a67e033adf5785fbc502d2d0f46ed2f33c20c980527bcea82a"
    )
    assert all(row["spectral"] is True for row in report["rows"])
    assert all(row["oracle"] is True for row in report["rows"])
    assert elapsed < 1800.0
    _passed(
        7,
        f"labels 1-3 suffice and both routes agree on {report['summary']['tasks']} graphs",
        elapsed,
    )


def test_criterion_08_domination_equivalence():
    report, blob, elapsed = sweep("domination")
    assert report["summary"]["disagreements"] == 0
    # the sha256 of `verify --theorem domination --max-n 7 --json` stdout
    assert hashlib.sha256((blob + "\n").encode()).hexdigest() == (
        "d59987edaca473d42e7909bdab6e653f25b18b733d0dc0944128a9fbbd8be1c5"
    )
    assert dominating_k(path_graph(3), 1).holds
    assert not dominating_k(cycle_graph(4), 1).holds
    assert dominating_k(cycle_graph(4), 2).holds
    assert domination_oracle(path_graph(3), 1).value is True
    assert elapsed < 600.0
    _passed(
        8,
        f"domination spectral = oracle over {report['summary']['rows']} (graph, k) rows",
        elapsed,
    )


def test_criterion_09_edge_roman_equivalence():
    report, blob, elapsed = sweep("edge-roman")
    assert report["summary"]["disagreements"] == 0
    # the sha256 of `verify --theorem edge-roman --max-n 5 --json` stdout
    assert hashlib.sha256((blob + "\n").encode()).hexdigest() == (
        "21ad0cd061335ab98ba5950a64179da22c5b6600f4eeafc2044dcbdb34d0c6ab"
    )
    gammas = {row["graph"]: row["gamma"] for row in report["rows"] if row["k"] is None}
    assert len(gammas) == report["summary"]["tasks"]
    assert edge_roman_oracle(path_graph(3)).value == 2
    assert edge_roman_oracle(path_graph(4)).value == 2
    assert edge_roman_at_most(path_graph(3), 2).holds
    assert not edge_roman_at_most(path_graph(4), 1).holds
    assert elapsed < 1800.0
    _passed(
        9,
        f"edge Roman spectral = oracle, weight identity exact on {report['summary']['tasks']} graphs",
        elapsed,
    )


def test_criterion_10_hamiltonian_equivalence():
    report, _blob, elapsed = sweep("hamiltonian")
    assert report["summary"]["disagreements"] == 0
    assert hamiltonian_spectrum(cycle_graph(3), path_graph(3)).as_integers() == (4,)
    for n in range(3, 7):
        assert hamiltonian_number(cycle_graph(n)) == n
    assert elapsed < 120.0
    _passed(
        10,
        f"Hamiltonian numbers agree on {report['summary']['tasks']} graphs",
        elapsed,
    )


def test_hamiltonian_equivalence_at_order_seven():
    t0 = time.perf_counter()
    report = ver.run_theorem("hamiltonian", max_n=7)
    elapsed = time.perf_counter() - t0
    assert report["summary"] == {"rows": 994, "tasks": 994, "disagreements": 0}
    _passed(10, "Hamiltonian numbers agree on 994 graphs up to n=7", elapsed)


@pytest.mark.slow
def test_hamiltonian_equivalence_at_order_eight():
    # the pruned oracle and the spectral bitset recursion take about equal shares
    t0 = time.perf_counter()
    report = ver.run_theorem("hamiltonian", max_n=8, limits=Limits(max_n=8))
    elapsed = time.perf_counter() - t0
    assert report["summary"] == {"rows": 12111, "tasks": 12111, "disagreements": 0}
    _passed(10, "Hamiltonian numbers agree on 12111 graphs up to n=8", elapsed)


@pytest.mark.slow
def test_domination_equivalence_at_order_eight():
    t0 = time.perf_counter()
    report = ver.run_theorem("domination", max_n=8, limits=Limits(max_n=8))
    elapsed = time.perf_counter() - t0
    assert report["summary"] == {"rows": 83604, "tasks": 12112, "disagreements": 0}
    _passed(8, "domination agrees on 12112 graphs up to n=8", elapsed)


def test_criterion_11_worker_determinism():
    t0 = time.perf_counter()
    worker_counts = sorted({1, 2, MAX_WORKERS})
    for subject in SWEEPS:
        blobs = {w: sweep(subject, workers=w)[1] for w in worker_counts}
        baseline = blobs[1]
        for w, blob in blobs.items():
            assert blob == baseline, f"{subject} report differs at workers={w}"
    elapsed = time.perf_counter() - t0
    _passed(
        11,
        f"byte-identical reports for {len(SWEEPS)} subjects at workers {worker_counts}",
        elapsed,
    )
